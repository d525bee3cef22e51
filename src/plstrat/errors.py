"""Exception hierarchy shared by all modules.

Each class carries the process exit code the CLI returns for it, as its
`exit_code` attribute, and a subclass inherits its base's code unless it
sets its own: bad or ill-formed input is 1 (`PLStratError` and all it
does not say otherwise of), genericity and degeneracy failures are 2
(`GenericityError`, `DegeneracyError`), internal invariant breaches are 3
(`InternalError`).  This is the one table of exit codes.
"""
from __future__ import annotations


class PLStratError(Exception):
    """Base class for all package errors."""
    exit_code = 1


class InputError(PLStratError):
    """Unparseable or ill-formed input data."""


class StructuralError(PLStratError):
    """A structural precondition is violated (face closure, purity,
    disjointness, poset axioms, carrier mismatch and the like)."""


class NotAMemberError(StructuralError):
    """A simplex or cell was expected in a complex/carrier but is absent."""


class EmptyComplexError(StructuralError):
    """An operation that needs a nonempty complex received an empty one."""


class GenericityError(PLStratError):
    """The input is not in general position (ties, degenerate images,
    non-transverse crossings).  Never silently perturbed."""
    exit_code = 2


class DegeneracyError(GenericityError):
    """A sampling or matching step could not be resolved unambiguously."""


class InternalError(PLStratError):
    """An internal invariant failed; indicates a bug, not bad input."""
    exit_code = 3
