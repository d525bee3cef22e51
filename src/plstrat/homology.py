"""Reduced simplicial homology with Z/2 coefficients.

Chain groups are handled as bit-packed Python integers (one bit per basis
simplex) and ranks come from column reduction, which is plenty for the link
complexes this package feeds in.  The chain complex is augmented: the empty
simplex generates degree -1, so the empty complex has reduced Betti number
one in degree -1 and a cone has none at all.
"""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex
from .errors import InternalError


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers; index -1 is the augmentation degree."""
    reduced: tuple  # entry i corresponds to degree i-1

    def __getitem__(self, degree: int) -> int:
        i = degree + 1
        if 0 <= i < len(self.reduced):
            return self.reduced[i]
        return 0

    @property
    def is_trivial(self) -> bool:
        return not any(self.reduced)

    def as_dict(self) -> dict:
        return {i - 1: b for i, b in enumerate(self.reduced)}


def _rank_mod2(columns: list[int]) -> int:
    """Rank of a GF(2) matrix given as bitmask columns."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            p = col.bit_length() - 1
            if p in pivots:
                col ^= pivots[p]
            else:
                pivots[p] = col
                rank += 1
                break
    return rank


def boundary_columns(k: SimplicialComplex) -> dict[int, list[int]]:
    """Bitmask columns of every boundary map of the augmented complex.

    Key d maps d-simplices to (d-1)-simplices; d = 0 maps vertices onto the
    empty simplex (a single all-ones row).  Each dimension's simplices are
    taken in one pass, in no particular order: ranks do not depend on it.
    """
    by_dim: list[list] = [[] for _ in range(k.dimension + 1)]
    for s in k.simplices:
        by_dim[len(s) - 1].append(s)
    cols: dict[int, list[int]] = {}
    for d, ss in enumerate(by_dim):
        if d == 0:
            cols[0] = [1] * len(ss)
            continue
        lower = {s: 1 << i for i, s in enumerate(by_dim[d - 1])}
        cols[d] = [sum(lower[f] for f in s.boundary()) for s in ss]
    return cols


def reduced_betti(k: SimplicialComplex) -> BettiVector:
    """Reduced Z/2 Betti numbers in degrees -1 .. dim."""
    dim = k.dimension
    cols = boundary_columns(k)
    # one column per simplex, and the empty simplex in degree -1
    counts = {d: len(cs) for d, cs in cols.items()}
    counts[-1] = 1
    ranks = {d: _rank_mod2(cs) for d, cs in cols.items()}

    betti = []
    for d in range(-1, dim + 1):
        kernel = counts[d] - ranks.get(d, 0)  # rank of boundary out of degree d
        img = ranks.get(d + 1, 0)
        b = kernel - img
        if b < 0:
            raise InternalError(f"negative Betti number in degree {d}")
        betti.append(b)
    return BettiVector(tuple(betti))


def is_h_nontrivial(k: SimplicialComplex) -> bool:
    """True iff some reduced Betti number (including degree -1) is nonzero."""
    return not reduced_betti(k).is_trivial
