"""Command line interface.

Exit codes: 0 success, otherwise the `exit_code` of the package error that
ended the run (see `errors`); a usage error is 1.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import io as fmt
from .arrangement import (SingularLocus, build_codomain_stratification,
                          coarseness_check, render_svg,
                          stratify_singular_locus)
from .complexes import Simplex, manifold_check
from .errors import GenericityError, InputError, PLStratError
from .jacobi import PLMap, check_generic, domain_stratification, jacobi_set
from .posets import _maximal_chains
from .reeb import (check_stein_square, interval_fiber_audit, reeb_graph,
                   reeb_scaffold, stratum_fiber_audit)

NOTION_CHOICES = ("H", "D", "L")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; that code is reserved here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        _write(out, text)


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def _load(args):
    """The map or drawn contour in the input file or the bundled example,
    exactly one of them, which must be of the kind the command reads
    (`args.kind`, None for either)."""
    if args.example is not None and args.input is not None:
        raise InputError(f"give an input file or --example, not both "
                         f"({args.input} and --example {args.example})")
    if args.example is not None:
        obj, source = fmt.example_input(args.example), f"example {args.example!r}"
    elif args.input is not None:
        obj, source = fmt.load_input(args.input), args.input
    else:
        raise InputError("provide an input file or --example NAME")
    kinds = {"map": PLMap, "contour": SingularLocus}
    if args.kind is not None and not isinstance(obj, kinds[args.kind]):
        raise InputError(f"{source} is not a {args.kind}")
    return obj


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _validate_doc(f, gen, man) -> dict:
    return {"k": f.k,
            "vertices": len(f.domain.vertices),
            "simplices": len(f.domain.sorted_simplices()),
            "genericity": fmt.genericity_to_dict(gen),
            "manifold": fmt.manifold_to_dict(man)}


def _genericity_error(gen, stage: str = "") -> GenericityError:
    """The error a failed genericity audit ends the run with, after its
    report is written: the rule, detail and witness of the first violation
    in the input's labels, a simplex in braces, and how many there are."""
    rule, witness, detail = gen.violations[0]
    parts = witness if type(witness) is tuple else (witness,)
    at = " and ".join("{" + ", ".join(map(str, p)) + "}" if isinstance(p, Simplex)
                      else str(p) for p in parts)
    n = len(gen.violations)
    return GenericityError(f"{stage}{rule} {detail} at {at} "
                           f"({n} violation{'s' if n > 1 else ''})")


def _locus_doc(ls) -> dict:
    coarse, removable = coarseness_check(ls)
    doc = fmt.locus_stratification_to_dict(ls)
    doc["coarse"] = coarse
    doc["removable"] = removable
    return doc


def _stratum_audit_doc(ok, per_stratum) -> dict:
    return {"passed": ok,
            "per_stratum": {s: list(c) for s, c in sorted(per_stratum.items())}}


def cmd_validate(args) -> int:
    f = _load(args)
    gen = check_generic(f)
    man = manifold_check(f.domain)
    _emit(fmt.canonical_dumps(_validate_doc(f, gen, man)), args.out)
    if not gen.passed:
        raise _genericity_error(gen)
    return 0


def cmd_jacobi(args) -> int:
    f = _load(args)
    j = jacobi_set(f, args.notion)
    _emit(fmt.canonical_dumps(fmt.jacobi_report_dict(f, j)), args.out)
    return 0


def cmd_stratify_domain(args) -> int:
    f = _load(args)
    space = domain_stratification(f, jacobi_set(f, args.notion))
    _emit(fmt.canonical_dumps(fmt.stratified_space_to_dict(space)), args.out)
    return 0


def cmd_stratify_codomain(args) -> int:
    f = _load(args)
    j = jacobi_set(f, args.notion)
    cs = build_codomain_stratification(f, j)
    _emit(fmt.canonical_dumps(fmt.codomain_to_dict(cs)), args.out)
    if args.svg:
        _emit(render_svg(cs), args.svg)
    return 0


def cmd_reeb(args) -> int:
    f = _load(args)
    j = jacobi_set(f, args.notion)
    if f.k == 1:
        rg = reeb_graph(f, j)
        audit = interval_fiber_audit(f, j, samples=args.samples)
        doc = {"reeb": fmt.reeb_to_dict(rg),
               "fiber_audit": fmt.fiber_audit_to_dict(audit)}
    else:
        sc = reeb_scaffold(f, build_codomain_stratification(f, j))
        stein = check_stein_square(f, sc)
        audit = stratum_fiber_audit(f, sc, samples=args.samples)
        doc = {"scaffold": fmt.scaffold_to_dict(sc, fmt.codomain_to_dict(sc.codomain)),
               "stein": fmt.stein_to_dict(stein),
               "fiber_audit": _stratum_audit_doc(*audit)}
    _emit(fmt.canonical_dumps(doc), args.out)
    return 0


def cmd_locus(args) -> int:
    ls = stratify_singular_locus(_load(args))
    _emit(fmt.canonical_dumps(_locus_doc(ls)), args.out)
    if args.svg:
        _emit(render_svg(ls), args.svg)
    return 0


def _stage(name, fn):
    # failures carry the stage so a bundle abort is attributable
    try:
        return fn()
    except PLStratError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


def cmd_pipeline(args) -> int:
    obj = _load(args)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc.strerror}") from exc

    def write(name, text):
        _write(os.path.join(args.out, name), text)

    if isinstance(obj, SingularLocus):
        ls = _stage("locus", lambda: stratify_singular_locus(obj))
        write("codomain_strat.json", fmt.canonical_dumps(_locus_doc(ls)))
        if args.svg:
            write("codomain_strat.svg", render_svg(ls))
        return 0

    f = obj
    gen = _stage("validate", lambda: check_generic(f))
    man = _stage("validate", lambda: manifold_check(f.domain))
    write("validate.json", fmt.canonical_dumps(_validate_doc(f, gen, man)))
    if not gen.passed:
        raise _genericity_error(gen, "stage validate: ")

    j = _stage("jacobi", lambda: jacobi_set(f, args.notion))
    write("jacobi.json", fmt.canonical_dumps(fmt.jacobi_report_dict(f, j)))
    space = _stage("domain", lambda: domain_stratification(f, j))
    write("domain_strat.json",
          fmt.canonical_dumps(fmt.stratified_space_to_dict(space)))

    if f.k in (1, 2):
        cs = _stage("codomain", lambda: build_codomain_stratification(f, j))
        cdoc = fmt.codomain_to_dict(cs)
        write("codomain_strat.json", fmt.canonical_dumps(cdoc))
        if args.svg:
            write("codomain_strat.svg", render_svg(cs))
        if args.filtration:
            chain = next(_maximal_chains(cs.space.poset))
            write("filtration.txt", fmt.filtration_text(chain))

    if f.k == 1:
        del cdoc    # only the scaffold reads it; free it before the sweep
        rg = _stage("reeb", lambda: reeb_graph(f, j))
        write("reeb.json", fmt.canonical_dumps(fmt.reeb_to_dict(rg)))
        if args.dot:
            write("reeb.dot", fmt.reeb_to_dot(rg))
        audit = _stage("audit", lambda: interval_fiber_audit(
            f, j, samples=args.samples))
        write("audit.json", fmt.canonical_dumps(fmt.fiber_audit_to_dict(audit)))
    elif f.k == 2:
        sc = _stage("scaffold", lambda: reeb_scaffold(f, cs))
        stein = _stage("scaffold", lambda: check_stein_square(f, sc))
        sdoc = fmt.scaffold_to_dict(sc, cdoc)
        sdoc["stein"] = fmt.stein_to_dict(stein)
        write("scaffold.json", fmt.canonical_dumps(sdoc))
        audit = _stage("audit", lambda: stratum_fiber_audit(f, sc, samples=args.samples))
        write("audit.json", fmt.canonical_dumps(_stratum_audit_doc(*audit)))
    return 0


def cmd_filtration(args) -> int:
    obj = _load(args)
    if isinstance(obj, SingularLocus):
        space = stratify_singular_locus(obj).space
    else:
        if obj.k not in (1, 2):
            raise InputError("filtration export needs one or two parameters")
        space = build_codomain_stratification(obj, jacobi_set(obj, args.notion)).space
    chains = _maximal_chains(space.poset)
    if args.chain:
        chain = tuple(args.chain.split(","))
        if chain not in chains:
            raise InputError(f"no maximal chain {args.chain!r} in the "
                             f"stratification poset")
    else:
        chain = next(chains)
    _emit(fmt.filtration_text(chain), args.out)
    return 0


def cmd_example(args) -> int:
    if args.name is None:
        _emit("\n".join(fmt.example_names()) + "\n", args.out)
        return 0
    data = fmt.load_example(args.name)
    _emit(fmt.canonical_dumps(data), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="plstrat",
                     description="Stratifications of piecewise linear maps: "
                                 "critical loci, plane arrangements of their "
                                 "images, Reeb graphs and fiber scaffolds.")
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub, kind="map", bundle=False, notion=True, jobs=False,
               samples=False, svg=False):
        # every shared option is declared here only: the input of `kind`
        # ("map", "contour", or None for either), `--out` (a directory
        # when `bundle`) and each option asked for
        sub.add_argument("input", nargs="?",
                         help=f"{kind or 'map or contour'} JSON file")
        sub.add_argument("--example", help="use a bundled example instead of a file")
        sub.add_argument("--out", required=bundle,
                         help="bundle output directory" if bundle
                         else "output path, '-' or omitted for stdout")
        if notion:
            sub.add_argument("--notion", choices=NOTION_CHOICES, default="H",
                             help="criticality notion (default H)")
        if jobs:
            sub.add_argument("--jobs", type=int, default=1,
                             help="accepted for compatibility; has no effect")
        if samples:
            sub.add_argument("--samples", type=_positive_int, default=3,
                             help="times audit.json repeats each constant count")
        if svg:
            sub.add_argument("--svg", help="also write an SVG picture here")
        sub.set_defaults(kind=kind)

    s = subs.add_parser("validate", help="parse, audit genericity and manifoldness")
    common(s, notion=False)
    s.set_defaults(func=cmd_validate)

    s = subs.add_parser("jacobi", help="critical locus under a notion")
    common(s, jobs=True)
    s.set_defaults(func=cmd_jacobi)

    s = subs.add_parser("stratify-domain", help="domain strata around the locus")
    common(s)
    s.set_defaults(func=cmd_stratify_domain)

    s = subs.add_parser("stratify-codomain",
                        help="plane strata cut by the critical values")
    common(s, svg=True)
    s.set_defaults(func=cmd_stratify_codomain)

    s = subs.add_parser("reeb", help="Reeb graph (k=1) or component scaffold (k=2)")
    common(s, samples=True)
    s.set_defaults(func=cmd_reeb)

    s = subs.add_parser("morse2-locus", help="stratify a drawn apparent contour")
    common(s, kind="contour", notion=False, svg=True)
    s.set_defaults(func=cmd_locus)

    s = subs.add_parser("pipeline",
                        help="write every applicable artifact to a directory")
    common(s, kind=None, bundle=True, jobs=True, samples=True)
    s.add_argument("--svg", action=argparse.BooleanOptionalAction, default=True,
                   help="write SVG pictures")
    s.add_argument("--dot", action=argparse.BooleanOptionalAction, default=True,
                   help="write DOT graphs")
    s.add_argument("--filtration", action=argparse.BooleanOptionalAction,
                   default=False, help="also write a chain filtration file")
    s.set_defaults(func=cmd_pipeline)

    s = subs.add_parser("export-filtration",
                        help="one maximal chain of codomain strata as a filtration")
    common(s, kind=None)
    s.add_argument("--chain", help="comma separated stratum labels; "
                                   "first maximal chain when omitted")
    s.set_defaults(func=cmd_filtration)

    s = subs.add_parser("example", help="print a bundled example input")
    s.add_argument("name", nargs="?", help="example name; omit to list")
    s.add_argument("--out", help="output path, '-' or omitted for stdout")
    s.set_defaults(func=cmd_example)

    return parser


# the argparse tree, built by the first `main` call of the process (not at
# import) and reused: it does not depend on the arguments, and each
# `parse_args` fills a fresh namespace
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PLStratError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
