"""Reading and writing the JSON formats.

All coordinates travel as exact rational strings ("3", "-1/2"); floats in
input are rejected rather than rounded.  Serialization is canonical: keys
sorted, fixed separators, one trailing newline, so equal objects produce
byte-identical files.  `canonical_dumps` writes that text itself, in one
pass, the same bytes as `json.dumps(obj, sort_keys=True, indent=2,
separators=(",", ": "))` would.  The encoders hand it labels as they are
(tuples and `Simplex` become arrays), sorted once by `canon_sorted`, and
pairs of labels by those ranks; it writes a list of rows of labels from
the text of each label, made once per document and indent.  It takes str
keys and str, int, bool and None scalars only, and raises `TypeError` on
anything else, such as a float, an int key or a set.

Every result has its encoder here, and the CLI assembles its documents
from them.  A codomain or contour stratification is written from its
cuts and its label table: each cut point is encoded once, by vertex id,
and each stratum's geometry is read off the cells its label names, never
off the label's text.
"""
from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote

from .arrangement import (CodomainStratification, LineCuts,
                          LocusStratification, SingularLocus,
                          stratum_dimension)
from .complexes import SimplicialComplex, Simplex
from .errors import InputError
from .geometry import canon_sorted, format_frac, frac
from .jacobi import GenericityReport, JacobiSet, PLMap
from .posets import StratifiedSpace, poset_to_json_dict, sorted_pairs
from .reeb import ReebGraph, ReebScaffold, SteinReport


def parse_fraction(x) -> Fraction:
    """Exact rational from an int or a "p/q" string; floats are refused."""
    try:
        return frac(x)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{exc}; write rationals as integers or strings") from exc


def _encode_point(p) -> list:
    return [format_frac(c) for c in p]


# ---------------------------------------------------------------------------
# maps

def map_from_dict(data: dict) -> PLMap:
    """Build a map from {"k": ..., "facets": [[labels]], "values": {...}}.

    Vertex labels are strings without a comma.  For k = 1 every value is
    one rational, for higher k a list of k rationals.
    """
    if not isinstance(data, dict):
        raise InputError("expected a JSON object")
    try:
        k = data["k"]
        facets = data["facets"]
        values = data["values"]
    except KeyError as exc:
        raise InputError(f"missing field {exc.args[0]!r}") from exc
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InputError("k must be a positive integer")
    if not isinstance(facets, list) or not all(isinstance(s, list) for s in facets):
        raise InputError("facets must be a list of label lists")
    if not all(isinstance(v, str) for s in facets for v in s):
        raise InputError("vertex labels must be strings")
    if any("," in v for s in facets for v in s):
        # validate.json keys each link verdict by the comma-joined labels
        raise InputError("vertex labels must not contain ','")
    if not isinstance(values, dict):
        raise InputError("values must map vertex labels to rationals")
    domain = SimplicialComplex.from_facets(facets)
    parsed = {}
    for v, val in values.items():
        if k == 1:
            parsed[v] = (parse_fraction(val),)
        else:
            if not isinstance(val, list) or len(val) != k:
                raise InputError(f"value of {v!r} must be a list of {k} rationals")
            parsed[v] = tuple(parse_fraction(c) for c in val)
    return PLMap(domain=domain, k=k, values=parsed)


def load_map(path) -> PLMap:
    return map_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# loci

def locus_from_dict(data: dict) -> SingularLocus:
    if not isinstance(data, dict):
        raise InputError("expected a JSON object")
    strands = data.get("strands")
    if not isinstance(strands, list):
        raise InputError("strands must be a list of polylines")
    parsed = []
    for s in strands:
        if not isinstance(s, list) or not all(isinstance(p, list) for p in s):
            raise InputError("each strand must be a list of points")
        parsed.append(tuple(tuple(parse_fraction(c) for c in p) for p in s))
    cusps = data.get("cusps", [])
    try:
        marks = tuple((i, v) for i, v in cusps)
    except (TypeError, ValueError) as exc:
        raise InputError("cusps must be a list of [strand, vertex] pairs") from exc
    return SingularLocus(strands=tuple(parsed), cusp_marks=marks)


def load_locus(path) -> SingularLocus:
    return locus_from_dict(_load_json(path))


def input_from_dict(data) -> PLMap | SingularLocus:
    """Dispatch on the "kind" field, falling back to the shape of the data."""
    if not isinstance(data, dict):
        raise InputError("expected a JSON object")
    kind = data.get("kind", "locus" if "strands" in data else "map")
    if kind == "map":
        return map_from_dict(data)
    if kind == "locus":
        return locus_from_dict(data)
    raise InputError(f"unknown input kind {kind!r}")


def load_input(path) -> PLMap | SingularLocus:
    return input_from_dict(_load_json(path))


def example_input(name: str) -> PLMap | SingularLocus:
    return input_from_dict(load_example(name))


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# result encoders

def jacobi_to_dict(j: JacobiSet) -> dict:
    return {"notion": j.notion, "k": j.k,
            "simplices": j.complex.sorted_simplices()}


def jacobi_report_dict(f: PLMap, j: JacobiSet) -> dict:
    """Critical subcomplex together with the verdict table over all
    candidate (k-1)-simplices, criticality under every applicable notion.

    The locus already holds the verdicts of its own notion: a (k-1)-simplex
    lies in the face closure of the critical (k-1)-simplices exactly when
    it is critical itself, so that notion's test is not run again."""
    from .jacobi import is_d_critical, is_h_critical, is_l_critical_surface
    locus = j.complex.simplices
    verdicts = []
    for s in f.domain.simplices_of_dim(f.k - 1):
        # L, H, D: the order criticality_verdict runs them in
        if s.dim != 0:
            l_crit = None
        else:
            l_crit = s in locus if j.notion == "L" else is_l_critical_surface(f, s)
        h_crit = s in locus if j.notion == "H" else is_h_critical(f, s)
        d_crit = s in locus if j.notion == "D" else is_d_critical(f, s)
        verdicts.append({"simplex": s,
                         "h_critical": h_crit,
                         "d_critical": d_crit,
                         "l_critical": l_crit})
    return {"critical": jacobi_to_dict(j), "verdicts": verdicts}


def genericity_to_dict(report: GenericityReport) -> dict:
    return {"passed": report.passed,
            "violations": [{"rule": code,
                            "witness": witness,
                            "detail": detail}
                           for code, witness, detail in report.violations]}


def manifold_to_dict(report) -> dict:
    return {"pure": report.is_pure,
            "weak_pseudomanifold": report.is_weak_pseudomanifold,
            "verdict": report.complex_verdict,
            "links": {",".join(map(str, v)): report.link_checks[v]
                      for v in canon_sorted(report.link_checks)},
            "notes": list(report.notes)}


def fiber_audit_to_dict(audit) -> dict:
    return {"critical_values": [format_frac(v) for v in audit.boundaries],
            "interval_counts": list(audit.counts),
            "passed": audit.passed,
            "samples": [list(d) for d in audit.detail]}


def stratum_audit_to_dict(audit) -> dict:
    """The (passed, counts per stratum) pair `reeb.stratum_fiber_audit`
    returns."""
    ok, per_stratum = audit
    return {"passed": ok,
            "per_stratum": {s: list(c) for s, c in sorted(per_stratum.items())}}


def stratified_space_to_dict(space: StratifiedSpace) -> dict:
    cells = canon_sorted(space.cells)
    assignment = space.assignment
    return {"poset": poset_to_json_dict(space.poset),
            "cells": cells,
            "assignment": [(c, assignment[c]) for c in cells],
            "closure": sorted_pairs(space.closure, cells)}


def _plane_dict(space: StratifiedSpace, labels: dict, cuts, chains: bool) -> dict:
    """A stratification with the geometry of each stratum, read off the
    cells of `cuts` its `labels` name, and, for a planar arrangement, the
    arrangement's Euler count.  Each cut point is encoded once, indexed by
    vertex id: a vertex stratum is its point, a k=1 interval the values on
    either side of it (None on a ray), an edge stratum its segment, or,
    when `chains`, the segments of its edges in edge order, and a face its
    cycles of vertex ids."""
    geometry: dict = {}
    out = {"stratification": stratified_space_to_dict(space), "geometry": geometry}
    if isinstance(cuts, LineCuts):
        pts = [format_frac(x) for x in cuts.values]
        ends = [None, *pts, None]
        geometry.update((c, [lo, hi]) for c, lo, hi in zip(labels["f"], ends, ends[1:]))
    else:
        pts = [_encode_point(p) for p in cuts.vertices]
        for c, (u, v) in zip(labels["e"], cuts.edges):
            if chains:
                geometry.setdefault(c, []).append([pts[u], pts[v]])
            else:
                geometry[c] = [pts[u], pts[v]]
        for c, face in zip(labels["f"], cuts.faces):
            geometry[c] = {"bounded": face.bounded,
                           "cycles": [[u for u, _ in walk] for walk in face.cycles]}
        out["euler"] = {"vertices": len(cuts.vertices), "edges": len(cuts.edges),
                        "faces": len(cuts.faces),
                        "components": cuts.component_count()}
    geometry.update((c, p) for c, p in zip(labels["v"], pts) if c is not None)
    return out


def codomain_to_dict(cs: CodomainStratification) -> dict:
    out = _plane_dict(cs.space, cs.labels, cs.cuts, chains=False)
    out["k"] = cs.k
    out["multiplicities"] = list(cs.refined.multiplicities)
    return out


def locus_stratification_to_dict(ls: LocusStratification) -> dict:
    out = _plane_dict(ls.space, ls.labels, ls.cuts, chains=True)
    out["marks"] = {z: sorted(ls.marks[z]) for z in sorted(ls.marks)}
    return out


def reeb_to_dict(rg: ReebGraph) -> dict:
    return {"nodes": list(rg.nodes),
            "values": {n: format_frac(rg.node_value[n]) for n in rg.nodes},
            "critical_vertices": {n: list(rg.node_critical[n]) for n in rg.nodes},
            "edges": [list(e) for e in rg.edges],
            "cycle_rank": rg.cycle_rank(),
            "components": rg.component_count()}


def reeb_to_dot(rg: ReebGraph) -> str:
    """GraphViz text for a Reeb graph; nodes of one level share a rank."""
    lines = ["graph reeb {", "  rankdir=BT;"]
    for n in rg.nodes:
        lines.append(f'  {n} [label="{n} @ {format_frac(rg.node_value[n])}"];')
    by_level: dict = {}
    for n in rg.nodes:
        by_level.setdefault(rg.node_value[n], []).append(n)
    for t in sorted(by_level):
        ids = " ".join(sorted(by_level[t]))
        lines.append(f"  {{ rank=same; {ids} }}")
    for a, b in rg.edges:
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def filtration_text(chain) -> str:
    """A chain of strata as a filtration: one line per cell, holding the
    label, the cell dimension and the step index, increasing along the
    chain."""
    lines = [f"{label} {stratum_dimension(label)} {i}"
             for i, label in enumerate(chain)]
    return "".join(line + "\n" for line in lines)


def scaffold_to_dict(sc: ReebScaffold, codomain: dict) -> dict:
    """`codomain` is the `codomain_to_dict` document of `sc.codomain`."""
    return {"poset": poset_to_json_dict(sc.poset),
            "counts": {s: sc.counts[s] for s in sorted(sc.counts)},
            "representatives": {s: _encode_point(sc.representatives[s])
                                for s in sorted(sc.representatives)},
            "codomain": codomain}


def stein_to_dict(report: SteinReport) -> dict:
    return {"passed": report.passed,
            "continuous": report.continuous,
            # both projection checks come to `continuous` (see
            # `reeb.check_stein_square`); the keys keep the bundle format
            "projection_monotone": report.continuous,
            "projection_surjective": report.continuous,
            "commutes": report.commutes,
            "notes": list(report.notes),
            "cell_map": [(c, report.cell_map[c])
                         for c in canon_sorted(report.cell_map)]}


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: keys sorted, two-space indent, `", "` and
    `": "` separators, ASCII escapes, one trailing newline.

    Dicts with str keys, lists, tuples (so `Simplex` too), str, int, bool
    and None are written; anything else, a float or a non-str key among
    them, raises `TypeError`."""
    out: list[str] = []
    _write(obj, out, "\n", {})
    return "".join(out) + "\n"


_STR = frozenset((str,))
_INT = frozenset((int,))
_ARRAYS = frozenset((list, tuple, Simplex))


class _Labels(dict):
    """The texts of labels, each a str or an array of strs, on a line
    indented by `nl`; each text is made on first use."""

    def __init__(self, nl: str):
        self.nl = nl

    def __missing__(self, label):
        if type(label) is str:
            text = _quote(label)
        elif type(label) not in _ARRAYS or not set(map(type, label)) <= _STR:
            raise TypeError("not a label")
        elif label:
            inner = self.nl + "  "
            text = "[" + inner + ("," + inner).join(map(_quote, label)) + self.nl + "]"
        else:
            text = "[]"
        self[label] = text
        return text


def _write(o, out: list, nl: str, memo: dict):
    """Append the text of `o` to `out`; `nl` is a newline and the indent
    of the line `o` starts on, and `memo` holds the `_Labels` of each
    indent met so far in the document."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        kinds = set(map(type, o))
        if kinds == _STR:
            out.append("[" + inner + sep.join(map(_quote, o)) + nl + "]")
            return
        if kinds == _INT:
            out.append("[" + inner + sep.join(map(int.__repr__, o)) + nl + "]")
            return
        if kinds <= _ARRAYS:
            # rows of labels, written from the texts of the labels
            inner2 = inner + "  "
            texts = memo.get(inner2)
            if texts is None:
                texts = memo[inner2] = _Labels(inner2)
            text, sep2, close = texts.__getitem__, "," + inner2, inner + "]"
            try:
                rows = ["[" + inner2 + sep2.join(map(text, x)) + close if x else "[]"
                        for x in o]
            except TypeError:
                pass
            else:
                out.append("[" + inner + sep.join(rows) + nl + "]")
                return
        lead = "[" + inner
        for x in o:
            out.append(lead)
            _write(x, out, inner, memo)
            lead = sep
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        try:
            keys = sorted(o)
            quoted = [_quote(k) for k in keys]
        except TypeError:
            raise TypeError("canonical JSON keys must be strings") from None
        inner = nl + "  "
        lead = "{" + inner
        for k, q in zip(keys, quoted):
            out.append(lead + q + ": ")
            _write(o[k], out, inner, memo)
            lead = "," + inner
        out.append(nl + "}")
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    else:
        raise TypeError(f"canonical JSON cannot hold a {type(o).__name__}")


# ---------------------------------------------------------------------------
# bundled examples

def example_names() -> list[str]:
    root = resources.files("plstrat.data")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_example(name: str) -> dict:
    """The bundled example `name`, one of `example_names()`: any other
    name, a path among them, is refused before a file is opened."""
    names = example_names()
    if name not in names:
        raise InputError(f"no bundled example named {name!r}; "
                         f"try one of {', '.join(names)}")
    root = resources.files("plstrat.data")
    return json.loads((root / f"{name}.json").read_text(encoding="utf-8"))


def example_map(name: str) -> PLMap:
    data = load_example(name)
    if data.get("kind") != "map":
        raise InputError(f"example {name!r} is not a map")
    return map_from_dict(data)


def example_locus(name: str) -> SingularLocus:
    data = load_example(name)
    if data.get("kind") != "locus":
        raise InputError(f"example {name!r} is not a contour")
    return locus_from_dict(data)
