"""Spans recorded around calls into the package, from outside it.

`install` replaces functions at the names the calling modules bound (for
example `plstrat.reeb.jacobi_set`, not only `plstrat.jacobi.jacobi_set`)
with wrappers that record a span per call, and returns a `Patches` whose
`restore` puts every original back.  Spans live in flat arrays so a run
with a few hundred thousand predicate calls stays small; they are written
out once, when the run ends.
"""
from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter

_MISSING = object()


class Tracer:
    """Spans (name, start, end, parent, op id) plus per-op counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op_id = -1
        self.stack: list[int] = []      # the open spans, innermost last

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.stack.append(i)
        return i

    def finish(self, i: int):
        self.end[i] = perf_counter()
        top = self.stack.pop()
        if top != i:
            raise RuntimeError(f"span {self.names[self.name[i]]} closed out of order")

    def count(self, key: str, n: int):
        self.counters[self.op_id][key] += n

    def count_max(self, key: str, n: int):
        c = self.counters[self.op_id]
        c[key] = max(c[key], n)

    def __len__(self) -> int:
        return len(self.start)

    def write_tsv(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            t0 = self.start[0] if len(self) else 0.0
            for i in range(len(self)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t"
                         f"{self.parent[i]}\t{self.op[i]}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    kids = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out = []
    for i in range(len(start)):
        covered, edge = 0.0, start[i]
        for c in sorted(kids[i], key=lambda c: start[c]):
            lo, hi = max(start[c], edge), min(end[c], end[i])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(end[i] - start[i] - covered)
    return out


class Patches:
    """Record of replaced attributes; `restore` undoes them in reverse."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new):
        self.saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def restore(self):
        while self.saved:
            owner, attr, old = self.saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _wrap(tracer: Tracer, name: str, fn, probe=None):
    nid = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish
    if probe is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            for key, n in probe(args).items():
                tracer.count(key, n)
            return out
    return traced


class _SpanFile:
    """A file whose span ends when the file is closed."""

    def __init__(self, fh, done):
        self._fh, self._done = fh, done

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def write(self, text):
        return self._fh.write(text)

    def close(self):
        if self._done is not None:
            self._fh.close()
            self._done()
            self._done = None


def _traced_open(tracer: Tracer):
    nid = tracer.name_id("cli.open")

    def traced_open(*args, **kwargs):
        i = tracer.begin(nid)
        try:
            fh = open(*args, **kwargs)
        except BaseException:
            tracer.finish(i)
            raise
        return _SpanFile(fh, lambda: tracer.finish(i))
    return traced_open


def _n_simplices(args):
    return len(args[0].simplices)


def _arrangement_sizes(args):
    arr = args[0]
    return {"arrangement.PlanarArrangement.segments": len(arr.segments),
            "arrangement.vertices": len(arr.vertices),
            "arrangement.edges": len(arr.edges),
            "arrangement.faces": len(arr.faces)}


def _count_levels(tracer: Tracer, fn):
    """Wrap `reeb._components` to count the sweep levels `reeb_graph`
    processes: it calls `_components` once per level itself, while the
    calls made through `fiber_components` sit under that span and are not
    counted.  No span is recorded, so no self time changes."""
    graph = tracer.name_id("reeb.reeb_graph")

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer.stack and tracer.name[tracer.stack[-1]] == graph:
            tracer.count("reeb.reeb_graph.levels", 1)
        return fn(*args, **kwargs)
    return counted


# (module, function, probe) for each wrapped function; every binding of
# the function in a package module is wrapped, so each call records
# exactly one span whichever module made it
FUNCTIONS = [
    ("io", "load_map", None), ("io", "load_input", None),
    ("io", "load_locus", None), ("io", "example_map", None),
    ("io", "example_input", None), ("io", "example_locus", None),
    ("io", "canonical_dumps", None), ("io", "genericity_to_dict", None),
    ("io", "manifold_to_dict", None), ("io", "jacobi_report_dict", None),
    ("io", "stratified_space_to_dict", None), ("io", "codomain_to_dict", None),
    ("io", "locus_stratification_to_dict", None), ("io", "reeb_to_dict", None),
    ("io", "reeb_to_dot", None), ("io", "fiber_audit_to_dict", None),
    ("io", "scaffold_to_dict", None), ("io", "stein_to_dict", None),
    ("io", "filtration_text", None),
    ("jacobi", "check_generic", None), ("jacobi", "jacobi_set", None),
    ("jacobi", "criticality_verdict", None),
    ("jacobi", "domain_stratification", None),
    ("complexes", "link", lambda a: {"complexes.link.scanned": _n_simplices(a)}),
    ("complexes", "open_star",
     lambda a: {"complexes.open_star.scanned": _n_simplices(a)}),
    ("complexes", "manifold_check", None),
    ("homology", "reduced_betti",
     lambda a: {"homology.reduced_betti.scanned": _n_simplices(a)}),
    ("geometry", "orient", None), ("geometry", "on_segment", None),
    ("geometry", "proper_crossing", None), ("geometry", "matrix_rank", None),
    ("geometry", "cone_is_full", None),
    ("geometry", "point_in_convex_hull_2d", None),
    ("arrangement", "refine_image", None),
    ("arrangement", "stratification_from_refined", None),
    ("arrangement", "build_codomain_stratification", None),
    ("arrangement", "stratify_singular_locus", None),
    ("arrangement", "coarseness_check", None),
    ("arrangement", "render_svg", None),
    ("reeb", "reeb_graph", None),
    ("reeb", "fiber_components",
     lambda a: {"reeb.fiber_components.scanned": len(a[0].domain.simplices)}),
    ("reeb", "interval_fiber_audit", None), ("reeb", "reeb_scaffold", None),
    ("reeb", "check_stein_square", None), ("reeb", "stratum_fiber_audit", None),
]

# (module, class, method, probe); class attributes serve every caller
METHODS = [
    ("arrangement", "PlanarArrangement", "__init__", _arrangement_sizes),
    ("arrangement", "PlanarArrangement", "locate", None),
    ("arrangement", "PlanarArrangement", "face_interior_samples", None),
    ("posets", "Poset", "__init__",
     lambda a: {"posets.Poset.scanned": len(a[0].elements)}),
]

MODULES = ("cli", "io", "jacobi", "complexes", "homology", "geometry",
           "arrangement", "reeb", "posets")


def install(tracer: Tracer, mods: dict) -> Patches:
    """Wrap every listed function at each of its bindings in `mods` (the
    package modules by short name, as `MODULES` lists them), the listed
    methods, the `covers` property and the sweep's `_components`, and
    shadow `open` in the CLI module so bundle writes get spans."""
    patches = Patches()
    for module, fname, probe in FUNCTIONS:
        original = getattr(mods[module], fname)
        wrapper = _wrap(tracer, f"{module}.{fname}", original, probe)
        for mod in mods.values():
            if vars(mod).get(fname) is original:
                patches.replace(mod, fname, wrapper)
    for module, cname, meth, probe in METHODS:
        cls = getattr(mods[module], cname)
        name = f"{module}.{cname if meth == '__init__' else meth}"
        patches.replace(cls, meth, _wrap(tracer, name, vars(cls)[meth], probe))
    poset = mods["posets"].Poset
    covers = vars(poset)["covers"]
    patches.replace(poset, "covers",
                    property(_wrap(tracer, "posets.covers", covers.fget)))
    reeb = mods["reeb"]
    patches.replace(reeb, "_components", _count_levels(tracer, reeb._components))
    patches.replace(mods["cli"], "open", _traced_open(tracer))
    return patches


# the CLI stage each function called directly by the CLI belongs to
STAGE = {
    "io.load_map": "load", "io.load_input": "load", "io.load_locus": "load",
    "io.example_map": "load", "io.example_input": "load",
    "io.example_locus": "load",
    "jacobi.check_generic": "validate", "complexes.manifold_check": "validate",
    # the verdict table is computed while encoding jacobi.json
    "jacobi.jacobi_set": "jacobi", "io.jacobi_report_dict": "jacobi",
    "jacobi.domain_stratification": "domain",
    "arrangement.build_codomain_stratification": "codomain",
    "arrangement.stratify_singular_locus": "codomain",
    "arrangement.coarseness_check": "codomain",
    "reeb.reeb_graph": "reeb", "reeb.reeb_scaffold": "scaffold",
    "reeb.check_stein_square": "stein",
    "reeb.interval_fiber_audit": "audit", "reeb.stratum_fiber_audit": "audit",
}
STAGES = ("load", "validate", "jacobi", "domain", "codomain", "reeb",
          "scaffold", "stein", "audit", "write")
LOADS = {n for n, s in STAGE.items() if s == "load"}
OP_SPAN = "op"

_CALLS = ("jacobi.criticality_verdict", "complexes.link", "complexes.open_star",
          "homology.reduced_betti", "posets.Poset", "geometry.orient",
          "geometry.on_segment", "geometry.proper_crossing",
          "geometry.matrix_rank", "geometry.cone_is_full",
          "geometry.point_in_convex_hull_2d", "arrangement.locate",
          "arrangement.face_interior_samples", "reeb.fiber_components")
_SELF = ("jacobi.jacobi_set", "complexes.link", "complexes.open_star",
         "homology.reduced_betti", "posets.Poset", "posets.covers",
         "arrangement.PlanarArrangement", "arrangement.refine_image",
         "arrangement.stratification_from_refined", "arrangement.locate",
         "reeb.reeb_graph", "reeb.fiber_components")
_INCLUSIVE = ("jacobi.check_generic", "jacobi.criticality_verdict",
              "complexes.manifold_check", "reeb.interval_fiber_audit",
              "reeb.reeb_scaffold", "reeb.check_stein_square",
              "reeb.stratum_fiber_audit")
_COUNTERS = ("complexes.link.scanned", "complexes.open_star.scanned",
             "homology.reduced_betti.scanned", "posets.Poset.scanned",
             "arrangement.PlanarArrangement.segments", "arrangement.vertices",
             "arrangement.edges", "arrangement.faces",
             "reeb.reeb_graph.levels", "reeb.fiber_components.scanned",
             "io.bytes_written", "geometry.max_coord_bits")


def layer_metrics(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per-layer metrics of every traced op, keyed by op id."""
    n = len(tracer)
    names = [tracer.names[k] for k in tracer.name]
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    in_scaffold = [False] * n
    ops: dict[int, dict[str, float]] = {}
    for i in range(n):
        name, p = names[i], tracer.parent[i]
        in_scaffold[i] = name == "reeb.reeb_scaffold" or (p >= 0 and in_scaffold[p])
        m = ops.setdefault(tracer.op[i], defaultdict(float))
        dur = tracer.end[i] - tracer.start[i]
        if name == OP_SPAN:
            m["cli.self_s"] += selfs[i]
            continue
        m[name + ".calls"] += 1
        m[name + ".s"] += dur
        m[name + ".self_s"] += selfs[i]
        if p >= 0 and names[p] == OP_SPAN:
            m[f"cli.stage.{STAGE.get(name, 'write')}_s"] += dur
        if name in LOADS:
            m["io.load_s"] += dur
        elif name.startswith("io."):
            m["io.encode_s"] += selfs[i]
        if name.startswith("geometry."):
            m["geometry.self_s"] += selfs[i]
        if name == "reeb.fiber_components" and in_scaffold[i]:
            m["reeb.scaffold.fiber_calls"] += 1
    out = {}
    for op, m in ops.items():
        counters = tracer.counters.get(op, {})
        row = {f"cli.stage.{s}_s": m[f"cli.stage.{s}_s"] for s in STAGES}
        row["cli.self_s"] = m["cli.self_s"]
        row["io.load_s"] = m["io.load_s"]
        row["io.encode_s"] = m["io.encode_s"]
        row["jacobi.jacobi_set.calls_per_op"] = m["jacobi.jacobi_set.calls"]
        for fn in _CALLS:
            row[fn + ".calls"] = m[fn + ".calls"]
        for fn in _SELF:
            row[fn + ".self_s"] = m[fn + ".self_s"]
        for fn in _INCLUSIVE:
            row[fn + ".s"] = m[fn + ".s"]
        row["geometry.self_s"] = m["geometry.self_s"]
        for key in _COUNTERS:
            row[key] = counters.get(key, 0)
        covers = counters.get("reeb.scaffold.covers", 0)
        row["reeb.scaffold.fiber_calls_per_cover"] = (
            m["reeb.scaffold.fiber_calls"] / covers if covers else 0.0)
        out[op] = row
    return out
