"""Fibers, Reeb graphs and the connected-component scaffold over a
stratified codomain.

For a single parameter the fiber changes only where a vertex value is
crossed, so it lives on 2V-1 sweep levels: level 2i is the i-th smallest
vertex value and level 2i+1 the open gap above it.  Each map holds a
`SweepIndex` of these levels, the level span of every simplex and a table
of fiber components per level, filled on first use; the Reeb graph and
every k=1 fiber query read that one table.  Adjacency between consecutive
levels is decided by shared support simplices, which is exact because no
vertex value lies strictly inside a gap.  For two parameters the analogue
is a poset of fiber components over the codomain strata, with attachment
decided by sampling each stratum near its boundary and matching components
through shared support.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import (CodomainStratification, build_codomain_stratification)
from .errors import (DegeneracyError, EmptyComplexError, InternalError,
                     StructuralError)
from .geometry import (canon_key, frac, on_segment, point_in_convex_hull_2d,
                       vadd, vscale, vsub)
from .jacobi import JacobiSet, PLMap, jacobi_set
from .posets import (MonotoneMap, Poset, StratifiedSpace, check_stratified_map,
                     connected_classes)


# ---------------------------------------------------------------------------
# fibers

def _scalar(f: PLMap, v) -> Fraction:
    return f.value(v)[0]


def _contains_point(f: PLMap, s, y) -> bool:
    pts = [f.value(v) for v in s]
    if len(pts) == 1:
        return pts[0] == y
    if len(pts) == 2:
        return on_segment(y, pts[0], pts[1])
    return point_in_convex_hull_2d(y, pts)


def _components(support) -> tuple[frozenset, ...]:
    """Connected components under face incidence of a fiber support listed
    in `canon_key` order, sorted by their least member (the order of their
    `canon_key`-sorted member lists).

    A support is upward-closed in the face order: a coface's image contains
    its face's image.  So a face and a coface in it are joined through the
    codimension-one faces in between, and each member is joined only to its
    codimension-one faces."""
    members = set(support)
    pairs = [(s, face) for s in support for i in range(len(s))
             if (face := s[:i] + s[i + 1:]) in members]
    return tuple(frozenset(c) for c in connected_classes(support, pairs))


class SweepIndex:
    """The sweep levels of a scalar map with the fiber components over each.

    A closed simplex meets the fiber over level l exactly when l lies in its
    span [2 rank(min), 2 rank(max)], ranks taken among the distinct vertex
    values.  Components are computed per level on first request and kept."""

    def __init__(self, f: PLMap):
        if f.k != 1:
            raise StructuralError("a sweep requires a single parameter")
        self.values = sorted({_scalar(f, v) for v in f.domain.vertices})
        level = {x: 2 * i for i, x in enumerate(self.values)}
        vlevel = {v: level[_scalar(f, v)] for v in f.domain.vertices}
        self.ranked = f.domain.index.ranked
        self.spans = [(min(vlevel[v] for v in s), max(vlevel[v] for v in s))
                      for s in self.ranked]
        self.table: list = [None] * max(2 * len(self.values) - 1, 0)

    def level(self, t: Fraction) -> int | None:
        """The level of value t; None outside the range of vertex values,
        where the fiber is empty."""
        i = bisect_left(self.values, t)
        if i < len(self.values) and self.values[i] == t:
            return 2 * i
        if 0 < i < len(self.values):
            return 2 * i - 1
        return None

    def components(self, level: int) -> tuple[frozenset, ...]:
        comps = self.table[level]
        if comps is None:
            comps = self.table[level] = _components(
                [s for s, (lo, hi) in zip(self.ranked, self.spans)
                 if lo <= level <= hi])
        return comps


def fiber_components(f: PLMap, y) -> tuple[frozenset, ...]:
    """Connected components of the fiber over y, each given as the set of
    closed simplices meeting it.

    Inside one closed simplex the fiber is convex, so components of the
    support under face incidence are exactly the fiber components.  For
    one parameter y is located among the sweep levels by bisection and the
    level's components come from the map's `SweepIndex`; for two, the
    support is collected by a scan of the complex.
    """
    if f.k == 1:
        level = f.sweep.level(frac(y[0] if isinstance(y, (tuple, list)) else y))
        return () if level is None else f.sweep.components(level)
    y = tuple(frac(c) for c in y)
    return _components([s for s in f.domain.index.ranked
                        if _contains_point(f, s, y)])


# ---------------------------------------------------------------------------
# Reeb graph for one parameter

@dataclass(frozen=True, eq=False)
class ReebGraph:
    nodes: tuple
    node_value: dict
    node_critical: dict      # node -> critical vertex labels at its level
    node_members: dict       # node -> support simplices of the component
    edges: tuple             # pairs (a, b), parallel edges repeated

    def component_count(self) -> int:
        return len(connected_classes(self.nodes, self.edges))

    def cycle_rank(self) -> int:
        if not self.nodes:
            return 0
        return len(self.edges) - len(self.nodes) + self.component_count()

    def degree(self, node) -> int:
        return sum((a == node) + (b == node) for a, b in self.edges)


def reeb_graph(f: PLMap, jset: JacobiSet | None = None) -> ReebGraph:
    """Contract each fiber to its components and record the graph.

    The graph is read off the 2V-1 levels of the map's `SweepIndex`: every
    vertex value and every gap between consecutive values.  Inside a gap no
    vertex value intervenes, so a component at one level attaches to a
    component at the next exactly when they share a support simplex.
    Components containing a vertex of the critical locus `jset` (the H
    Jacobi set of f when omitted) at their level become nodes; all other
    components lie on monotone chains and are contracted away.
    """
    if f.k != 1:
        raise StructuralError("Reeb graph requires a single parameter")
    if f.domain.dimension < 0:
        raise EmptyComplexError("cannot sweep an empty complex")
    if jset is None:
        jset = jacobi_set(f)
    critical_at: dict = {}
    for s in jset.complex.simplices_of_dim(0):
        critical_at.setdefault(_scalar(f, s[0]), []).append(s[0])

    sweep = f.sweep
    layer = [sweep.components(li) for li in range(len(sweep.table))]

    is_node: dict = {}
    crit_at: dict = {}
    for li, comps in enumerate(layer):
        for ci, comp in enumerate(comps):
            if li % 2 == 1:
                is_node[(li, ci)] = False
                continue
            hits = sorted(v for v in critical_at.get(sweep.values[li // 2], ())
                          if (v,) in comp)
            crit_at[(li, ci)] = tuple(hits)
            is_node[(li, ci)] = bool(hits)

    # arcs across consecutive levels via shared support
    edges: dict = {}
    adj: dict = {key: [] for key in is_node}
    eid = 0
    for li in range(len(layer) - 1):
        for ci, a in enumerate(layer[li]):
            for cj, b in enumerate(layer[li + 1]):
                if a & b:
                    edges[eid] = ((li, ci), (li + 1, cj))
                    adj[(li, ci)].append(eid)
                    adj[(li + 1, cj)].append(eid)
                    eid += 1
    for key, node in is_node.items():
        if key[0] % 2 == 1 and len(adj[key]) != 2:
            raise InternalError("midpoint component must bridge exactly two levels")

    for key in sorted(k for k, node in is_node.items() if not node):
        incident = sorted(adj[key])
        if not incident:
            # an isolated regular component can only be a whole component of
            # the space with no critical vertex, which cannot happen
            raise InternalError(f"regular component {key} has no neighbours")
        if len(incident) != 2:
            raise InternalError(
                f"regular component {key} has degree {len(incident)}")
        e1, e2 = incident
        a = edges[e1][0] if edges[e1][1] == key else edges[e1][1]
        b = edges[e2][0] if edges[e2][1] == key else edges[e2][1]
        keep, drop = min(e1, e2), max(e1, e2)
        del edges[drop]
        edges[keep] = (a, b) if a <= b else (b, a)
        for n in (a, b):
            adj[n] = sorted({keep if e in (e1, e2) else e
                             for e in adj[n] if e in edges or e in (e1, e2)})
        del adj[key]

    kept = sorted(k for k, node in is_node.items() if node)
    label = {k: f"r{i}" for i, k in enumerate(kept)}
    node_value = {label[k]: sweep.values[k[0] // 2] for k in kept}
    node_critical = {label[k]: crit_at[k] for k in kept}
    node_members = {label[k]: layer[k[0]][k[1]] for k in kept}
    out_edges = []
    for e in sorted(edges):
        a, b = edges[e]
        if a not in label or b not in label:
            raise InternalError("contracted edge endpoint is not a node")
        pair = tuple(sorted((label[a], label[b])))
        out_edges.append(pair)
    return ReebGraph(nodes=tuple(label[k] for k in kept),
                     node_value=node_value, node_critical=node_critical,
                     node_members=node_members,
                     edges=tuple(sorted(out_edges)))


@dataclass(frozen=True)
class FiberAudit:
    boundaries: tuple        # critical values in increasing order
    counts: tuple            # one count per open interval, ends included
    passed: bool
    detail: tuple = ()


def interval_fiber_audit(f: PLMap, jset: JacobiSet | None = None,
                         samples: int = 3) -> FiberAudit:
    """Check that the fiber component count is constant on every open
    interval between consecutive critical values of the locus `jset` (the H
    Jacobi set of f when omitted), and report the counts."""
    if f.k != 1:
        raise StructuralError("interval audit requires a single parameter")
    if jset is None:
        jset = jacobi_set(f)
    crit = sorted({_scalar(f, s[0]) for s in jset.complex.simplices_of_dim(0)})
    if not crit:
        raise InternalError("a nonempty compact domain must have critical values")
    probes: list[list[Fraction]] = []
    probes.append([crit[0] - 1 - i for i in range(samples)])
    for a, b in zip(crit, crit[1:]):
        probes.append([a + (b - a) * Fraction(j, samples + 1)
                       for j in range(1, samples + 1)])
    probes.append([crit[-1] + 1 + i for i in range(samples)])
    counts = []
    detail = []
    ok = True
    for pts in probes:
        cs = [len(fiber_components(f, t)) for t in pts]
        counts.append(cs[0])
        detail.append(tuple(cs))
        if len(set(cs)) != 1:
            ok = False
    return FiberAudit(boundaries=tuple(crit), counts=tuple(counts),
                      passed=ok, detail=tuple(detail))


# ---------------------------------------------------------------------------
# the scaffold over a stratified plane

@dataclass(frozen=True, eq=False)
class ReebScaffold:
    """Fiber components over each stratum of the codomain, ordered by
    attachment: a component over a stratum sits below a component over a
    higher stratum when the latter limits onto the former."""
    codomain: CodomainStratification
    poset: Poset                # elements (stratum label, component index)
    representatives: dict       # stratum label -> sample point
    supports: dict              # element -> support simplices over the sample
    counts: dict                # stratum label -> component count

    def projection(self) -> MonotoneMap:
        """The forgetful map onto the occupied part of the codomain poset."""
        occupied = sorted({s for s, _ in self.poset.elements})
        sub = _induced_subposet(self.codomain.space.poset, occupied)
        return MonotoneMap(source=self.poset, target=sub,
                           mapping={e: e[0] for e in self.poset.elements})


def _induced_subposet(p: Poset, elements) -> Poset:
    keep = set(elements)
    rel = [(a, b) for (a, b) in p.relation_pairs() if a in keep and b in keep]
    return Poset(sorted(keep, key=canon_key), rel)


def _stratum_point(cs: CodomainStratification, label: str):
    if cs.k == 1:
        if label.startswith("p"):
            return (cs.geometry[label],)
        lo, hi = cs.geometry[label]
        if lo is None and hi is None:
            return (Fraction(0),)
        if lo is None:
            return (hi - 1,)
        if hi is None:
            return (lo + 1,)
        return ((lo + hi) / 2,)
    arr = cs.refined.arrangement
    if label.startswith("v"):
        return cs.geometry[label]
    if label.startswith("e"):
        a, b = cs.geometry[label]
        return vscale(Fraction(1, 2), vadd(a, b))
    if label == "f_out":
        return arr.face_interior_samples(len(arr.faces) - 1, 1)[0]
    return arr.face_interior_samples(int(label[1:]), 1)[0]


_NEAR_CAP = 40


def _match_unique(target_comps, probe_comp) -> int:
    hits = [i for i, c in enumerate(target_comps) if c & probe_comp]
    if len(hits) != 1:
        return -1
    return hits[0]


def reeb_scaffold(f: PLMap, cs: CodomainStratification | None = None) -> ReebScaffold:
    """Build the component poset over the stratified codomain `cs` of a
    two-parameter map; when omitted, the codomain is stratified by the H
    Jacobi set of f.

    Each stratum gets a sample point and its fiber components.  For every
    covering pair s < t of strata, the stratum t is sampled again at points
    walking toward s; a component over the walking point attaches the
    matching component over s below the matching component over t.  Matches
    go by shared support simplices and must be unique; if halving the walk
    distance `40` times never yields a unique match the input is reported
    as degenerate.

    For one parameter the strata are the critical values and the intervals
    between them, and the scaffold is the Reeb graph with edges subdivided
    once per interval.
    """
    if f.k not in (1, 2):
        raise StructuralError("the scaffold requires one or two parameters")
    if cs is None:
        cs = build_codomain_stratification(f, jacobi_set(f))

    reps: dict = {}
    comps: dict = {}
    for label in sorted(cs.space.cells):
        y = _stratum_point(cs, label)
        if cs.locate(y) != label:
            raise InternalError(f"sample for stratum {label} landed elsewhere")
        reps[label] = y
        comps[label] = fiber_components(f, y)

    elements = [(s, i) for s in sorted(comps) for i in range(len(comps[s]))]
    relations: list[tuple] = []
    for s, t in sorted(cs.space.poset.covers):
        if not comps[s] or not comps[t]:
            continue
        pairs = _attach(f, cs, reps, comps, s, t)
        relations.extend(((s, ci), (t, di)) for ci, di in pairs)
    elements = [e for e in elements if comps[e[0]]]
    poset = Poset(elements, relations)
    supports = {(s, i): comps[s][i] for s, i in elements}
    counts = {s: len(comps[s]) for s in comps}
    return ReebScaffold(codomain=cs, poset=poset, representatives=reps,
                        supports=supports, counts=counts)


def _chain_identify(f, cs, stratum, y0, comp, y1, end_comps) -> int:
    """Index in end_comps (the components over y1) of the component over y0
    reached from `comp` by following overlapping supports along the segment
    from y0 to y1, doubling the number of intermediate samples as needed.
    Returns -1 when no step count up to 2**10 gives an unambiguous chain."""
    for steps_pow in range(11):
        steps = 2 ** steps_pow
        pts = [vadd(y0, vscale(Fraction(j, steps), vsub(y1, y0)))
               for j in range(1, steps + 1)]
        if any(cs.locate(z) != stratum for z in pts):
            continue
        cur = comp
        ok = True
        for z in pts:
            near = fiber_components(f, z)
            ci = _match_unique(near, cur)
            if ci < 0:
                ok = False
                break
            cur = near[ci]
        if ok:
            ti = _match_unique(end_comps, cur)
            if ti >= 0:
                return ti
    return -1


def _attach(f, cs, reps, comps, s, t):
    """Pairs (component index over s, component index over t) related by
    limiting, found by sampling t ever closer to the sample point of s."""
    ys = reps[s]
    yt = reps[t]
    last_error = "no admissible walking point"
    for m in range(1, _NEAR_CAP + 1):
        y = vadd(ys, vscale(Fraction(1, 2 ** m), vsub(yt, ys)))
        if cs.locate(y) != t:
            last_error = f"walking point at step {m} left stratum {t}"
            continue
        near = fiber_components(f, y)
        if len(near) != len(comps[t]):
            last_error = "component count varies inside one stratum"
            continue
        pairs = set()
        ok = True
        for comp in near:
            ci = _match_unique(comps[s], comp)
            di = _chain_identify(f, cs, t, y, comp, yt, comps[t])
            if ci < 0 or di < 0:
                ok = False
                last_error = f"ambiguous component match between {s} and {t}"
                break
            pairs.add((ci, di))
        if ok:
            return sorted(pairs)
    raise DegeneracyError(
        f"could not attach components over {t} to {s}: {last_error}")


# ---------------------------------------------------------------------------
# the Stein square

@dataclass(frozen=True)
class SteinReport:
    continuous: bool
    projection_monotone: bool
    projection_surjective: bool
    commutes: bool
    cell_map: dict
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return (self.continuous and self.projection_monotone
                and self.projection_surjective and self.commutes)


def check_stein_square(f: PLMap, scaffold: ReebScaffold | None = None) -> SteinReport:
    """Verify that quotienting fibers to components squares with the
    codomain stratification.

    Forgetting the component index must carry the scaffold to the stratified
    codomain as a stratified map, checked on the poset level.  On the point
    level, every simplex barycenter is pushed to its fiber component, which
    must identify with exactly one scaffold component over the stratum of
    the barycenter image; the forgetful image of that component has to be
    the stratum again.  An open simplex may cross several strata, so the
    point checks run per barycenter, never per closed cell.
    """
    if scaffold is None:
        scaffold = reeb_scaffold(f)
    cs = scaffold.codomain
    notes = []

    scaffold_space = StratifiedSpace(
        poset=scaffold.poset,
        cells=frozenset(scaffold.poset.elements),
        closure=frozenset(scaffold.poset.relation_pairs()),
        assignment={e: e for e in scaffold.poset.elements})
    forget = {e: e[0] for e in scaffold.poset.elements}
    continuous, mono = check_stratified_map(forget, scaffold_space, cs.space)
    if not continuous:
        notes.append("forgetting the component index is not a stratified map")

    cell_map: dict = {}
    commutes = True
    for s in f.domain.sorted_simplices():
        y = f.barycenter_image(s)
        stratum = cs.locate(y)
        here = fiber_components(f, y)
        ci = _match_unique(here, frozenset([s]))
        if ci < 0:
            raise InternalError("simplex missing from its own fiber support")
        target = _walk_match(f, cs, scaffold, stratum, y, here[ci])
        cell_map[s] = (stratum, target)
        image = mono((stratum, target)) if mono else stratum
        if image != stratum:
            commutes = False
            notes.append(f"composite sends {s!r} to {image!r}, not {stratum!r}")

    try:
        proj = scaffold.projection()
        projection_monotone = True
        surj = proj.is_surjective()
    except StructuralError:
        projection_monotone = False
        surj = False
        notes.append("projection onto occupied strata is not monotone")
    if projection_monotone and not surj:
        notes.append("projection misses an occupied stratum")
    return SteinReport(continuous=continuous,
                       projection_monotone=projection_monotone,
                       projection_surjective=surj, commutes=commutes,
                       cell_map=cell_map, notes=tuple(notes))


def _walk_match(f, cs, scaffold, stratum, y, comp) -> int:
    """Identify a fiber component over y with one over the stratum's
    representative."""
    scaffold_comps = [scaffold.supports[(stratum, i)]
                      for i in range(scaffold.counts[stratum])]
    ti = _chain_identify(f, cs, stratum, y,  comp,
                         scaffold.representatives[stratum], scaffold_comps)
    if ti < 0:
        raise DegeneracyError(
            f"cannot identify a fiber component over stratum {stratum}")
    return ti


def stratum_fiber_audit(f: PLMap, scaffold: ReebScaffold | None = None,
                        samples: int = 3):
    """Check that the fiber component count is constant across each
    codomain stratum by sampling every stratum at several points."""
    if scaffold is None:
        scaffold = reeb_scaffold(f)
    cs = scaffold.codomain
    results: dict = {}
    ok = True
    for label in sorted(cs.space.cells):
        pts = [scaffold.representatives[label]]
        if cs.k == 1:
            if label.startswith("i"):
                pts = _interval_samples(cs.geometry[label], samples)
        elif label.startswith("e"):
            a, b = cs.geometry[label]
            for j in range(1, samples):
                pts.append(vadd(a, vscale(Fraction(j, samples + 1), vsub(b, a))))
        elif label.startswith("f") and label != "f_out":
            arr = cs.refined.arrangement
            pts = arr.face_interior_samples(int(label[1:]), samples)
        elif label == "f_out":
            arr = cs.refined.arrangement
            pts = arr.face_interior_samples(len(arr.faces) - 1, samples)
        counts = []
        for y in pts:
            if cs.locate(y) != label:
                raise InternalError(f"audit sample for {label} landed elsewhere")
            counts.append(len(fiber_components(f, y)))
        results[label] = tuple(counts)
        if len(set(counts)) != 1:
            ok = False
    return ok, results


def _interval_samples(bounds, n: int) -> list:
    lo, hi = bounds
    if lo is None and hi is None:
        return [(Fraction(j),) for j in range(n)]
    if lo is None:
        return [(hi - j - 1,) for j in range(n)]
    if hi is None:
        return [(lo + j + 1,) for j in range(n)]
    return [(lo + (hi - lo) * Fraction(j, n + 1),) for j in range(1, n + 1)]
