"""Shared random generators and the independent homology, sweep, scaffold,
audit, multiplicity, arrangement and point-location oracles.

Everything here is deliberately low-tech: the homology oracle uses dense
0/1 row matrices and textbook elimination so that it shares no code path
with the package's bit-packed reduction; the sweep oracle rescans and
re-sorts the whole complex at every level instead of reading a level
index, and decides a planar fiber by Carathéodory on vertex images
instead of the package's hull predicate; the scaffold oracle attaches
strata by walking sample points toward each other instead of gluing the
cells of an arrangement; the audit oracles count the fiber components at
a few sample points of each stratum instead of reading the counts off the
fine cells; the multiplicity oracle scans every locus edge at every image
point instead of reading the arrangement's crossings; the arrangement and
point-location oracles work on `Fraction` points with the `geometry`
predicates instead of the integer kernel, the face-sample oracle confirms
each candidate by that point location instead of the face's own cycles,
and the incidence oracle
collects each face's vertex set and edge keys instead of walking its
cycles once; the JSON oracle is the json module's own indenting encoder;
the local-table oracle decides genericity, the H, D and L verdicts and
the directional links of each simplex one at a time on `Fraction` values,
with links found by scanning the complex and homology by the dense
oracle, instead of reading the map's integer table; the manifold-check and domain-stratification
oracles build every link by scanning the complex and flood the complement
on `Simplex` tuples, instead of reading the complex's rank tables; the
poset oracle closes the relation by one search per element, checks
antisymmetry in a second pass and tests each strict pair against every
element between, instead of one post-order pass and set differences; the
chain oracle lists every maximal chain and sorts the list, instead of
trusting the order of a lazy walk; the normal oracle expands each
coordinate's cofactor with its own sign, instead of reading
`orthogonal_vector`; and the generators rejection-sample until the exact-arithmetic validators
accept the instance.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations

from plstrat import (CodomainStratification, DegeneracyError,
                     EmptyComplexError, FiberAudit, GenericityError,
                     InternalError, JacobiSet, ManifoldReport,
                     NotAMemberError, PlanarArrangement, PLMap, Poset,
                     ReebGraph, ReebScaffold, Simplex, SimplicialComplex,
                     StratifiedSpace, StructuralError,
                     build_codomain_stratification, check_generic, face_poset,
                     fiber_components, jacobi_set, wedge_extend)
from plstrat.arrangement import Face
from plstrat.geometry import (canon_key, canon_sorted, cone_is_full, cross2, det,
                              dot, format_frac, frac, matrix_rank, on_segment,
                              proper_crossing, segments_share_line_overlap, vadd,
                              vscale, vsub)
from plstrat.io import example_map


# ---------------------------------------------------------------------------
# canonical JSON oracle

def naive_dumps(obj) -> str:
    """The canonical text by `json.dumps`, whose indenting encoder is the
    json module's pure-Python one."""
    return json.dumps(obj, sort_keys=True, indent=2,
                      separators=(",", ": "), ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# naive GF(2) homology oracle

def _row_rank(rows: list[list[int]]) -> int:
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                rows[r] = [(x + y) % 2 for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def naive_reduced_betti(k: SimplicialComplex) -> dict[int, int]:
    """Reduced Z/2 Betti numbers of the augmented complex, by dense
    row-echelon elimination on plain integer lists."""
    by_dim: dict[int, list[tuple]] = {-1: [()]}
    for s in k.sorted_simplices():
        by_dim.setdefault(s.dim, []).append(tuple(s))
    top = max(by_dim)
    ranks: dict[int, int] = {}
    for d in range(0, top + 1):
        row_index = {s: i for i, s in enumerate(by_dim[d - 1])}
        columns = []
        for c in by_dim.get(d, []):
            col = [0] * len(row_index)
            if d == 0:
                col[row_index[()]] = 1
            else:
                for i in range(len(c)):
                    col[row_index[c[:i] + c[i + 1:]]] = 1
            columns.append(col)
        ranks[d] = _row_rank([list(r) for r in zip(*columns)]) if columns else 0
    return {d: len(by_dim.get(d, [])) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in range(-1, top + 1)}


# ---------------------------------------------------------------------------
# Fraction per-simplex oracle of the local table

def naive_link(k: SimplicialComplex, sigma) -> SimplicialComplex:
    """The link of sigma, found by scanning every simplex of k."""
    ss = set(sigma)
    return SimplicialComplex(
        [tuple(v for v in t if v not in ss) for t in k.simplices
         if ss < set(t)], check=False)


def naive_integer_normal(points) -> tuple:
    """The n with <x - p0, n> = det(p1 - p0, ..., x - p0) for k points of
    Z^k, by the cofactor of each coordinate in the last row."""
    k = len(points[0])
    rows = [tuple(x - y for x, y in zip(p, points[0])) for p in points[1:]]
    return tuple((-1) ** (k - 1 + j) * det([r[:j] + r[j + 1:] for r in rows])
                 for j in range(k))


def naive_normal_direction(f: PLMap, sigma) -> tuple:
    """A normal of the image of a (k-1)-simplex, on `Fraction`s."""
    if f.k == 1:
        return (Fraction(1),)
    if f.k == 2:
        a, b = f.image(sigma)
        d = vsub(b, a)
        if d == (0, 0):
            raise GenericityError(f"degenerate image of {tuple(sigma)!r}")
        return (-d[1], d[0])
    raise StructuralError(f"criticality tests support k <= 2, got k={f.k}")


def _naive_vector(u) -> str:
    parts = [format_frac(x) for x in u]
    return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"


def _naive_split(f: PLMap, sigma, lk: SimplicialComplex, u):
    """Upper and lower full subcomplexes of the link along u, comparing
    `Fraction` heights with the image of sigma's barycenter."""
    level = dot(f.barycenter_image(sigma), u)
    upper, lower, ties = set(), set(), []
    for v in lk.vertices:
        h = dot(f.value(v), u)
        if h > level:
            upper.add(v)
        elif h < level:
            lower.add(v)
        else:
            ties.append(v)
    if ties:
        raise GenericityError(
            f"vertex {min(ties, key=canon_key)!r} ties with {tuple(sigma)!r} "
            f"at value {format_frac(level)} along direction {_naive_vector(u)}")
    return tuple(SimplicialComplex([s for s in lk.simplices if set(s) <= side],
                                   check=False) for side in (upper, lower))


def naive_directional_links(f: PLMap, sigma, u):
    sigma = Simplex(sigma)
    u = tuple(frac(x) for x in u)
    if len(u) != f.k or all(x == 0 for x in u):
        raise StructuralError("direction must be a nonzero vector in R^k")
    return _naive_split(f, sigma, naive_link(f.domain, sigma), u)


def _nontrivial(k: SimplicialComplex) -> bool:
    return any(naive_reduced_betti(k).values())


def naive_h_side_verdicts(f: PLMap, sigma) -> tuple[bool, bool]:
    upper, lower = naive_directional_links(f, sigma, naive_normal_direction(f, sigma))
    return _nontrivial(upper), _nontrivial(lower)


def naive_is_h_critical(f: PLMap, sigma) -> bool:
    return any(naive_h_side_verdicts(f, sigma))


def naive_is_d_critical(f: PLMap, sigma) -> bool:
    """The sign test along the normal on `Fraction`s for a (k-1)-simplex
    with distinct vertex images and k <= 2, `cone_is_full` otherwise."""
    sigma = Simplex(sigma)
    star = {v for t in f.domain.simplices if set(sigma) <= set(t) for v in t}
    star -= set(sigma)
    image = f.image(sigma)
    if sigma.dim == f.k - 1 and f.k <= 2 and len(set(image)) == len(image):
        n = naive_normal_direction(f, sigma)
        level = dot(image[0], n)
        heights = [dot(f.value(v), n) for v in star]
        return not (any(h > level for h in heights) and any(h < level for h in heights))
    b = f.barycenter_image(sigma)
    gens = [vsub(f.value(v), b) for v in sorted(star, key=canon_key)]
    for w in sigma:
        d = vsub(f.value(w), b)
        gens += [d, tuple(-x for x in d)]
    return not cone_is_full(gens, f.k)


def _graph(k: SimplicialComplex):
    """Vertices, edges and connectedness of a complex of dimension <= 1."""
    verts = set(k.vertices)
    edges = [tuple(s) for s in k.simplices if len(s) == 2]
    seen, todo = set(), list(verts)[:1]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo += [w for e in edges if v in e for w in e]
    return verts, edges, seen == verts


def _degrees(verts, edges) -> list[int]:
    return [sum(v in e for e in edges) for v in verts]


def naive_is_l_critical_surface(f: PLMap, v) -> bool | None:
    """Both sides of the link circle must be single arcs, on `Fraction`
    heights; None unless k = 1 and the link of the vertex is one circle."""
    if f.k != 1:
        return None
    v = Simplex([v] if not isinstance(v, (tuple, list, Simplex)) else v)
    lk = naive_link(f.domain, v)
    verts, edges, connected = _graph(lk)
    if (lk.dimension != 1 or not verts or len(edges) != len(verts)
            or set(_degrees(verts, edges)) != {2} or not connected):
        return None
    arcs = []
    for side in _naive_split(f, v, lk, (Fraction(1),)):
        verts, edges, connected = _graph(side)
        arcs.append(bool(verts) and side.dimension <= 1 and connected
                    and len(edges) == len(verts) - 1
                    and max(_degrees(verts, edges)) <= 2)
    return not all(arcs)


def _naive_independent(points) -> bool:
    diffs = [vsub(p, points[0]) for p in points[1:]]
    return not diffs or matrix_rank(diffs) == len(diffs)


def naive_check_generic(f: PLMap) -> tuple:
    """The G1, G2 and G3 violations, on `Fraction` images by elimination."""
    bad = []
    dom = f.domain
    for s in dom.sorted_simplices():
        if s.dim <= f.k and not _naive_independent(f.image(s)):
            bad.append(("G1", s, "image not affinely independent"))
    if f.k == 1:
        seen: dict = {}
        for v in sorted(dom.vertices, key=canon_key):
            if f.value(v) in seen:
                bad.append(("G2", (seen[f.value(v)], v), "duplicate vertex value"))
            else:
                seen[f.value(v)] = v
    for s in dom.simplices_of_dim(f.k - 1):
        for v in sorted(naive_link(dom, s).vertices, key=canon_key):
            if not _naive_independent(f.image(s) + (f.value(v),)):
                bad.append(("G3", (s, v), "link vertex on affine hull of image"))
    return tuple(bad)


# ---------------------------------------------------------------------------
# built-link oracles of the manifold check and the domain stratification

def _naive_facets(k: SimplicialComplex) -> list:
    covered = {Simplex(f) for s in k.simplices if len(s) > 1
               for f in combinations(s, len(s) - 1)}
    return [s for s in k.simplices if s not in covered]


def _naive_is_cycle(k: SimplicialComplex) -> bool:
    verts, edges, connected = _graph(k)
    return (k.dimension == 1 and bool(verts) and len(edges) == len(verts)
            and set(_degrees(verts, edges)) == {2} and connected)


def naive_sphere_verdict(k: SimplicialComplex) -> str:
    """The sphere verdict through dimension two on the complex itself,
    with every vertex link built by `naive_link`."""
    d = k.dimension
    if d == -1:
        return "sphere"
    if d == 0:
        return "sphere" if len(k.simplices) == 2 else "not-sphere"
    if d == 1:
        return "sphere" if _naive_is_cycle(k) else "not-sphere"
    if d > 2:
        return "undecided"
    triangles = [s for s in k.simplices if len(s) == 3]
    per_edge = {e: sum(set(e) < set(t) for t in triangles)
                for e in k.simplices if len(e) == 2}
    if (any(f.dim != 2 for f in _naive_facets(k)) or set(per_edge.values()) != {2}
            or not _graph(k)[2]
            or not all(_naive_is_cycle(naive_link(k, (v,))) for v in k.vertices)):
        return "not-sphere"
    chi = sum((-1) ** s.dim for s in k.simplices)
    return "sphere" if chi == 2 else "not-sphere"


def naive_manifold_check(k: SimplicialComplex) -> ManifoldReport:
    """`manifold_check` with the link of every simplex built by scanning
    the complex and decided by `naive_sphere_verdict`."""
    if not k.simplices:
        raise EmptyComplexError("operation undefined on the empty complex")
    notes = []
    n = k.dimension
    pure = all(f.dim == n for f in _naive_facets(k))
    if not pure:
        notes.append("complex is not pure")
    ridges: dict = {}
    for f in k.simplices:
        if f.dim == n > 0:
            for r in combinations(f, n):
                ridges[r] = ridges.get(r, 0) + 1
    closed = all(c == 2 for c in ridges.values())
    if not closed and pure:
        notes.append("some ridge is not shared by exactly two facets")
    link_checks = {}
    links_connected = True
    for s in k.simplices:
        lk = naive_link(k, s)
        verdict = link_checks[s] = naive_sphere_verdict(lk)
        if lk.dimension >= 1 and verdict != "sphere" and not _graph(lk)[2]:
            links_connected = False
    if not links_connected:
        notes.append("some link is disconnected")
    return ManifoldReport(
        is_pure=pure, is_weak_pseudomanifold=pure and closed and links_connected,
        complex_verdict=naive_sphere_verdict(k), link_checks=link_checks,
        notes=tuple(notes))


def naive_domain_stratification(f: PLMap, j: JacobiSet | None = None) -> StratifiedSpace:
    """The domain stratification on `Simplex` tuples: complement classes by
    flooding face incidence from each unreached simplex in (dimension,
    `canon_key`) order, and closure pairs from every simplex's faces."""
    locus = (jacobi_set(f) if j is None else j).complex
    jset, x = locus.simplices, f.domain
    if not x.simplices:
        raise EmptyComplexError("operation undefined on the empty complex")
    for s in jset:
        if s not in x.simplices:
            raise NotAMemberError(f"locus simplex {tuple(s)!r} not in the domain")
    rest = sorted(x.simplices - jset, key=lambda s: (s.dim, canon_key(s)))
    near: dict = {s: [] for s in rest}
    for s in rest:
        for fc in s.boundary():
            if fc in near:
                near[s].append(fc)
                near[fc].append(s)
    assignment = {s: s for s in jset}
    labels = []
    for s in rest:
        if s in assignment:
            continue
        labels.append(label := f"C{len(labels)}")
        todo = [s]
        while todo:
            t = todo.pop()
            if t not in assignment:
                assignment[t] = label
                todo += near[t]
    closure = frozenset((fc, s) for s in x.simplices for fc in s.faces() if fc != s)
    poset = wedge_extend(face_poset(locus), labels,
                         {(fc, assignment[s]) for fc, s in closure
                          if fc in jset and s not in jset})
    return StratifiedSpace(poset=poset, cells=frozenset(x.simplices),
                           closure=closure, assignment=assignment)


# ---------------------------------------------------------------------------
# naive fiber and Reeb sweep oracle

def _naive_components(simplices) -> tuple[frozenset, ...]:
    """Components of a set of simplices, two members adjacent when one is a
    face of the other; sorted by their canon_key-sorted member lists."""
    pool = set(simplices)
    by_vertex: dict = {}
    for s in pool:
        for v in s:
            by_vertex.setdefault(v, []).append(s)
    seen: set = set()
    comps = []
    for start in sorted(pool, key=canon_key):
        if start in seen:
            continue
        comp = set()
        stack = [start]
        seen.add(start)
        while stack:
            s = stack.pop()
            comp.add(s)
            for v in s:
                for t in by_vertex[v]:
                    if t not in seen and (set(t) <= set(s) or set(s) <= set(t)):
                        seen.add(t)
                        stack.append(t)
        comps.append(frozenset(comp))
    return tuple(sorted(
        comps, key=lambda c: canon_key(tuple(sorted(c, key=canon_key)))))


def _naive_support(f: PLMap, y) -> list:
    """Every simplex whose image meets y: a value for one parameter, a
    point of the plane for two."""
    if f.k == 1:
        t = frac(y[0] if isinstance(y, (tuple, list)) else y)
        return [s for s in f.domain.simplices
                if min(f.value(v)[0] for v in s) <= t
                <= max(f.value(v)[0] for v in s)]
    y = tuple(frac(c) for c in y)
    return [s for s in f.domain.simplices
            if _in_hull(y, [f.value(v) for v in s])]


def _in_hull(y, pts) -> bool:
    """Whether the plane point y lies in the convex hull of `pts`, by
    Carathéodory: y is one of the points, inside a segment between two of
    them, or inside a triangle of three, each read off `cross2` signs."""
    if y in pts:
        return True
    for a, b in combinations(pts, 2):
        if cross2(vsub(b, a), vsub(y, a)) == 0 and dot(vsub(a, y), vsub(b, y)) < 0:
            return True
    # a collinear triple never has three sides of one sign
    for a, b, c in combinations(pts, 3):
        sides = [cross2(vsub(q, p), vsub(y, p)) for p, q in ((a, b), (b, c), (c, a))]
        if all(x > 0 for x in sides) or all(x < 0 for x in sides):
            return True
    return False


def naive_fiber_components(f: PLMap, y) -> tuple[frozenset, ...]:
    """Fiber components over y by a scan of every simplex."""
    return _naive_components(_naive_support(f, y))


def naive_sweep_levels(f: PLMap) -> list[Fraction]:
    """Every vertex value and every midpoint between consecutive values."""
    values = sorted({f.value(v)[0] for v in f.domain.vertices})
    levels: list[Fraction] = []
    for i, v in enumerate(values):
        if i:
            levels.append((values[i - 1] + v) / 2)
        levels.append(v)
    return levels


def naive_reeb_graph(f: PLMap, jset: JacobiSet | None = None) -> ReebGraph:
    """The Reeb graph from a full rescan of the complex at every sweep
    level, contracting regular components one at a time.  A component of a
    vertex level is a node when it meets other than one component of the
    gap below or of the gap above, or when it holds a locus vertex; a node
    over a value where the locus has no vertex is a `DegeneracyError`."""
    if jset is None:
        jset = jacobi_set(f)
    critical_vertices = {s[0] for s in jset.complex.simplices}
    critical_values = {f.value(v)[0] for v in critical_vertices}
    levels = naive_sweep_levels(f)
    layer = [naive_fiber_components(f, t) for t in levels]
    is_node: dict = {}
    crit_at: dict = {}
    for li, t in enumerate(levels):
        for ci, comp in enumerate(layer[li]):
            hits = [] if li % 2 else sorted(
                v for v in critical_vertices
                if f.value(v)[0] == t and Simplex((v,)) in comp)
            crit_at[(li, ci)] = tuple(hits)
            meets = [sum(bool(comp & c) for c in layer[lj])
                     if 0 <= lj < len(levels) else 0 for lj in (li - 1, li + 1)]
            is_node[(li, ci)] = li % 2 == 0 and (bool(hits) or meets != [1, 1])
    kept = sorted(k for k, node in is_node.items() if node)
    for li, ci in kept:
        if levels[li] not in critical_values:
            least = min(layer[li][ci], key=canon_key)
            raise DegeneracyError(
                "fiber component through {" + ", ".join(map(str, least))
                + f"}} at value {format_frac(levels[li])} is a node of the Reeb "
                f"graph over no critical value of the {jset.notion} locus")
    edges: dict = {}
    adj: dict = {key: [] for key in is_node}
    for li in range(len(levels) - 1):
        for ci, a in enumerate(layer[li]):
            for cj, b in enumerate(layer[li + 1]):
                if a & b:
                    edges[len(edges)] = ((li, ci), (li + 1, cj))
                    adj[(li, ci)].append(len(edges) - 1)
                    adj[(li + 1, cj)].append(len(edges) - 1)
    if any(key[0] % 2 and len(adj[key]) != 2 for key in is_node):
        raise InternalError("midpoint component must bridge exactly two levels")
    for key in sorted(k for k, node in is_node.items() if not node):
        # one edge below and one above, by the node rule and the check above
        e1, e2 = sorted(adj[key])
        a = edges[e1][0] if edges[e1][1] == key else edges[e1][1]
        b = edges[e2][0] if edges[e2][1] == key else edges[e2][1]
        del edges[e2]
        edges[e1] = (min(a, b), max(a, b))
        for n in (a, b):
            adj[n] = sorted({e1 if e == e2 else e for e in adj[n]})
    label = {k: f"r{i}" for i, k in enumerate(kept)}
    return ReebGraph(
        nodes=tuple(label[k] for k in kept),
        node_value={label[k]: levels[k[0]] for k in kept},
        node_critical={label[k]: crit_at[k] for k in kept},
        node_members={label[k]: layer[k[0]][k[1]] for k in kept},
        edges=tuple(sorted(tuple(sorted((label[a], label[b])))
                           for a, b in edges.values())))


# ---------------------------------------------------------------------------
# sampled fiber-audit oracles

def _interval_samples(bounds, n: int) -> list:
    """n points inside an open interval of the line, an end None when the
    interval is unbounded on that side."""
    lo, hi = bounds
    if lo is None and hi is None:
        return [(Fraction(j),) for j in range(n)]
    if lo is None:
        return [(hi - j - 1,) for j in range(n)]
    if hi is None:
        return [(lo + j + 1,) for j in range(n)]
    return [(lo + (hi - lo) * Fraction(j, n + 1),) for j in range(1, n + 1)]


def _stratum_samples(cs: CodomainStratification, label: str, n: int) -> list:
    """n points inside the stratum `label` of `cs`, or its one point when
    the stratum is a point."""
    g = cs.geometry[label]
    if cs.k == 1:
        return [(g,)] if label.startswith("p") else _interval_samples(g, n)
    if label.startswith("v"):
        return [g]
    if label.startswith("e"):
        a, b = g
        return [vadd(a, vscale(Fraction(j, n + 1), vsub(b, a)))
                for j in range(1, n + 1)]
    return cs.refined.arrangement.face_interior_samples(g.index, n)


def sampled_interval_audit(f: PLMap, jset: JacobiSet | None = None,
                           samples: int = 3) -> FiberAudit:
    """`interval_fiber_audit` by sampling: the fiber counts at `samples`
    points of each interval between consecutive critical values, the
    first of them reported as the interval's count."""
    if jset is None:
        jset = jacobi_set(f)
    crit = sorted({f.value(s[0])[0] for s in jset.complex.simplices_of_dim(0)})
    detail = [tuple(len(fiber_components(f, t)) for t in _interval_samples(bounds, samples))
              for bounds in zip([None] + crit, crit + [None])]
    return FiberAudit(boundaries=tuple(crit), counts=tuple(d[0] for d in detail),
                      passed=all(len(set(d)) == 1 for d in detail),
                      detail=tuple(detail))


def sampled_stratum_audit(f: PLMap, scaffold: ReebScaffold | None = None,
                          samples: int = 3):
    """`stratum_fiber_audit` by sampling: the fiber counts at `samples`
    points of each stratum of the scaffold's codomain (of the H codomain
    without a scaffold), at its one point for a point stratum."""
    if scaffold is None:
        cs = build_codomain_stratification(f, jacobi_set(f))
    else:
        cs = scaffold.codomain
    results = {}
    for label in sorted(cs.space.cells):
        points = _stratum_samples(cs, label, samples)
        if any(cs.locate(y) != label for y in points):
            raise InternalError(f"audit sample for {label} landed elsewhere")
        results[label] = tuple(len(fiber_components(f, y)) for y in points)
    return all(len(set(c)) == 1 for c in results.values()), results


# ---------------------------------------------------------------------------
# sampling scaffold oracle

_NEAR_CAP = 40


def _match_unique(target_comps, probe_comp) -> int:
    hits = [i for i, c in enumerate(target_comps) if c & probe_comp]
    return hits[0] if len(hits) == 1 else -1


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
        for z in pts:
            near = naive_fiber_components(f, z)
            ci = _match_unique(near, cur)
            if ci < 0:
                break
            cur = near[ci]
        else:
            ti = _match_unique(end_comps, cur)
            if ti >= 0:
                return ti
    return -1


def _attach(f, cs, reps, comps, s, t) -> list[tuple[int, int]]:
    """Pairs (component index over s, component index over t) related by
    limiting, found by sampling t ever closer to the sample point of s."""
    ys, yt = reps[s], reps[t]
    for m in range(1, _NEAR_CAP + 1):
        y = vadd(ys, vscale(Fraction(1, 2 ** m), vsub(yt, ys)))
        if cs.locate(y) != t:
            continue
        near = naive_fiber_components(f, y)
        if len(near) != len(comps[t]):
            continue
        pairs = {(_match_unique(comps[s], comp),
                  _chain_identify(f, cs, t, y, comp, yt, comps[t]))
                 for comp in near}
        if all(ci >= 0 and di >= 0 for ci, di in pairs):
            return sorted(pairs)
    raise DegeneracyError(f"could not attach components over {t} to {s}")


def sampled_scaffold(f: PLMap, cs: CodomainStratification) -> tuple[Poset, dict]:
    """The component poset over the strata of `cs` and the Stein cell map,
    by walking sample points.

    Components over a stratum are indexed by the fibers at its sample
    point.  For each covering pair s < t, t is sampled at points halving
    their way toward the sample point of s; a component over such a point
    relates the component over s it overlaps to the one over t it reaches by
    a chain of overlapping fibers along a straight walk.  Each simplex goes
    to the component over its barycenter image's stratum reached the same
    way from the barycenter image."""
    reps = {label: _stratum_samples(cs, label, 1)[0] for label in cs.space.cells}
    comps = {label: naive_fiber_components(f, y) for label, y in reps.items()}
    elements = [(s, i) for s in sorted(comps) for i in range(len(comps[s]))]
    relations = []
    for s, t in sorted(cs.space.poset.covers):
        if comps[s] and comps[t]:
            relations += [((s, ci), (t, di))
                          for ci, di in _attach(f, cs, reps, comps, s, t)]
    cell_map = {}
    for s in f.domain.sorted_simplices():
        y = f.barycenter_image(s)
        stratum = cs.locate(y)
        here = naive_fiber_components(f, y)
        comp = here[_match_unique(here, frozenset([s]))]
        ti = _chain_identify(f, cs, stratum, y, comp, reps[stratum],
                             comps[stratum])
        if ti < 0:
            raise DegeneracyError(f"cannot identify a component over {stratum}")
        cell_map[s] = (stratum, ti)
    return Poset(elements, relations), cell_map


# ---------------------------------------------------------------------------
# multiplicity oracle

def naive_multiplicities(f: PLMap, j: JacobiSet, points) -> tuple[int, ...]:
    """Preimage points inside the locus of each image point: the locus
    vertices mapped onto it plus the locus edges whose open image segment
    passes through it, by a scan of every edge at every point."""
    images = {f.value(s[0]) for s in j.complex.simplices_of_dim(0)}
    segments = [(f.value(a), f.value(b)) for a, b in j.complex.simplices_of_dim(1)]
    return tuple((p in images) + sum(on_segment(p, a, b, closed=False)
                                     for a, b in segments)
                 for p in points)


# ---------------------------------------------------------------------------
# arrangement oracle

def _ray_parity(p, verts, walk) -> bool:
    """Even-odd test: whether a rightward ray from p crosses the closed walk
    of directed edges (u, v) over `verts` an odd number of times."""
    cnt = 0
    for u, v in walk:
        a, b = verts[u], verts[v]
        if (a[1] > p[1]) != (b[1] > p[1]):
            x = a[0] + (p[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if x > p[0]:
                cnt ^= 1
    return cnt == 1


def naive_locate(arr: PlanarArrangement, p) -> tuple:
    """`PlanarArrangement.locate` on `Fraction` points: the vertex index,
    then `on_segment` over every edge whose bounding box holds p, then the
    ray-parity test on the outer cycles of the bounded faces, smallest
    area first, so the first hit is the innermost face."""
    p = tuple(frac(c) for c in p)
    if p in arr.vertex_id:
        return ("v", arr.vertex_id[p])
    x, y = p
    for i, (u, v) in enumerate(arr.edges):
        a, b = arr.vertices[u], arr.vertices[v]
        if (min(a[0], b[0]) <= x <= max(a[0], b[0])
                and min(a[1], b[1]) <= y <= max(a[1], b[1])
                and on_segment(p, a, b, closed=False)):
            return ("e", i)
    for face in _by_area(arr):
        if _ray_parity(p, arr.vertices, face.cycles[0]):
            return ("f", face.index)
    return ("f", arr.faces[-1].index)


def naive_face_samples(arr: PlanarArrangement, index: int, n: int) -> list:
    """`PlanarArrangement.face_interior_samples` by its halving rule, each
    candidate confirmed by `naive_locate` instead of the face's own
    cycles."""
    face = arr.faces[index]
    if not face.bounded:
        _, _, x1, y1 = arr.bounding_box()
        return [(x1 + 1 + i, y1 + 1 + i) for i in range(n)]
    u, v = min((min(h), max(h)) for c in face.cycles for h in c)
    a, b = arr.vertices[u], arr.vertices[v]
    d = vsub(b, a)
    normal = (-d[1], d[0])
    out = []
    for j in range(1, n + 1):
        base = vadd(a, vscale(Fraction(j, n + 1), d))
        step, found = Fraction(1, 2), None
        while found is None:
            for cand in (vadd(base, vscale(step, normal)),
                         vadd(base, vscale(-step, normal))):
                if naive_locate(arr, cand) == ("f", index):
                    found = cand
                    break
            step /= 2
        out.append(found)
    return out


@lru_cache(maxsize=1)
def _by_area(arr: PlanarArrangement) -> list:
    """The bounded faces of `arr`, smallest area first."""
    return sorted((f for f in arr.faces if f.bounded),
                  key=lambda f: (f.area2, f.index))


def _param(x, a, b) -> Fraction:
    d = vsub(b, a)
    return dot(vsub(x, a), d) / dot(d, d)


class _NaiveArrangement(PlanarArrangement):
    """`PlanarArrangement` built on `Fraction` points with the `geometry`
    predicates: overlap, crossing and endpoint tests called separately for
    every segment pair, rational cut parameters, and rotation, area and
    containment tests on rational coordinates."""

    def _build(self):
        segs = self.segments
        cuts: list[dict] = [{Fraction(0): p, Fraction(1): q} for p, q in segs]
        crossing_pairs: dict = {}
        for i in range(len(segs)):
            a, b = segs[i]
            for j in range(i + 1, len(segs)):
                c, d = segs[j]
                if segments_share_line_overlap(a, b, c, d):
                    raise GenericityError(f"segments {i} and {j} overlap along a line")
                x = proper_crossing(a, b, c, d)
                if x is not None:
                    cuts[i][_param(x, a, b)] = x
                    cuts[j][_param(x, c, d)] = x
                    crossing_pairs.setdefault(x, set()).add((i, j))
                    continue
                for e, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
                    if on_segment(e, u, v, closed=False):
                        raise GenericityError(
                            f"endpoint {e!r} lies interior to another segment")
        for x, pairs in crossing_pairs.items():
            if len(pairs) > 1:
                raise GenericityError(f"three or more segments meet at {x!r}")
        self.crossing_points = frozenset(crossing_pairs)

        vid: dict = {}
        for i in range(len(segs)):
            for t in sorted(cuts[i]):
                vid.setdefault(cuts[i][t], None)
        self.vertices = sorted(vid)
        self.vertex_id = {p: n for n, p in enumerate(self.vertices)}
        vid = self.vertex_id
        edges: dict = {}
        for i in range(len(segs)):
            ts = sorted(cuts[i])
            for t0, t1 in zip(ts, ts[1:]):
                u, v = vid[cuts[i][t0]], vid[cuts[i][t1]]
                key = (min(u, v), max(u, v))
                if key in edges:
                    raise GenericityError("duplicate sub-segment between two points")
                edges[key] = i
        self.edges = sorted(edges)
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        self.edge_source = [edges[e] for e in self.edges]
        self.faces = self._naive_faces()

    def _naive_faces(self) -> list:
        verts = self.vertices
        rotation: dict = {u: [] for u in range(len(verts))}
        for u, v in self.edges:
            rotation[u].append(v)
            rotation[v].append(u)

        def ccw_cmp(u):
            def cmp(a, b):
                da, db = vsub(verts[a], verts[u]), vsub(verts[b], verts[u])
                ha = 0 if (da[1] > 0 or (da[1] == 0 and da[0] > 0)) else 1
                hb = 0 if (db[1] > 0 or (db[1] == 0 and db[0] > 0)) else 1
                if ha != hb:
                    return ha - hb
                c = cross2(da, db)
                return -1 if c > 0 else (1 if c < 0 else 0)
            return cmp

        for u in rotation:
            rotation[u].sort(key=cmp_to_key(ccw_cmp(u)))
        rot_index = {(u, v): i for u, nbrs in rotation.items() for i, v in enumerate(nbrs)}

        def next_he(u, v):
            nbrs = rotation[v]
            i = rot_index[(v, u)]
            return (v, nbrs[(i - 1) % len(nbrs)])

        directed = sorted([(u, v) for u, v in self.edges] + [(v, u) for u, v in self.edges])
        orbit_of: dict = {}
        orbits: list = []
        for h in directed:
            if h in orbit_of:
                continue
            walk = []
            cur = h
            while cur not in orbit_of:
                orbit_of[cur] = len(orbits)
                walk.append(cur)
                cur = next_he(*cur)
            if cur != h:
                raise InternalError("half-edge walk did not close up")
            orbits.append(walk)

        areas = [sum(cross2(verts[u], verts[v]) for u, v in walk) for walk in orbits]
        positive = [i for i, a in enumerate(areas) if a > 0]
        outer = [i for i, a in enumerate(areas) if a <= 0]

        def walk_vertices(i):
            return [u for u, _ in orbits[i]]

        def strictly_inside(p, i) -> bool:
            walk = orbits[i]
            if any(on_segment(p, verts[u], verts[v]) for u, v in walk):
                return False
            return _ray_parity(p, verts, walk)

        parent: dict = {}
        for i in outer:
            anchor = verts[min(walk_vertices(i))]
            best = None
            for j in positive:
                if strictly_inside(anchor, j):
                    if best is None or areas[j] < areas[best]:
                        best = j
            parent[i] = best

        order = sorted(positive, key=lambda i: (min(walk_vertices(i)), areas[i]))
        faces = []
        for n, i in enumerate(order):
            holes = tuple(tuple(orbits[h2]) for h2 in sorted(outer) if parent[h2] == i)
            faces.append(Face(index=n, bounded=True,
                              cycles=(tuple(orbits[i]),) + holes, area2=areas[i]))
        unb = tuple(tuple(orbits[i]) for i in sorted(outer) if parent[i] is None)
        faces.append(Face(index=len(order), bounded=False, cycles=unb, area2=Fraction(0)))
        return faces


def naive_arrangement(segments) -> PlanarArrangement:
    """The arrangement of the segments, built by the `Fraction` oracle."""
    return _NaiveArrangement(segments)


def naive_incidences(arr: PlanarArrangement) -> list:
    """`PlanarArrangement.incidences` from each face's set of vertices and
    set of edge keys, each sorted, the keys looked up in `edge_index`."""
    pairs = [(("v", u), ("e", i)) for i, e in enumerate(arr.edges) for u in e]
    for face in arr.faces:
        vs, keys = set(), set()
        for walk in face.cycles:
            for u, v in walk:
                vs |= {u, v}
                keys.add((min(u, v), max(u, v)))
        pairs += [(("v", u), ("f", face.index)) for u in sorted(vs)]
        pairs += [(("e", arr.edge_index[e]), ("f", face.index)) for e in sorted(keys)]
    return pairs


# ---------------------------------------------------------------------------
# poset oracle

def naive_upsets(elements, pairs) -> dict:
    """The up-set of every element by its own depth-first search over the
    pairs, with `Poset`'s errors: `NotAMemberError` for a pair on an
    unknown element, `StructuralError` for a closure that is not
    antisymmetric."""
    succ: dict = {e: set() for e in elements}
    for a, b in pairs:
        if a not in succ or b not in succ:
            raise NotAMemberError(f"relation pair ({a!r}, {b!r}) mentions unknown element")
        succ[a].add(b)
    up: dict = {}
    for e in succ:
        seen = {e}
        stack = [e]
        while stack:
            x = stack.pop()
            for y in succ[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        up[e] = frozenset(seen)
    if not naive_antisymmetric(up):
        raise StructuralError("relation closure violates antisymmetry")
    return up


def naive_antisymmetric(up: dict) -> bool:
    return all(a == b or a not in up[b] for a in up for b in up[a])


def naive_covers(up: dict) -> frozenset:
    """Pairs a < b of the up-sets `up` with no other element of a's strict
    up-set below b."""
    out = set()
    for a in up:
        strict = up[a] - {a}
        for b in strict:
            if not any(c != b and b in up[c] for c in strict):
                out.add((a, b))
    return frozenset(out)


def naive_product(p: Poset, q: Poset) -> dict:
    """The up-sets of the componentwise order, closed from the covers of
    both factors."""
    cp, cq = naive_covers(p._up), naive_covers(q._up)
    rel = [((a, b), (a2, b)) for a, a2 in cp for b in q.elements]
    rel += [((a, b), (a, b2)) for a in p.elements for b, b2 in cq]
    return naive_upsets([(a, b) for a in p.elements for b in q.elements], rel)


def naive_wedge_extend(q: Poset, components, pairs) -> dict:
    """The up-sets of q with the components above their paired elements,
    closed from the covers of q and the pairs."""
    return naive_upsets(set(q.elements) | set(components),
                        list(naive_covers(q._up)) + list(pairs))


def naive_cone(p: Poset, label, below: bool) -> dict:
    """The up-sets of p with `label` adjoined below (or above) everything."""
    rel = [(label, e) if below else (e, label) for e in p.elements]
    return naive_upsets(set(p.elements) | {label},
                        list(naive_covers(p._up)) + rel)


def naive_maximal_chains(p: Poset) -> list[tuple]:
    """Every maximal chain of p, listed depth first and then sorted."""
    chains: list[tuple] = []
    covers_up: dict = {e: [] for e in p.elements}
    for a, b in reversed(canon_sorted(p.covers)):
        covers_up[a].append(b)
    stack = [(m,) for m in reversed(canon_sorted(p.minima()))]
    while stack:
        chain = stack.pop()
        if nxt := covers_up[chain[-1]]:
            stack.extend(chain + (b,) for b in nxt)
        else:
            chains.append(chain)
    return canon_sorted(chains)


def space_upsets(space: StratifiedSpace) -> dict:
    """The up-sets of the order that a stratified space's closure pairs,
    read through its assignment, generate on its strata."""
    strata = space.assignment
    return naive_upsets(space.poset.elements,
                        {(strata[lo], strata[hi]) for lo, hi in space.closure})


# ---------------------------------------------------------------------------
# random instances

def random_complex(rng: random.Random, max_simplices: int = 30) -> SimplicialComplex:
    while True:
        nv = rng.randint(1, 7)
        facets = []
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, min(4, nv))
            facets.append(tuple(rng.sample(range(nv), size)))
        k = SimplicialComplex.from_facets(facets)
        if len(k) <= max_simplices:
            return k


def random_relation(rng: random.Random, max_elements: int = 8) -> tuple:
    """Labels and pairs that only point from lower to higher index, so the
    transitive closure of any sample is automatically antisymmetric."""
    n = rng.randint(1, max_elements)
    labels = [f"x{i}" for i in range(n)]
    rel = [(labels[i], labels[j])
           for i in range(n) for j in range(i + 1, n)
           if rng.random() < 0.3]
    return labels, rel


def random_poset(rng: random.Random, max_elements: int = 8) -> Poset:
    return Poset(*random_relation(rng, max_elements))


_SURFACES: list[SimplicialComplex] = []


def closed_surfaces() -> list[SimplicialComplex]:
    if not _SURFACES:
        _SURFACES.append(example_map("octahedron").domain)
        _SURFACES.append(example_map("torus_grid").domain)
    return _SURFACES


def random_surface_map(rng: random.Random) -> PLMap:
    """A height with distinct random integer values on a small closed
    surface; distinct values give every k=1 genericity condition."""
    dom = rng.choice(closed_surfaces())
    verts = sorted(dom.vertices)
    vals = rng.sample(range(-10 * len(verts), 10 * len(verts)), len(verts))
    return PLMap(dom, 1, {v: (Fraction(x),) for v, x in zip(verts, vals)})


def random_planar_map(rng: random.Random) -> PLMap:
    """Random integer images in [-9, 9]^2 of the vertices of a small closed
    surface; nothing checks that they are generic."""
    dom = rng.choice(closed_surfaces())
    return PLMap(dom, 2, {v: (Fraction(rng.randint(-9, 9)),
                              Fraction(rng.randint(-9, 9)))
                          for v in sorted(dom.vertices)})


def grid_torus(n: int) -> SimplicialComplex:
    """The n x n grid torus, two triangles per square, vertices `vi_j`."""
    def label(i, j):
        return f"v{i % n}_{j % n}"
    return SimplicialComplex.from_facets(
        [tri for i in range(n) for j in range(n)
         for tri in ((label(i, j), label(i + 1, j), label(i + 1, j + 1)),
                     (label(i, j), label(i, j + 1), label(i + 1, j + 1)))])


def grid_3torus(n: int) -> SimplicialComplex:
    """The n x n x n grid 3-torus, vertices `vi_j_l`: each cube cut into
    the 6 tetrahedra along the orders of the three axes (Freudenthal)."""
    def label(p):
        return "v" + "_".join(str(c % n) for c in p)
    tets = []
    for corner in [(i, j, l) for i in range(n) for j in range(n) for l in range(n)]:
        for axes in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            p, tet = list(corner), [label(corner)]
            for a in axes:
                p[a] += 1
                tet.append(label(p))
            tets.append(tet)
    return SimplicialComplex.from_facets(tets)


def torus_height_map(rng: random.Random, n: int) -> PLMap:
    """Distinct random integer heights on the n x n grid torus."""
    dom = grid_torus(n)
    verts = sorted(dom.vertices)
    vals = rng.sample(range(100 * len(verts)), len(verts))
    return PLMap(dom, 1, {v: (Fraction(x),) for v, x in zip(verts, vals)})


def torus_projection(rng: random.Random, n: int = 3,
                     attempts: int = 200) -> PLMap:
    """A planar map of the n x n grid torus with integer images in
    [0, 1000)^2, drawn until the images of all its edges form an arrangement
    (`PlanarArrangement`) and the genericity audit passes."""
    dom = grid_torus(n)
    for _ in range(attempts):
        f = PLMap(dom, 2, {v: (Fraction(rng.randrange(1000)),
                               Fraction(rng.randrange(1000)))
                           for v in sorted(dom.vertices)})
        try:
            PlanarArrangement([(f.value(a), f.value(b))
                               for a, b in dom.simplices_of_dim(1)])
        except GenericityError:
            continue
        if check_generic(f).passed:
            return f
    raise AssertionError("torus projection sampler exhausted its attempts")


def random_segments(rng: random.Random, max_segments: int = 12,
                    attempts: int = 500):
    """A connected generic arrangement of integer chords of a square.

    Chords with endpoints on opposite sides cross often, so rejection
    sampling quickly finds a set that the exact validator accepts and whose
    union is connected."""
    for _ in range(attempts):
        n = rng.randint(2, max_segments)
        segs = []
        for _ in range(n):
            if rng.random() < 0.5:
                a = (Fraction(-20), Fraction(rng.randint(-19, 19)))
                b = (Fraction(20), Fraction(rng.randint(-19, 19)))
            else:
                a = (Fraction(rng.randint(-19, 19)), Fraction(-20))
                b = (Fraction(rng.randint(-19, 19)), Fraction(20))
            segs.append((a, b))
        ends = [p for s in segs for p in s]
        if len(set(ends)) != len(ends):
            continue
        try:
            arr = PlanarArrangement(segs)
        except GenericityError:
            continue
        if arr.component_count() == 1:
            return segs, arr
    raise AssertionError("segment sampler exhausted its attempts")


def segments_as_map(segs) -> tuple[PLMap, JacobiSet]:
    """Wrap a segment set as a disjoint-edges map whose critical locus is
    the whole domain, so image refinement applies to it directly."""
    facets = [(2 * i, 2 * i + 1) for i in range(len(segs))]
    dom = SimplicialComplex.from_facets(facets)
    values = {}
    for i, (a, b) in enumerate(segs):
        values[2 * i] = a
        values[2 * i + 1] = b
    f = PLMap(dom, 2, values)
    return f, JacobiSet(complex=dom, notion="H", k=2)
