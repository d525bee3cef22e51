"""Fibers, Reeb graphs and the connected-component scaffold over a
stratified codomain.

For a single parameter the fiber changes only where a vertex value is
crossed, so it lives on the sweep levels -1 to 2V-1: level 2i is the i-th
smallest vertex value and level 2i+1 the open gap or ray above it, and the
rays -1 and 2V-1 carry the empty fiber.  A closed simplex meets
the levels of one interval, its span.  Each map builds one `SweepIndex`
when first asked, and the index fills the fiber components of every level
in one pass as it is built: a simplex enters the support at the level where
its span starts and leaves it at the gap after the level where its span
ends.  The components are carried from level to level, and only those the
level's vertices touch change: the entering simplices merge the gap
components they meet, and a component that loses simplices is joined
again only when the rest of the star of the level's vertices falls apart
inside it.  Every k=1 fiber query reads that one table.

The same pass records its events: the gap ids each component of a vertex
level absorbs, and the ids each component it touched becomes in the gap
above.  The Reeb graph is replayed from that record: a gap id is an arc
from the component it left to the one that absorbs it, so the graph costs
the events, not the levels times their width (Pascucci et al., "Robust
on-line computation of Reeb graphs", 2007; Parsa, "A deterministic
O(m log m) time algorithm for the Reeb graph", 2012).

The scaffold, the analogue of the Reeb graph over a stratified codomain, is
glued from `FineCells`: finitely many cells on which the fiber support is
constant and which cover all of R^k: the sweep levels and the two rays
for one parameter, and for two the cells of the arrangement of the images
of all domain edges (Edelsbrunner-Harer-Patel, "Reeb spaces of piecewise
linear mappings", 2008; Carr-Duke, "Joint contour nets", 2014).  The
support over a cell contains the support over every cell whose closure
holds it, so each component over the higher cell lies in exactly one
component over the lower one, with no sampling between them;
`FineCells.attachments` yields these pairs and is the one place that rule
is checked.  The scaffold, a poset of fiber components over the strata,
joins the pairs inside and across the strata.  A stratum is a union of
cells, so both fiber audits read its counts off its cells, the empty rays
of the line too.

Two parameters need the edge images in general position: transverse
crossings only, no three through one point, no overlaps.  A fiber over a
point of the plane is read off the map's `HullIndex`, built once: each
simplex image on integers, as a bounding box and the half-planes of its
hull, so a query is one integer scan over the simplices, whatever the
position of the images.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import lcm

from .arrangement import (CodomainStratification, _interval_sample, _line_point,
                          _show, build_codomain_stratification,
                          edge_image_arrangement, stratum_dimension)
from .errors import (DegeneracyError, EmptyComplexError, InternalError,
                     NotAMemberError, StructuralError)
from .geometry import convex_hull_2d, format_frac, frac, vadd, vscale
from .jacobi import JacobiSet, PLMap, jacobi_set
from .posets import MonotoneMap, Poset, connected_classes


# ---------------------------------------------------------------------------
# fibers

def _scalar(f: PLMap, v) -> Fraction:
    return f.value(v)[0]


def _point(f: PLMap, y) -> tuple:
    """y as a point of R^k; a scalar stands for a point of the line."""
    if not isinstance(y, (tuple, list)):
        y = (y,)
    if len(y) != f.k:
        raise StructuralError(
            f"a fiber of a map to R^{f.k} needs a point with {f.k} "
            f"coordinates, got {len(y)}")
    return tuple(frac(c) for c in y)


def _components(support, faces) -> list[list[int]]:
    """Connected components under face incidence of a set of simplices
    given as ranks, each as the list of its ranks in the order of
    `support`; classes come in the order of their first member.

    Each member is joined only to its codimension-one faces, `faces[rank]`,
    so every member must reach its class through faces among the members:
    with a face and a coface, the set holds every simplex between them.  A
    fiber support is upward-closed in the face order, since a coface's image
    contains its face's image, and so is every union of its components.  The
    simplices whose least vertex value is one value are closed between a
    face and a coface too: all of them hold the face's least vertex."""
    members = set(support)
    return connected_classes(support, [(r, q) for r in support for q in faces[r]
                                       if q in members])


class SweepIndex:
    """The sweep levels of a scalar map with the fiber components over each.

    A closed simplex meets the fiber over level l exactly when l lies in its
    span [2 rank(min), 2 rank(max)], ranks taken among the distinct vertex
    values.  Construction fills the table of every level in one pass over
    the levels that carries the components from level to level, each with
    an id, and updates only those the level's vertices touch:

    - at level 2i the simplices whose span starts there enter.  Their own
      pieces under face incidence are joined to the components of the gap
      below only through their cofaces, since their faces have entered with
      them or not at all; each piece merges the gap components it touches,
      the smaller ones relabelled into the largest.
    - at gap 2i+1 the simplices whose span ends at 2i leave, and each
      component that lost some may split.  Every path in the old component
      between two remaining members leaves the removed simplices into S,
      the remaining members that hold a vertex of level 2i, so the rest is
      connected when S is.  S is upward-closed, so its classes are read off
      its face pairs; only the components over which S falls apart are
      joined again, in one call.

    Components no level touches keep their frozenset from level to level;
    each level's tuple is sorted by least rank.  The pass also keeps its
    record, which the Reeb graph replays: in `events`, for each vertex
    level, the gap ids each touched component absorbed, itself among them
    when it continues an id of the gap below, and for each gap, the ids
    each touched component of the level below becomes, none when it ends,
    itself when it shrinks and fresh ones when it is joined again; in
    `touched`, the ids each level touched, with their least rank and
    frozenset; and in `holder`, the id holding each vertex at its own
    level, the level kept in `vlevel`."""

    def __init__(self, f: PLMap):
        if f.k != 1:
            raise StructuralError("a sweep requires a single parameter")
        self.values = sorted({_scalar(f, v) for v in f.domain.vertices})
        level_of = {x: 2 * i for i, x in enumerate(self.values)}
        self.vlevel = vlevel = {v: level_of[_scalar(f, v)] for v in f.domain.vertices}
        n = max(2 * len(self.values) - 1, 0)
        self.table: list = [None] * n
        self.events: list = [None] * n
        self.touched: list = [None] * n
        self.holder: dict = {}
        # the domain's own incidence tables, shared with every other reader
        index = f.domain.index
        ranked, rank, star = index.ranked, index.rank, index.vertex_cofaces
        faces, cofaces = f.domain.face_ranks, f.domain.coface_ranks
        enter: list = [[] for _ in range(n)]
        leave: list = [[] for _ in range(n)]
        for r, s in enumerate(ranked):
            enter[min(vlevel[v] for v in s)].append(r)
            leave[max(vlevel[v] for v in s)].append(r)

        owner: list = [None] * len(ranked)    # rank -> id of its component
        members: dict = {}                    # id -> its set of ranks
        published: dict = {}                  # id -> (least rank, frozenset)
        fresh = count()
        for level in range(n):
            if level % 2 == 0:
                # id -> the ids of the gap below that it holds
                changed = self.events[level] = {}
                for piece in _components(enter[level], faces):
                    ids = {owner[t] for r in piece for t in cofaces[r]}
                    ids.discard(None)
                    if ids:
                        c = max(ids, key=lambda i: len(members[i]))
                        ids.discard(c)
                        gaps = changed.setdefault(c, [c])
                        for d in ids:
                            for r in members[d]:
                                owner[r] = c
                            members[c] |= members.pop(d)
                            del published[d]
                            gaps += changed.pop(d, [d])
                    else:
                        c = next(fresh)
                        members[c] = set()
                        changed[c] = []
                    members[c].update(piece)
                    for r in piece:
                        owner[r] = c
                self.holder.update((ranked[r][0], owner[r]) for r in enter[level]
                                   if len(ranked[r]) == 1)
            else:
                changed = set()
                for r in leave[level - 1]:
                    c = owner[r]
                    owner[r] = None
                    members[c].discard(r)
                    changed.add(c)
                # id at the level below -> its ids here: none when it ends,
                # itself when it shrinks, fresh ones when it is joined again
                become = self.events[level] = {c: [c] if members[c] else []
                                               for c in changed}
                for c in [c for c in changed if not members[c]]:
                    del members[c], published[c]
                    changed.discard(c)
                if changed:
                    rim = {t for r in leave[level - 1] if len(ranked[r]) == 1
                           for t in map(rank.__getitem__, star[ranked[r][0]])
                           if owner[t] is not None}
                    # the components holding two or more classes of the rim
                    held, suspect = set(), set()
                    for cls in connected_classes(rim, [(t, q) for t in rim
                                                       for q in faces[t] if q in rim]):
                        c = owner[cls[0]]
                        if c in held:
                            suspect.add(c)
                        held.add(c)
                    if suspect:
                        rest = [r for c in suspect for r in members.pop(c)]
                        for c in suspect:
                            del published[c]
                            become[c] = []
                        changed -= suspect
                        for piece in _components(rest, faces):
                            c = next(fresh)
                            become[owner[piece[0]]].append(c)
                            members[c] = set(piece)
                            for r in piece:
                                owner[r] = c
                            changed.add(c)
            touched = self.touched[level] = {}
            for c in changed:
                touched[c] = published[c] = (
                    min(members[c]), frozenset(map(ranked.__getitem__, members[c])))
            self.table[level] = tuple(comp for _, comp in sorted(published.values()))

    def level(self, t: Fraction) -> int:
        """The level of value t: -1 below every vertex value and 2V - 1
        above them, the two unbounded rays, where the fiber is empty."""
        i = bisect_left(self.values, t)
        return 2 * i if i < len(self.values) and self.values[i] == t else 2 * i - 1

    def components(self, level: int) -> tuple[frozenset, ...]:
        """The fiber components over a level, none over a ray."""
        return self.table[level] if 0 <= level < len(self.table) else ()


class HullIndex:
    """The images of a planar map's simplices on integers, built once per
    map and read by every two-parameter fiber query.

    Every vertex image is read from `PLMap.integer_image`, scaled by the
    common denominator of all the coordinates; a positive scale keeps every
    sign and order.  Each simplex, in `index.ranked` order, keeps the
    integer bounding box of its image and the half-planes whose
    intersection with the box is the image: none when the image is a
    point, which is its box; a line and its opposite when it is a segment,
    since a point of the line inside the box lies on the closed segment;
    and the inner side of each edge of a ccw polygon.
    Each half-plane is a form (A, B, C), and a homogeneous point (X, Y, W)
    with W > 0 lies in it when A X + B Y + C W >= 0."""

    def __init__(self, f: PLMap):
        if f.k != 2:
            raise StructuralError("a hull index requires two parameters")
        self.scale, image = f.integer_image
        self.images = []
        for s in f.domain.index.ranked:
            hull = convex_hull_2d([image[v] for v in s])
            xs, ys = [p[0] for p in hull], [p[1] for p in hull]
            # the form of each directed edge, ab and ba for a segment
            edges = zip(hull, hull[1:] + hull[:1]) if len(hull) > 1 else ()
            forms = tuple((ay - by, bx - ax, ax * by - ay * bx)
                          for (ax, ay), (bx, by) in edges)
            self.images.append((min(xs), min(ys), max(xs), max(ys), forms))

    def support(self, y) -> list[int]:
        """The ranks, in increasing order, of the simplices whose image
        holds the point y, a pair of `Fraction`s."""
        w = lcm(y[0].denominator, y[1].denominator)
        x, yy = (c.numerator * (w // c.denominator) * self.scale for c in y)
        # the box test on ints: x0 <= x / w <= x1 exactly when
        # x0 <= floor(x / w) and ceil(x / w) <= x1, the bounds being ints
        fx, cx, fy, cy = x // w, -(-x // w), yy // w, -(-yy // w)
        return [r for r, (x0, y0, x1, y1, forms) in enumerate(self.images)
                if x0 <= fx and cx <= x1 and y0 <= fy and cy <= y1
                and all(a * x + b * yy + c * w >= 0 for a, b, c in forms)]


def fiber_components(f: PLMap, y) -> tuple[frozenset, ...]:
    """Connected components of the fiber over y, each given as the set of
    closed simplices meeting it.

    Inside one closed simplex the fiber is convex, so components of the
    support under face incidence are exactly the fiber components.  For
    one parameter y is a value or a 1-tuple, located among the sweep
    levels by bisection, and the level's components come from the map's
    `SweepIndex`; for two it is a pair, and the support is read off the
    map's `HullIndex`.  A point of another length is a `StructuralError`.
    """
    y = _point(f, y)
    if f.k == 1:
        return f.sweep.components(f.sweep.level(y[0]))
    ranked = f.domain.index.ranked
    return tuple(frozenset(map(ranked.__getitem__, c))
                 for c in _components(f.hulls.support(y), f.domain.face_ranks))


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

    The graph is replayed from the record of the map's `SweepIndex`.  Each
    component a vertex level touches is a candidate, with the gap ids it
    absorbed from below and the ids it becomes in the gap above.  A gap id
    is an arc, open from the candidate it left until the candidate that
    absorbs it; the components no level touches lie inside arcs.  A
    candidate is a node of f's graph unless it has exactly one arc below
    and one above; one containing a vertex of the critical locus `jset`
    (the H Jacobi set of f when omitted) at its level stays a node too, so
    the locus's degree-2 nodes survive.  Every other candidate joins its
    two arcs: the classes of arcs so joined are the chains of regular
    components, and each becomes one edge between the nodes at its ends,
    which the least and the greatest candidate of every component are.

    The locus stratifies the graph over the line exactly when every node
    lies over one of its critical values; a node over a value where the
    locus has no vertex is a `DegeneracyError`.
    """
    if f.k != 1:
        raise StructuralError("Reeb graph requires a single parameter")
    if f.domain.dimension < 0:
        raise EmptyComplexError("cannot sweep an empty complex")
    if jset is None:
        jset = jacobi_set(f)
    sweep = f.sweep
    events, touched, holder = sweep.events, sweep.touched, sweep.holder
    values, vlevel, ranked = sweep.values, sweep.vlevel, f.domain.index.ranked

    def order(key):
        """(level, least rank): the order of the level's own tuple."""
        return key[0], touched[key[0]][key[1]][0]

    def component(level, c) -> str:
        # an id keeps its members until a level touches it again
        at = next(l for l in range(level, -1, -1) if c in touched[l])
        least = ranked[touched[at][c][0]]
        lo, hi = (format_frac(values[i]) for i in (level // 2, (level + 1) // 2))
        return ("fiber component through {" + ", ".join(map(str, least)) + "} "
                + (f"at value {lo}" if level % 2 == 0
                   else f"between values {lo} and {hi}"))

    # a locus vertex makes a node of its component at its own level
    critical: dict = {}
    for s in jset.complex.simplices_of_dim(0):
        v = s[0]
        if v not in vlevel:
            raise NotAMemberError(f"vertex {v!r} not in the domain")
        critical.setdefault((vlevel[v], holder[v]), []).append(v)

    arcs: list = []          # (lower, upper) candidate of each gap id
    incident: dict = {}      # candidate (level, id) -> its arcs
    opened: dict = {}        # open gap id -> the candidate it left
    nodes: list = []
    for level in range(0, len(events), 2):
        for c, gaps in events[level].items():
            key = (level, c)
            incident[key] = []
            for g in gaps:
                if g not in opened:
                    raise InternalError(
                        f"{component(level - 1, g)} does not lie in one "
                        f"component at value {format_frac(values[level // 2])}")
                low = opened.pop(g)
                incident[low].append(len(arcs))
                incident[key].append(len(arcs))
                arcs.append((low, key))
            above = events[level + 1][c] if level + 1 < len(events) else ()
            opened.update((g, key) for g in above)
            if len(gaps) != 1 or len(above) != 1 or key in critical:
                nodes.append(key)

    kept = sorted(nodes, key=order)
    levels = {level for level, _ in critical}
    stray = next((key for key in kept if key[0] not in levels), None)
    if stray is not None:
        raise DegeneracyError(
            f"{component(*stray)} is a node of the Reeb graph over no "
            f"critical value of the {jset.notion} locus")
    label = {k: f"r{i}" for i, k in enumerate(kept)}
    joins = [pair for key, pair in incident.items() if key not in label]
    edges = [tuple(sorted(label[key] for a in chain for key in arcs[a] if key in label))
             for chain in connected_classes(range(len(arcs)), joins)]
    return ReebGraph(nodes=tuple(label[k] for k in kept),
                     node_value={label[k]: values[k[0] // 2] for k in kept},
                     node_critical={label[k]: tuple(sorted(critical.get(k, ())))
                                    for k in kept},
                     node_members={label[k]: touched[k[0]][k[1]][1] for k in kept},
                     edges=tuple(sorted(edges)))


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
    Jacobi set of f when omitted), and report the counts: the count at
    `_interval_sample`, and in `detail` the counts over the sweep levels
    inside the interval, the empty rays of an unbounded one among them."""
    if f.k != 1:
        raise StructuralError("interval audit requires a single parameter")
    if samples < 1:
        raise StructuralError(f"the audit needs at least one sample, got {samples}")
    if jset is None:
        jset = jacobi_set(f)
    locus = [s[0] for s in jset.complex.simplices_of_dim(0)]
    crit = sorted({_scalar(f, v) for v in locus})
    if not crit:
        raise InternalError("a nonempty compact domain must have critical values")
    sweep, counts, detail = f.sweep, [], []
    # the rays -1 and 2V - 1 are levels too
    ends = [-2] + sorted({sweep.vlevel[v] for v in locus}) + [2 * len(sweep.values)]
    for lo, hi, a, b in zip([None] + crit, crit + [None], ends, ends[1:]):
        found = {len(sweep.components(l)) for l in range(a + 1, b)}
        counts.append(len(fiber_components(f, _interval_sample((lo, hi)))))
        detail.append(_reported(found, samples))
    return FiberAudit(boundaries=tuple(crit), counts=tuple(counts),
                      passed=all(len(set(d)) == 1 for d in detail),
                      detail=tuple(detail))


def _reported(found: set, n: int) -> tuple:
    """n copies of a constant count, else each count once, increasing."""
    return tuple(found) * n if len(found) == 1 else tuple(sorted(found))


# ---------------------------------------------------------------------------
# the scaffold over a stratified codomain

class FineCells:
    """The cells of the codomain on which the fiber support is constant,
    with the fiber components over each and the one rule that glues them.

    For one parameter these are the sweep levels, keyed ("l", level), and
    their components are read off the map's `SweepIndex`; level l lies in
    the closure of levels l - 1 and l + 1 when l is even.  They run from
    -1 to 2V - 1, the two rays with the empty fiber included, so they cover
    the line; an empty domain is the one cell -1.  For two they are the
    vertices, open edges and faces of the arrangement of the images of all
    domain edges, keyed and paired as the arrangement's `locate` and
    `incidences` give them, and the components over each come from
    `fiber_components` at its sample point.  A simplex image is the hull of
    its vertex images, bounded by the images of its edges, so every open
    cell lies inside it or outside it.

    Each cell carries a sample point and the fiber components over it;
    `incidences` pairs each cell with the cells whose closure contains it,
    lower cell first, so the support over the lower cell contains the
    support over the higher one, and `attachments` names the component
    over the lower cell that holds each component over the higher one.
    """

    def __init__(self, f: PLMap):
        self.rank = f.domain.index.rank
        if f.k == 1:
            self.arrangement, self._sweep = None, f.sweep
            # a vertex value at even levels, a gap or a ray at odd ones
            ends, n = (None, *f.sweep.values, None), 2 * len(f.sweep.values)
            self.samples = {("l", l): _interval_sample((ends[(l + 2) // 2],
                                                        ends[(l + 3) // 2]))
                            for l in range(-1, n)}
            self.incidences = [(("l", l), ("l", l + d)) for l in range(0, n, 2)
                               for d in (-1, 1)]
            self.components = {("l", l): f.sweep.components(l) for l in range(-1, n)}
        else:
            self.arrangement = arr = edge_image_arrangement(f, f.domain)
            self.samples = {("v", i): p for i, p in enumerate(arr.vertices)}
            pts = arr.vertices
            self.samples.update((("e", i), vscale(Fraction(1, 2), vadd(pts[u], pts[v])))
                                for i, (u, v) in enumerate(arr.edges))
            self.samples.update((("f", i), arr.face_interior_samples(i, 1)[0])
                                for i in range(len(arr.faces)))
            self.incidences = arr.incidences()
            self.components = {c: fiber_components(f, y)
                               for c, y in self.samples.items()}

    def locate(self, y):
        """The cell containing y; a point of the wrong length is a
        `StructuralError`."""
        if self.arrangement is not None:
            return self.arrangement.locate(y)
        return ("l", self._sweep.level(_line_point(y)))

    def strata(self, cs: CodomainStratification) -> dict:
        """The stratum of `cs` holding each cell, at its sample point."""
        return {c: cs.locate(y) for c, y in self.samples.items()}

    def attachments(self):
        """Yield ((low, j), (high, i)) for every incidence (low, high) and
        every component i over high: j is the component over low that
        holds it.  The support over low contains the support over high,
        and a component over high is connected, so it lies in exactly one
        component over low; one that does not is an `InternalError`."""
        above: dict = {}
        for low, high in self.incidences:
            above.setdefault(low, []).append(high)
        for low, highs in above.items():
            below = self.components[low]
            owner = {s: j for j, comp in enumerate(below) for s in comp}
            for high in highs:
                for i, comp in enumerate(self.components[high]):
                    j = owner.get(next(iter(comp)))
                    if j is None or not comp <= below[j]:
                        least = min(comp, key=self.rank.__getitem__)
                        raise InternalError(
                            "fiber component through {"
                            + ", ".join(map(str, least)) + "} over "
                            f"{_show(self.samples[high])} does not lie in one "
                            f"component over {_show(self.samples[low])}")
                    yield (low, j), (high, i)


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
    fine: FineCells             # the cells the scaffold is glued from
    stratum: dict               # fine cell -> the stratum holding it
    cell_elements: dict         # fine cell -> element of each of its components


def reeb_scaffold(f: PLMap, cs: CodomainStratification | None = None) -> ReebScaffold:
    """Build the component poset over the stratified codomain `cs` of a one-
    or two-parameter map; when omitted, the codomain is stratified by the H
    Jacobi set of f.

    The scaffold is glued from the `FineCells` of f, each in the stratum
    of `cs` that holds its sample point.  Joining their `attachments`
    inside each stratum gives the components over the stratum, indexed by
    the fibers at its sample point; the pairs across a covering pair s < t
    of strata put a component over s below a component over t.  A class
    over a stratum that holds no component over its sample point, or more
    than one, means the locus does not make the fibers constant there, and
    is reported as a degeneracy.  The edge images must be in general
    position (`PlanarArrangement`).

    For one parameter the strata are the critical values and the intervals
    between them, and the scaffold is the Reeb graph with edges subdivided
    once per interval.
    """
    if f.k not in (1, 2):
        raise StructuralError("the scaffold requires one or two parameters")
    if cs is None:
        cs = build_codomain_stratification(f, jacobi_set(f))
    fine = FineCells(f)
    stratum = fine.strata(cs)

    reps: dict = {}
    rep_cell: dict = {}
    comps: dict = {}
    for label in sorted(cs.space.cells):
        y = cs.sample(label)
        if cs.locate(y) != label:
            raise InternalError(f"sample for stratum {label} landed elsewhere")
        reps[label] = y
        rep_cell[label] = cell = fine.locate(y)
        comps[label] = fine.components[cell]

    covers = cs.space.poset.covers
    same, across = [], []
    for pair in fine.attachments():
        strata = (stratum[pair[0][0]], stratum[pair[1][0]])
        if strata[0] == strata[1]:
            same.append(pair)
        elif strata in covers:
            across.append(pair)

    element: dict = {}
    nodes = [(c, i) for c, cc in fine.components.items() for i in range(len(cc))]
    for cls in connected_classes(nodes, same):
        label = stratum[cls[0][0]]
        hits = [i for c, i in cls if c == rep_cell[label]]
        if len(hits) != 1:
            raise DegeneracyError(
                f"fiber components over stratum {label} do not match those "
                f"over its sample point {_show(reps[label])} one to one: "
                f"one class of them joins {len(hits)} of the "
                f"{len(comps[label])} components there")
        element.update((node, (label, hits[0])) for node in cls)

    elements = [(s, i) for s in sorted(comps) for i in range(len(comps[s]))]
    relations = sorted({(element[a], element[b]) for a, b in across})
    return ReebScaffold(
        codomain=cs, poset=Poset(elements, relations), representatives=reps,
        supports={(s, i): comps[s][i] for s, i in elements},
        counts={s: len(comps[s]) for s in comps}, fine=fine, stratum=stratum,
        cell_elements={c: tuple(element[(c, i)] for i in range(len(cc)))
                       for c, cc in fine.components.items()})


# ---------------------------------------------------------------------------
# the Stein square

@dataclass(frozen=True)
class SteinReport:
    continuous: bool
    commutes: bool
    cell_map: dict
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return self.continuous and self.commutes


def check_stein_square(f: PLMap, scaffold: ReebScaffold | None = None) -> SteinReport:
    """Verify that quotienting fibers to components squares with the
    codomain stratification.

    Forgetting the component index must carry the scaffold to the stratified
    codomain as a stratified map, checked on the poset level.  On the point
    level, every simplex barycenter image is located in a fine cell of the
    scaffold, and the simplex goes to the scaffold element of the fiber
    component over that cell containing it; the forgetful image of that
    element has to be the stratum of the barycenter image.  An open simplex
    may cross several strata, so the point checks run per barycenter, never
    per closed cell.
    """
    if scaffold is None:
        scaffold = reeb_scaffold(f)
    cs = scaffold.codomain
    notes = []

    # the images are the codomain's own labels, so the only error the map
    # can raise is the one for a cover it does not keep
    continuous = True
    try:
        MonotoneMap(scaffold.poset, cs.space.poset,
                    {e: e[0] for e in scaffold.poset.elements})
    except StructuralError:
        continuous = False
        notes.append("forgetting the component index is not a stratified map")

    cell_map: dict = {}
    commutes = True
    fine = scaffold.fine
    for s in f.domain.sorted_simplices():
        y = f.barycenter_image(s)
        cell = fine.locate(y)
        hits = [e for e, comp in zip(scaffold.cell_elements[cell],
                                     fine.components[cell]) if s in comp]
        if len(hits) != 1:
            raise InternalError("simplex missing from its own fiber support")
        cell_map[s] = hits[0]
        image = hits[0][0]
        stratum = cs.locate(y)
        if image != stratum:
            commutes = False
            notes.append(f"composite sends {s!r} to {image!r}, not {stratum!r}")

    # the projection onto the occupied strata is onto by construction, and
    # it is monotone exactly when forgetting the index is stratified: both
    # test the scaffold's covers against the order of `cs`
    if not continuous:
        notes.append("projection onto occupied strata is not monotone")
    return SteinReport(continuous=continuous, commutes=commutes,
                       cell_map=cell_map, notes=tuple(notes))


def stratum_fiber_audit(f: PLMap, scaffold: ReebScaffold | None = None,
                        samples: int = 3):
    """Check that the fiber component count is constant across each
    codomain stratum, a union of the scaffold's fine cells, and report the
    counts over its cells, the empty rays of the line among them.  Without
    a scaffold the fine cells of f are built, which for two parameters
    needs the edge images in general position, and the codomain is
    stratified by the H Jacobi set of f."""
    if samples < 1:
        raise StructuralError(f"the audit needs at least one sample, got {samples}")
    if scaffold is None:
        cs, fine = build_codomain_stratification(f, jacobi_set(f)), FineCells(f)
        stratum = fine.strata(cs)
    else:
        cs, fine, stratum = scaffold.codomain, scaffold.fine, scaffold.stratum
    found: dict = {label: set() for label in cs.space.cells}
    for c, label in stratum.items():
        found[label].add(len(fine.components[c]))
    results = {label: _reported(counts, 1 if stratum_dimension(label) == 0 else samples)
               for label, counts in sorted(found.items())}
    return all(len(set(r)) == 1 for r in results.values()), results

