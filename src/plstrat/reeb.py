"""Fibers, Reeb graphs and the connected-component scaffold over a
stratified codomain.

For a single parameter the fiber changes only where a vertex value is
crossed, so it lives on the cells of the line cut at the vertex values, a
`LineCuts`: the point ("v", i) of the i-th smallest value and the open gap
or ray ("f", i) below it, the rays ("f", 0) and ("f", V) carrying the empty
fiber.  A closed simplex meets the cells of one interval, its span.  Each
map builds one `SweepIndex` when first asked, and the index fills the fiber
components of every cell in one walk along the line as it is built: a
simplex enters the support at the point where its span starts and leaves
it at the gap above the point where its span ends.  The components are
carried from cell to cell, and only those the value's vertices touch
change: the entering simplices merge the gap components they meet, and a
component that loses simplices is joined again only when the rest of the
star of the value's vertices falls apart inside it.  Every k=1 fiber query
reads that one table.

The same walk records its events: the gap ids each component over a value
absorbs, and the ids each component it touched becomes in the gap above.
The Reeb graph is replayed from that record: a gap id is an arc from the
component it left to the one that absorbs it, so the graph costs the
events, not the cells times their width (Pascucci et al., "Robust on-line
computation of Reeb graphs", 2007; Parsa, "A deterministic O(m log m) time
algorithm for the Reeb graph", 2012).

The scaffold, the analogue of the Reeb graph over a stratified codomain, is
glued from `FineCells`: finitely many cells on which the fiber support is
constant and which cover all of R^k, read alike for both parameters: the
sweep's cells of the line, or the arrangement of the images of all domain
edges (Edelsbrunner-Harer-Patel, "Reeb spaces of piecewise linear
mappings", 2008; Carr-Duke, "Joint contour nets", 2014).  The support over
a cell contains the support over every cell whose closure holds it, so
each component over the higher cell lies in exactly one component over the
lower one, with no sampling between them; `FineCells.attachments` yields
these pairs and is the one place that rule is checked.  The scaffold, a
poset of fiber components over the strata, joins the pairs inside and
across the strata.  A stratum is a union of cells, so both fiber audits
read its counts off its cells, the empty rays of the line too.

Two parameters need the edge images in general position: transverse
crossings only, no three through one point, no overlaps.  A fiber over a
point of the plane is read off the map's `HullIndex`, built once: each
simplex image on integers, as a bounding box and the half-planes of its
hull, so a query is one integer scan over the simplices, whatever the
position of the images.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .arrangement import (CodomainStratification, LineCuts, _homogeneous,
                          _show_segment, build_codomain_stratification,
                          edge_image_arrangement, stratum_dimension)
from .complexes import rank_components
from .errors import (DegeneracyError, EmptyComplexError, InternalError,
                     NotAMemberError, StructuralError)
from .geometry import _show, as_point, convex_hull_2d, format_frac
from .jacobi import JacobiSet, PLMap, jacobi_set
from .posets import MonotoneMap, Poset, connected_classes


# ---------------------------------------------------------------------------
# fibers

def _scalar(f: PLMap, v) -> Fraction:
    return f.value(v)[0]


# the name the sweep's entering pieces, its re-splits and the plane fibers
# call: perfbench's trace wraps it to count them as `reeb.reeb_graph.levels`
_components = rank_components


class SweepIndex:
    """The cells of the line cut at a scalar map's vertex values, `cuts`,
    with the fiber components over each.

    A closed simplex meets the fibers over the cells from the point of its
    least vertex value to the point of its greatest.  Construction walks
    the cells in order: the ray ("f", 0), then for each value i its point
    ("v", i) and the gap ("f", i + 1) above it, the last gap being the ray
    above every value.  It carries the components from cell to cell, each
    with an id, and updates only those the value's vertices touch:

    - at ("v", i) the simplices whose span starts there enter.  Their own
      pieces under face incidence are joined to the components of the gap
      below only through their cofaces, since their faces have entered with
      them or not at all; each piece merges the gap components it touches,
      the smaller ones relabelled into the largest.
    - at ("f", i + 1) the simplices whose span ends at value i leave, and
      each component that lost some may split.  Every path in the old
      component between two remaining members leaves the removed simplices
      into S, the remaining members that hold a vertex of value i, so the
      rest is connected when S is.  S is upward-closed, so its classes are
      read off its face pairs; only the components over which S falls apart
      are joined again, in one call.

    Untouched components keep their frozenset from cell to cell:
    `table[cell]` maps the id of each component over the cell to its least
    rank and its frozenset, and `components` orders them by least rank.
    Both rays are empty, since every simplex leaves at its greatest value.
    The walk also keeps its record, which the Reeb graph replays: in
    `events`, for each point, the gap ids each touched component absorbed,
    itself among them when it continues an id of the gap below, and for
    each gap, the ids each touched component of the point below becomes,
    none when it ends, itself when it shrinks and fresh ones when it is
    joined again.  Each vertex's value index is kept in `vindex`."""

    def __init__(self, f: PLMap):
        if f.k != 1:
            raise StructuralError("a sweep requires a single parameter")
        self.values = sorted({_scalar(f, v) for v in f.domain.vertices})
        self.cuts = LineCuts(self.values)
        self.vindex = vindex = {v: self.cuts.vertex_id[f.value(v)]
                                for v in f.domain.vertices}
        # the domain's own incidence tables, shared with every other reader
        index = f.domain.index
        ranked, rank, star = index.ranked, index.rank, index.vertex_cofaces
        faces, cofaces = f.domain.face_ranks, f.domain.coface_ranks
        enter: list = [[] for _ in self.values]
        leave: list = [[] for _ in self.values]
        for r, s in enumerate(ranked):
            enter[min(vindex[v] for v in s)].append(r)
            leave[max(vindex[v] for v in s)].append(r)

        owner: list = [None] * len(ranked)    # rank -> id of its component
        members: dict = {}                    # id -> its set of ranks
        published: dict = {}                  # id -> (least rank, frozenset)
        fresh = count()
        # nothing has entered on the ray below every value
        self.table, self.events = {("f", 0): {}}, {("f", 0): {}}

        def publish(cell, changed):
            for c in changed:
                published[c] = (min(members[c]),
                                frozenset(map(ranked.__getitem__, members[c])))
            self.table[cell] = dict(published)

        for i in range(len(self.values)):
            # id -> the ids of the gap below that it holds
            changed = self.events["v", i] = {}
            for piece in _components(enter[i], faces):
                ids = {owner[t] for r in piece for t in cofaces[r]}
                ids.discard(None)
                if ids:
                    c = max(ids, key=lambda d: len(members[d]))
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
            publish(("v", i), changed)

            changed = set()
            for r in leave[i]:
                c = owner[r]
                owner[r] = None
                members[c].discard(r)
                changed.add(c)
            # id at the point below -> its ids here: none when it ends,
            # itself when it shrinks, fresh ones when it is joined again
            become = self.events["f", i + 1] = {c: [c] if members[c] else []
                                                for c in changed}
            for c in [c for c in changed if not members[c]]:
                del members[c], published[c]
                changed.discard(c)
            if changed:
                rim = {t for r in leave[i] if len(ranked[r]) == 1
                       for t in map(rank.__getitem__, star[ranked[r][0]])
                       if owner[t] is not None}
                # the components holding two or more classes of the rim;
                # the rim is no cell, so it bypasses the `_components`
                # name that cell counts are read through
                held, suspect = set(), set()
                for cls in rank_components(rim, faces):
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
            publish(("f", i + 1), changed)

    def components(self, cell) -> tuple[frozenset, ...]:
        """The fiber components over a cell of `cuts`, by least rank."""
        return tuple(comp for _, comp in sorted(self.table[cell].values()))


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
        x, yy, w = _homogeneous(y, self.scale)
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
    one parameter y is a value or a 1-tuple, located among the cells of the
    map's `SweepIndex` by bisection, and read off its table; for two it is a pair, and the support is read off the
    map's `HullIndex`.  A point of another length is a `StructuralError`.
    """
    y = as_point(y, f.k)
    if f.k == 1:
        return f.sweep.components(f.sweep.cuts.locate(y))
    ranked = f.domain.index.ranked
    return tuple(frozenset(map(ranked.__getitem__, c))
                 for c in _components(f.hulls.support(y), f.domain.face_ranks))


# ---------------------------------------------------------------------------
# Reeb graph for one parameter

@dataclass(frozen=True, eq=False)
class ReebGraph:
    nodes: tuple
    node_value: dict
    node_critical: dict      # node -> critical vertex labels at its value
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

    The graph is replayed from the record of the map's `SweepIndex`, value
    by value.  Each component over the point ("v", i) that the value's
    vertices touch is a candidate (("v", i), id), with the gap ids it
    absorbed from below and the ids it becomes in the gap ("f", i + 1)
    above.  A gap id is an arc, open from the candidate it left until the
    candidate that absorbs it; the untouched components lie inside arcs.  A
    candidate is a node of f's graph unless it has exactly one arc below
    and one above; one containing a vertex of the critical locus `jset`
    (the H Jacobi set of f when omitted) at its value stays a node too, so
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
    events, table = sweep.events, sweep.table
    values, vindex, ranked = sweep.values, sweep.vindex, f.domain.index.ranked

    def order(key):
        """(value index, least rank): the order of the point's `components`."""
        cell, c = key
        return cell[1], table[cell][c][0]

    def component(cell, c) -> str:
        (kind, i), least = cell, ranked[table[cell][c][0]]
        return ("fiber component through {" + ", ".join(map(str, least)) + "} " + (
            f"at value {format_frac(values[i])}" if kind == "v" else
            f"between values {format_frac(values[i - 1])} and {format_frac(values[i])}"))

    # a locus vertex makes a node of its component at its own value
    critical: dict = {}
    for s in jset.complex.simplices_of_dim(0):
        v = s[0]
        if v not in vindex:
            raise NotAMemberError(f"vertex {v!r} not in the domain")
        cell = ("v", vindex[v])
        c = next(c for c, (_, comp) in table[cell].items() if s in comp)
        critical.setdefault((cell, c), []).append(v)

    arcs: list = []          # (lower, upper) candidate of each gap id
    incident: dict = {}      # candidate (cell, id) -> its arcs
    opened: dict = {}        # open gap id -> the candidate it left
    nodes: list = []
    for i, value in enumerate(values):
        for c, gaps in events["v", i].items():
            key = (("v", i), c)
            incident[key] = []
            for g in gaps:
                if g not in opened:
                    raise InternalError(
                        f"{component(('f', i), g)} does not lie in one "
                        f"component at value {format_frac(value)}")
                low = opened.pop(g)
                incident[low].append(len(arcs))
                incident[key].append(len(arcs))
                arcs.append((low, key))
            above = events["f", i + 1][c]
            opened.update((g, key) for g in above)
            if len(gaps) != 1 or len(above) != 1 or key in critical:
                nodes.append(key)

    kept = sorted(nodes, key=order)
    cells = {cell for cell, _ in critical}
    stray = next((key for key in kept if key[0] not in cells), None)
    if stray is not None:
        raise DegeneracyError(
            f"{component(*stray)} is a node of the Reeb graph over no "
            f"critical value of the {jset.notion} locus")
    label = {k: f"r{i}" for i, k in enumerate(kept)}
    joins = [pair for key, pair in incident.items() if key not in label]
    edges = [tuple(sorted(label[key] for a in chain for key in arcs[a] if key in label))
             for chain in connected_classes(range(len(arcs)), joins)]
    return ReebGraph(nodes=tuple(label[k] for k in kept),
                     node_value={label[k]: values[k[0][1]] for k in kept},
                     node_critical={label[k]: tuple(sorted(critical.get(k, ())))
                                    for k in kept},
                     node_members={label[k]: table[k[0]][k[1]][1] for k in kept},
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
    Jacobi set of f when omitted), and report the counts: the count at the
    interval's sample in the line cut at the critical values, and in
    `detail` the counts over the sweep's cells inside the interval, the
    empty rays of an unbounded one among them, each read off the size of
    the cell's table."""
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
    sweep, cut = f.sweep, {f.sweep.vindex[v] for v in locus}
    # the counts over the sweep's cells strictly between two critical
    # values, one set per interval, the rays among them
    found = [{len(sweep.table["f", 0])}]
    for i in range(len(sweep.values)):
        if i in cut:
            found.append(set())
        else:
            found[-1].add(len(sweep.table["v", i]))
        found[-1].add(len(sweep.table["f", i + 1]))
    cuts = LineCuts(crit)
    counts = [len(fiber_components(f, cuts.sample(("f", i)))) for i in range(len(found))]
    return FiberAudit(boundaries=tuple(crit), counts=tuple(counts),
                      passed=all(len(c) == 1 for c in found),
                      detail=tuple(_reported(c, samples) for c in found))


def _reported(found: set, n: int) -> tuple:
    """n copies of a constant count, else each count once, increasing."""
    return tuple(found) * n if len(found) == 1 else tuple(sorted(found))


# ---------------------------------------------------------------------------
# the scaffold over a stratified codomain

class FineCells:
    """The cells of the codomain on which the fiber support is constant,
    with the fiber components over each and the one rule that glues them.

    The cells are those of `arrangement`, chosen once: the sweep's
    `LineCuts` for one parameter, and for two the arrangement of the images
    of all domain edges; a simplex image is the hull of its vertex images,
    so every open cell lies inside it or outside it.  Both cover R^k, and
    from there on both are read alike: each cell, keyed as
    `arrangement.locate` gives it, carries its `sample` and the fiber components over it, and
    `incidences` pairs it with the cells whose closure contains it, lower
    cell first.  The support over the lower cell contains the support over
    the higher one, and `attachments` names the component over the lower
    cell that holds each component over the higher one.
    """

    def __init__(self, f: PLMap):
        self.rank = f.domain.index.rank
        self.arrangement = arr = (f.sweep.cuts if f.k == 1
                                  else edge_image_arrangement(f, f.domain))
        self.samples = {c: arr.sample(c) for c in arr.cells()}
        self.incidences = arr.incidences()
        self.components = {c: fiber_components(f, y) for c, y in self.samples.items()}

    def strata(self, cs: CodomainStratification) -> tuple[dict, dict, dict]:
        """The stratum of `cs` holding each cell, each stratum's sample and
        its cell.  A stratum is a class of incident cells of one codomain
        dimension (0 on a cut point of `cs`, 1 on a locus segment, else 2)
        holding its sample, and `cs` is cut by vertex values and edge images."""
        arr, cuts = self.arrangement, cs.cuts
        reps = {label: cs.sample(label) for label in sorted(cs.space.cells)}
        rep_cell = {label: arr.locate(y) for label, y in reps.items()}
        source = {frozenset(seg): i for i, seg in enumerate(arr.segments)}
        if stray := [seg for seg in cuts.segments if frozenset(seg) not in source]:
            raise StructuralError(f"segment {_show_segment(stray[0])} is no edge image")
        # the plane's cut points end or cross its segments: only the line's can miss
        if stray := [p for p in cuts.vertices if p not in arr.vertex_id]:
            raise StructuralError(f"value {', '.join(map(format_frac, min(stray)))}"
                                  f" is no vertex value")
        locus = {source[frozenset(seg)] for seg in cuts.segments}
        dim = dict.fromkeys(self.components, 2)
        dim.update((("e", i), 1) for i, s in enumerate(arr.edge_source) if s in locus)
        dim.update((low, 1) for low, high in self.incidences if dim[high] == 1)
        dim.update((("v", arr.vertex_id[p]), 0) for p in cuts.vertices)
        stratum: dict = {}
        same = [(a, b) for a, b in self.incidences if dim[a] == dim[b]]
        for cls in connected_classes([*dim, *rep_cell], same + list(rep_cell.items())):
            if len(labels := [c for c in cls if c in rep_cell]) != 1:
                raise InternalError(f"the fine cells through {_show(self.samples[cls[0]])}"
                                    f" hold {len(labels)} samples")
            stratum.update((c, labels[0]) for c in cls if c in dim)
        return stratum, reps, rep_cell

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
    of `cs` that holds it (`FineCells.strata`).  Joining their `attachments`
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
    stratum, reps, rep_cell = fine.strata(cs)
    comps = {label: fine.components[cell] for label, cell in rep_cell.items()}

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
        cell = fine.arrangement.locate(y)
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
    a scaffold the fine cells of f and their strata are built as the
    scaffold builds them, which for two parameters needs the edge images in
    general position, and the codomain is stratified by the H Jacobi set."""
    if samples < 1:
        raise StructuralError(f"the audit needs at least one sample, got {samples}")
    if scaffold is None:
        cs, fine = build_codomain_stratification(f, jacobi_set(f)), FineCells(f)
        stratum = fine.strata(cs)[0]
    else:
        cs, fine, stratum = scaffold.codomain, scaffold.fine, scaffold.stratum
    found: dict = {label: set() for label in cs.space.cells}
    for c, label in stratum.items():
        found[label].add(len(fine.components[c]))
    results = {label: _reported(counts, 1 if stratum_dimension(label) == 0 else samples)
               for label, counts in sorted(found.items())}
    return all(len(set(r)) == 1 for r in results.values()), results

