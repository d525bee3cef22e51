"""Refinement of critical-value sets in the codomain and the stratification
of the plane they induce.

For k = 1 the image of the critical locus is a finite set of values, and
`LineCuts` cuts the line at them into points and open intervals.  For k = 2
the image is a set of segments; after splitting at pairwise transverse
crossings the result is an honest one-complex embedded in the plane, and
faces of the subdivision are extracted with a half-edge walk using exact
orientation tests.  Anything tangential, overlapping or concurrent beyond
two segments is rejected as non-generic, never repaired.

`PlanarArrangement` decides planar incidence once, while it is built: its
crossing vertex ids and cell incidences are what the refined image, both
stratifiers and the fiber scaffold read.  `LineCuts` answers the same
queries on the line (`cells`, `incidences`, `locate`, `sample`), keyed
alike, so the codomain stratification and the fine cells read either one
the same way.  Every codomain and contour order is graded, so one builder,
`_plane_space`, reads its up-sets and covers off the incidences unclosed,
and the label table it reads is the one every stratification keeps.  A
stratification is its cuts and that table, one label per cell: the SVG
writers here and the JSON writer in `io` read each stratum's geometry off
the cells of the cuts its label names, and `coarseness_check` counts
degrees by vertex id, so no stratum keeps a copy of its points.

Every decision runs on Python ints, not on the `Fraction` predicates of
`geometry`.  Construction multiplies every input coordinate by the common
denominator of all of them; a positive scale keeps every sign and every
order, so each decision is the one the rationals would give.  Each segment
pair gets one orientation quadruple, which decides overlap, transverse
crossing and an endpoint inside the other segment at once.  A crossing is
a homogeneous integer point (X, Y, W) with W > 0, reduced by the gcd of
the three, so equal points are equal triples; cut order along a segment,
the rotation at a vertex, the face areas and the inside test are integer
determinants whose sign is unchanged by the positive W.  Points become
`Fraction`s only where they leave the arrangement: `vertices` (still in
rational lexicographic order), `vertex_id` and `crossing_points` (built
on first read) and `Face.area2` are `Fraction`-valued, and `Fraction` is
the only number type they hold.  `locate` reads the integer vertices
`_build` keeps, scales its query once by the same common denominator into
a homogeneous point, and decides edges and faces with the same
determinants (`_on_edge`, `_in_face`); `face_interior_samples` asks them
of the face's own cycles only, as no other cell meets an open face.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd, lcm
from typing import Sequence

from .errors import (GenericityError, InputError, InternalError,
                     StructuralError)
from .geometry import (_show, as_point, canon_key, on_segment, proper_crossing,
                       segments_share_line_overlap, vadd, vscale, vsub)
from .posets import Poset, StratifiedSpace, connected_classes

Point = tuple


# ---------------------------------------------------------------------------
# planar arrangements of segments

@dataclass(frozen=True)
class Face:
    index: int
    bounded: bool
    cycles: tuple        # walks of directed edges (u, v); first is the outer cycle when bounded
    area2: Fraction      # twice the signed area of the outer cycle (0 if unbounded)


class PlanarArrangement:
    """The subdivision of the plane induced by a set of interior-disjoint
    segments (shared endpoints allowed, crossings must be transverse)."""

    def __init__(self, segments: Sequence[tuple]):
        segs = []
        for p, q in segments:
            p, q = as_point(p, 2), as_point(q, 2)
            if p == q:
                raise StructuralError("zero-length segment")
            segs.append((p, q))
        self.segments = tuple(segs)
        self._build()
        self._check_euler()

    # -- construction -------------------------------------------------------

    def _build(self):
        segs = self.segments
        scale = lcm(*(c.denominator for seg in segs for p in seg for c in p))
        ends = [tuple((p[0].numerator * (scale // p[0].denominator),
                       p[1].numerator * (scale // p[1].denominator), 1)
                      for p in seg) for seg in segs]
        # cuts[i]: (t numerator, t denominator > 0, point) along segment i
        cuts = [[(0, 1, a), (1, 1, b)] for a, b in ends]
        crossing_pairs: dict[tuple, list] = {}
        for i, ((ax, ay, _), (bx, by, _)) in enumerate(ends):
            rx, ry = bx - ax, by - ay
            for j in range(i + 1, len(ends)):
                (cx, cy, _), (dx, dy, _) = ends[j]
                # twice the signed areas of abc, abd, cda and cdb
                o1 = rx * (cy - ay) - ry * (cx - ax)
                o2 = rx * (dy - ay) - ry * (dx - ax)
                if o1 * o2 > 0:
                    continue
                sx, sy = dx - cx, dy - cy
                o3 = sx * (ay - cy) - sy * (ax - cx)
                o4 = sx * (by - cy) - sy * (bx - cx)
                if o3 * o4 > 0:
                    continue
                if o1 == 0 and o2 == 0:
                    # one line: compare the projections onto ab
                    pc = rx * (cx - ax) + ry * (cy - ay)
                    pd = rx * (dx - ax) + ry * (dy - ay)
                    if max(0, min(pc, pd)) < min(rx * rx + ry * ry, max(pc, pd)):
                        raise _nongeneric(
                            f"segments {_show_segment(segs[i])} and "
                            f"{_show_segment(segs[j])} overlap along a line", (i, j))
                elif o1 * o2 < 0 and o3 * o4 < 0:
                    # a + t (b - a) = c + u (d - c), t = o3 / (o3 - o4),
                    # u = o1 / (o1 - o2), and o3 - o4 = o2 - o1
                    w = o3 - o4
                    if w < 0:
                        w, o1, o3 = -w, -o1, -o3
                    x, y = ax * w + o3 * rx, ay * w + o3 * ry
                    g = gcd(x, y, w)
                    point = (x // g, y // g, w // g)
                    cuts[i].append((o3, w, point))
                    cuts[j].append((-o1, w, point))
                    crossing_pairs.setdefault(point, []).append((i, j))
                elif o1 * o2 < 0 or o3 * o4 < 0:
                    # lines meet at one point, strictly inside one segment
                    # and at an endpoint of the other
                    if o1 * o2 < 0:
                        e, k, other = segs[i][o3 != 0], i, j
                    else:
                        e, k, other = segs[j][o1 != 0], j, i
                    raise _nongeneric(
                        f"endpoint {_show(e)} of segment {_show_segment(segs[k])} "
                        f"lies interior to segment {_show_segment(segs[other])}",
                        (k, other), e)
        for point, pairs in crossing_pairs.items():
            if len(pairs) > 1:
                met = sorted({k for pair in pairs for k in pair})
                names = [_show_segment(segs[k]) for k in met]
                at = _rational(point, scale)
                raise _nongeneric(f"three or more segments meet at {_show(at)}: "
                                  f"{', '.join(names[:-1])} and {names[-1]}", tuple(met), at)

        hom = sorted({p for seg in cuts for _, _, p in seg}, key=_BY_POSITION)
        self._hom, self._scale = hom, scale     # `locate` reads the same ints
        index = {p: n for n, p in enumerate(hom)}
        self.vertices: list[Point] = [_rational(p, scale) for p in hom]
        self._crossings = frozenset(index[p] for p in crossing_pairs)   # vertex ids
        # segments sharing a sub-segment overlap along a line, rejected
        # above, so every sub-segment comes from one segment
        edges: dict[tuple[int, int], int] = {}
        for i, seg in enumerate(cuts):
            seg.sort(key=_BY_PARAM)
            for (_, _, p), (_, _, q) in zip(seg, seg[1:]):
                u, v = index[p], index[q]
                edges[(min(u, v), max(u, v))] = i
        self.edges: list[tuple[int, int]] = sorted(edges)
        self.edge_index: dict[tuple[int, int], int] = {
            e: i for i, e in enumerate(self.edges)}
        self.edge_source: list[int] = [edges[e] for e in self.edges]
        self.faces: list[Face] = self._extract_faces(hom, scale)

    def _extract_faces(self, hom: list[tuple], scale: int) -> list[Face]:
        """Faces from a half-edge walk over the vertices `hom`, homogeneous
        integer points (X, Y, W) with W > 0 at `scale` times the input."""
        rotation: dict[int, list[int]] = {u: [] for u in range(len(hom))}
        for u, v in self.edges:
            rotation[u].append(v)
            rotation[v].append(u)
        for u, nbrs in rotation.items():
            xu, yu, wu = hom[u]
            # (X W' - X' W, Y W' - Y' W) points along the edge, scaled by W W' > 0
            nbrs.sort(key=lambda v: _CCW_KEY((hom[v][0] * wu - xu * hom[v][2],
                                              hom[v][1] * wu - yu * hom[v][2])))
        rot_index = {(u, v): i for u, nbrs in rotation.items() for i, v in enumerate(nbrs)}

        # next half-edge of (u, v): at v, step clockwise from the reversal;
        # this walks each face with its interior on the left.
        def next_he(u, v):
            nbrs = rotation[v]
            i = rot_index[(v, u)]
            return (v, nbrs[(i - 1) % len(nbrs)])

        directed = [(u, v) for u, v in self.edges] + [(v, u) for u, v in self.edges]
        directed.sort()
        orbit_of: dict[tuple[int, int], int] = {}
        orbits: list[list[tuple[int, int]]] = []
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

        areas = [_area2(walk, hom, scale) for walk in orbits]
        positive = [i for i, a in enumerate(areas) if a > 0]
        outer = [i for i, a in enumerate(areas) if a <= 0]

        def walk_vertices(i):
            return [u for u, _ in orbits[i]]

        # no vertex lies inside an edge, so a vertex off a walk's vertices
        # is off the walk
        def strictly_inside(u, i) -> bool:
            return (u not in walk_vertices(i)
                    and _ray_parity_h(hom[u], hom, orbits[i]))

        parent: dict[int, int | None] = {}
        for i in outer:
            anchor = min(walk_vertices(i))
            best = None
            for j in positive:
                if strictly_inside(anchor, j):
                    if best is None or areas[j] < areas[best]:
                        best = j
            parent[i] = best

        order = sorted(positive, key=lambda i: (min(walk_vertices(i)), areas[i]))
        faces: list[Face] = []
        for n, i in enumerate(order):
            holes = tuple(tuple(orbits[h2]) for h2 in sorted(outer) if parent[h2] == i)
            faces.append(Face(index=n, bounded=True,
                              cycles=(tuple(orbits[i]),) + holes, area2=areas[i]))
        unb = tuple(tuple(orbits[i]) for i in sorted(outer) if parent[i] is None)
        faces.append(Face(index=len(order), bounded=False, cycles=unb, area2=Fraction(0)))
        return faces

    def _check_euler(self):
        v, e, fcount = len(self.vertices), len(self.edges), len(self.faces)
        # counted once here, read by `component_count`
        self._components = len(connected_classes(range(v), self.edges))
        if v == 0:
            if e != 0 or fcount != 1:
                raise InternalError("empty arrangement must be a single face")
            return
        if v - e + fcount != 1 + self._components:
            raise InternalError("Euler relation V - E + F = 1 + C violated")

    # -- queries ------------------------------------------------------------

    @cached_property
    def vertex_id(self) -> dict[Point, int]:
        return {p: n for n, p in enumerate(self.vertices)}

    @cached_property
    def crossing_points(self) -> frozenset:
        return frozenset(map(self.vertices.__getitem__, self._crossings))

    def component_count(self) -> int:
        return self._components

    def euler_lhs(self) -> int:
        """V - E + F, the unbounded face counted once."""
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def incidences(self) -> list[tuple[tuple, tuple]]:
        """Every pair (lower, higher) of cells with the lower one in the
        closure of the higher, keyed as `locate` returns them: vertex < edge
        in edge order, then per face its vertices and its edges, read off
        its cycles, each in increasing index."""
        half = {(v, u): i for (u, v), i in self.edge_index.items()} | self.edge_index
        pairs = [(("v", u), ("e", i)) for i, e in enumerate(self.edges) for u in e]
        for face in self.faces:
            cell = ("f", face.index)
            walk = [h for cycle in face.cycles for h in cycle]
            # a cycle is closed, so its tails are all of its vertices
            pairs += [(("v", u), cell) for u in sorted({u for u, _ in walk})]
            pairs += [(("e", i), cell) for i in sorted({half[h] for h in walk})]
        return pairs

    def locate(self, p) -> tuple:
        """The lowest-dimensional cell containing the point: ("v", i),
        ("e", i) or ("f", i)."""
        p = as_point(p, 2)
        if p in self.vertex_id:
            return ("v", self.vertex_id[p])
        hom = self._hom
        q = _homogeneous(p, self._scale)
        if (i := _on_edge(q, hom, self.edges)) is not None:
            return ("e", i)
        # off every vertex and edge, q is inside exactly one face; the
        # unbounded face comes last
        for face in self.faces[:-1]:
            if _in_face(q, hom, face.cycles):
                return ("f", face.index)
        return ("f", self.faces[-1].index)

    def cells(self) -> list[tuple]:
        """Every cell, keyed as `locate` returns them."""
        sizes = {"v": len(self.vertices), "e": len(self.edges), "f": len(self.faces)}
        return [(kind, i) for kind, n in sizes.items() for i in range(n)]

    def sample(self, cell) -> Point:
        """A point inside the cell: the vertex, the edge's midpoint, or the
        face's first interior sample."""
        kind, i = cell
        if kind == "v":
            return self.vertices[i]
        if kind == "e":
            u, v = self.edges[i]
            return vscale(Fraction(1, 2), vadd(self.vertices[u], self.vertices[v]))
        return self.face_interior_samples(i)[0]

    def bounding_box(self):
        xs = [p[0] for p in self.vertices] or [Fraction(0)]
        ys = [p[1] for p in self.vertices] or [Fraction(0)]
        return (min(xs), min(ys), max(xs), max(ys))

    def face_interior_samples(self, index: int, n: int = 1) -> list[Point]:
        """Deterministic interior points of a face.

        Bounded faces: n points off the least boundary edge, at j/(n+1) of
        its length, each moved along the edge normal by 1/2, 1/4, ... of
        its length, to either side, until the face's own cycles hold it off
        their edges, as no other cell meets the open face.  The face lies on
        a side of the edge, so the halving ends, and the points differ along
        the edge.  The unbounded face walks away from the bounding box.
        """
        cycles, hom = self.faces[index].cycles, self._hom
        if not self.faces[index].bounded:
            _, _, x1, y1 = self.bounding_box()
            return [(x1 + 1 + i, y1 + 1 + i) for i in range(n)]
        walk = [h for c in cycles for h in c]
        u, v = min((min(h), max(h)) for h in walk)
        a, b = self.vertices[u], self.vertices[v]
        d = vsub(b, a)
        normal = (-d[1], d[0])
        out: list[Point] = []
        for j in range(1, n + 1):
            base = vadd(a, vscale(Fraction(j, n + 1), d))
            step, found = Fraction(1, 2), None
            while found is None:
                for cand in (vadd(base, vscale(step, normal)),
                             vadd(base, vscale(-step, normal))):
                    q = _homogeneous(cand, self._scale)
                    if _on_edge(q, hom, walk) is None and _in_face(q, hom, cycles):
                        found = cand
                        break
                step /= 2
            out.append(found)
        return out


def _show_segment(seg) -> str:
    return f"{_show(seg[0])}-{_show(seg[1])}"


def _nongeneric(message: str, segments: tuple, point=None) -> GenericityError:
    """A `GenericityError` that keeps the indices of the segments it names
    and the point where they meet, None for an overlap, so a caller that
    cut the plane by the images of other things can name those instead."""
    err = GenericityError(message)
    err.segments, err.point = segments, point
    return err


def _rational(p: tuple, scale: int) -> Point:
    """The input-unit point of a homogeneous integer point at `scale`."""
    x, y, w = p
    return (Fraction(x, w * scale), Fraction(y, w * scale))


# cut parameters (numerator, denominator > 0, point) in increasing order
_BY_PARAM = cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])
# homogeneous points (X, Y, W > 0) in lexicographic order of (X/W, Y/W)
_BY_POSITION = cmp_to_key(lambda p, q: (p[0] * q[2] - q[0] * p[2])
                          or (p[1] * q[2] - q[1] * p[2]))


def _ccw_cmp(a, b) -> int:
    """Order of nonzero integer vectors by angle from the positive x axis."""
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return ha - hb
    c = a[0] * b[1] - a[1] * b[0]
    return (c < 0) - (c > 0)


_CCW_KEY = cmp_to_key(_ccw_cmp)


def _area2(walk, hom, scale) -> Fraction:
    """Twice the signed area of a closed walk over homogeneous integer
    points, in input units: the shoelace sum over the walk's common
    denominator d, divided by (d * scale) ** 2."""
    d = lcm(*(hom[u][2] for u, _ in walk))
    m = {u: d // hom[u][2] for u, _ in walk}
    s = sum((hom[u][0] * hom[v][1] - hom[u][1] * hom[v][0]) * m[u] * m[v]
            for u, v in walk)
    return Fraction(s, (d * scale) ** 2)


def _homogeneous(p: Point, scale: int) -> tuple:
    """A rational point at `scale` times the input as (X, Y, W), W the lcm
    of its denominators: every query point of `locate`, the face sampler
    and `reeb.HullIndex.support`."""
    x, y = p
    w = lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator) * scale,
            y.numerator * (w // y.denominator) * scale, w)


def _on_edge(q, hom, edges) -> int | None:
    """The position of the first of `edges`, pairs of ids into `hom`, whose
    closed segment holds the homogeneous point q, or None: the 3x3
    determinant of a, b, q is 0 and (q - a).(q - b) <= 0, scaled by W's."""
    xq, yq, wq = q
    for i, (u, v) in enumerate(edges):
        (xa, ya, wa), (xb, yb, wb) = hom[u], hom[v]
        if (xa * (yb * wq - wb * yq) - ya * (xb * wq - wb * xq)
                + wa * (xb * yq - yb * xq) == 0
                and (xq * wa - xa * wq) * (xq * wb - xb * wq)
                + (yq * wa - ya * wq) * (yq * wb - yb * wq) <= 0):
            return i
    return None


def _ray_parity_h(p, hom, walk) -> bool:
    """Even-odd test on homogeneous integer points: whether a rightward
    ray from p crosses the closed walk of directed edges (u, v) over `hom`
    an odd number of times.  The ray meets an edge that straddles p's
    height exactly when p lies strictly left of it going up, or strictly
    right of it going down; the sign of the 3x3 determinant of a, b, p is
    that of orient(a, b, p), because every W is positive."""
    xp, yp, wp = p
    cnt = 0
    for u, v in walk:
        xa, ya, wa = hom[u]
        xb, yb, wb = hom[v]
        up = yb * wp > yp * wb
        if (ya * wp > yp * wa) != up:
            o = (xa * (yb * wp - wb * yp) - ya * (xb * wp - wb * xp)
                 + wa * (xb * yp - yb * xp))
            if (o > 0 if up else o < 0):
                cnt ^= 1
    return cnt == 1


def _in_face(q, hom, cycles) -> bool:
    """Whether a homogeneous point off the edges of a bounded face's
    `cycles` lies inside the first, the outer one, and outside the rest."""
    outer, *holes = cycles
    return _ray_parity_h(q, hom, outer) and not any(_ray_parity_h(q, hom, h) for h in holes)


def _face_label(face: Face) -> str:
    """Stratum label of an arrangement face."""
    return f"f{face.index}" if face.bounded else "f_out"


# ---------------------------------------------------------------------------
# the line cut at values

class LineCuts:
    """The line cut at increasing `values`, with the cell interface of
    `PlanarArrangement`: ("v", i) is the i-th value and ("f", i) the open
    interval or ray below it, ("f", n) the ray above all n values, so no
    cuts leave the one face ("f", 0).  It has no segments and no edges."""

    segments = edges = edge_source = ()

    def __init__(self, values: Sequence[Fraction]):
        self.values, self.vertices = values, [(x,) for x in values]
        self.vertex_id = {p: n for n, p in enumerate(self.vertices)}

    def cells(self) -> list[tuple]:
        n = len(self.values)
        return [*(("v", i) for i in range(n)), *(("f", i) for i in range(n + 1))]

    def incidences(self) -> list[tuple[tuple, tuple]]:
        """Each value below the interval or ray on either side of it."""
        return [(("v", i), ("f", i + d)) for i in range(len(self.values)) for d in (0, 1)]

    def locate(self, y) -> tuple:
        t, values = as_point(y, 1)[0], self.values
        i = bisect_left(values, t)
        return ("v" if i < len(values) and values[i] == t else "f", i)

    def sample(self, cell) -> Point:
        """The value, the midpoint of a bounded interval, 1 past the end of
        a ray, or 0 on the uncut line."""
        kind, i = cell
        if kind == "v":
            return self.vertices[i]
        lo, hi = (self.values[j] if 0 <= j < len(self.values) else None for j in (i - 1, i))
        if lo is None:
            return (Fraction(0) if hi is None else hi - 1,)
        return (lo + 1 if hi is None else (lo + hi) / 2,)


# ---------------------------------------------------------------------------
# refined image of a critical locus

@dataclass(frozen=True, eq=False)
class RefinedImage:
    """The image of the critical locus split into cells that meet only along
    shared sub-cells.

    Multiplicity counts the preimage points inside the locus.  For k = 2 the
    points are the vertices of the arrangement, which holds the split
    segments; the arrangement has already rejected every incidence but a
    shared endpoint and a transverse crossing of two segments, so the
    multiplicity is 2 exactly at its crossing points and 1 elsewhere.
    """
    k: int
    points: tuple
    multiplicities: tuple
    arrangement: PlanarArrangement | None


def edge_image_arrangement(f, k) -> PlanarArrangement:
    """The arrangement of the images under f of the edges of the complex k.
    A vertex of k on no edge is rejected: no cell of the arrangement would
    hold its image.  Edge images out of general position are named by
    their edges, in the input's labels."""
    edges = k.simplices_of_dim(1)
    if lone := k.vertices.difference(*edges):
        raise GenericityError(f"vertex {min(lone, key=canon_key)!r} is on no "
                              f"edge, so its image cuts no cell")
    try:
        return PlanarArrangement([(f.value(a), f.value(b)) for a, b in edges])
    except GenericityError as err:
        names = ["{" + ", ".join(map(str, edges[i])) + "}" for i in err.segments]
        listed = f"edge images {', '.join(names[:-1])} and {names[-1]}"
        if err.point is None:
            raise GenericityError(f"{listed} overlap along a line") from None
        # two meet at an end of the first inside the second, three or more
        # cross at one point inside all of them
        inside = f", inside {names[1]}" if len(names) == 2 else ""
        raise GenericityError(f"{listed} meet at {_show(err.point)}{inside}") from None


def refine_image(f, j) -> RefinedImage:
    """Split the image of the critical locus at crossings.

    k = 1: the critical values in increasing order.  k = 2: every locus edge
    maps to a segment; all pairwise crossings must be transverse and no three
    segments may meet in a non-vertex point.
    """
    k = f.k
    jc = j.complex
    if k == 1:
        count = Counter(f.value(s[0])[0] for s in jc.simplices_of_dim(0))
        points = tuple(sorted(count))
        return RefinedImage(k=1, points=points,
                            multiplicities=tuple(count[p] for p in points),
                            arrangement=None)
    if k != 2:
        raise StructuralError("image refinement supports k in {1, 2}")

    images: dict = {}
    for s in jc.simplices_of_dim(0):
        p = f.value(s[0])
        if p in images:
            raise GenericityError(
                f"locus vertices {images[p]!r} and {s[0]!r} share the image "
                f"point {_show(p)}")
        images[p] = s[0]
    arr = edge_image_arrangement(f, jc)
    mult = tuple(2 if n in arr._crossings else 1 for n in range(len(arr.vertices)))
    return RefinedImage(k=2, points=tuple(arr.vertices), multiplicities=mult,
                        arrangement=arr)


def containment_comparable(r: RefinedImage) -> bool:
    """Check that cells of the refined image meet only in shared sub-cells:
    distinct cells have disjoint relative interiors, and any point common to
    two cells is a vertex cell of both.  For a family of points and straight
    segments this is exactly the containment-comparability of closed cells."""
    if r.k == 1:
        return len(set(r.points)) == len(r.points)
    arr = r.arrangement
    pts = arr.vertices
    for i, (u, v) in enumerate(arr.edges):
        for p in pts:
            if on_segment(p, pts[u], pts[v], closed=False):
                return False
        for jdx in range(i + 1, len(arr.edges)):
            a, b = arr.edges[jdx]
            if proper_crossing(pts[u], pts[v], pts[a], pts[b]) is not None:
                return False
            if segments_share_line_overlap(pts[u], pts[v], pts[a], pts[b]):
                return False
    return True


# ---------------------------------------------------------------------------
# codomain stratification

@dataclass(frozen=True, eq=False)
class CodomainStratification:
    """Stratification of R^k by the refined critical-value cells and the
    connected components of their complement; `labels[kind][i]` names the
    stratum of cell i of kind "v", "e" or "f" of `cuts`, the `LineCuts` at
    the refined points for k = 1 and the refined arrangement for k = 2."""
    k: int
    space: StratifiedSpace
    refined: RefinedImage
    labels: dict
    cuts: LineCuts | PlanarArrangement

    @cached_property
    def cell(self) -> dict:
        """The cell of `cuts` each stratum label names."""
        return {label: (kind, i) for kind, names in self.labels.items()
                for i, label in enumerate(names)}

    def locate(self, y) -> str:
        """Label of the lowest-dimensional stratum containing y; a point of
        the wrong length is a `StructuralError`."""
        kind, i = self.cuts.locate(y)
        return self.labels[kind][i]

    def sample(self, label: str) -> tuple:
        """A point inside the stratum `label`: its cell's sample."""
        return self.cuts.sample(self.cell[label])


def build_codomain_stratification(f, j) -> CodomainStratification:
    return stratification_from_refined(refine_image(f, j))


# label prefixes fix the cell dimension across every stratification here
_STRATUM_DIM = {"p": 0, "v": 0, "z": 0, "i": 1, "e": 1, "c": 1, "f": 2}


def stratum_dimension(label: str) -> int:
    return _STRATUM_DIM[label[0]]


def stratification_from_refined(refined: RefinedImage) -> CodomainStratification:
    pts = refined.points
    if refined.k == 1:
        cuts = LineCuts(pts)
        labels = {"v": [f"p{i}" for i in range(len(pts))], "e": [],
                  "f": [f"i{i}" for i in range(len(pts) + 1)]}
    else:
        cuts = refined.arrangement
        labels = {"v": [f"v{i}" for i in range(len(pts))],
                  "e": [f"e{i}" for i in range(len(cuts.edges))],
                  "f": [_face_label(face) for face in cuts.faces]}
    return CodomainStratification(
        k=refined.k, space=_plane_space(cuts.incidences(), labels),
        refined=refined, labels=labels, cuts=cuts)


def _plane_space(incidences: list, labels: dict) -> StratifiedSpace:
    """The line or the plane stratified by the cells whose `incidences`
    are keyed as `PlanarArrangement.incidences` gives them: cell i of kind
    "v", "e" or "f" stands for the stratum `labels[kind][i]`; the line's
    cuts are vertices and its intervals faces.  A vertex labelled None
    lies inside the stratum of its edges and adds no stratum and no pair.
    The order is graded, vertex < edge < face, so one pass over the
    incidences gives the up-sets and the covers: every (vertex, edge) and
    (edge, face) pair, and a (vertex, face) pair when no edge of the
    vertex lies below the face."""
    pairs: dict = {}
    # each vertex and edge cell -> (the edges, the faces) it lies below
    above = {c: ([], []) for c in (*labels["v"], *labels["e"]) if c is not None}
    for (lk, li), (hk, hi) in incidences:
        if (low := labels[lk][li]) is not None:
            if (pair := (low, labels[hk][hi])) not in pairs:
                pairs[pair] = None
                above[low][hk == "f"].append(pair[1])
    up = {c: frozenset((c,)) for c in labels["f"]}
    covers = []
    for c in reversed(above):   # the edge cells first: vertices read their up-sets
        edges, faces = above[c]
        below = frozenset().union(*map(up.__getitem__, edges))
        faces = [f for f in faces if f not in below]
        up[c] = below.union((c, *faces))
        covers += [(c, h) for h in (*edges, *faces)]
    return StratifiedSpace(poset=Poset._of_upsets(up, frozenset(covers)),
                           cells=frozenset(up), closure=frozenset(pairs),
                           assignment={c: c for c in up})


# ---------------------------------------------------------------------------
# singular loci of two-parameter families

@dataclass(frozen=True)
class SingularLocus:
    """A drawn apparent contour: polyline strands of points in the plane
    with marked birth/death vertices, each mark a pair of integers (strand
    index, point index).  A strand whose first and last points agree is
    closed; no point may follow itself, which would be a zero-length
    segment."""
    strands: tuple
    cusp_marks: tuple = ()

    def __post_init__(self):
        for s in self.strands:
            if len(s) < 2:
                raise InputError("each strand needs at least two points")
            if any(len(p) != 2 for p in s):
                raise InputError("each point of a strand must be a pair of rationals")
        strands = tuple(tuple(as_point(p, 2) for p in s) for s in self.strands)
        for i, s in enumerate(strands):
            for a, b in zip(s, s[1:]):
                if a == b:
                    raise InputError(f"strand {i} repeats the point {_show(a)} "
                                     f"back to back")
        marks = tuple((i, v) for i, v in self.cusp_marks)
        for i, v in marks:
            if not all(type(x) is int for x in (i, v)):
                raise InputError(f"cusp mark {(i, v)!r} must be a pair of integers")
            if not (0 <= i < len(strands)) or not (0 <= v < len(strands[i])):
                raise InputError(f"cusp mark {(i, v)!r} out of range")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "cusp_marks", marks)

    def is_closed(self, i: int) -> bool:
        return self.strands[i][0] == self.strands[i][-1]


@dataclass(frozen=True, eq=False)
class LocusStratification:
    """Stratification of the plane by a singular locus: marked 0-cells,
    strand chains between them, and complement faces; `labels[kind][i]`
    names the stratum of cell i of kind "v", "e" or "f" of `cuts`, the
    arrangement of the strands' segments."""
    space: StratifiedSpace
    marks: dict            # zero-cell label -> frozenset of mark kinds
    cuts: PlanarArrangement
    labels: dict           # "v", "e", "f" -> the stratum of each cell, None inside a chain


def stratify_singular_locus(locus: SingularLocus) -> LocusStratification:
    """Stratify the plane by a singular locus.

    Zero-cells appear at strand endpoints, at marked birth/death vertices, at
    transverse crossings between strands, and at vertical tangencies, which
    are vertices where consecutive x-increments change sign strictly; a zero
    x-increment (a vertical segment) is rejected as non-generic.
    """
    special: dict[Point, set] = {}

    def mark(p, kind):
        special.setdefault(p, set()).add(kind)

    all_segments: list[tuple] = []
    for si, strand in enumerate(locus.strands):
        closed = locus.is_closed(si)
        if not closed:
            mark(strand[0], "endpoint")
            mark(strand[-1], "endpoint")
        # a closed strand repeats its first point, so its last segment
        # comes before its first
        segs = list(zip(strand, strand[1:]))
        for prev, (a, b) in zip((segs[-1] if closed else None, *segs), segs):
            if a[0] == b[0]:
                raise GenericityError(
                    f"vertical segment in strand {si}; tangency direction undefined")
            if prev and (a[0] > prev[0][0]) != (b[0] > a[0]):
                mark(a, "tangency")
        all_segments.extend(segs)
    for si, vi in locus.cusp_marks:
        strand = locus.strands[si]
        mark(strand[vi], "cusp")

    arr = PlanarArrangement(all_segments)
    for p in arr.crossing_points:
        mark(p, "crossing")

    for p in special:
        if p not in arr.vertex_id:
            raise InternalError(f"marked point {p!r} is not an arrangement vertex")

    zero_points = sorted(special)
    zid = {p: f"z{i}" for i, p in enumerate(zero_points)}
    marks = {zid[p]: frozenset(special[p]) for p in zero_points}

    # chains: connected runs of arrangement edges avoiding the special points
    incident: dict[int, list[int]] = {}
    for i, e in enumerate(arr.edges):
        for u in e:
            incident.setdefault(u, []).append(i)
    joins = []
    for u, eis in incident.items():
        if arr.vertices[u] in special:
            continue
        if len(eis) != 2:
            raise GenericityError(
                f"unmarked point {_show(arr.vertices[u])} has degree {len(eis)}")
        joins.append(eis)
    chain_of_edge: list = [None] * len(arr.edges)
    for n, eis in enumerate(sorted(connected_classes(range(len(arr.edges)), joins))):
        for i in eis:
            chain_of_edge[i] = f"c{n}"

    # a vertex stands for its zero-cell, if marked, and an edge for its chain
    labels = {"v": [zid.get(p) for p in arr.vertices], "e": chain_of_edge,
              "f": [_face_label(face) for face in arr.faces]}
    return LocusStratification(space=_plane_space(arr.incidences(), labels),
                               marks=marks, cuts=arr, labels=labels)


def coarseness_check(ls: LocusStratification) -> tuple[bool, list[str]]:
    """A stratification is coarse when no 0-cell can be absorbed: every
    0-cell either carries a structural mark (crossing, cusp, tangency,
    endpoint) or has degree other than two, so merging its incident 1-cells
    would erase required structure.  Returns (is_coarse, removable cells)."""
    degree = Counter(u for e in ls.cuts.edges for u in e)
    removable = sorted(z for u, z in enumerate(ls.labels["v"])
                       if z is not None and not ls.marks[z] and degree[u] == 2)
    return (not removable, removable)


# ---------------------------------------------------------------------------
# svg rendering

_PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
            "#aa3377", "#bbbbbb", "#222255", "#225555", "#553311")


def _f(x) -> str:
    return f"{float(x):.6f}"


def render_svg(strat) -> str:
    """Deterministic SVG for a codomain or locus stratification, drawn from
    its cuts and coloured by the stratum each cell's label names."""
    color = {c: _PALETTE[i % len(_PALETTE)]
             for i, c in enumerate(sorted(strat.space.cells))}
    arr = strat.cuts
    if isinstance(arr, LineCuts):
        return _render_line_svg(arr.values, strat.labels, color)
    x0, y0, x1, y1 = arr.bounding_box()
    pad = max((x1 - x0), (y1 - y0), Fraction(1)) / 10
    x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
    w, h = x1 - x0, y1 - y0
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_f(x0)} {_f(-y1)} {_f(w)} {_f(h)}">']
    lines.append(f'  <rect x="{_f(x0)}" y="{_f(-y1)}" width="{_f(w)}" height="{_f(h)}" fill="{color[strat.labels["f"][-1]]}" fill-opacity="0.15"/>')
    # each vertex's coordinates are formatted once, indexed like arr.vertices
    xs = [_f(p[0]) for p in arr.vertices]
    ys = [_f(-p[1]) for p in arr.vertices]
    for face in arr.faces:
        if not face.bounded:
            continue
        pts = " ".join(f"{xs[u]},{ys[u]}" for u, _ in face.cycles[0])
        lines.append(f'  <polygon points="{pts}" fill="{color[strat.labels["f"][face.index]]}" fill-opacity="0.35" stroke="none"/>')
    stroke = _f(pad / 8)
    for u, v in arr.edges:
        lines.append(f'  <line x1="{xs[u]}" y1="{ys[u]}" x2="{xs[v]}" y2="{ys[v]}" stroke="#333333" stroke-width="{stroke}"/>')
    radius = _f(pad / 4)
    for x, y in zip(xs, ys):
        lines.append(f'  <circle cx="{x}" cy="{y}" r="{radius}" fill="#111111"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _render_line_svg(pts, labels: dict, color: dict) -> str:
    lo, hi = (pts[0], pts[-1]) if pts else (Fraction(0), Fraction(0))
    pad = max(hi - lo, Fraction(1)) / 4
    x0, x1 = lo - pad, hi + pad
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_f(x0)} -1 {_f(x1 - x0)} 2">']
    bounds = [x0] + list(pts) + [x1]
    for a, b, c in zip(bounds, bounds[1:], labels["f"]):
        lines.append(f'  <line x1="{_f(a)}" y1="0" x2="{_f(b)}" y2="0" stroke="{color[c]}" stroke-width="0.12"/>')
    for p, c in zip(pts, labels["v"]):
        lines.append(f'  <circle cx="{_f(p)}" cy="0" r="0.18" fill="{color[c]}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
