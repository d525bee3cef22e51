"""Exact rational predicates and small dense linear algebra.

Every coordinate in this package is a `fractions.Fraction`, so each predicate
below is an exact decision; there are no epsilons anywhere.  Floats are
rejected at the door because they would silently destroy that guarantee.
Coordinates are made exact once, by `frac` where input is read, and a
point of R^k once, by `as_point`, so the vector helpers add and multiply
what they are given without re-wrapping it; on `int` coordinates they
stay on `int`s, and a division, in `proper_crossing` and `barycenter`,
builds a `Fraction`.  `PlanarArrangement` is built without these
predicates, on its own integer kernel in `arrangement`.
`cone_is_full` is the general D-criticality test: `jacobi.is_d_critical`
decides a (k-1)-simplex with a nondegenerate image by a sign test and
calls it only for lower simplices, a degenerate image and k > 2, and
the tests use it as the oracle for that sign test.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Sequence

from .errors import StructuralError

Point = tuple  # tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce an int, Fraction or string ("p/q" or decimal) to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not coordinates")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational {x!r}") from exc
    raise TypeError(f"expected exact rational, got {type(x).__name__} ({x!r})")


def format_frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _show(p) -> str:
    """A point as text, its coordinates as `format_frac` writes them."""
    return "(" + ", ".join(map(format_frac, p)) + ")"


def _show_simplex(s) -> str:
    """A simplex as errors name it, its labels in braces: {a, b}."""
    return "{" + ", ".join(map(str, s)) + "}"


def as_point(y, k: int) -> Point:
    """y as a point of R^k, a tuple of k `Fraction`s: a tuple or a list of
    coordinates, or a scalar, which stands for a point of the line.  Any
    other number of coordinates is a `StructuralError`."""
    p = tuple(map(frac, y)) if isinstance(y, (tuple, list)) else (frac(y),)
    if len(p) != k:
        raise StructuralError(f"a point of R^{k} has {k} coordinates, "
                              f"got {len(p)}: {_show(p)}")
    return p


def vsub(a: Sequence, b: Sequence) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def vadd(a: Sequence, b: Sequence) -> Point:
    return tuple(x + y for x, y in zip(a, b))


def vscale(t, a: Sequence) -> Point:
    t = Fraction(t)
    return tuple(t * x for x in a)


def dot(a: Sequence, b: Sequence) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


def cross2(a: Sequence, b: Sequence) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def orient(a: Sequence, b: Sequence, c: Sequence) -> int:
    """Sign of the signed area of triangle abc: +1 ccw, -1 cw, 0 collinear."""
    s = cross2(vsub(b, a), vsub(c, a))
    return (s > 0) - (s < 0)


def barycenter(points: Sequence[Sequence]) -> Point:
    n = Fraction(len(points))
    return tuple(sum(p[i] for p in points) / n for i in range(len(points[0])))


# ---------------------------------------------------------------------------
# dense elimination over the rationals

def matrix_rank(rows: Iterable[Sequence]) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def det(rows: Sequence[Sequence]):
    """Determinant of a small square matrix, by cofactors of its first row,
    in the number type of its entries; 1 for the empty matrix."""
    if not rows:
        return 1
    rest = rows[1:]
    return sum((-1) ** j * x * det([r[:j] + r[j + 1:] for r in rest])
               for j, x in enumerate(rows[0]) if x)


def affinely_independent(points: Sequence[Sequence]) -> bool:
    """True iff the points span an affine subspace of dimension len(points)-1.
    Two points are independent iff they differ, and three points of the
    plane iff they are not collinear, which one orientation test decides;
    neither needs elimination."""
    if len(points) <= 1:
        return True
    if len(points) == 2:
        return points[0] != points[1]
    if len(points) == 3 and len(points[0]) == 2:
        return orient(*points) != 0
    diffs = [vsub(p, points[0]) for p in points[1:]]
    return matrix_rank(diffs) == len(points) - 1


def orthogonal_vector(vectors: Sequence[Sequence], k: int) -> Point:
    """A nonzero vector orthogonal to k-1 linearly independent vectors in R^k,
    via cofactor expansion (the generalized cross product)."""
    if len(vectors) != k - 1:
        raise ValueError("need exactly k-1 vectors")
    return tuple((-1) ** i * det([v[:i] + v[i + 1:] for v in vectors])
                 for i in range(k))


def cone_is_full(generators: Sequence[Sequence], k: int) -> bool:
    """Decide whether the positive hull of the generators is all of R^k.

    The hull is a proper subset iff some nonzero functional c satisfies
    <c, g> <= 0 for every generator.  If the generators do not span R^k any
    vector in the orthogonal complement works; otherwise a separating
    functional, when one exists, can be chosen normal to a hyperplane spanned
    by k-1 independent generators, so trying those finitely many candidates
    (both signs) is a complete search.
    """
    gens = [tuple(Fraction(x) for x in g) for g in generators]
    gens = [g for g in gens if any(x != 0 for x in g)]
    if k == 0:
        return True
    if matrix_rank(gens) < k:
        return False
    for subset in combinations(gens, k - 1):
        if matrix_rank(subset) < k - 1:
            continue
        c = orthogonal_vector(subset, k)
        for cand in (c, tuple(-x for x in c)):
            if all(dot(cand, g) <= 0 for g in gens):
                return False
    return True


# ---------------------------------------------------------------------------
# planar predicates

def on_segment(p: Sequence, a: Sequence, b: Sequence, *, closed: bool = True) -> bool:
    """Exact test for p on segment ab (closed or open)."""
    if orient(a, b, p) != 0:
        return False
    t_num = dot(vsub(p, a), vsub(b, a))
    t_den = dot(vsub(b, a), vsub(b, a))
    if t_den == 0:
        return closed and tuple(p) == tuple(a)
    if closed:
        return 0 <= t_num <= t_den
    return 0 < t_num < t_den


def segments_share_line_overlap(a, b, c, d) -> bool:
    """True when ab and cd are collinear and overlap in more than a point."""
    if orient(a, b, c) != 0 or orient(a, b, d) != 0:
        return False
    dir_ab = vsub(b, a)
    proj = [dot(vsub(p, a), dir_ab) for p in (a, b, c, d)]
    lo1, hi1 = sorted(proj[:2])
    lo2, hi2 = sorted(proj[2:])
    return max(lo1, lo2) < min(hi1, hi2)


def proper_crossing(a, b, c, d) -> Point | None:
    """Transverse interior intersection point of segments ab and cd, or None.

    Touching configurations (shared endpoints, endpoint on interior) return
    None; callers that must reject them test for those separately.
    """
    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        r = vsub(b, a)
        s = vsub(d, c)
        denom = cross2(r, s)
        t = Fraction(cross2(vsub(c, a), s), denom)
        return vadd(a, vscale(t, r))
    return None


def convex_hull_2d(points: Sequence[Sequence]) -> list[Point]:
    """Andrew's monotone chain; returns hull vertices in ccw order, in the
    number type they are given (`reeb.HullIndex` passes ints).

    Collinear interior points are dropped.  A degenerate input (all collinear)
    yields the two extreme points, a single repeated point yields one.
    """
    pts = sorted({(p[0], p[1]) for p in points})
    if len(pts) <= 2:
        return pts
    def half(seq):
        out: list[Point] = []
        for p in seq:
            while len(out) >= 2 and orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out
    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 3 else pts[:1] + pts[-1:]


def point_in_convex_hull_2d(y: Sequence, points: Sequence[Sequence]) -> bool:
    """Exact membership of y in the convex hull of the points (boundary counts)."""
    hull = convex_hull_2d(points)
    y = (Fraction(y[0]), Fraction(y[1]))
    if len(hull) == 1:
        return y == hull[0]
    if len(hull) == 2:
        return on_segment(y, hull[0], hull[1])
    return all(orient(hull[i], hull[(i + 1) % len(hull)], y) >= 0 for i in range(len(hull)))


def canon_key(label):
    """A total order on heterogeneous labels, used wherever determinism
    requires sorting mixed vertex/cell/tuple labels."""
    if type(label) is str:      # most labels; tested before the ABC checks
        return (1, label)
    if isinstance(label, bool):
        return (0, Fraction(int(label)))
    if isinstance(label, (int, Fraction)):
        return (0, Fraction(label))
    if isinstance(label, str):
        return (1, label)
    if isinstance(label, tuple):
        return (2, tuple(canon_key(x) for x in label))
    return (3, repr(label))


_STR = frozenset((str,))


def canon_sorted(labels) -> list:
    """`sorted(labels, key=canon_key)`, the one canonical sort.  Strs and
    tuples of strs, the labels of every bundle, are sorted natively: the
    strs first, then the tuples compared as tuples, which is the order
    `canon_key` gives them; any other label falls back to `canon_key`."""
    labels = list(labels)
    kinds = set(map(type, labels))
    if kinds <= _STR:
        labels.sort()
        return labels
    strs = [x for x in labels if type(x) is str] if str in kinds else []
    kinds.discard(str)
    rest = [x for x in labels if type(x) is not str] if strs else labels
    if (all(issubclass(t, tuple) and t.__lt__ is tuple.__lt__
            and t.__gt__ is tuple.__gt__ for t in kinds)
            and set(map(type, chain.from_iterable(rest))) <= _STR):
        return sorted(strs) + sorted(rest)
    return sorted(labels, key=canon_key)
