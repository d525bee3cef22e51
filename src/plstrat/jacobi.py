"""Piecewise-linear maps, genericity checks, criticality tests and the
resulting critical locus with its induced domain stratification.

A PL map is determined by exact rational values on vertices and affine
interpolation over each simplex.  Three notions of criticality for a
(k-1)-simplex are implemented:

  H  -- some directional (upper/lower) link has nonvanishing reduced Z/2
        homology;
  D  -- the positive hull of the image directions out of the simplex misses
        part of R^k, i.e. the differential is not onto.  For k <= 2 and a
        nondegenerate image this is one sign test on the link split along
        the normal of the image; otherwise `geometry.cone_is_full` decides;
  L  -- failure of the link to split into a regular interlevel product;
        implemented for interior vertices of surfaces under scalar maps,
        everything else reports None ("undecided").

Every local test reads one table per map, `PLMap.local` (`local_table`):
for each (k-1)-simplex the normal of its image and one split of its link
vertices, read off the domain's coface table, into upper, lower and tied.
Heights are compared on `PLMap.integer_image`, the vertex values times the
common denominator of all coordinates, a positive scale that keeps every
sign and order, so no comparison builds a `Fraction`.  `check_generic`
reads its G3 violations off the ties, D which sides are nonempty, and H
how many points each side holds on a link of points, or else the
homology of the sides of the one link it builds (`complexes.link`);
`directional_links` splits along any direction the same way.  L builds
no complex: the domain's table of link shapes, which the manifold check
reads too, says whether the vertex link is a cycle, and each side is
counted over the triangles at the vertex.

Ties are never perturbed; any comparison that would need a tiebreak raises
a genericity error with a witness.  The table records ties without raising,
so a notion that can decide with them (D counts them on neither side) does.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, NamedTuple

from .complexes import Simplex, SimplicialComplex, face_poset, link, rank_components
from .errors import GenericityError, InternalError, NotAMemberError, StructuralError
from .geometry import (_show, affinely_independent, as_point, barycenter, canon_sorted,
                       cone_is_full, dot, format_frac, frac, orthogonal_vector, vsub)
from .homology import is_h_nontrivial
from .posets import StratifiedSpace, wedge_extend

NOTIONS = ("H", "D", "L")


@dataclass(frozen=True)
class PLMap:
    """A map |X| -> R^k, affine on every simplex of the domain."""
    domain: SimplicialComplex
    k: int
    values: Mapping = field(hash=False)

    def __post_init__(self):
        if self.k < 1:
            raise StructuralError("target dimension must be at least 1")
        vertices, coerced, errors = self.domain.vertices, {}, {}
        if missing := vertices.difference(self.values):
            raise StructuralError(f"no value for vertex {canon_sorted(missing)[0]!r}")
        for v in vertices:
            try:
                coerced[v] = as_point(self.values[v], self.k)
            except StructuralError as exc:
                errors[v] = exc
        if errors:
            v = canon_sorted(errors)[0]    # the least, whatever the set order
            raise StructuralError(f"value for {v!r}: {errors[v]}")
        extra = set(self.values) - set(coerced)
        if extra:
            raise StructuralError(f"values given for unknown vertices {canon_sorted(extra)!r}")
        object.__setattr__(self, "values", coerced)

    @cached_property
    def integer_image(self) -> tuple:
        """(scale, images): `scale` is the common denominator of all the
        vertex coordinates and `images` maps each vertex to its value times
        `scale`, a tuple of ints.  A positive scale keeps every sign and
        order, so the exact predicates below run on these ints."""
        scale = lcm(*(c.denominator for p in self.values.values() for c in p))
        return scale, {v: tuple(c.numerator * (scale // c.denominator) for c in p)
                       for v, p in self.values.items()}

    @cached_property
    def local(self) -> dict:
        """The `LocalEntry` of every (k-1)-simplex, held by the map and
        read by the genericity audit and every criticality test
        (`local_table`)."""
        return local_table(self)

    @cached_property
    def sweep(self):
        """The cells of the line cut at a scalar map's vertex values and its
        fiber components over each, held by the map and built whole on
        first use (`reeb.SweepIndex`)."""
        from .reeb import SweepIndex
        return SweepIndex(self)

    @cached_property
    def hulls(self):
        """The integer images of a planar map's simplices, held by the map
        and read by every two-parameter fiber query (`reeb.HullIndex`)."""
        from .reeb import HullIndex
        return HullIndex(self)

    def value(self, v):
        try:
            return self.values[v]
        except KeyError:
            raise NotAMemberError(f"vertex {v!r} not in the domain") from None

    def image(self, simplex) -> tuple:
        return tuple(self.value(v) for v in Simplex(simplex))

    def barycenter_image(self, simplex) -> tuple:
        return barycenter(self.image(simplex))

    def at(self, simplex, weights) -> tuple:
        """Evaluate at barycentric coordinates over the given simplex."""
        simplex = Simplex(simplex)
        ws = [frac(w) for w in weights]
        if len(ws) != len(simplex) or sum(ws) != 1 or any(w < 0 for w in ws):
            raise StructuralError("weights must be a convex combination")
        pts = self.image(simplex)
        return tuple(sum((w * p[i] for w, p in zip(ws, pts)), Fraction(0))
                     for i in range(self.k))


@dataclass(frozen=True)
class GenericityReport:
    passed: bool
    violations: tuple  # (code, witness, detail)


def check_generic(f: PLMap) -> GenericityReport:
    """Local general-position audit, on the integer images.

    G1: simplices of dimension <= k have affinely independent images.
    G2: for k = 1 all vertex values are pairwise distinct.
    G3: no link vertex of a (k-1)-simplex lands on the affine hull of its
        image: the ties of the map's local table.
    """
    bad: list[tuple] = []
    dom = f.domain
    image = f.integer_image[1]
    for s in dom.sorted_simplices():
        if s.dim <= f.k and not affinely_independent([image[v] for v in s]):
            bad.append(("G1", s, "image not affinely independent"))
    if f.k == 1:
        seen: dict = {}
        for v in canon_sorted(dom.vertices):
            val = image[v]
            if val in seen:
                bad.append(("G2", (seen[val], v), "duplicate vertex value"))
            else:
                seen[val] = v
    for s, e in f.local.items():
        for v in e.ties:
            bad.append(("G3", (s, v), "link vertex on affine hull of image"))
    return GenericityReport(passed=not bad, violations=tuple(bad))


def _integer_normal(points) -> tuple:
    """The normal n of the hyperplane through k integer points p0..p(k-1)
    of Z^k for which <x - p0, n> = det(p1 - p0, ..., x - p0): (1,) for
    k = 1, (-dy, dx) for an edge of the plane, and zero when the points
    are affinely dependent.  `orthogonal_vector` expands the determinant
    with x - p0 in the first row, so moving it last is the sign (-1)^(k-1)."""
    k = len(points[0])
    rows = [tuple(x - y for x, y in zip(p, points[0])) for p in points[1:]]
    n = orthogonal_vector(rows, k)
    return n if k % 2 else tuple(-c for c in n)


def _split(image: dict, sigma: Simplex, vertices, u: tuple):
    """The link split: the vertices mapping strictly above and strictly
    below the image of sigma's barycenter along the integer direction u,
    and those level with it in `canon_key` order.  Heights are compared
    times len(sigma), so the barycenter stays on the integers."""
    n = len(sigma)
    level = sum(dot(image[w], u) for w in sigma)
    upper, lower, ties = set(), set(), []
    for v in vertices:
        h = n * dot(image[v], u)
        if h > level:
            upper.add(v)
        elif h < level:
            lower.add(v)
        else:
            ties.append(v)
    return frozenset(upper), frozenset(lower), tuple(canon_sorted(ties))


class LocalEntry(NamedTuple):
    """What the local tests read about one (k-1)-simplex sigma."""
    normal: tuple     # `_integer_normal` of sigma's integer image
    upper: frozenset  # link vertices strictly above the image along normal
    lower: frozenset  # ... and strictly below it
    ties: tuple       # link vertices on the affine hull of the image


def _full_sides(lk: SimplicialComplex, upper: frozenset, lower: frozenset):
    """The full subcomplexes of the link `lk` on `upper` and on `lower`."""
    up, low = [], []
    for s in lk.simplices:
        if upper.issuperset(s):
            up.append(s)
        elif lower.issuperset(s):
            low.append(s)
    return SimplicialComplex(up, check=False), SimplicialComplex(low, check=False)


def local_table(f: PLMap) -> dict:
    """One pass over the (k-1)-simplices of a map: the integer normal of
    each one's image and one split of its link vertices, the apexes of its
    codimension-one cofaces, into upper, lower and tied on the map's
    integer image, as a `LocalEntry` per simplex.  A degenerate image has
    a zero normal, so every link vertex ties.  Ties are recorded, not
    raised: the tests that cannot decide with them raise, the D sign test
    counts them on neither side."""
    image = f.integer_image[1]
    dom = f.domain
    ranked, rank, cofaces = dom.index.ranked, dom.index.rank, dom.coface_ranks
    table = {}
    for s in dom.simplices_of_dim(f.k - 1):
        apexes = [v for r in cofaces[rank[s]] for v in ranked[r] if v not in s]
        n = _integer_normal([image[v] for v in s])
        table[s] = LocalEntry(n, *_split(image, s, apexes, n))
    return table


def _tie_error(f: PLMap, sigma: Simplex, ties: tuple, u: tuple) -> GenericityError:
    """The error for link vertices level with sigma along the rational
    direction u, naming the first of them, the value and u."""
    level = dot(f.barycenter_image(sigma), u)
    return GenericityError(
        f"vertex {ties[0]!r} ties with {tuple(sigma)!r} "
        f"at value {format_frac(level)} along direction {_show(u)}")


def _untied(f: PLMap, sigma: Simplex, e: LocalEntry) -> LocalEntry:
    """The entry, or the tie error naming the normal of the image in input
    units (the integer normal over scale^(k-1))."""
    if e.ties:
        den = f.integer_image[0] ** (f.k - 1)
        raise _tie_error(f, sigma, e.ties, tuple(Fraction(c, den) for c in e.normal))
    return e


def directional_links(f: PLMap, sigma, u) -> tuple[SimplicialComplex, SimplicialComplex]:
    """Upper and lower links of sigma with respect to direction u: the full
    subcomplexes of the link spanned by vertices mapping strictly above /
    below the image of sigma along u."""
    sigma = Simplex(sigma)
    u = as_point(u, f.k)
    if not any(u):
        raise StructuralError("direction must be a nonzero vector in R^k")
    lk = link(f.domain, sigma)
    # u times the common denominator of its coordinates, on the integers
    den = lcm(*(x.denominator for x in u))
    upper, lower, ties = _split(f.integer_image[1], sigma, lk.vertices,
                                tuple(x.numerator * (den // x.denominator) for x in u))
    if ties:
        raise _tie_error(f, sigma, ties, u)
    return _full_sides(lk, upper, lower)


def _h_verdicts(f: PLMap, sigma):
    """The one-sided H verdicts of a (k-1)-simplex along the normal of its
    image, upper first, each decided when read.  When no codimension-one
    coface of sigma has a coface (every edge of a surface under k = 2), the
    link is a set of points and a side is nontrivial unless it holds one;
    a link of dimension one or more is built and its sides' homology read."""
    sigma = Simplex(sigma)
    f.domain._require(sigma)
    if sigma.dim != f.k - 1:
        raise StructuralError(f"expected a {f.k - 1}-simplex, got dim {sigma.dim}")
    if f.k > 2:
        raise StructuralError(f"criticality tests support k <= 2, got k={f.k}")
    e = f.local[sigma]
    if not any(e.normal):
        raise GenericityError(f"degenerate image of {tuple(sigma)!r}")
    _untied(f, sigma, e)
    cofaces = f.domain.coface_ranks
    if any(map(cofaces.__getitem__, cofaces[f.domain.index.rank[sigma]])):
        upper, lower = _full_sides(link(f.domain, sigma), e.upper, e.lower)
        yield is_h_nontrivial(upper)
        yield is_h_nontrivial(lower)
    else:
        yield from (len(e.upper) != 1, len(e.lower) != 1)


def is_h_critical(f: PLMap, sigma) -> bool:
    """Homological criticality of a (k-1)-simplex.

    The simplex is critical when the strictly-upper link with respect to a
    normal direction has nonvanishing reduced Z/2 homology, testing both
    normal orientations.  On closed manifolds the two orientations agree;
    across a boundary only one side may witness criticality (an empty upper
    link, with its nontrivial degree -1, flags extrema either way).
    """
    return any(_h_verdicts(f, sigma))


def h_side_verdicts(f: PLMap, sigma) -> tuple[bool, bool]:
    """The two one-sided H verdicts of a (k-1)-simplex (along +u and -u);
    equal on closed manifolds, where either one decides criticality on
    its own."""
    return tuple(_h_verdicts(f, sigma))


def is_d_critical(f: PLMap, sigma) -> bool:
    """Differential criticality: the positive hull of the image directions
    from the barycenter of sigma into its star, together with both signed
    directions along the image of sigma itself, fails to cover R^k.

    For a (k-1)-simplex with a nondegenerate image and k <= 2, both signed
    image directions of sigma are generators, so a functional that
    separates the hull from R^k must vanish on them: it is +n or -n for the
    normal n of the image.  The hull then misses part of R^k iff no two
    link vertices lie strictly on opposite sides of the image along n,
    which the link split of the map's table says; a vertex on it counts
    on neither side, and an empty link is critical.  Lower simplices, a
    degenerate image and k > 2 go through the general cone test.
    """
    sigma = Simplex(sigma)
    f.domain._require(sigma)
    if sigma.dim > f.k - 1:
        raise StructuralError(
            f"differential test needs dim <= {f.k - 1}, got {sigma.dim}")
    if sigma.dim == f.k - 1 and f.k <= 2:
        e = f.local[sigma]
        if any(e.normal):
            return not (e.upper and e.lower)
    star_vertices = {v for t in f.domain.cofaces(sigma) for v in t}
    star_vertices.difference_update(sigma)
    b = f.barycenter_image(sigma)
    gens = [vsub(f.value(v), b) for v in canon_sorted(star_vertices)]
    for w in sigma:
        d = vsub(f.value(w), b)
        gens.append(d)
        gens.append(tuple(-x for x in d))
    return not cone_is_full(gens, f.k)


def is_l_critical_surface(f: PLMap, v) -> bool | None:
    """Link-decomposition criticality at a vertex of a surface under a scalar
    map: the vertex is regular iff its upper and lower links are both single
    nonempty arcs of the link circle.  A side U of the circle is one
    nonempty arc iff |U| - e(U) = 1, where e(U) counts the triangles at the
    vertex whose other two vertices lie in U: the link edges inside U.

    Returns None (undecided) when k > 1, v is not a vertex or the vertex
    link is not a single circle; the test is local, so vertices deep inside
    a patch of a larger surface are decidable even if the complex has a
    boundary elsewhere.
    """
    if f.k != 1:
        return None
    v = Simplex([v] if not isinstance(v, (tuple, list, Simplex)) else v)
    f.domain._require(v)
    if v.dim != 0:
        return None
    dom = f.domain
    if dom.link_shapes[dom.index.rank[v]] != (1, "sphere"):
        return None
    e = _untied(f, v, f.local[v])
    ends = [set(t) - set(v) for t in dom.cofaces(v) if len(t) == 3]

    def one_arc(side):
        return len(side) - sum(map(side.issuperset, ends)) == 1
    return not (one_arc(e.upper) and one_arc(e.lower))


@dataclass(frozen=True)
class CriticalityVerdict:
    simplex: Simplex
    h_critical: bool
    d_critical: bool
    l_critical: bool | None


def criticality_verdict(f: PLMap, sigma) -> CriticalityVerdict:
    sigma = Simplex(sigma)
    l = is_l_critical_surface(f, sigma) if sigma.dim == 0 else None
    return CriticalityVerdict(
        simplex=sigma,
        h_critical=is_h_critical(f, sigma),
        d_critical=is_d_critical(f, sigma),
        l_critical=l,
    )


@dataclass(frozen=True)
class JacobiSet:
    """The face closure of the critical (k-1)-simplices under one notion."""
    complex: SimplicialComplex
    notion: str
    k: int

    def __post_init__(self):
        if self.notion not in NOTIONS:
            raise StructuralError(f"unknown notion {self.notion!r}")
        if self.complex.dimension > self.k - 1:
            raise InternalError("critical locus exceeds dimension k-1")


def jacobi_set(f: PLMap, notion: str = "H") -> JacobiSet:
    """Collect the critical (k-1)-simplices under the chosen notion and
    close them under faces."""
    if notion not in NOTIONS:
        raise StructuralError(f"unknown notion {notion!r}")
    candidates = f.domain.simplices_of_dim(f.k - 1)
    if notion == "H":
        test = lambda s: is_h_critical(f, s)
    elif notion == "D":
        test = lambda s: is_d_critical(f, s)
    else:
        if f.k != 1 or f.domain.dimension != 2:
            raise StructuralError("L notion requires a surface domain with k=1")
        def test(s):
            verdict = is_l_critical_surface(f, s[0])
            if verdict is None:
                raise StructuralError(
                    f"link of {tuple(s)!r} is not a circle; L verdict undecided")
            return verdict
    critical = [s for s in candidates if test(s)]
    return JacobiSet(SimplicialComplex.from_facets(critical), notion, f.k)


def domain_stratification(f: PLMap, j: JacobiSet | None = None) -> StratifiedSpace:
    """Stratify the domain of f by the simplices of the critical locus `j`,
    the H Jacobi set of f when omitted, plus the connected components of
    its complement.

    Complement components are the classes of the simplices outside the
    locus, where two simplices communicate when one is a face of the other;
    that matches topological connectivity of the open complement.  Each
    component lies above the locus simplices in its closure; with an empty
    locus the components are unrelated.  Both are read off `face_ranks`;
    the classes are labelled `C0`, `C1`, ... in (dimension, rank) order.
    """
    locus = (jacobi_set(f) if j is None else j).complex
    jset = locus.simplices
    x = f.domain
    x._require_nonempty()
    for s in jset:
        if s not in x.simplices:
            raise NotAMemberError(f"locus simplex {tuple(s)!r} not in the domain")
    ranked, rank, faces = x.index.ranked, x.index.rank, x.face_ranks
    on = set(map(rank.__getitem__, jset))
    # ranks by dimension, and by `canon_key` within one
    by_dim = list(map(rank.__getitem__, x.index.order))
    rest = [r for r in by_dim if r not in on]
    # cofaces of a simplex off the locus are off it too, so a simplex and
    # its cofaces are joined through codimension-one faces in between
    comps = rank_components(rest, faces)
    labels = [f"C{i}" for i in range(len(comps))]
    stratum: list = list(ranked)   # rank -> its stratum; a locus simplex is its own
    for label, comp in zip(labels, comps):
        for r in comp:
            stratum[r] = label

    below: list = [None] * len(ranked)   # rank -> the ranks of its proper faces
    for r in by_dim:
        lower = below[r] = set(faces[r])
        for q in faces[r]:
            lower |= below[q]
    closure = frozenset((ranked[q], ranked[r]) for r in by_dim for q in below[r])
    poset = wedge_extend(face_poset(locus), labels,
                         {(ranked[q], stratum[r]) for r in rest for q in below[r]
                          if q in on})
    return StratifiedSpace(poset=poset, cells=frozenset(x.simplices),
                           closure=closure,
                           assignment=dict(zip(ranked, stratum)))
