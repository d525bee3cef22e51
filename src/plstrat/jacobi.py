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

Ties are never perturbed; any comparison that would need a tiebreak raises
a genericity error with a witness.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .complexes import (Simplex, SimplicialComplex, _edges, _is_connected,
                        _is_single_cycle, link)
from .errors import GenericityError, InternalError, NotAMemberError, StructuralError
from .geometry import (affinely_independent, barycenter, canon_key, cone_is_full,
                       dot, format_frac, frac, vsub)
from .homology import is_h_nontrivial
from .posets import Poset, StratifiedSpace, connected_classes, wedge_extend

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
        coerced = {}
        for v in self.domain.vertices:
            if v not in self.values:
                raise StructuralError(f"no value for vertex {v!r}")
            val = self.values[v]
            val = (val,) if not isinstance(val, (tuple, list)) else tuple(val)
            if len(val) != self.k:
                raise StructuralError(
                    f"value for {v!r} has length {len(val)}, expected {self.k}")
            coerced[v] = tuple(frac(x) for x in val)
        extra = set(self.values) - set(coerced)
        if extra:
            raise StructuralError(f"values given for unknown vertices {sorted(extra, key=canon_key)!r}")
        object.__setattr__(self, "values", coerced)

    @cached_property
    def sweep(self):
        """The sweep levels of a scalar map and its fiber components over
        each, held by the map and filled on first use (`reeb.SweepIndex`)."""
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
    """Local general-position audit.

    G1: simplices of dimension <= k have affinely independent images.
    G2: for k = 1 all vertex values are pairwise distinct.
    G3: no link vertex of a (k-1)-simplex lands on the affine hull of its
        image.
    """
    bad: list[tuple] = []
    dom = f.domain
    for s in dom.sorted_simplices():
        if s.dim <= f.k and not affinely_independent(f.image(s)):
            bad.append(("G1", s, "image not affinely independent"))
    if f.k == 1:
        seen: dict = {}
        for v in sorted(dom.vertices, key=canon_key):
            val = f.value(v)
            if val in seen:
                bad.append(("G2", (seen[val], v), "duplicate vertex value"))
            else:
                seen[val] = v
    for s in dom.simplices_of_dim(f.k - 1):
        base = f.image(s)
        for v in sorted(link(dom, s).vertices, key=canon_key):
            if not affinely_independent(base + (f.value(v),)):
                bad.append(("G3", (s, v), "link vertex on affine hull of image"))
    return GenericityReport(passed=not bad, violations=tuple(bad))


def _format_vector(u) -> str:
    parts = [format_frac(x) for x in u]
    return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"


def _split_link(f: PLMap, sigma: Simplex, lk: SimplicialComplex, u: tuple):
    """Upper and lower full subcomplexes of the link `lk` of sigma: the
    link vertices v with <f(v) - f(sigma), u> above / below zero."""
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
            f"at value {format_frac(level)} along direction {_format_vector(u)}")
    return _full_subcomplex(lk, upper), _full_subcomplex(lk, lower)


def _full_subcomplex(k: SimplicialComplex, verts: set) -> SimplicialComplex:
    return SimplicialComplex(
        (s for s in k.simplices if set(s) <= verts), check=False)


def directional_links(f: PLMap, sigma, u) -> tuple[SimplicialComplex, SimplicialComplex]:
    """Upper and lower links of sigma with respect to direction u: the full
    subcomplexes of the link spanned by vertices mapping strictly above /
    below the image of sigma along u."""
    sigma = Simplex(sigma)
    u = tuple(frac(x) for x in u)
    if len(u) != f.k or all(x == 0 for x in u):
        raise StructuralError("direction must be a nonzero vector in R^k")
    return _split_link(f, sigma, link(f.domain, sigma), u)


def _normal_direction(f: PLMap, sigma: Simplex) -> tuple:
    """A direction normal to the image of a (k-1)-simplex.  Unit length is
    irrelevant for sign tests, so no normalization over the rationals."""
    if f.k == 1:
        return (Fraction(1),)
    if f.k == 2:
        a, b = f.image(sigma)
        d = vsub(b, a)
        if d == (0, 0):
            raise GenericityError(f"degenerate image of {tuple(sigma)!r}")
        return (-d[1], d[0])
    raise StructuralError(f"criticality tests support k <= 2, got k={f.k}")


def is_h_critical(f: PLMap, sigma) -> bool:
    """Homological criticality of a (k-1)-simplex.

    The simplex is critical when the strictly-upper link with respect to a
    normal direction has nonvanishing reduced Z/2 homology, testing both
    normal orientations.  On closed manifolds the two orientations agree;
    across a boundary only one side may witness criticality (an empty upper
    link, with its nontrivial degree -1, flags extrema either way).
    """
    sigma = Simplex(sigma)
    f.domain._require(sigma)
    if sigma.dim != f.k - 1:
        raise StructuralError(f"expected a {f.k - 1}-simplex, got dim {sigma.dim}")
    u = _normal_direction(f, sigma)
    upper, lower = directional_links(f, sigma, u)
    return is_h_nontrivial(upper) or is_h_nontrivial(lower)


def h_side_verdicts(f: PLMap, sigma) -> tuple[bool, bool]:
    """The two one-sided H verdicts (along +u and -u); equal on closed
    manifolds, where either one decides criticality on its own."""
    sigma = Simplex(sigma)
    u = _normal_direction(f, sigma)
    upper, lower = directional_links(f, sigma, u)
    return is_h_nontrivial(upper), is_h_nontrivial(lower)


def is_d_critical(f: PLMap, sigma) -> bool:
    """Differential criticality: the positive hull of the image directions
    from the barycenter of sigma into its star, together with both signed
    directions along the image of sigma itself, fails to cover R^k.

    For a (k-1)-simplex with a nondegenerate image and k <= 2, both signed
    image directions of sigma are generators, so a functional that
    separates the hull from R^k must vanish on them: it is +n or -n for the
    normal n of `_normal_direction`.  The hull then misses part of R^k iff
    no two link vertices lie strictly on opposite sides of the image along
    n; a vertex on it counts on neither side, and an empty link is
    critical.  Lower simplices, a degenerate image and k > 2 go through
    the general cone test.
    """
    sigma = Simplex(sigma)
    f.domain._require(sigma)
    if sigma.dim > f.k - 1:
        raise StructuralError(
            f"differential test needs dim <= {f.k - 1}, got {sigma.dim}")
    star_vertices = {v for t in f.domain.cofaces(sigma) for v in t}
    star_vertices.difference_update(sigma)
    image = f.image(sigma)
    if sigma.dim == f.k - 1 and f.k <= 2 and len(set(image)) == len(image):
        n = _normal_direction(f, sigma)
        level = dot(image[0], n)
        above = below = False
        for v in star_vertices:
            h = dot(f.value(v), n)
            above |= h > level
            below |= h < level
        return not (above and below)
    b = f.barycenter_image(sigma)
    gens = [vsub(f.value(v), b) for v in sorted(star_vertices, key=canon_key)]
    for w in sigma:
        d = vsub(f.value(w), b)
        gens.append(d)
        gens.append(tuple(-x for x in d))
    return not cone_is_full(gens, f.k)


def _single_arc(k: SimplicialComplex) -> bool:
    """A nonempty connected graph that is a path (possibly one vertex)."""
    verts = k.vertices
    if not verts or k.dimension > 1:
        return False
    edges = _edges(k)
    deg = {v: 0 for v in verts}
    for e in edges:
        deg[e[0]] += 1
        deg[e[1]] += 1
    if len(edges) != len(verts) - 1 or any(d > 2 for d in deg.values()):
        return False
    return _is_connected(k) if edges else len(verts) == 1


def is_l_critical_surface(f: PLMap, v) -> bool | None:
    """Link-decomposition criticality at a vertex of a surface under a scalar
    map: the vertex is regular iff its upper and lower links are both single
    nonempty arcs of the link circle.

    Returns None (undecided) when k > 1 or the vertex link is not a single
    circle; the test is local, so vertices deep inside a patch of a larger
    surface are decidable even if the complex has a boundary elsewhere.
    """
    if f.k != 1:
        return None
    v = Simplex([v] if not isinstance(v, (tuple, list, Simplex)) else v)
    f.domain._require(v)
    lk = link(f.domain, v)
    if not _is_single_cycle(lk):
        return None
    upper, lower = _split_link(f, v, lk, (Fraction(1),))
    return not (_single_arc(upper) and _single_arc(lower))


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


def stratify_domain_by_locus(x: SimplicialComplex, j: JacobiSet) -> StratifiedSpace:
    """Stratify the domain by the simplices of a critical locus plus the
    connected components of its complement.

    Complement components are the classes of the simplices outside the
    locus, where two simplices communicate when one is a face of the other;
    that matches topological connectivity of the open complement.
    """
    x._require_nonempty()
    jset = j.complex.simplices
    for s in jset:
        if s not in x.simplices:
            raise NotAMemberError(f"locus simplex {tuple(s)!r} not in the domain")
    rest = [s for s in x.sorted_simplices() if s not in jset]
    # cofaces of a simplex off the locus are off it too, so a simplex and
    # its cofaces are joined through codimension-one faces in between
    comps = connected_classes(rest, [(t, fc) for t in rest
                                     for fc in t.boundary() if fc not in jset])
    comp_of = {t: i for i, comp in enumerate(comps) for t in comp}

    labels = [f"C{i}" for i in range(len(comps))]
    if jset:
        base = Poset(jset, [(fc, s) for s in jset for fc in s.boundary()])
        pairs = set()
        for idx, comp in enumerate(comps):
            for t in comp:
                for fc in t.faces():
                    if fc in jset:
                        pairs.add((fc, labels[idx]))
        poset = wedge_extend(base, labels, sorted(
            pairs, key=lambda p: (canon_key(p[0]), canon_key(p[1]))))
    else:
        # empty locus: components are mutually unreachable, so no relations
        poset = Poset(labels, [])

    assignment = {}
    for s in x.simplices:
        assignment[s] = s if s in jset else labels[comp_of[s]]
    closure = frozenset((fc, s) for s in x.simplices for fc in s.faces() if fc != s)
    return StratifiedSpace(poset=poset, cells=frozenset(x.simplices),
                           closure=closure, assignment=assignment)


def domain_stratification(f: PLMap, j: JacobiSet | None = None) -> StratifiedSpace:
    """Stratification of the domain induced by the critical locus `j`, the
    H Jacobi set of f when omitted."""
    return stratify_domain_by_locus(f.domain, jacobi_set(f) if j is None else j)
