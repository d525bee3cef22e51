"""Criticality notions, genericity and the critical locus."""
import random
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import (closed_surfaces, naive_check_generic,
                     naive_directional_links, naive_domain_stratification,
                     naive_h_side_verdicts, naive_is_d_critical,
                     naive_is_h_critical, naive_is_l_critical_surface,
                     naive_normal_direction, random_complex, random_planar_map,
                     random_surface_map, torus_height_map, torus_projection)
from plstrat import (GenericityError, JacobiSet, PLMap, Simplex,
                     SimplicialComplex, StructuralError, check_generic,
                     criticality_verdict,
                     directional_links, domain_stratification, h_side_verdicts,
                     is_d_critical, is_h_critical, is_l_critical_surface,
                     jacobi_set, reduced_betti, sphere_verdict, validate_poset)
from plstrat.geometry import canon_key, cone_is_full, vsub
from plstrat.io import example_map, example_names, load_example

F = Fraction


@pytest.fixture(scope="module")
def octa() -> PLMap:
    return example_map("octahedron")


@pytest.fixture(scope="module")
def torus() -> PLMap:
    return example_map("torus_grid")


@pytest.fixture(scope="module")
def tetra() -> PLMap:
    return example_map("solid_tetrahedron")


@pytest.fixture(scope="module")
def cones() -> PLMap:
    return example_map("double_cone")


@pytest.fixture(scope="module")
def saddle() -> PLMap:
    return example_map("saddle_patch")


class TestPLMap:
    def test_values_coerced_to_rational_tuples(self, octa):
        assert octa.value("m") == (F(3),)
        assert octa.value("b") == (F(1, 2),)
        assert all(isinstance(x, F) for x in octa.value("a"))

    def test_missing_value_rejected(self):
        dom = SimplicialComplex.from_facets([(0, 1)])
        with pytest.raises(StructuralError):
            PLMap(dom, 1, {0: (F(0),)})

    def test_value_length_must_match_k(self):
        dom = SimplicialComplex.from_facets([(0,)])
        with pytest.raises(StructuralError):
            PLMap(dom, 2, {0: (F(1),)})

    def test_affine_evaluation(self, tetra):
        e = Simplex(("a", "b"))
        mid = tetra.at(e, [F(1, 2), F(1, 2)])
        a, b = tetra.image(e)
        assert mid == tuple((x + y) / 2 for x, y in zip(a, b))
        assert tetra.barycenter_image(e) == mid

    def test_at_rejects_non_convex_weights(self, tetra):
        with pytest.raises(StructuralError):
            tetra.at(("a", "b"), [F(2), F(-1)])


class TestGenericity:
    def test_distinct_heights_pass(self, octa):
        assert check_generic(octa).passed

    def test_planar_projection_passes(self, tetra):
        assert check_generic(tetra).passed

    def test_duplicate_heights_fail(self):
        dom = SimplicialComplex.from_facets([(0, 1), (1, 2)])
        f = PLMap(dom, 1, {0: (F(0),), 1: (F(1),), 2: (F(1),)})
        rep = check_generic(f)
        assert not rep.passed
        assert any(code == "G2" for code, _, _ in rep.violations)

    def test_suspension_input_fails_g2(self, cones):
        # the suspension example keeps opposite equator vertices at one
        # height, so the global audit flags it even though the verdicts at
        # the cone points are still well defined
        rep = check_generic(cones)
        assert not rep.passed


class TestDirectionalLinks:
    def test_octahedron_pole(self, octa):
        up, low = directional_links(octa, Simplex(("m",)), (F(1),))
        assert len(up) == 0
        assert sphere_verdict(low) == "sphere"
        assert len(low.simplices_of_dim(1)) == 4

    def test_octahedron_equator_vertex(self, octa):
        up, low = directional_links(octa, Simplex(("a",)), (F(1),))
        for side in (up, low):
            assert reduced_betti(side).is_trivial
            assert len(side.vertices) > 0

    def test_suspension_cone_point_upper_link_is_s0(self, cones):
        up, _ = directional_links(cones, Simplex(("n",)), (F(1),))
        assert up.dimension == 0
        assert len(up.vertices) == 2

    def test_tie_raises(self):
        dom = SimplicialComplex.from_facets([(0, 1)])
        f = PLMap(dom, 1, {0: (F(0),), 1: (F(0),)})
        with pytest.raises(GenericityError):
            directional_links(f, Simplex((0,)), (F(1),))

    def test_planar_tie_names_value_and_direction(self):
        dom = SimplicialComplex.from_facets([("a", "b", "c")])
        f = PLMap(dom, 2, {"a": (F(0), F(0)), "b": (F(1), F(1, 2)),
                           "c": (F(1, 2), F(5))})
        with pytest.raises(GenericityError, match=(
                r"vertex 'c' ties with \('a', 'b'\) at value 1/4 "
                r"along direction \(1/2, 0\)")):
            directional_links(f, Simplex(("a", "b")), (F(1, 2), F(0)))


class TestHCriticality:
    def test_octahedron_verdicts(self, octa):
        assert is_h_critical(octa, Simplex(("m",)))
        assert is_h_critical(octa, Simplex(("w",)))
        for v in "abcd":
            assert not is_h_critical(octa, Simplex((v,)))

    def test_suspension_cone_points(self, cones):
        assert is_h_critical(cones, Simplex(("n",)))
        assert is_h_critical(cones, Simplex(("s",)))

    def test_side_symmetry(self, octa, torus):
        for f in (octa, torus):
            for v in sorted(f.domain.vertices):
                a, b = h_side_verdicts(f, Simplex((v,)))
                assert a == b

    def test_orientation_flip_swaps_sides(self, tetra):
        # with a boundary the per-side verdicts may differ (a silhouette
        # edge sees an empty side), but flipping the normal only swaps them,
        # so the combined verdict cannot depend on the orientation
        for e in tetra.domain.simplices_of_dim(1):
            u = naive_normal_direction(tetra, e)
            up, low = directional_links(tetra, e, u)
            up2, low2 = directional_links(tetra, e, tuple(-c for c in u))
            assert (up, low) == (low2, up2)


class TestDCriticality:
    def test_octahedron_extremum(self, octa):
        assert is_d_critical(octa, Simplex(("m",)))
        assert not is_d_critical(octa, Simplex(("a",)))

    def test_suspension_cone_points_are_d_regular(self, cones):
        assert not is_d_critical(cones, Simplex(("n",)))
        assert not is_d_critical(cones, Simplex(("s",)))

    def test_saddle_is_d_regular(self, saddle):
        assert not is_d_critical(saddle, Simplex(("p",)))

    def test_pointwise_constancy_on_candidates(self, tetra, torus):
        # the differential test must not depend on where in the open
        # simplex the directions are based
        for f in (tetra, torus):
            for s in f.domain.simplices_of_dim(f.k - 1):
                for weights in _interior_weights(len(s)):
                    assert _cone_oracle(f, s, weights) == is_d_critical(f, s)


def _cone_oracle(f: PLMap, s, weights) -> bool:
    """D criticality by the general cone test, with the directions based
    at the point of s with the given barycentric weights and the star
    found by scanning every simplex."""
    x = f.at(s, weights)
    dirs = []
    star_verts = {v for t in f.domain.simplices if set(s) <= set(t) for v in t}
    for v in sorted(star_verts - set(s), key=canon_key):
        dirs.append(vsub(f.value(v), x))
    for w in s:
        d = vsub(f.value(w), x)
        dirs.append(d)
        dirs.append(tuple(-c for c in d))
    return not cone_is_full(dirs, f.k)


def _assert_d_matches_cone_oracle(f: PLMap):
    for s in f.domain.simplices_of_dim(f.k - 1):
        for weights in _interior_weights(len(s)):
            assert is_d_critical(f, s) == _cone_oracle(f, s, weights), s


class TestDAgainstConeOracle:
    """The sign test on the link split against `cone_is_full` on every
    (k-1)-simplex."""

    @pytest.mark.parametrize("name", ["double_cone", "octahedron",
                                      "saddle_patch", "solid_tetrahedron",
                                      "torus_grid"])
    def test_bundled_maps(self, name):
        _assert_d_matches_cone_oracle(example_map(name))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_surface_maps(self, seed):
        _assert_d_matches_cone_oracle(random_surface_map(random.Random(seed)))

    @pytest.mark.parametrize("seed", range(4))
    def test_torus_projections(self, seed):
        _assert_d_matches_cone_oracle(torus_projection(random.Random(seed), 3))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_planar_maps(self, seed):
        # small integer images, so some link vertices tie
        _assert_d_matches_cone_oracle(random_planar_map(random.Random(seed)))

    def test_scalar_tie_counts_on_neither_side(self):
        dom = SimplicialComplex.from_facets([("a", "b"), ("b", "c")])
        f = PLMap(dom, 1, {"a": (F(0),), "b": (F(1, 2),), "c": (F(1, 2),)})
        assert is_d_critical(f, Simplex(("b",)))
        _assert_d_matches_cone_oracle(f)

    @pytest.mark.parametrize("others, critical", [
        ({"c": (F(2), F(0)), "d": (F(1), F(1))}, True),
        ({"c": (F(2), F(0)), "d": (F(1), F(-1))}, True),
        ({"c": (F(2), F(0)), "d": (F(1), F(1)), "e": (F(1), F(-1))}, False),
    ])
    def test_planar_tie_counts_on_neither_side(self, others, critical):
        # c lies on the line through the images of a and b
        values = {"a": (F(0), F(0)), "b": (F(1), F(0)), **others}
        dom = SimplicialComplex.from_facets([("a", "b", v) for v in others])
        f = PLMap(dom, 2, values)
        assert is_d_critical(f, Simplex(("a", "b"))) is critical
        _assert_d_matches_cone_oracle(f)

    @pytest.mark.parametrize("others, critical", [
        ({"c": (F(1), F(0)), "d": (F(-1), F(0))}, True),
        ({"c": (F(1), F(0)), "d": (F(-1), F(1)), "e": (F(-1), F(-1))}, False),
    ])
    def test_degenerate_edge_image_uses_the_cone_test(self, others, critical):
        values = {"a": (F(0), F(0)), "b": (F(0), F(0)), **others}
        dom = SimplicialComplex.from_facets([("a", "b", v) for v in others])
        f = PLMap(dom, 2, values)
        assert is_d_critical(f, Simplex(("a", "b"))) is critical
        _assert_d_matches_cone_oracle(f)

    def test_empty_links_are_critical(self):
        vertex = PLMap(SimplicialComplex.from_facets([("p",), ("q", "r")]), 1,
                       {"p": (F(0),), "q": (F(1),), "r": (F(2),)})
        assert is_d_critical(vertex, Simplex(("p",)))
        _assert_d_matches_cone_oracle(vertex)
        edge = PLMap(SimplicialComplex.from_facets([("p", "q")]), 2,
                     {"p": (F(0), F(0)), "q": (F(1), F(2))})
        assert is_d_critical(edge, Simplex(("p", "q")))
        _assert_d_matches_cone_oracle(edge)


def _outcome(fn, *args):
    """A call's value, or the type and text of the genericity or
    structural error it raised."""
    try:
        return fn(*args)
    except (GenericityError, StructuralError) as exc:
        return type(exc).__name__, str(exc)


_VERDICTS = ((is_h_critical, naive_is_h_critical),
             (h_side_verdicts, naive_h_side_verdicts),
             (is_d_critical, naive_is_d_critical),
             (is_l_critical_surface, naive_is_l_critical_surface))


def _assert_local_table_matches_oracle(f: PLMap, rng: random.Random):
    """Every verdict, both H sides, the genericity violations and every
    error text against the `Fraction` per-simplex oracle, and the upper
    and lower links of every simplex along a few random directions."""
    assert check_generic(f).violations == naive_check_generic(f)
    for s in f.domain.simplices_of_dim(f.k - 1):
        for fast, naive in _VERDICTS:
            assert _outcome(fast, f, s) == _outcome(naive, f, s), (fast.__name__, s)
    directions = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(f.k))
                  for _ in range(3)]
    for s in f.domain.sorted_simplices():
        for u in directions + [(F(1),) + (F(0),) * (f.k - 1)]:
            got = _outcome(directional_links, f, s, u)
            want = _outcome(naive_directional_links, f, s, u)
            if isinstance(got, tuple) and isinstance(got[0], SimplicialComplex):
                got = tuple(side.simplices for side in got)
                want = tuple(side.simplices for side in want)
            assert got == want, (s, u)


def _tied_map(rng: random.Random, dom: SimplicialComplex, k: int, spread: int) -> PLMap:
    """Random images in [-spread, spread]^k on the half-integers, so the
    integer image is scaled: with a small spread, values tie and images
    are collinear or coincide."""
    return PLMap(dom, k, {v: tuple(F(rng.randint(-2 * spread, 2 * spread), 2)
                                   for _ in range(k))
                          for v in sorted(dom.vertices, key=canon_key)})


class TestLocalTable:
    """The per-map table of links and integer link splits against the
    `Fraction` per-simplex oracle in `helpers`."""

    @pytest.mark.parametrize("name", [n for n in example_names()
                                      if load_example(n).get("kind") == "map"])
    def test_bundled_maps(self, name, rng):
        _assert_local_table_matches_oracle(example_map(name), rng)

    def test_random_surface_maps(self, rng):
        for _ in range(6):
            _assert_local_table_matches_oracle(random_surface_map(rng), rng)

    def test_random_planar_maps(self, rng):
        for _ in range(6):
            _assert_local_table_matches_oracle(random_planar_map(rng), rng)

    def test_torus_projections(self, rng):
        for _ in range(2):
            _assert_local_table_matches_oracle(torus_projection(rng, 3), rng)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_maps_on_random_complexes(self, k, rng):
        # links of dimension two and up, boundaries, isolated vertices,
        # and k = 3, where only the genericity audit is defined
        for _ in range(12):
            dom = random_complex(rng)
            _assert_local_table_matches_oracle(_tied_map(rng, dom, k, 40), rng)

    @pytest.mark.parametrize("k", [1, 2])
    def test_forced_ties_and_collinear_images(self, k, rng):
        for _ in range(12):
            dom = rng.choice([random_complex(rng), example_map("octahedron").domain,
                              example_map("solid_tetrahedron").domain])
            _assert_local_table_matches_oracle(_tied_map(rng, dom, k, 2), rng)

    def test_ties_are_recorded_not_raised(self):
        dom = SimplicialComplex.from_facets([("a", "b", "c"), ("a", "c", "d")])
        f = PLMap(dom, 1, {"a": F(0), "b": F(1), "c": F(1), "d": F(2)})
        assert f.local[Simplex(("b",))].ties == ("c",)
        # a is below b, c level with it and counted on neither side
        assert is_d_critical(f, ("b",)) is True
        with pytest.raises(GenericityError, match=r"vertex 'c' ties with \('b',\)"):
            is_h_critical(f, ("b",))


def _interior_weights(n: int):
    if n == 1:
        return [[F(1)]]
    rest = [F(1, 4) / (n - 1)] * (n - 1)
    return [[F(1, n)] * n, [F(3, 4)] + rest]


class TestLCriticality:
    def test_octahedron(self, octa):
        assert is_l_critical_surface(octa, Simplex(("m",))) is True
        assert is_l_critical_surface(octa, Simplex(("a",))) is False

    def test_saddle_l_critical_despite_d_regular(self, saddle):
        assert is_l_critical_surface(saddle, Simplex(("p",))) is True

    def test_torus_extrema_and_regular(self, torus):
        assert is_l_critical_surface(torus, Simplex(("v00",))) is True
        assert is_l_critical_surface(torus, Simplex(("v11",))) is False

    def test_undecided_outside_surface_case(self, tetra):
        assert is_l_critical_surface(tetra, Simplex(("a",))) is None

    # heights of the rim a..f of a hexagonal disk around p, at height 0:
    # the sides are counted as |U| - e(U) arcs, e(U) the rim edges inside U
    @pytest.mark.parametrize("rim, critical", [
        ((1, 2, 3, -1, -2, -3), False),
        ((1, -1, -2, -3, 2, 3), False),    # the upper arc wraps past a
        ((1, 2, -1, 3, 4, -2), True),      # two upper arcs of two vertices
        ((1, 2, 3, 4, 5, 6), True),        # a minimum: upper is the circle
        ((-1, -2, -3, -4, -5, -6), True)])
    def test_counted_sides_on_a_hexagon(self, rim, critical):
        f = PLMap(SimplicialComplex.from_facets(
            [("p", a, b) for a, b in zip("abcdef", "bcdefa")]), 1,
            {"p": 0, **dict(zip("abcdef", rim))})
        assert is_l_critical_surface(f, "p") is critical
        # a boundary vertex: its link is a path
        assert is_l_critical_surface(f, "a") is None
        for v in "pa":
            assert naive_is_l_critical_surface(f, v) == is_l_critical_surface(f, v)


class TestJacobiSet:
    def test_octahedron_poles_under_all_notions(self, octa):
        for notion in ("H", "D", "L"):
            j = jacobi_set(octa, notion)
            assert {v[0] for v in j.complex.simplices_of_dim(0)} == {"m", "w"}

    def test_torus_four_critical_vertices(self, torus):
        j = jacobi_set(torus)
        assert len(j.complex.simplices_of_dim(0)) == 4

    def test_projection_locus_is_simplicial_circle(self, tetra):
        j = jacobi_set(tetra)
        k = j.complex
        assert len(k.simplices_of_dim(0)) == 4
        assert len(k.simplices_of_dim(1)) == 4
        assert sphere_verdict(k) == "sphere"

    def test_face_closed_and_bounded_dimension(self, tetra, torus):
        for f in (tetra, torus):
            j = jacobi_set(f)
            SimplicialComplex(j.complex.simplices)  # closure re-validated
            assert j.complex.dimension <= f.k - 1

    def test_l_notion_needs_surface(self, tetra):
        with pytest.raises(StructuralError):
            jacobi_set(tetra, "L")

    def test_unknown_notion_rejected(self, octa):
        with pytest.raises(StructuralError):
            jacobi_set(octa, "Q")


class TestDomainStratification:
    def test_octahedron_three_strata(self, octa):
        space = domain_stratification(octa)
        assert len(space.poset) == 3
        assert validate_poset(space.poset)

    def test_torus_five_strata(self, torus):
        space = domain_stratification(torus)
        assert len(space.poset) == 5

    def test_empty_locus_single_stratum(self, octa):
        from plstrat import JacobiSet
        empty = JacobiSet(SimplicialComplex([]), "H", 1)
        space = domain_stratification(octa, empty)
        assert len(space.poset) == 1
        assert set(space.assignment.values()) == {"C0"}


def _random_locus(rng: random.Random, f: PLMap) -> JacobiSet:
    """The face closure of a random sample of the simplices of dimension
    below k, so the sample may be empty or the whole candidate set."""
    pool = [s for s in f.domain.sorted_simplices() if s.dim < f.k]
    picked = rng.sample(pool, rng.randint(0, len(pool)))
    return JacobiSet(SimplicialComplex.from_facets(picked), "H", f.k)


def _assert_domain_matches_oracle(f: PLMap, j: JacobiSet | None):
    got, want = domain_stratification(f, j), naive_domain_stratification(f, j)
    assert got.poset == want.poset
    assert got.cells == want.cells
    assert got.closure == want.closure
    assert got.assignment == want.assignment
    assert got == want


class TestDomainOracle:
    """The domain stratification on rank tables against the `Simplex`
    tuple construction in `helpers`, `C<i>` labels included, and the L
    verdict, whose cycle test reads the coface table, against the
    built-link oracle."""

    @pytest.mark.parametrize("name", [n for n in example_names()
                                      if load_example(n).get("kind") == "map"])
    def test_bundled_maps_under_every_notion(self, name):
        f = example_map(name)
        for notion in ("H", "D", "L"):
            try:
                j = jacobi_set(f, notion)
            except (GenericityError, StructuralError):
                continue
            _assert_domain_matches_oracle(f, j)

    def test_closed_surfaces_under_h(self, rng):
        for dom in closed_surfaces():
            verts = sorted(dom.vertices)
            vals = rng.sample(range(10 * len(verts)), len(verts))
            _assert_domain_matches_oracle(
                PLMap(dom, 1, {v: (F(x),) for v, x in zip(verts, vals)}), None)

    def test_random_complexes_with_random_loci(self, rng):
        for _ in range(200):
            dom = random_complex(rng)
            k = rng.randint(1, 3)
            f = PLMap(dom, k, {v: tuple(F(rng.randint(-9, 9)) for _ in range(k))
                               for v in dom.vertices})
            _assert_domain_matches_oracle(f, _random_locus(rng, f))

    def test_random_surface_maps_with_random_loci(self, rng):
        for _ in range(40):
            f = random_surface_map(rng)
            _assert_domain_matches_oracle(f, _random_locus(rng, f))

    def test_ten_by_ten_torus(self, rng):
        f = torus_height_map(rng, 10)
        _assert_domain_matches_oracle(f, None)
        _assert_domain_matches_oracle(f, _random_locus(rng, f))

    def test_l_verdict_on_random_cones_and_complexes(self, rng):
        # vertex links of every shape: the apex of a cone over a random
        # graph has that graph as its link (one cycle, two cycles, a path,
        # a tree, isolated points), and random complexes add links of
        # dimension zero and two
        domains = list(closed_surfaces())
        for _ in range(100):
            edges = [e for e in combinations(range(6), 2) if rng.random() < 0.4]
            domains.append(SimplicialComplex.from_facets(
                [(9, *e) for e in edges] + [(9, rng.randrange(6))]))
            domains.append(random_complex(rng))
        seen = set()
        for dom in domains:
            verts = sorted(dom.vertices)
            f = PLMap(dom, 1, {v: (F(x),) for v, x in
                               zip(verts, rng.sample(range(50), len(verts)))})
            for v in verts:
                verdict = is_l_critical_surface(f, v)
                assert verdict == naive_is_l_critical_surface(f, v), v
                seen.add(verdict)
        assert seen == {None, True, False}


class TestMorseCount:
    def test_upper_link_betti_pattern_sums_to_euler(self, octa, torus):
        for f, chi in ((octa, 2), (torus, 0)):
            total = 0
            for v in sorted(f.domain.vertices):
                up, _ = directional_links(f, Simplex((v,)), (F(1),))
                b = reduced_betti(up)
                if b[-1]:
                    total += 1          # local max: empty upper link
                elif b[1]:
                    total += 1          # local min: upper link a full circle
                elif b[0]:
                    total -= b[0]       # saddle, with multiplicity
            assert total == chi

    def test_random_surfaces_satisfy_euler_count(self, rng):
        from plstrat import euler_characteristic
        for _ in range(5):
            f = random_surface_map(rng)
            chi = euler_characteristic(f.domain)
            total = 0
            for v in sorted(f.domain.vertices):
                up, _ = directional_links(f, Simplex((v,)), (F(1),))
                b = reduced_betti(up)
                if b[-1]:
                    total += 1
                elif b[1]:
                    total += 1
                elif b[0]:
                    total -= b[0]
            assert total == chi


def test_verdict_bundle_consistency(octa):
    v = criticality_verdict(octa, Simplex(("m",)))
    assert v.h_critical and v.d_critical and v.l_critical is True
    r = criticality_verdict(octa, Simplex(("a",)))
    assert not r.h_critical and not r.d_critical and r.l_critical is False
