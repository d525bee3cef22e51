import random
from fractions import Fraction

import pytest

from helpers import (closed_surfaces, grid_torus, naive_manifold_check,
                     naive_sphere_verdict, random_complex)
from plstrat import (EmptyComplexError, NotAMemberError, Simplex,
                     SimplicialComplex, StructuralError, euler_characteristic,
                     face_poset, join, link, manifold_check, open_star,
                     sphere_verdict, star, validate_poset)
from plstrat.geometry import canon_key
from plstrat.io import example_names, load_example, map_from_dict


def octahedron() -> SimplicialComplex:
    equator = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    return SimplicialComplex.from_facets(
        [(t, *e) for t in "mw" for e in equator])


def circle(n: int = 4) -> SimplicialComplex:
    return SimplicialComplex.from_facets(
        [(i, (i + 1) % n) for i in range(n)])


class TestSimplex:
    def test_vertices_sorted_and_duplicates_rejected(self):
        s = Simplex(("c", "a", "b"))
        assert tuple(s) == ("a", "b", "c")
        assert s.dim == 2
        with pytest.raises(StructuralError):
            Simplex(("a", "a", "b"))

    def test_faces_and_boundary(self):
        s = Simplex((0, 1, 2))
        assert len(list(s.faces())) == 7
        assert set(s.boundary()) == {Simplex((0, 1)), Simplex((0, 2)),
                                     Simplex((1, 2))}


# labels whose `canon_key` order is not the order of their reprs, or that
# Python cannot compare with each other at all
_MIXED_LABELS = [
    (10, 2, 7),
    ("b", 10, "a", 2),
    (Fraction(1, 2), 10, 2, Fraction(-3, 4)),
    ((2, "x"), (10,), "z", 3, (Fraction(1, 3), 1)),
]


def _resorted(s) -> Simplex:
    return Simplex(tuple(s))


class TestSimplexWithoutResorting:
    @pytest.mark.parametrize("labels", _MIXED_LABELS)
    def test_faces_and_boundary_are_canon_ordered(self, labels):
        s = Simplex(labels)
        assert list(s) == sorted(labels, key=canon_key)
        for part in (list(s.faces()), s.boundary()):
            assert all(type(x) is Simplex for x in part)
            assert [tuple(x) for x in part] == [tuple(_resorted(x)) for x in part]
        assert len(list(s.faces())) == 2 ** len(labels) - 1
        assert len(set(s.boundary())) == len(labels)

    @pytest.mark.parametrize("labels", _MIXED_LABELS)
    def test_link_is_canon_ordered(self, labels):
        # a cone over the simplex and a second apex, linked at each face
        s = Simplex(labels)
        k = SimplicialComplex.from_facets([s + ("apex",), s + ("other",)])
        for sigma in s.faces():
            lk = link(k, sigma)
            assert lk.simplices == {_resorted(t) for t in lk.simplices}
            for t in lk.simplices:
                assert type(t) is Simplex
                assert tuple(t) == tuple(_resorted(t))
                assert not set(t) & set(sigma)
                assert _resorted(t + tuple(sigma)) in k

    @pytest.mark.parametrize("labels", _MIXED_LABELS)
    def test_a_simplex_passes_through_unchanged(self, labels):
        s = Simplex(labels)
        assert Simplex(s) is s
        assert Simplex(list(s)) == s and Simplex(list(s)) is not s

    @pytest.mark.parametrize("raw", [(2, 10, 2), ["a", "a"],
                                     (Fraction(1, 2), Fraction(2, 4)),
                                     ((1, "x"), (1, "x"))])
    def test_raw_input_with_a_repeated_vertex_rejected(self, raw):
        with pytest.raises(StructuralError):
            Simplex(raw)

    @pytest.mark.parametrize("raw", [(), [], iter(())])
    def test_empty_raw_input_rejected(self, raw):
        with pytest.raises(StructuralError):
            Simplex(raw)


class TestComplex:
    def test_from_facets_closes_under_faces(self):
        k = SimplicialComplex.from_facets([(0, 1, 2)])
        assert len(k) == 7
        assert (0, 1) in k and (2,) in k

    def test_constructor_rejects_open_set(self):
        with pytest.raises(StructuralError):
            SimplicialComplex([(0, 1)])

    def test_dimension_and_vertices(self):
        k = octahedron()
        assert k.dimension == 2
        assert k.vertices == set("abcdmw")
        assert SimplicialComplex([]).dimension == -1

    def test_facets_and_purity(self):
        k = octahedron()
        assert len(k.facets()) == 8
        assert k.is_pure()
        mixed = SimplicialComplex.from_facets([(0, 1, 2), (3, 4)])
        assert not mixed.is_pure()

    def test_counts(self):
        k = octahedron()
        assert len(k.simplices_of_dim(0)) == 6
        assert len(k.simplices_of_dim(1)) == 12
        assert len(k.simplices_of_dim(2)) == 8


class TestLocalStructure:
    def test_link_of_octahedron_vertex_is_square(self):
        lk = link(octahedron(), ("m",))
        assert lk.dimension == 1
        assert len(lk.simplices_of_dim(1)) == 4
        assert sphere_verdict(lk) == "sphere"

    def test_link_of_edge_is_two_points(self):
        lk = link(octahedron(), ("m", "a"))
        assert lk.simplices == {Simplex(("b",)), Simplex(("d",))}

    def test_star_contains_all_cofaces(self):
        st = star(octahedron(), ("m",))
        assert len(st.simplices_of_dim(2)) == 4
        assert ("a", "b") in st

    def test_open_star_is_cofaces_only(self):
        os_ = open_star(octahedron(), ("m",))
        assert all("m" in s for s in os_)
        assert len(os_) == 1 + 4 + 4

    def test_link_requires_membership(self):
        with pytest.raises(NotAMemberError):
            link(octahedron(), ("z",))


def _assert_index_matches_definitions(k: SimplicialComplex):
    """Every indexed operation against a scan of all simplices."""
    simp = k.simplices
    for s in simp:
        cofaces = {t for t in simp if set(s) <= set(t)}
        assert open_star(k, s) == frozenset(cofaces)
        assert star(k, s) == SimplicialComplex.from_facets(cofaces)
        assert link(k, s) == SimplicialComplex(
            {Simplex(set(t) - set(s)) for t in cofaces if t != s})
    facets = sorted((s for s in simp if not any(set(s) < set(t) for t in simp)),
                    key=canon_key)
    assert k.facets() == facets
    assert k.is_pure() == all(f.dim == k.dimension for f in facets)
    assert k.sorted_simplices() == sorted(simp, key=lambda s: (s.dim, canon_key(s)))
    for d in range(-1, k.dimension + 2):
        assert k.simplices_of_dim(d) == sorted(
            (s for s in simp if s.dim == d), key=canon_key)


class TestIndexAgreesWithDefinitions:
    def test_coface_ranks_transpose_face_ranks(self, rng):
        for k in [random_complex(rng) for _ in range(50)] + closed_surfaces():
            ranked = k.index.ranked
            for r, s in enumerate(ranked):
                assert [ranked[q] for q in k.coface_ranks[r]] == [
                    t for t in ranked if len(t) == len(s) + 1 and set(s) < set(t)]
                assert {ranked[q] for q in k.face_ranks[r]} == set(s.boundary())

    def test_random_complexes(self):
        for seed in range(50):
            _assert_index_matches_definitions(random_complex(random.Random(seed)))

    def test_closed_surfaces(self):
        for k in closed_surfaces():
            _assert_index_matches_definitions(k)

    def test_cofaces_match_the_scan(self, rng):
        for k in [random_complex(rng) for _ in range(50)] + closed_surfaces():
            for s in k.simplices:
                assert list(k.cofaces(s)) == [t for t in k.index.ranked
                                              if set(s) <= set(t)], s

    def test_mixed_labels_and_empty_complex(self):
        # canon_key orders ints before strings before tuples
        k = SimplicialComplex.from_facets(
            [(3, "b", (0, 1)), ("a", 10), (2,), ((0, 1), (0, 2), "a")])
        _assert_index_matches_definitions(k)
        _assert_index_matches_definitions(SimplicialComplex([]))


class TestJoin:
    def test_point_join_is_cone(self):
        pt = SimplicialComplex.from_facets([("p",)])
        base = circle()
        cone = join(pt, base)
        assert cone.dimension == 2
        assert len(cone.simplices_of_dim(2)) == 4

    def test_suspension_of_square_is_octahedron_shape(self):
        poles = SimplicialComplex.from_facets([("m",), ("w",)])
        square = SimplicialComplex.from_facets(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        susp = join(poles, square)
        assert susp == octahedron()

    def test_join_of_sphere_pairs_is_sphere(self):
        s0 = SimplicialComplex.from_facets([(0,), (1,)])
        t0 = SimplicialComplex.from_facets([(2,), (3,)])
        assert sphere_verdict(join(s0, t0)) == "sphere"


class TestStratifications:
    def test_face_poset_orders_by_inclusion(self):
        p = face_poset(circle())
        assert validate_poset(p)
        assert p.leq(Simplex((0,)), Simplex((0, 1)))
        assert not p.leq(Simplex((0, 1)), Simplex((0,)))

    def test_face_poset_of_the_empty_complex_is_empty(self):
        p = face_poset(SimplicialComplex([]))
        assert len(p) == 0 and not p.covers and validate_poset(p)


class TestGlobalInvariants:
    def test_euler_characteristic(self):
        assert euler_characteristic(octahedron()) == 2
        assert euler_characteristic(circle()) == 0
        assert euler_characteristic(SimplicialComplex.from_facets([(0, 1, 2, 3)])) == 1

    def test_sphere_verdicts(self):
        assert sphere_verdict(SimplicialComplex([])) == "sphere"
        assert sphere_verdict(SimplicialComplex.from_facets([(0,), (1,)])) == "sphere"
        assert sphere_verdict(SimplicialComplex.from_facets([(0,)])) == "not-sphere"
        assert sphere_verdict(circle()) == "sphere"
        assert sphere_verdict(octahedron()) == "sphere"
        path = SimplicialComplex.from_facets([(0, 1), (1, 2)])
        assert sphere_verdict(path) == "not-sphere"

    def test_manifold_check_closed_surface(self):
        report = manifold_check(octahedron())
        assert report.is_pure and report.is_weak_pseudomanifold
        assert report.complex_verdict == "sphere"

    def test_manifold_check_flags_boundary(self):
        disk = SimplicialComplex.from_facets([(0, 1, 2)])
        report = manifold_check(disk)
        assert report.is_pure
        assert not report.is_weak_pseudomanifold

    def test_manifold_check_rejects_empty(self):
        with pytest.raises(EmptyComplexError):
            manifold_check(SimplicialComplex([]))


def _map_domains() -> list[SimplicialComplex]:
    return [map_from_dict(load_example(n)).domain for n in example_names()
            if load_example(n).get("kind") == "map"]


class TestManifoldOracle:
    """`manifold_check` and `sphere_verdict`, read off the coface table,
    against the oracles in `helpers` that build every link by scanning."""

    @staticmethod
    def _check(k: SimplicialComplex):
        assert manifold_check(k) == naive_manifold_check(k)
        assert sphere_verdict(k) == naive_sphere_verdict(k)

    def test_bundled_examples(self):
        for k in _map_domains():
            self._check(k)

    def test_closed_surfaces(self):
        for k in closed_surfaces():
            self._check(k)

    def test_random_complexes(self, rng):
        for _ in range(200):
            self._check(random_complex(rng))

    def test_ten_by_ten_torus(self):
        self._check(grid_torus(10))

    def test_links_of_random_complexes(self, rng):
        for _ in range(40):
            k = random_complex(rng)
            for s in k.simplices:
                assert sphere_verdict(link(k, s)) == naive_sphere_verdict(link(k, s))


def _disk(center, rim) -> list:
    return [(center, a, b) for a, b in zip(rim, rim[1:] + rim[:1])]


def _square_sphere(poles, rim) -> list:
    return [f for p in poles for f in _disk(p, rim)]


_RIDGE = "some ridge is not shared by exactly two facets"
_DISCONNECTED = "some link is disconnected"
_IMPURE = "complex is not pure"

# (facets, pure, weak pseudomanifold, verdict, notes, {simplex: link verdict})
_FIXTURES = {
    # two disks glued at their centres: the link there is two 4-cycles,
    # every degree is two and there are as many edges as vertices
    "pinched_disks": (_disk("p", list("abcd")) + _disk("p", list("efgh")),
                      True, False, "not-sphere", (_RIDGE, _DISCONNECTED),
                      {("p",): "not-sphere", ("a",): "not-sphere",
                       ("a", "p"): "sphere", ("a", "b"): "not-sphere"}),
    "pinched_spheres": (_square_sphere("mw", list("abcd"))
                        + _square_sphere("mz", list("efgh")),
                        True, False, "not-sphere", (_DISCONNECTED,),
                        {("m",): "not-sphere", ("w",): "sphere", ("a",): "sphere"}),
    # the link of the edge is three points, that of a is a star graph
    "edge_in_three_triangles": ([("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e")],
                                True, False, "not-sphere", (_RIDGE,),
                                {("a", "b"): "not-sphere", ("a",): "not-sphere",
                                 ("c",): "not-sphere", ("a", "b", "c"): "sphere"}),
    # a boundary vertex of a disk: its link is a path
    "disk_boundary_vertex": (_disk("p", list("abcd")), True, False, "not-sphere",
                             (_RIDGE,), {("a",): "not-sphere", ("p",): "sphere",
                                         ("a", "b"): "not-sphere",
                                         ("a", "p"): "sphere"}),
    # the link of c is an edge and an isolated point
    "dangling_edge": ([("a", "b", "c"), ("c", "d")], False, False, "not-sphere",
                      (_IMPURE, _DISCONNECTED),
                      {("c",): "not-sphere", ("d",): "not-sphere",
                       ("c", "d"): "sphere", ("a", "b"): "not-sphere"}),
    # every count of a 2-sphere holds and chi = 2 + 0, but it is two pieces
    "sphere_beside_torus": (_square_sphere("mw", list("abcd"))
                            + [tuple(f) for f in grid_torus(3).facets()],
                            True, True, "not-sphere", (),
                            {("m",): "sphere", ("v0_0",): "sphere"}),
    "circle": ([(0, 1), (1, 2), (2, 3), (0, 3)], True, True, "sphere", (),
               {(0,): "sphere", (0, 1): "sphere"}),
    "one_vertex": ([("v",)], True, True, "not-sphere", (), {("v",): "sphere"}),
    "two_vertices": ([("v",), ("w",)], True, True, "sphere", (),
                     {("v",): "sphere", ("w",): "sphere"}),
    # a vertex link is a triangle, a 2-complex: the one built link
    "solid_tetrahedron": ([("a", "b", "c", "d")], True, False, "undecided", (_RIDGE,),
                          {("a",): "not-sphere", ("a", "b"): "not-sphere",
                           ("a", "b", "c"): "not-sphere",
                           ("a", "b", "c", "d"): "sphere"}),
}


class TestManifoldFixtures:
    """Complexes where a count could pass for a built link's verdict, with
    the verdicts and notes pinned."""

    @pytest.mark.parametrize("name", sorted(_FIXTURES))
    def test_verdicts_and_notes(self, name):
        facets, pure, weak, verdict, notes, links = _FIXTURES[name]
        k = SimplicialComplex.from_facets(facets)
        report = manifold_check(k)
        assert (report.is_pure, report.is_weak_pseudomanifold,
                report.complex_verdict, report.notes) == (pure, weak, verdict, notes)
        for s, v in links.items():
            assert report.link_checks[Simplex(s)] == v, s
        assert set(report.link_checks) == k.simplices
        assert report == naive_manifold_check(k)

    def test_only_links_of_dimension_two_are_built(self, monkeypatch):
        from plstrat import complexes
        built = []
        original = complexes._build_link

        def spy(k, sigma):
            built.append(tuple(sigma))
            return original(k, sigma)
        monkeypatch.setattr(complexes, "_build_link", spy)
        for name in sorted(_FIXTURES):
            manifold_check(SimplicialComplex.from_facets(_FIXTURES[name][0]))
        assert built == [("a",), ("b",), ("c",), ("d",)]
