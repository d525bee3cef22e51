"""Order-theoretic core: axioms, cones, products, wedge extensions and
stratified-map checks."""
import pytest

from helpers import random_poset
from plstrat import (MonotoneMap, NotAMemberError, Poset, SimplicialComplex,
                     StratifiedSpace, StructuralError, chain_poset,
                     check_stratified_map, collapse_to_point, face_poset,
                     is_partial_order, is_refinement, left_cone,
                     linear_subposets, product, right_cone, validate_poset,
                     wedge_extend)


def nat_edge() -> Poset:
    # face poset of a single 1-simplex: b0 <= a >= b1
    return Poset({"b0", "b1", "a"}, [("b0", "a"), ("b1", "a")])


def diamond() -> Poset:
    return product(chain_poset(range(2)), chain_poset(range(2)))


def is_chain(p: Poset) -> bool:
    return all(p.comparable(a, b) for a in p.elements for b in p.elements)


class TestAxioms:
    def test_chain_is_partial_order(self):
        assert is_partial_order(range(3), [(0, 1), (1, 2)])

    def test_two_cycle_is_not(self):
        assert not is_partial_order({"a", "b"}, [("a", "b"), ("b", "a")])

    def test_unknown_element_is_not(self):
        assert not is_partial_order({"a"}, [("a", "b")])

    def test_octahedron_face_relation_is_partial_order(self):
        oct_ = SimplicialComplex.from_facets(
            [(t, a, b) for t in "mw" for a, b in
             [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]])
        p = face_poset(oct_)
        assert is_partial_order(p.elements, p.relation_pairs())
        assert validate_poset(p)

    def test_constructor_rejects_cycles(self):
        with pytest.raises(StructuralError):
            Poset({"a", "b"}, [("a", "b"), ("b", "a")])

    def test_constructor_rejects_unknown_elements(self):
        with pytest.raises(NotAMemberError):
            Poset({"a"}, [("a", "b")])

    def test_random_posets_validate(self, rng):
        for _ in range(25):
            assert validate_poset(random_poset(rng))

    def test_minima_match_the_definition(self, rng):
        # minimal: no other element lies below
        for _ in range(25):
            p = random_poset(rng, max_elements=12)
            assert p.minima() == {e for e in p.elements
                                  if not any(x != e and p.leq(x, e)
                                             for x in p.elements)}


class TestTopology:
    def test_up_set_of_valley_point(self):
        # the line stratified over {- > 0 < +}: the origin sees both sides
        p = Poset({"-", "0", "+"}, [("0", "-"), ("0", "+")])
        assert p.up_set("0") == {"-", "0", "+"}

    def test_up_set_at_maximal_is_singleton(self):
        p = nat_edge()
        assert p.up_set("a") == {"a"}

    def test_up_set_on_edge_poset(self):
        p = nat_edge()
        assert p.up_set("b0") == {"b0", "a"}

    def test_is_open_examples(self):
        p = nat_edge()
        assert p.is_open(p.elements)
        assert p.is_open(set())
        assert not p.is_open({"b0"})
        assert p.is_open({"a"})

    def test_opens_closed_under_union_and_intersection(self, rng):
        for _ in range(10):
            p = random_poset(rng)
            opens = [set(p.up_set(e)) for e in p.elements]
            for u in opens:
                for v in opens:
                    assert p.is_open(u | v)
                    assert p.is_open(u & v)

    def test_separation_only_between_incomparable(self, rng):
        # disjoint minimal neighbourhoods force incomparability, and
        # comparable pairs always share one
        for _ in range(15):
            p = random_poset(rng)
            for a in p.elements:
                for b in p.elements:
                    if a == b:
                        continue
                    disjoint = not (p.up_set(a) & p.up_set(b))
                    if disjoint:
                        assert not p.comparable(a, b)
                    if p.comparable(a, b):
                        assert p.up_set(a) & p.up_set(b)

    def test_incomparable_pair_need_not_separate(self):
        # the diamond: both middle elements sit below the top
        d = diamond()
        assert not d.comparable((0, 1), (1, 0))
        assert d.up_set((0, 1)) & d.up_set((1, 0))


class TestProduct:
    def test_unit_square_is_diamond(self):
        d = diamond()
        assert len(d) == 4
        assert d.leq((0, 0), (0, 1)) and d.leq((0, 0), (1, 0))
        assert d.leq((0, 1), (1, 1)) and d.leq((1, 0), (1, 1))
        assert not d.comparable((0, 1), (1, 0))

    def test_product_with_point_is_isomorphic(self, rng):
        p = random_poset(rng)
        star = Poset({"*"})
        q = product(p, star)
        assert len(q) == len(p)
        for a in p.elements:
            for b in p.elements:
                assert p.leq(a, b) == q.leq((a, "*"), (b, "*"))

    def test_chain_product_size(self):
        m, n = 3, 4
        q = product(chain_poset(range(m + 1)), chain_poset(range(n + 1)))
        assert len(q) == (m + 1) * (n + 1)

    def test_projections_are_monotone(self, rng):
        a, b = random_poset(rng, 5), random_poset(rng, 5)
        q = product(a, b)
        MonotoneMap(q, a, {e: e[0] for e in q.elements})
        MonotoneMap(q, b, {e: e[1] for e in q.elements})


class TestCones:
    def test_left_cone_of_empty_is_a_point(self):
        c = left_cone(Poset(()), label=0)
        assert c.elements == {0}

    def test_cone_of_chain_is_longer_chain(self):
        for n in range(4):
            base = chain_poset(range(n + 1))
            for cone in (left_cone(base), right_cone(base)):
                assert is_chain(cone)
                assert len(cone) == n + 2

    def test_right_cone_of_antichain(self):
        c = right_cone(Poset({"a", "b", "c"}))
        assert len(c) == 4
        assert len(c.covers) == 3

    def test_cone_extrema_and_restriction(self, rng):
        for _ in range(10):
            p = random_poset(rng)
            lo, hi = left_cone(p), right_cone(p)
            assert lo.minima() == {"cone_min"}
            assert hi.maxima() == {"cone_max"}
            for a in p.elements:
                for b in p.elements:
                    assert lo.leq(a, b) == p.leq(a, b)
                    assert hi.leq(a, b) == p.leq(a, b)

    def test_cone_label_collision_rejected(self):
        with pytest.raises(StructuralError):
            left_cone(Poset({"cone_min"}))


class TestWedgeExtend:
    def test_empty_extension_is_identity(self):
        p = nat_edge()
        assert wedge_extend(p, (), ()) == p

    def test_unit_interval_ambient_extension(self):
        # [0,1] in the line: endpoints also border the two outer rays
        p = nat_edge()
        q = wedge_extend(p, {"a-", "a+"}, [("b0", "a-"), ("b1", "a+")])
        assert len(q) == 5
        assert q.leq("b0", "a-") and q.leq("b1", "a+")
        assert not q.leq("b0", "a+") and not q.leq("b1", "a-")
        assert q.leq("b0", "a") and q.leq("b1", "a")
        assert q.maxima() == {"a-", "a", "a+"}

    def test_label_collision_rejected(self):
        with pytest.raises(StructuralError):
            wedge_extend(nat_edge(), {"a"}, ())

    def test_unknown_pair_rejected(self):
        with pytest.raises(NotAMemberError):
            wedge_extend(nat_edge(), {"c"}, [("zz", "c")])

    def test_collapse_of_components_gives_right_cone(self):
        p = nat_edge()
        q = wedge_extend(p, {"u", "v"},
                         [("a", "u"), ("a", "v"), ("b0", "u"), ("b1", "v")])
        assert collapse_to_point(q, {"u", "v"}, "cone_max") == right_cone(p)

    def test_collapse_law_random(self, rng):
        # pairing every maximal element makes the collapse a cone
        for _ in range(10):
            p = random_poset(rng, 6)
            comps = ["A0", "A1"]
            pairs = [(m, rng.choice(comps)) for m in p.maxima()]
            for e in p.elements:
                if rng.random() < 0.3:
                    pairs.append((e, rng.choice(comps)))
            used = {a for _, a in pairs}
            q = wedge_extend(p, used, pairs)
            assert collapse_to_point(q, used, "cone_max") == right_cone(p)


class TestChains:
    def test_edge_poset_chains(self):
        assert linear_subposets(nat_edge()) == [("b0", "a"), ("b1", "a")]

    def test_antichain_gives_singletons(self):
        p = Poset({"x", "y", "z"})
        assert linear_subposets(p) == [("x",), ("y",), ("z",)]

    def test_diamond_has_two_maximal_chains(self):
        chains = linear_subposets(diamond())
        assert len(chains) == 2
        assert all(len(c) == 3 for c in chains)

    def test_chains_are_totally_ordered(self, rng):
        p = random_poset(rng)
        for chain in linear_subposets(p):
            for i, a in enumerate(chain):
                for b in chain[i + 1:]:
                    assert p.leq(a, b) and a != b


class TestMonotoneMaps:
    def test_rejects_partial_mapping(self):
        p = chain_poset(range(2))
        with pytest.raises(StructuralError):
            MonotoneMap(p, p, {0: 0})

    def test_rejects_order_reversal(self):
        p = chain_poset(range(2))
        with pytest.raises(StructuralError):
            MonotoneMap(p, p, {0: 1, 1: 0})

    def test_composition_and_surjectivity(self):
        p = chain_poset(range(3))
        down = MonotoneMap(p, chain_poset(range(2)), {0: 0, 1: 1, 2: 1})
        up = MonotoneMap(chain_poset(range(2)), p, {0: 0, 1: 2})
        comp = down.then(up)
        assert comp(2) == 2 and comp(0) == 0
        assert down.is_surjective()
        assert not up.is_surjective()

    def test_preimages_of_opens_are_open(self, rng):
        # continuity of monotone maps, tested through indicator maps
        two = chain_poset(range(2))
        for _ in range(15):
            p = random_poset(rng)
            seed = rng.choice(sorted(p.elements))
            upset = p.up_set(seed)
            f = MonotoneMap(p, two, {e: int(e in upset) for e in p.elements})
            for target_open in ({1}, {0, 1}, set()):
                assert two.is_open(target_open)
                pre = {e for e in p.elements if f(e) in target_open}
                assert p.is_open(pre)


def two_cell_space(strata_for_cells, poset) -> StratifiedSpace:
    return StratifiedSpace(poset=poset, cells=frozenset({"lo", "hi"}),
                           closure=frozenset({("lo", "hi")}),
                           assignment=strata_for_cells)


class TestStratifiedSpaceChecks:
    def test_discontinuous_assignment_names_a_failing_pair(self):
        # three closure pairs go from stratum t down to s, against s < t
        cells = frozenset({"a", "b", "c", "d"})
        closure = frozenset({("b", "a"), ("b", "c"), ("d", "c"), ("a", "c")})
        with pytest.raises(StructuralError,
                           match=r"not continuous on closure pair \('(b', 'a|b', 'c|d', 'c)'\)"):
            StratifiedSpace(poset=chain_poset(["s", "t"]), cells=cells,
                            closure=closure,
                            assignment={"a": "s", "b": "t", "c": "s", "d": "t"})

    def test_closure_pair_on_an_unknown_cell(self):
        with pytest.raises(NotAMemberError, match="unknown cell"):
            StratifiedSpace(poset=chain_poset(["s", "t"]), cells=frozenset({"lo"}),
                            closure=frozenset({("lo", "x")}), assignment={"lo": "s"})


class TestStratifiedMaps:
    def test_identity_always_passes(self, rng):
        p = chain_poset(["s", "t"])
        space = two_cell_space({"lo": "s", "hi": "t"}, p)
        ok, induced = check_stratified_map({c: c for c in space.cells},
                                           space, space)
        assert ok and induced is not None
        assert induced("s") == "s" and induced("t") == "t"

    def test_composition_pastes(self):
        p = chain_poset(["s", "t"])
        fine = two_cell_space({"lo": "s", "hi": "t"}, p)
        coarse = StratifiedSpace(poset=Poset({"*"}),
                                 cells=frozenset({"c"}), closure=frozenset(),
                                 assignment={"c": "*"})
        ok1, m1 = check_stratified_map({"lo": "c", "hi": "c"}, fine, coarse)
        assert ok1
        ok2, m2 = check_stratified_map({"c": "c"}, coarse, coarse)
        assert ok2
        assert m1.then(m2)("s") == "*"

    def test_order_crossing_map_fails(self):
        chain = chain_poset(["s", "t"])
        anti = Poset({"p", "q"})
        fine = two_cell_space({"lo": "s", "hi": "t"}, chain)
        flat = StratifiedSpace(poset=anti, cells=frozenset({"cp", "cq"}),
                               closure=frozenset(),
                               assignment={"cp": "p", "cq": "q"})
        ok, induced = check_stratified_map({"lo": "cp", "hi": "cq"},
                                           fine, flat)
        assert not ok and induced is None

    def test_ill_defined_assignment_fails(self):
        one = Poset({"*"})
        fine = StratifiedSpace(poset=one, cells=frozenset({"x", "y"}),
                               closure=frozenset(), assignment={"x": "*", "y": "*"})
        chain = chain_poset(["s", "t"])
        target = two_cell_space({"lo": "s", "hi": "t"}, chain)
        ok, _ = check_stratified_map({"x": "lo", "y": "hi"}, fine, target)
        assert not ok

    def test_refinement_examples(self):
        chain = chain_poset(["s", "t"])
        fine = two_cell_space({"lo": "s", "hi": "t"}, chain)
        trivial = StratifiedSpace(poset=Poset({"*"}),
                                  cells=frozenset({"lo", "hi"}),
                                  closure=frozenset({("lo", "hi")}),
                                  assignment={"lo": "*", "hi": "*"})
        assert is_refinement(fine, trivial)
        assert not is_refinement(trivial, fine)
        other = StratifiedSpace(poset=Poset({"*"}), cells=frozenset({"z"}),
                                closure=frozenset(), assignment={"z": "*"})
        with pytest.raises(StructuralError):
            is_refinement(fine, other)

