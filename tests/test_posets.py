"""Order-theoretic core: axioms, cones, products, wedge extensions and
stratified-map checks, and every construction against the reference
closure and covers of `helpers`."""
import json
from fractions import Fraction

import pytest

from helpers import (naive_cone, naive_covers, naive_maximal_chains,
                     naive_product, naive_upsets, naive_wedge_extend,
                     random_poset, random_relation,
                     random_segments, segments_as_map, space_upsets,
                     torus_projection)
from plstrat import (MonotoneMap, NotAMemberError, PLMap, Poset, RefinedImage,
                     SimplicialComplex, StratifiedSpace, StructuralError,
                     build_codomain_stratification, chain_poset,
                     check_stratified_map, collapse_to_point,
                     domain_stratification, face_poset, is_partial_order,
                     is_refinement, jacobi_set, left_cone, linear_subposets,
                     product, right_cone, stratification_from_refined,
                     stratify_singular_locus, validate_poset, wedge_extend)
from plstrat.cli import main
from plstrat.io import (codomain_to_dict, example_input, example_names,
                        locus_stratification_to_dict)


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

    def test_a_long_chain_is_walked_without_recursion(self):
        assert linear_subposets(chain_poset(range(1200))) == [tuple(range(1200))]


class TestChainOracle:
    """The lazy walk's chains, in the order it yields them, against the
    full list of maximal chains sorted afterwards."""

    def test_random_posets_and_products(self, rng):
        for _ in range(40):
            p = random_poset(rng)
            assert linear_subposets(p) == naive_maximal_chains(p)
            q = product(p, random_poset(rng, 4))
            assert linear_subposets(q) == naive_maximal_chains(q)

    @pytest.mark.parametrize("name", example_names())
    def test_bundled_examples(self, name):
        x = example_input(name)
        if not isinstance(x, PLMap):
            posets = [stratify_singular_locus(x).space.poset]
        else:
            posets = []
            for notion in "HDL":
                try:
                    j = jacobi_set(x, notion)
                except StructuralError:
                    continue   # L on a link that is no circle or a solid
                posets += [face_poset(j.complex), domain_stratification(x, j).poset]
                if x.k in (1, 2):
                    posets.append(build_codomain_stratification(x, j).space.poset)
        for p in posets:
            assert linear_subposets(p) == naive_maximal_chains(p)

    @pytest.mark.parametrize("draw", range(3))
    def test_torus_projections(self, draw, rng):
        f = torus_projection(rng, 3)
        p = build_codomain_stratification(f, jacobi_set(f)).space.poset
        assert linear_subposets(p) == naive_maximal_chains(p)


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


def assert_matches(p: Poset, up: dict):
    """The poset's elements, up-sets and covers against reference up-sets,
    element by element."""
    assert p.elements == up.keys()
    covers = naive_covers(up)
    for e in up:
        assert p.up_set(e) == up[e], e
        assert {b for a, b in p.covers if a == e} == {b for a, b in covers if a == e}, e
    assert validate_poset(p)


def outcome(fn, *args):
    try:
        return fn(*args)
    except StructuralError as exc:
        return type(exc).__name__, str(exc)


class TestPosetOracle:
    """Constructed, derived and stratification posets against one search
    per element, a second antisymmetry pass and the nested covers test."""

    def test_random_relations(self, rng):
        for _ in range(40):
            n = rng.randint(1, 9)
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 2 * n))]
            want = outcome(naive_upsets, range(n), pairs)
            got = outcome(Poset, range(n), pairs)
            if isinstance(want, dict):
                assert_matches(got, want)
            else:
                assert got == want

    def test_random_posets_and_their_derived_posets(self, rng):
        for _ in range(15):
            labels, rel = random_relation(rng)
            p, q = Poset(labels, rel), random_poset(rng, 5)
            assert_matches(p, naive_upsets(labels, rel))
            assert_matches(product(p, q), naive_product(p, q))
            assert_matches(product(q, p), naive_product(q, p))
            assert_matches(left_cone(p), naive_cone(p, "cone_min", True))
            assert_matches(right_cone(p), naive_cone(p, "cone_max", False))
            comps = [f"A{i}" for i in range(rng.randint(0, 3))]
            pairs = [(e, a) for e in labels for a in comps if rng.random() < 0.3]
            assert_matches(wedge_extend(p, comps, pairs),
                           naive_wedge_extend(p, comps, pairs))

    @pytest.mark.parametrize("name", example_names())
    def test_bundled_examples(self, name):
        x = example_input(name)
        if not isinstance(x, PLMap):
            space = stratify_singular_locus(x).space
            assert_matches(space.poset, space_upsets(space))
            return
        for notion in "HDL":
            try:
                j = jacobi_set(x, notion)
            except StructuralError:
                continue   # L on a link that is no circle or a solid
            locus = j.complex
            assert_matches(face_poset(locus),
                           {s: frozenset(t for t in locus.simplices if set(s) <= set(t))
                            for s in locus.simplices})
            for space in (domain_stratification(x, j),
                          build_codomain_stratification(x, j).space):
                assert_matches(space.poset, space_upsets(space))

    def test_segment_arrangements(self, rng):
        for _ in range(4):
            space = build_codomain_stratification(
                *segments_as_map(random_segments(rng)[0])).space
            assert_matches(space.poset, space_upsets(space))

    @pytest.mark.parametrize("draw", range(4))
    def test_torus_projections(self, draw, rng):
        f = torus_projection(rng, 3)
        space = build_codomain_stratification(f, jacobi_set(f)).space
        assert_matches(space.poset, space_upsets(space))

    @pytest.mark.parametrize("n", [2, 50])
    def test_cycles_violate_antisymmetry(self, n):
        pairs = [(i, (i + 1) % n) for i in range(n)]
        with pytest.raises(StructuralError, match="violates antisymmetry"):
            Poset(range(n), pairs)
        with pytest.raises(StructuralError, match="violates antisymmetry"):
            naive_upsets(range(n), pairs)

    def test_self_pairs_are_allowed(self):
        pairs = [("a", "a"), ("a", "b"), ("b", "b"), ("c", "c")]
        assert_matches(Poset("abc", pairs), naive_upsets("abc", pairs))

    def test_a_long_chain_closes_without_recursion(self):
        # twice the default recursion limit; the closure holds n^2 / 2 pairs
        n = 2000
        p = Poset(range(n), [(i + 1, i) for i in range(n - 1)])
        assert p.up_set(n - 1) == frozenset(range(n))
        assert p.up_set(0) == {0} and p.minima() == {n - 1}

    def test_unknown_element(self):
        for build in (Poset, naive_upsets):
            with pytest.raises(NotAMemberError, match="unknown element"):
                build({"a"}, [("a", "a"), ("a", "b")])


class TestGradedCovers:
    """Codomain and contour posets are graded and come with their covers, so
    neither the writer nor the default filtration chain reduces up-sets to
    covers; the covers are still the reduction's."""

    @pytest.fixture
    def reduced(self, monkeypatch):
        """The posets whose covers were computed from their up-sets."""
        out = []
        original = Poset.covers.fget

        def spy(p):
            if p._covers is None:
                out.append(p)
            return original(p)
        monkeypatch.setattr(Poset, "covers", property(spy))
        return out

    @pytest.mark.parametrize("name", ["torus_grid", "projection", "figure_eight_contour"])
    def test_writer_and_default_chain_reduce_nothing(self, name, reduced, rng,
                                                     tmp_path, capsys):
        if name == "projection":
            f = torus_projection(rng, 3)
            path = tmp_path / "map.json"
            path.write_text(json.dumps({
                "k": 2, "facets": [list(t) for t in f.domain.facets()],
                "values": {v: [str(c) for c in p] for v, p in f.values.items()}}))
            source = [str(path)]
        else:
            f, source = example_input(name), ["--example", name]
        if isinstance(f, PLMap):
            strat = build_codomain_stratification(f, jacobi_set(f))
            doc = codomain_to_dict(strat)
        else:
            strat = stratify_singular_locus(f)
            doc = locus_stratification_to_dict(strat)
        assert main(["export-filtration", *source]) == 0
        chain = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert reduced == []
        poset = strat.space.poset
        covers = doc["stratification"]["poset"]["covers"]
        assert {tuple(c) for c in covers} == naive_covers(poset._up)
        assert tuple(chain) == naive_maximal_chains(poset)[0]

    def test_line_cuts_against_the_closure_and_reduction(self, reduced, rng):
        # k=1 refined images on random value sets, the empty one first; the
        # reference pairs come from the geometry: a point lies below each
        # interval it bounds
        for n in [0] + [rng.randint(1, 12) for _ in range(20)]:
            d = rng.randint(1, 3)
            points = tuple(sorted(Fraction(x, d) for x in rng.sample(range(-60, 60), n)))
            cs = stratification_from_refined(RefinedImage(
                k=1, points=points, multiplicities=(1,) * n, arrangement=None))
            cells = [f"p{a}" for a in range(n)] + [f"i{b}" for b in range(n + 1)]
            pairs = [(f"p{a}", f"i{b}") for a in range(n) for b in range(n + 1)
                     if points[a] in cs.geometry[f"i{b}"]]
            up = naive_upsets(cells, pairs)
            assert_matches(cs.space.poset, up)   # the covers too, by naive_covers
            assert cs.space.closure == frozenset(pairs)
        assert reduced == []
