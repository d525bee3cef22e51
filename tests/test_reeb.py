"""Fibers, Reeb graphs, the component scaffold and the Stein-square check."""
import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (grid_3torus, naive_fiber_components, naive_reeb_graph,
                     naive_strata, naive_sweep_levels, random_complex,
                     random_planar_map, random_surface_map, revolution_torus_map,
                     sampled_interval_audit, sampled_scaffold,
                     sampled_stratum_audit, torus_projection)
from plstrat import (DegeneracyError, GenericityError, InternalError,
                     JacobiSet, NotAMemberError, PlanarArrangement, PLMap,
                     SimplicialComplex, StructuralError,
                     build_codomain_stratification,
                     check_generic, check_stein_square, fiber_components, interval_fiber_audit,
                     jacobi_set, reeb_graph, reeb_scaffold,
                     stratum_fiber_audit, validate_poset)
from plstrat import reeb
from plstrat.geometry import format_frac
from plstrat.io import (example_input, example_map, example_names, map_from_dict,
                        stein_to_dict)

F = Fraction


@pytest.fixture(scope="module")
def torus() -> PLMap:
    return example_map("torus_grid")


@pytest.fixture(scope="module")
def tetra() -> PLMap:
    return example_map("solid_tetrahedron")


class TestFiberComponents:
    def test_counts_change_across_critical_values(self, torus):
        crit = sorted(torus.value(s[0])[0] for s in
                      jacobi_set(torus).complex.simplices_of_dim(0))
        assert len(fiber_components(torus, (crit[0] - 1,))) == 0
        assert len(fiber_components(torus, (crit[0],))) == 1
        mid = (crit[1] + crit[2]) / 2
        assert len(fiber_components(torus, (mid,))) == 2

    def test_components_partition_the_support(self, torus):
        comps = fiber_components(torus, (F(10),))
        seen = set()
        for c in comps:
            assert not (c & seen)
            seen |= c

    def test_planar_fiber(self, tetra):
        from plstrat import build_codomain_stratification
        cs = build_codomain_stratification(tetra, jacobi_set(tetra))
        xs = [p[0] for p in cs.refined.arrangement.vertices]
        ys = [p[1] for p in cs.refined.arrangement.vertices]
        inside = (sum(xs) / 4, sum(ys) / 4)
        assert len(fiber_components(tetra, inside)) == 1
        assert len(fiber_components(tetra, (F(1000), F(1000)))) == 0

    def test_scalar_and_one_tuple_agree_for_one_parameter(self, torus):
        assert fiber_components(torus, F(10)) == fiber_components(torus, (F(10),))

    def test_pair_for_one_parameter_rejected(self, torus):
        with pytest.raises(StructuralError,
                           match=r"^a point of R\^1 has 1 coordinates, got 2: \(10, 0\)$"):
            fiber_components(torus, (F(10), F(0)))

    def test_triple_for_two_parameters_rejected(self, tetra):
        with pytest.raises(StructuralError,
                           match=r"^a point of R\^2 has 2 coordinates, got 3: \(0, 0, 0\)$"):
            fiber_components(tetra, (F(0), F(0), F(0)))

    def test_one_tuple_for_two_parameters_rejected(self, tetra):
        with pytest.raises(StructuralError,
                           match=r"^a point of R\^2 has 2 coordinates, got 1: \(0\)$"):
            fiber_components(tetra, (F(0),))

    def test_fine_cells_of_one_parameter_locate_one_coordinate(self, torus):
        fine = reeb.FineCells(torus)
        locate = fine.arrangement.locate
        assert locate(F(0)) == locate((F(0),)) == ("v", 0)
        for y in ((F(0), F(5)), (), [F(0), F(0)]):
            with pytest.raises(StructuralError,
                               match=rf"a point of R\^1 has 1 coordinates, got {len(y)}: "):
                locate(y)


class TestReebGraph:
    def test_torus_loop(self, torus):
        rg = reeb_graph(torus)
        assert len(rg.nodes) == 4
        assert len(rg.edges) == 4
        assert rg.cycle_rank() == 1
        assert rg.component_count() == 1

    def test_torus_node_degrees(self, torus):
        rg = reeb_graph(torus)
        degs = sorted(rg.degree(n) for n in rg.nodes)
        assert degs == [1, 1, 3, 3]

    def test_node_values_increase(self, torus):
        rg = reeb_graph(torus)
        vals = [rg.node_value[n] for n in rg.nodes]
        assert vals == sorted(vals)

    def test_sphere_gives_segment(self):
        rg = reeb_graph(example_map("octahedron"))
        assert len(rg.nodes) == 2
        assert len(rg.edges) == 1
        assert rg.cycle_rank() == 0

    def test_disk_patch_gives_tree(self):
        rg = reeb_graph(example_map("saddle_patch"))
        assert rg.cycle_rank() == 0
        assert rg.component_count() == 1

    def test_requires_single_parameter(self, tetra):
        with pytest.raises(StructuralError):
            reeb_graph(tetra)

    def test_gap_component_across_two_components_is_internal(self):
        # two edges born apart at value 0 and ended at value 1; the record
        # is corrupted so the gap id of the first edge also continues into
        # the component of the second
        f = _scalar_map([["a", "b"], ["c", "d"]], {"a": 0, "c": 0, "b": 1, "d": 1})
        events, top = f.sweep.events, f.sweep.table["v", 1]
        first, second = (next(c for c, (_, comp) in top.items() if (v,) in comp)
                         for v in "bd")
        events["v", 1][second].append(first)
        with pytest.raises(InternalError, match=re.escape(
                "fiber component through {a, b} between values 0 and 1 does "
                "not lie in one component at value 1") + "$"):
            reeb_graph(f)

    def test_reads_the_sweep_record_not_fine_cells(self, rng, monkeypatch):
        # on a fresh map the graph makes the fill's `_components` calls and
        # none of its own, and never builds the fine cells the scaffold reads
        def no_cells(f):
            raise AssertionError("reeb_graph built FineCells")
        monkeypatch.setattr(reeb, "FineCells", no_cells)
        calls = _record_sweep(monkeypatch)
        for f in _sweep_maps(rng)[:8]:
            j = jacobi_set(f)
            twin = PLMap(f.domain, 1, f.values)
            del calls[:]
            twin.sweep.components(("v", 0))
            filled = len(calls)
            del calls[:]
            reeb_graph(f, j)
            assert len(calls) == filled
            reeb_graph(f, j)
            assert len(calls) == filled

    def test_chain_closed_into_a_cycle_is_internal(self):
        # a square with a hand-made locus, empty or the maximum c alone: the
        # minimum a is a node of f's graph over no critical value, so no
        # chain closes into a cycle without a node; the locus is degenerate
        dom = SimplicialComplex.from_facets([["a", "b"], ["b", "c"],
                                             ["c", "d"], ["d", "a"]])
        f = PLMap(dom, 1, {"a": (F(0),), "b": (F(1),), "c": (F(2),),
                           "d": (F(1),)})
        message = re.escape("fiber component through {a} at value 0 is a node "
                            "of the Reeb graph over no critical value of the "
                            "H locus") + "$"
        for locus in ([], [["c"]]):
            j = JacobiSet(SimplicialComplex.from_facets(locus), "H", 1)
            for graph in (reeb_graph, naive_reeb_graph):
                with pytest.raises(DegeneracyError, match=message):
                    graph(f, j)

    def test_locus_vertex_outside_the_domain(self, torus):
        stray = JacobiSet(SimplicialComplex.from_facets([["zz"]]), "H", 1)
        with pytest.raises(NotAMemberError, match="vertex 'zz' not in the domain"):
            reeb_graph(torus, stray)

    def test_3torus_locus_missing_a_saddle_is_degenerate(self):
        # a height map of the 3x3x3 grid 3-torus: H gives f's graph, and
        # the D locus misses a node of it
        dom = grid_3torus(3)
        f = PLMap(dom, 1, {v: (F(x),) for v, x in zip(
            sorted(dom.vertices), random.Random(1).sample(range(1000), 27))})
        assert reeb_graph(f).cycle_rank() == 0
        with pytest.raises(DegeneracyError, match=re.escape(
                "fiber component through {v0_0_0, v0_0_1} at value 214 is a "
                "node of the Reeb graph over no critical value of the D locus")):
            reeb_graph(f, jacobi_set(f, "D"))

    def test_d_graph_is_the_h_graph_without_subdivisions(self, rng):
        # D-critical implies H-critical, so where D succeeds its nodes are
        # H nodes, and the two graphs agree once degree-2 nodes are contracted
        compared = 0
        for f in [example_map("octahedron")] + [random_surface_map(rng)
                                                for _ in range(20)]:
            try:
                d = reeb_graph(f, jacobi_set(f, "D"))
            except DegeneracyError:
                continue
            h = reeb_graph(f, jacobi_set(f, "H"))
            assert set(_node_keys(d).values()) <= set(_node_keys(h).values())
            assert _without_subdivisions(d) == _without_subdivisions(h)
            compared += 1
        assert compared >= 2

    def test_a_locus_vertex_where_f_is_regular_stays_a_node(self):
        # on the path a-m-b, m joins one arc below to one above: a node of
        # degree 2 when the locus holds it, contracted when it does not
        f = _scalar_map([["a", "m"], ["m", "b"]], {"a": 0, "m": 1, "b": 2})
        loci = [JacobiSet(SimplicialComplex.from_facets(vs), "H", 1)
                for vs in ([["a"], ["b"]], [["a"], ["m"], ["b"]])]
        ends, path = (reeb_graph(f, j) for j in loci)
        assert ends.edges == (("r0", "r1"),)
        assert [path.degree(n) for n in path.nodes] == [1, 2, 1]
        assert _without_subdivisions(path) == _without_subdivisions(ends)
        for j in loci:
            assert _graph(reeb_graph(f, j)) == _graph(naive_reeb_graph(f, j))


def _node_keys(rg) -> dict:
    """Each node's (value, support), which names it across notions."""
    return {n: (rg.node_value[n], rg.node_members[n]) for n in rg.nodes}


def _without_subdivisions(rg) -> tuple:
    """The graph's node keys and the multiset of its edges, each the set of
    its ends' keys, with every degree-2 node that joins two other nodes
    contracted."""
    key = _node_keys(rg)
    nodes = set(key.values())
    edges = [frozenset(map(key.get, e)) for e in rg.edges]
    for node in key.values():
        ends = [e for e in edges if node in e]
        if len(ends) == 2 and all(len(e) == 2 for e in ends):
            nodes.remove(node)
            edges = [e for e in edges if node not in e]
            edges.append(frozenset(x for e in ends for x in e if x != node))
    return nodes, Counter(edges)


def _merge_a_gap_level(f: PLMap):
    """Merge the components of the first gap between two values whose
    components lie in two different components of the value below, so the
    merged one lies in no single component there."""
    table = f.sweep.table

    def below(i):
        return {j for _, comp in table["f", i].values()
                for j, (_, c) in table["v", i - 1].items() if comp <= c}
    gap = next(("f", i) for i in range(1, len(f.sweep.values)) if len(below(i)) == 2)
    least, comps = zip(*table[gap].values())
    table[gap] = {min(table[gap]): (min(least), frozenset().union(*comps))}


SWEEP_EXAMPLES = ("torus_grid", "octahedron", "saddle_patch", "double_cone")


def _sweep_maps(rng) -> list[PLMap]:
    """Fresh maps, so every level table starts empty."""
    return ([example_map(name) for name in SWEEP_EXAMPLES]
            + [random_surface_map(rng) for _ in range(20)])


def _audit_probes(f: PLMap, samples: int = 3) -> list[Fraction]:
    """The points interval_fiber_audit samples, below, between and above
    the H-critical values."""
    crit = sorted({f.value(s[0])[0]
                   for s in jacobi_set(f).complex.simplices_of_dim(0)})
    pts = [crit[0] - 1 - i for i in range(samples)]
    for a, b in zip(crit, crit[1:]):
        pts += [a + (b - a) * Fraction(j, samples + 1)
                for j in range(1, samples + 1)]
    return pts + [crit[-1] + 1 + i for i in range(samples)]


def _scalar_maps_beyond_surfaces(rng) -> list[PLMap]:
    """Small integer values, so ties are common, on random complexes (mixed
    dimensions, tetrahedra, isolated vertices) and on the solid
    tetrahedron's complex."""
    doms = ([random_complex(rng) for _ in range(30)]
            + [example_map("solid_tetrahedron").domain] * 10)
    return [PLMap(dom, 1, {v: (F(rng.randint(-3, 3)),) for v in dom.vertices})
            for dom in doms]


def _scalar_map(facets, values) -> PLMap:
    dom = SimplicialComplex.from_facets(facets)
    return PLMap(dom, 1, {v: (F(x),) for v, x in values.items()})


def _record_sweep(monkeypatch) -> list:
    """Record each call of the sweep's `_components` as ("enter", classes)
    for the simplices entering at a vertex value, whose support holds a
    vertex, or ("split", classes) for a re-split of gap components, which
    hold none."""
    calls = []
    original = reeb._components

    def recorded(support, faces):
        classes = original(support, faces)
        kind = "enter" if any(not faces[r] for r in support) else "split"
        calls.append((kind, len(classes)))
        return classes
    monkeypatch.setattr(reeb, "_components", recorded)
    return calls


def _line_probes(f: PLMap) -> list[tuple[tuple, Fraction]]:
    """Each cell of the line cut at f's vertex values, in order along the
    line, with a point of it: the ray below every value, then each value
    and the midpoint of the gap above it, or a point of the ray above all."""
    values = sorted({f.value(v)[0] for v in f.domain.vertices})
    probes = [(("f", 0), values[0] - 1)]
    for i, t in enumerate(values):
        above = (t + values[i + 1]) / 2 if i + 1 < len(values) else t + 1
        probes += [(("v", i), t), (("f", i + 1), above)]
    return probes


def _check_every_level(f: PLMap) -> Counter:
    """Compare the sweep over every cell of the line, both rays included,
    with the rescan oracle, and count what the fill met: the largest number
    of gap components one component of the value above holds ("merged"),
    values with several vertices in one component ("tie in one") or in
    different ones ("tie apart")."""
    seen: Counter = Counter()
    probes = _line_probes(f)
    assert [cell for cell, _ in probes] == list(f.sweep.table)
    tables = {cell: f.sweep.components(cell) for cell, _ in probes}
    for cell, t in probes:
        assert tables[cell] == naive_fiber_components(f, t), (cell, t)
    for (gap, _), (cell, t) in zip(probes, probes[1:]):
        if cell[0] != "v":
            continue
        at = [v for v in f.domain.vertices if f.value(v)[0] == t]
        holders = [next(i for i, c in enumerate(tables[cell]) if (v,) in c)
                   for v in at]
        if len(set(holders)) < len(holders):
            seen["tie in one"] += 1
        if len(set(holders)) > 1:
            seen["tie apart"] += 1
        for comp in tables[cell]:
            held = sum(below <= comp for below in tables[gap])
            seen["merged"] = max(seen["merged"], held)
    return seen


class TestSweepOracle:
    """The level index against a full rescan of the complex per query."""

    def test_fibers_agree_on_levels_probes_and_outside(self, rng):
        for f in _sweep_maps(rng):
            levels = naive_sweep_levels(f)
            gaps = [(a + 2 * b) / 3 for a, b in zip(levels, levels[1:])]
            points = (levels + gaps + _audit_probes(f)
                      + [levels[0] - 1, levels[-1] + Fraction(1, 3)])
            for t in points:
                expected = naive_fiber_components(f, t)
                assert fiber_components(f, (t,)) == expected, t
                assert fiber_components(f, t) == expected, t
            assert fiber_components(f, levels[0] - 1) == ()
            assert fiber_components(f, levels[-1] + 1) == ()

    def test_fibers_agree_beyond_closed_surfaces(self, rng):
        for f in _scalar_maps_beyond_surfaces(rng):
            levels = naive_sweep_levels(f)
            gaps = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
            for t in levels + gaps:
                assert fiber_components(f, t) == naive_fiber_components(f, t), t

    @pytest.mark.parametrize("notion", ["H", "D"])
    def test_reeb_graph_agrees_beyond_closed_surfaces(self, rng, notion):
        compared = missed = 0
        for f in _scalar_maps_beyond_surfaces(rng):
            try:
                j = jacobi_set(f, notion)
            except GenericityError:
                continue
            try:
                expected = naive_reeb_graph(f, j)
            except DegeneracyError as err:
                with pytest.raises(DegeneracyError) as got:
                    reeb_graph(f, j)
                assert str(got.value) == str(err)
                missed += 1
                continue
            rg = reeb_graph(f, j)
            assert (rg.nodes, rg.node_value, rg.node_critical,
                    rg.node_members, rg.edges) == (
                expected.nodes, expected.node_value, expected.node_critical,
                expected.node_members, expected.edges)
            missed += any(not rg.node_critical[n] for n in rg.nodes)
            compared += 1
        assert compared >= 10
        # a vertex with acyclic strict lower and upper links joins one arc
        # below to one above, so every node of f's graph holds an H vertex;
        # the D locus misses some on these complexes, and a node it misses
        # is degenerate, or kept bare beside a locus vertex at its value
        assert (missed > 0) == (notion == "D")

    def test_one_query_fills_every_level_once(self, rng, monkeypatch):
        # one call at each vertex value and at most one at each gap
        calls = _record_sweep(monkeypatch)
        for f in _sweep_maps(rng)[:8]:
            del calls[:]
            n_values = len({f.value(v) for v in f.domain.vertices})
            fiber_components(f, naive_sweep_levels(f)[-1])
            filled = len(calls)
            assert 1 <= filled <= 2 * n_values - 1
            assert [k for k, _ in calls].count("enter") == n_values
            reeb_graph(f)
            fiber_components(f, naive_sweep_levels(f)[1])
            assert len(calls) == filled

    def test_torus_saddle_with_two_upper_pieces_stays_connected(self, monkeypatch):
        # the torus loop: after the second saddle the two pieces of its
        # upper star are joined around the torus, so the re-split finds one
        # class; the first saddle splits the circle in two
        calls = _record_sweep(monkeypatch)
        _check_every_level(example_map("torus_grid"))
        assert ("split", 1) in calls
        assert ("split", 2) in calls

    def test_true_split(self, monkeypatch):
        calls = _record_sweep(monkeypatch)
        f = _scalar_map([["a", "b"], ["a", "c"], ["c", "d"]],
                        {"a": 0, "b": 1, "c": 2, "d": 3})
        _check_every_level(f)
        assert calls.count(("split", 2)) == 1
        assert [k for k, _ in calls].count("split") == 1

    def test_three_gap_components_merge_at_one_vertex(self, monkeypatch):
        # a monkey saddle on a disk: the lower star of the centre meets
        # three components of the gap below
        calls = _record_sweep(monkeypatch)
        rim = [f"r{i}" for i in range(6)]
        f = _scalar_map([["c", rim[i], rim[(i + 1) % 6]] for i in range(6)],
                        {"c": 0, **{r: (-1) ** i * (i + 1) for i, r in enumerate(rim)}})
        assert _check_every_level(f)["merged"] == 3
        del calls[:]
        star = _scalar_map([["c", "a"], ["c", "b"], ["c", "d"]],
                           {"c": 1, "a": 0, "b": 0, "d": 0})
        seen = _check_every_level(star)
        assert seen["merged"] == 3 and seen["tie apart"] == 1
        # three leaves enter apart, the centre joins them, nothing splits
        assert calls == [("enter", 3), ("enter", 1)]

    def test_tied_values_in_one_component_and_in_several(self, monkeypatch):
        calls = _record_sweep(monkeypatch)
        f = _scalar_map([["x", "y", "z"], ["y", "w"], ["p", "q"], ["s"]],
                        {"x": 0, "y": 0, "p": 0, "s": 0, "z": 1, "w": 1, "q": 1})
        seen = _check_every_level(f)
        assert seen["tie in one"] == 1 and seen["tie apart"] == 2
        assert [k for k, _ in calls].count("enter") == 2

    def test_bowtie_joined_at_the_swept_vertex(self, monkeypatch):
        # two triangles sharing only v: v merges the two lower edges, and
        # above v the two upper pieces of its star are apart again
        calls = _record_sweep(monkeypatch)
        f = _scalar_map([["v", "a", "b"], ["v", "c", "d"]],
                        {"a": -1, "c": -1, "v": 0, "b": 1, "d": 1})
        seen = _check_every_level(f)
        assert seen["merged"] == 2 and seen["tie apart"] == 2
        assert ("split", 2) in calls

    def test_solid_tetrahedron(self, rng, monkeypatch):
        calls = _record_sweep(monkeypatch)
        dom = example_map("solid_tetrahedron").domain
        vs = sorted(dom.vertices)
        seen: Counter = Counter()
        for values in [range(4), [0, 1, 0, 1], [1, 0, 0, 1], [0] * 4]:
            seen += _check_every_level(PLMap(dom, 1, {v: (F(x),) for v, x in zip(vs, values)}))
        for _ in range(20):
            _check_every_level(PLMap(dom, 1, {v: (F(rng.randint(-2, 2)),) for v in vs}))
        assert seen["tie in one"] >= 3
        # the vertices above a swept vertex span one face of the opposite
        # triangle, so the rest of its star never falls apart
        assert {k for k, _ in calls} == {"enter"}

    def test_gap_components_lie_in_one_component_on_each_side(self, rng):
        for _ in range(20):
            f = random_surface_map(rng)
            levels = naive_sweep_levels(f)
            fibers = [naive_fiber_components(f, t) for t in levels]
            for li in range(1, len(levels), 2):
                for comp in fibers[li]:
                    for side in (fibers[li - 1], fibers[li + 1]):
                        assert len([c for c in side if comp <= c]) == 1
                        assert len([c for c in side if comp & c]) == 1

    @pytest.mark.parametrize("notion", ["H", "D"])
    def test_reeb_graph_agrees(self, rng, notion):
        for i, f in enumerate(_sweep_maps(rng)):
            j = jacobi_set(f, notion)
            try:
                expected = naive_reeb_graph(f, j)
            except DegeneracyError as err:
                with pytest.raises(DegeneracyError) as got:
                    reeb_graph(f, j)
                assert str(got.value) == str(err)
                continue
            # half the maps have fibers queried first, so the graph also
            # reads levels the queries filled
            if i % 2:
                fiber_components(f, naive_sweep_levels(f)[1])
            rg = reeb_graph(f, j)
            assert rg.nodes == expected.nodes
            assert rg.node_value == expected.node_value
            assert rg.node_critical == expected.node_critical
            assert rg.node_members == expected.node_members
            assert rg.edges == expected.edges

    def test_two_nodes_at_one_tied_level(self):
        # the path z-y is born first, so its component has the smaller id,
        # but at the tied maxima b and y the component of a-b comes first,
        # by its least simplex
        f = _scalar_map([["z", "y"], ["a", "b"]], {"z": 0, "a": 1, "b": 2, "y": 2})
        rg = reeb_graph(f)
        assert _graph(rg) == _graph(naive_reeb_graph(f))
        assert [rg.node_critical[n] for n in rg.nodes] == [("z",), ("a",), ("b",), ("y",)]
        assert rg.edges == (("r0", "r3"), ("r1", "r2"))

    @pytest.mark.parametrize("values", [{"a": 0, "m": 1, "b": 0},
                                        {"a": 1, "m": 0, "b": 1}])
    def test_regular_component_with_both_arcs_on_one_side(self, values):
        # a locus without the maximum (or the minimum) m of the path a-m-b:
        # m's component has both arcs below (or above), so it is a node of
        # f's graph over no critical value, never contracted silently
        f = _scalar_map([["a", "m"], ["m", "b"]], values)
        ends = JacobiSet(SimplicialComplex.from_facets([["a"], ["b"]]), "H", 1)
        message = re.escape(
            f"fiber component through {{a, m}} at value {values['m']} is a "
            "node of the Reeb graph over no critical value of the H locus") + "$"
        for graph in (reeb_graph, naive_reeb_graph):
            with pytest.raises(DegeneracyError, match=message):
                graph(f, ends)


def _graph(rg) -> tuple:
    return (rg.nodes, rg.node_value, rg.node_critical, rg.node_members, rg.edges)


def _planar_maps(rng) -> list[PLMap]:
    """The bundled two-parameter map and random integer planar images of
    the closed surfaces."""
    return [example_map("solid_tetrahedron")] + [random_planar_map(rng)
                                                 for _ in range(6)]


class TestPlanarFiberOracle:
    """Two-parameter fibers against a full rescan of the complex."""

    def test_scaffold_sample_points_agree(self, monkeypatch):
        points = []
        query = reeb.fiber_components

        def recorded(f, y):
            points.append(y)
            return query(f, y)
        monkeypatch.setattr(reeb, "fiber_components", recorded)
        f = example_map("solid_tetrahedron")
        reeb_scaffold(f)
        monkeypatch.undo()
        assert points
        for y in points:
            assert fiber_components(f, y) == naive_fiber_components(f, y), y

    def test_simplex_barycenter_images_agree(self, rng):
        for f in _planar_maps(rng):
            simplices = f.domain.sorted_simplices()
            points = [(F(100), F(100))]
            for s in rng.sample(simplices, min(40, len(simplices))):
                pts = [f.value(v) for v in s]
                points.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
            for y in points:
                assert fiber_components(f, y) == naive_fiber_components(f, y), y


def _hull_maps(rng) -> list[PLMap]:
    """Planar maps on the solid tetrahedron's complex and on random
    complexes of dimension up to 3, whose vertex images are drawn from six
    points with mixed denominators, five of them on one line, so images
    coincide and line up."""
    maps = []
    for i in range(40):
        dom = (example_map("solid_tetrahedron").domain if i % 5 == 0
               else random_complex(rng))
        pool = [(F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5))),
                 F(rng.randint(-6, 6), rng.choice((1, 4, 7))))
                for _ in range(3)]
        a, b = pool[0], pool[1]
        pool += [tuple(p + F(t, 2) * (q - p) for p, q in zip(a, b))
                 for t in (-1, 1, 3)]
        maps.append(PLMap(dom, 2, {v: rng.choice(pool) for v in dom.vertices}))
    return maps


def _hull_probes(f: PLMap) -> list[tuple]:
    """Every vertex image; each edge image's midpoint, the points 2^-40
    normals off it on both sides, and a point on its line beyond each end;
    and a far point."""
    points = sorted({f.value(v) for v in f.domain.vertices})
    eps = F(1, 2 ** 40)
    for u, v in f.domain.simplices_of_dim(1):
        a, b = f.value(u), f.value(v)
        if a == b:
            continue
        d = (b[0] - a[0], b[1] - a[1])
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        points += [mid,
                   (mid[0] - eps * d[1], mid[1] + eps * d[0]),
                   (mid[0] + eps * d[1], mid[1] - eps * d[0]),
                   (b[0] + d[0] / 3, b[1] + d[1] / 3),
                   (a[0] - d[0] / 3, a[1] - d[1] / 3)]
    return points + [(F(10 ** 6), F(-10 ** 6))]


class TestHullIndex:
    """Two-parameter fibers read off the map's integer hulls against the
    Carathéodory rescan of `helpers.naive_fiber_components`."""

    def test_fibers_agree_on_degenerate_images(self, rng):
        point_edges = flat_triangles = mixed = 0
        for f in _hull_maps(rng):
            for s in f.domain.simplices:
                pts = [f.value(v) for v in s]
                point_edges += len(s) == 2 and pts[0] == pts[1]
                flat_triangles += (len(s) == 3 and len(set(pts)) == 3
                                   and (pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1])
                                   == (pts[1][1] - pts[0][1]) * (pts[2][0] - pts[0][0]))
            mixed += len({c.denominator for p in f.values.values() for c in p}) > 2
            for y in _hull_probes(f):
                assert fiber_components(f, y) == naive_fiber_components(f, y), y
        assert point_edges and flat_triangles and mixed

    def test_built_once_per_map(self, monkeypatch):
        built = []

        class Counted(reeb.HullIndex):
            def __init__(self, f):
                built.append(f)
                super().__init__(f)
        monkeypatch.setattr(reeb, "HullIndex", Counted)
        f = example_map("solid_tetrahedron")
        sc = reeb_scaffold(f)
        assert check_stein_square(f, sc).passed
        assert stratum_fiber_audit(f, sc)[0]
        assert built == [f] and isinstance(f.hulls, Counted)

    def test_only_planar_maps(self, torus):
        with pytest.raises(StructuralError, match="two parameters"):
            reeb.HullIndex(torus)

    def test_one_support_path(self):
        assert not hasattr(reeb, "point_in_convex_hull_2d")
        assert not hasattr(reeb, "on_segment")
        assert not hasattr(reeb, "_contains_point")


def _twice_wound_disk() -> PLMap:
    """A generic disk whose boundary winds twice around the image of c: the
    two fiber components near c trade places around it."""
    return map_from_dict({
        "k": 2, "facets": [["c", f"a{i}", f"a{(i + 1) % 6}"] for i in range(6)],
        "values": {"c": ["0", "0"], "a0": ["4", "0"], "a1": ["-2", "3"],
                   "a2": ["-2", "-4"], "a3": ["2", "3"], "a4": ["-5", "0"],
                   "a5": ["1", "-5"]}})


class TestFineCellScaffold:
    """The scaffold glued from fine cells against the sampling walk, the
    Reeb graph and the Euler relation."""

    @pytest.mark.parametrize("name", ["solid_tetrahedron", "torus_grid",
                                      "octahedron"])
    def test_matches_the_sampling_walk(self, name):
        f = example_map(name)
        cs = build_codomain_stratification(f, jacobi_set(f))
        poset, cell_map = sampled_scaffold(f, cs)
        sc = reeb_scaffold(f, cs)
        assert sc.poset.elements == poset.elements
        assert sc.poset.covers == poset.covers
        assert check_stein_square(f, sc).cell_map == cell_map

    def test_fine_arrangement_euler_relation(self, rng):
        checked = 0
        for f in _planar_maps(rng):
            try:
                sc = reeb_scaffold(f)
            except GenericityError:
                continue
            checked += 1
            arr = sc.fine.arrangement
            assert arr.euler_lhs() == 1 + arr.component_count()
            assert len(sc.fine.samples) == (len(arr.vertices) + len(arr.edges)
                                            + len(arr.faces))
        assert checked

    def test_k1_contracts_to_the_reeb_graph(self, rng):
        maps = [example_map(name) for name in
                ("torus_grid", "octahedron", "saddle_patch")]
        for f in maps + [random_surface_map(rng) for _ in range(10)]:
            rg = reeb_graph(f)
            nodes, edges = _contract_non_nodes(reeb_scaffold(f), rg)
            assert sorted(nodes) == sorted(rg.nodes)
            assert edges == Counter(rg.edges)

    def test_torus_projection_finishes_and_passes(self, rng):
        f = torus_projection(rng, 3)
        sc = reeb_scaffold(f)
        assert validate_poset(sc.poset)
        assert check_stein_square(f, sc).passed
        ok, _ = stratum_fiber_audit(f, sc)
        assert ok

    def test_locus_missing_the_saddles_is_degenerate(self, torus):
        # with only the extrema cut out, the fibers over the one bounded
        # interval go from one component to two and back
        with pytest.raises(DegeneracyError):
            reeb_scaffold(torus, build_codomain_stratification(
                torus, _saddles_left_out(torus)))

    @pytest.mark.parametrize("notion", ["H", "D"])
    def test_degeneracy_names_the_sample_point(self, notion):
        f = _twice_wound_disk()
        assert check_generic(f).passed
        cs = build_codomain_stratification(f, jacobi_set(f, notion))
        with pytest.raises(DegeneracyError, match=re.escape(
                "over stratum f2 do not match those over its sample point "
                "(-3/28, -17/28) one to one: one class of them joins 2 of "
                "the 2 components there")):
            reeb_scaffold(f, cs)

    def test_vertex_on_no_edge_is_not_generic(self):
        # the fiber over the lone vertex's image has one more component
        # than the fibers around it, which no arrangement of edges sees
        dom = SimplicialComplex.from_facets([("a", "b", "c"), ("d",)])
        f = PLMap(dom, 2, {"a": (F(0), F(0)), "b": (F(6), F(0)),
                           "c": (F(0), F(6)), "d": (F(1), F(1))})
        with pytest.raises(GenericityError):
            reeb_scaffold(f)


class TestAttachments:
    """`FineCells.attachments`, the one gluing rule of the Reeb graph and the
    scaffold, against fibers rescanned at the cells' sample points."""

    def _maps(self, rng) -> list[PLMap]:
        names = ("torus_grid", "octahedron", "saddle_patch", "double_cone",
                 "solid_tetrahedron")
        return ([example_map(name) for name in names]
                + [random_surface_map(rng) for _ in range(6)]
                + [random_planar_map(rng) for _ in range(6)]
                + [torus_projection(rng, 3)])

    def test_each_higher_component_lies_in_the_named_lower_one(self, rng):
        checked = {1: 0, 2: 0}
        for f in self._maps(rng):
            try:
                fine = reeb.FineCells(f)
            except GenericityError:
                continue
            naive = {c: naive_fiber_components(f, y)
                     for c, y in fine.samples.items()}
            seen = Counter()
            for (low, j), (high, i) in fine.attachments():
                assert naive[high][i] <= naive[low][j], (low, high)
                seen[(low, high), i] += 1
            assert seen == Counter({((low, high), i): 1
                                    for low, high in fine.incidences
                                    for i in range(len(naive[high]))})
            checked[f.k] += 1
        assert checked[1] >= 8 and checked[2] >= 2

    def test_scaffold_reports_a_component_outside_one_holder_k1(self):
        f = example_map("torus_grid")
        cs = build_codomain_stratification(f, jacobi_set(f))
        _merge_a_gap_level(f)
        with pytest.raises(InternalError, match=re.escape(
                "fiber component through {v00, v01, v11} over (2503/250) does "
                "not lie in one component over (2501/250)")):
            reeb_scaffold(f, cs)

    def test_scaffold_reports_a_component_outside_one_holder_k2(self, monkeypatch):
        f = example_map("solid_tetrahedron")
        cs = build_codomain_stratification(f, jacobi_set(f))
        # drop the fiber over one arrangement vertex, which every incident
        # edge and face fiber meets
        p = reeb.edge_image_arrangement(f, f.domain).vertices[0]
        query = reeb.fiber_components

        def dropped(g, y):
            return () if y == p else query(g, y)
        monkeypatch.setattr(reeb, "fiber_components", dropped)
        shown = "(" + ", ".join(format_frac(c) for c in p) + ")"
        with pytest.raises(InternalError, match=re.escape(
                f"does not lie in one component over {shown}") + "$"):
            reeb_scaffold(f, cs)


def _saddles_left_out(torus: PLMap) -> JacobiSet:
    """A locus of the torus holding only its two extrema."""
    ends = sorted(torus.domain.vertices, key=torus.value)
    return JacobiSet(SimplicialComplex.from_facets([(ends[0],), (ends[-1],)]), "H", 1)


class TestStrataOracle:
    """`FineCells.strata`, the strata joined from the fine cells' own
    incidences, against locating every fine cell's sample point in the
    codomain (`helpers.naive_strata`)."""

    def _agree(self, f: PLMap, j: JacobiSet | None = None) -> bool:
        try:
            cs = build_codomain_stratification(f, jacobi_set(f) if j is None else j)
            fine = reeb.FineCells(f)
        except GenericityError:
            return False    # edge or locus images out of general position
        stratum, reps, rep_cell = fine.strata(cs)
        assert stratum == naive_strata(fine, cs)
        assert reps == {label: cs.sample(label) for label in sorted(cs.space.cells)}
        assert all(stratum[rep_cell[label]] == label for label in reps)
        return True

    @pytest.mark.parametrize("notion", ["H", "D"])
    def test_examples(self, notion):
        maps = [f for f in map(example_input, example_names()) if isinstance(f, PLMap)]
        assert sum(self._agree(f, jacobi_set(f, notion)) for f in maps) == len(maps)

    def test_random_maps(self, rng):
        planar = sum(self._agree(random_planar_map(rng)) for _ in range(12))
        assert planar and all(self._agree(random_surface_map(rng)) for _ in range(8))

    @pytest.mark.parametrize("seed, n", [(0, 3), (1, 3), (2, 3), (3, 3), (1, 4)])
    def test_torus_projections(self, seed, n):
        assert self._agree(torus_projection(random.Random(seed), n))

    def test_torus_with_the_saddles_left_out(self, torus):
        assert self._agree(torus, _saddles_left_out(torus))

    def test_scaffold_locates_once_per_stratum(self, tetra, monkeypatch):
        calls = []
        locate = PlanarArrangement.locate

        def counted(arr, p):
            calls.append(p)
            return locate(arr, p)

        def banned(*args, **kwargs):
            raise AssertionError("the scaffold located a point in the codomain")
        for f in (tetra, torus_projection(random.Random(0), 3)):
            cs = build_codomain_stratification(f, jacobi_set(f))
            calls.clear()
            monkeypatch.setattr(PlanarArrangement, "locate", counted)
            monkeypatch.setattr(reeb.CodomainStratification, "locate", banned)
            sc = reeb_scaffold(f, cs)
            monkeypatch.undo()
            assert len(calls) == len(cs.space.cells) == len(sc.counts)

    def test_a_foreign_codomain_is_structural(self, tetra, torus):
        moved = PLMap(tetra.domain, 2, {**tetra.values, "d": (F(-7), F(-9))})
        cs = build_codomain_stratification(moved, jacobi_set(moved))
        with pytest.raises(StructuralError, match=r"^segment \(.*\)-\(.*\) is no edge image$"):
            reeb_scaffold(tetra, cs)
        shifted = PLMap(torus.domain, 1, {v: (x + F(1, 3),) for v, (x,) in torus.values.items()})
        with pytest.raises(StructuralError, match=r"^value \S+ is no vertex value$"):
            reeb_scaffold(torus, build_codomain_stratification(shifted, jacobi_set(shifted)))
        with pytest.raises(StructuralError, match=re.escape(
                "a point of R^1 has 1 coordinates, got 2")):
            reeb_scaffold(torus, build_codomain_stratification(tetra, jacobi_set(tetra)))
        with pytest.raises(StructuralError, match=re.escape(
                "a point of R^2 has 2 coordinates, got 1")):
            reeb_scaffold(tetra, build_codomain_stratification(torus, jacobi_set(torus)))

    @pytest.mark.parametrize("name, count", [("torus_grid", 2), ("solid_tetrahedron", 0)])
    def test_a_sample_in_another_stratum_is_internal(self, name, count, monkeypatch):
        # one stratum's sample is moved to another's point, so that the
        # first class of cells holds two samples, or none
        f = example_map(name)
        cs = build_codomain_stratification(f, jacobi_set(f))
        fine = reeb.FineCells(f)
        first = naive_strata(fine, cs)[next(iter(fine.components))]
        other = next(label for label in sorted(cs.space.cells) if label != first)
        moved, to = (other, first) if count == 2 else (first, other)
        sample = reeb.CodomainStratification.sample
        monkeypatch.setattr(reeb.CodomainStratification, "sample", lambda self, label:
                            sample(self, to if label == moved else label))
        with pytest.raises(InternalError, match=(
                rf"^the fine cells through \(.*\) hold {count} samples$")):
            reeb_scaffold(f, cs)


def _contract_non_nodes(sc, rg):
    """The Hasse diagram of a one-parameter scaffold with every element
    whose component is not a Reeb node contracted: the Reeb nodes it keeps
    (matched by value and support) and the multiset of edges between them."""
    by_key = {(rg.node_value[n], rg.node_members[n]): n for n in rg.nodes}
    node, cs = {}, sc.codomain
    for e in sc.poset.elements:
        if e[0].startswith("p"):
            key = (cs.refined.points[cs.cell[e[0]][1]], sc.supports[e])
            if key in by_key:
                node[e] = by_key[key]
    adj = {e: [] for e in sc.poset.elements}
    for a, b in sc.poset.covers:
        adj[a].append(b)
        adj[b].append(a)
    walks = Counter()
    for start in node:
        for nxt in adj[start]:
            prev, cur = start, nxt
            while cur not in node:
                assert len(adj[cur]) == 2, cur
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
            walks[tuple(sorted((node[start], node[cur])))] += 1
    # each path between two nodes is walked once from either end
    assert all(c % 2 == 0 for c in walks.values())
    return list(node.values()), Counter({e: c // 2 for e, c in walks.items()})


class TestLineCover:
    """The scalar fine cells cover the whole line, as the planar ones cover
    the plane: the rays below and above every vertex value are cells with
    the empty fiber, so the cells' Euler characteristic is the line's, -1,
    and an empty domain is one cell."""

    def _maps(self, rng) -> list[PLMap]:
        bundled = [f for f in map(example_input, example_names())
                   if isinstance(f, PLMap) and f.k == 1]
        assert len(bundled) == 4
        return (bundled + [random_surface_map(rng) for _ in range(20)]
                + [PLMap(SimplicialComplex([]), 1, {})])

    def test_the_cells_have_the_euler_characteristic_of_the_line(self, rng):
        for f in self._maps(rng):
            fine = reeb.FineCells(f)
            values = {f.value(v)[0] for v in f.domain.vertices}
            # a cell whose sample is a vertex value is a point, else an interval
            assert sum(1 if y[0] in values else -1
                       for y in fine.samples.values()) == -1

    def test_past_every_value_is_a_ray_with_no_components(self, rng):
        for f in self._maps(rng):
            fine = reeb.FineCells(f)
            values = sorted({f.value(v)[0] for v in f.domain.vertices})
            lo, hi = (values[0], values[-1]) if values else (F(0), F(0))
            for d in (F(1, 3), F(1), F(1000)):
                for y, cell in ((lo - d, ("f", 0)), (hi + d, ("f", len(values)))):
                    assert fine.arrangement.locate(y) == cell
                    assert fine.components[cell] == ()
                    assert f.sweep.components(cell) == ()
                    assert fiber_components(f, y) == ()

    def test_the_cells_are_the_sweep_levels(self, rng):
        # the scalar fine cells are the cells the sweep fills, rays included
        for f in self._maps(rng):
            fine = reeb.FineCells(f)
            n = len(f.sweep.values)
            assert fine.arrangement is f.sweep.cuts
            assert set(fine.components) == set(f.sweep.table) == {
                *(("v", i) for i in range(n)), *(("f", i) for i in range(n + 1))}
            for cell, comps in fine.components.items():
                assert comps == f.sweep.components(cell)

    def test_an_empty_domain_is_one_cell(self):
        f = PLMap(SimplicialComplex([]), 1, {})
        fine = reeb.FineCells(f)
        assert fine.components == {("f", 0): ()}
        assert fine.incidences == []
        assert {fine.arrangement.locate(y) for y in (F(-5), F(0), F(7, 2))} == {("f", 0)}


def _functorial_pairs(sc) -> int:
    """Check that each component over a stratum t lies over exactly one
    component over each stratum s < t, and count the pairs checked."""
    order, strata = sc.poset, sc.codomain.space.poset
    over: dict = {}
    for s, i in order.elements:
        over.setdefault(s, []).append((s, i))
    pairs = 0
    for t, i in order.elements:
        for s in strata.elements:
            if s != t and strata.leq(s, t):
                below = [e for e in over.get(s, ()) if order.leq(e, (t, i))]
                assert len(below) == 1, ((t, i), s, below)
                pairs += 1
    return pairs


class TestScaffoldFunctoriality:
    """The scaffold is a functor on the strata: each component over t lies
    over one component over each stratum below t."""

    def test_each_component_lies_over_one_below(self, rng):
        maps = [f for f in map(example_input, example_names()) if isinstance(f, PLMap)]
        maps += [torus_projection(random.Random(seed), 3) for seed in (0, 2, 3)]
        # most random planar maps fail general position, so draw more
        maps += [random_surface_map(rng) for _ in range(3)]
        maps += [random_planar_map(rng) for _ in range(8)]
        built = pairs = 0
        for f in maps:
            try:
                sc = reeb_scaffold(f)
            except (GenericityError, DegeneracyError):
                continue
            pairs += _functorial_pairs(sc)
            built += 1
        assert built >= 12 and pairs >= 2000


class TestRevolutionTorus:
    """A torus of revolution, exact on rational circle points, under a
    height and a planar projection: the answers of the smooth torus."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_height_has_four_critical_points_and_one_cycle(self, n):
        f = revolution_torus_map(n, [(1, F(1, 97), F(1, 89))])
        assert check_generic(f).passed
        j = jacobi_set(f)
        assert [s.dim for s in j.complex.simplices] == [0] * 4
        rg = reeb_graph(f, j)
        assert (len(rg.nodes), len(rg.edges), rg.cycle_rank()) == (4, 4, 1)
        assert interval_fiber_audit(f, j).passed

    def test_projection_has_even_counts_over_the_faces(self):
        # a closed surface mapped to the plane has mod-2 degree 0
        f = revolution_torus_map(8, [(1, 0, F(1, 97)), (0, 1, F(1, 5))])
        assert check_generic(f).passed
        sc = reeb_scaffold(f, build_codomain_stratification(f, jacobi_set(f)))
        assert check_stein_square(f, sc).passed
        assert stratum_fiber_audit(f, sc)[0]
        faces = {s: n for s, n in sc.counts.items() if s.startswith("f")}
        assert faces["f_out"] == 0 and all(n % 2 == 0 for n in faces.values())


class TestIntervalAudit:
    def test_torus_interval_counts(self, torus):
        audit = interval_fiber_audit(torus, samples=4)
        assert audit.passed
        assert audit.counts == (0, 1, 2, 1, 0)
        assert len(audit.boundaries) == 4

    def test_saddle_patch_counts(self):
        audit = interval_fiber_audit(example_map("saddle_patch"))
        assert audit.passed
        assert audit.counts == (0, 1, 2, 2, 1, 0)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_needs_a_sample(self, torus, samples):
        with pytest.raises(StructuralError):
            interval_fiber_audit(torus, samples=samples)


class TestScaffold:
    def test_torus_component_poset(self, torus):
        sc = reeb_scaffold(torus)
        assert validate_poset(sc.poset)
        assert sorted(sc.counts.items()) == [
            ("i0", 0), ("i1", 1), ("i2", 2), ("i3", 1), ("i4", 0),
            ("p0", 1), ("p1", 1), ("p2", 1), ("p3", 1)]
        # the middle band contributes two parallel components
        assert (("i2", 0) in sc.poset.elements
                and ("i2", 1) in sc.poset.elements)

    def test_torus_attachments_form_the_reeb_loop(self, torus):
        sc = reeb_scaffold(torus)
        pairs = {(a[0], b[0]) for a, b in sc.poset.covers}
        assert pairs == {("p0", "i1"), ("p1", "i1"), ("p1", "i2"),
                        ("p2", "i2"), ("p2", "i3"), ("p3", "i3")}

    def test_planar_counts(self, tetra):
        sc = reeb_scaffold(tetra)
        bounded = {l for l in sc.codomain.space.poset.elements if l != "f_out"}
        assert all(sc.counts[l] == 1 for l in bounded)
        assert sc.counts["f_out"] == 0


class TestSteinSquare:
    def test_holds_on_goldens(self, torus, tetra):
        for f in (example_map("octahedron"), torus, tetra):
            rep = check_stein_square(f)
            assert rep.passed, rep.notes
            assert rep.continuous and rep.commutes
            doc = stein_to_dict(rep)
            assert doc["projection_monotone"] and doc["projection_surjective"]
            assert rep.notes == ()

    def test_cell_map_covers_domain(self, torus):
        rep = check_stein_square(torus)
        assert set(rep.cell_map) == set(torus.domain.simplices)

    def test_corrupted_scaffold_fails(self, torus):
        from plstrat.posets import Poset
        sc = reeb_scaffold(torus)
        bad_poset = Poset(sc.poset.elements,
                          list(sc.poset.covers) + [(("p0", 0), ("i2", 0))])
        bad = dataclasses.replace(sc, poset=bad_poset)
        rep = check_stein_square(torus, scaffold=bad)
        assert not rep.passed
        assert not rep.continuous
        doc = stein_to_dict(rep)
        assert not doc["passed"]
        assert not doc["projection_monotone"] and not doc["projection_surjective"]
        assert rep.notes == (
            "forgetting the component index is not a stratified map",
            "projection onto occupied strata is not monotone")

    def test_a_cell_in_the_wrong_stratum_does_not_commute(self, tetra):
        # the components over the cell of a barycenter are moved, indices
        # kept, to a stratum that does not hold the barycenter
        sc = reeb_scaffold(tetra)
        s = tetra.domain.sorted_simplices()[0]
        y = tetra.barycenter_image(s)
        cell, right = sc.fine.arrangement.locate(y), sc.codomain.locate(y)
        wrong = next(label for label in sorted(sc.codomain.space.cells) if label != right)
        moved = {**sc.cell_elements,
                 cell: tuple((wrong, i) for _, i in sc.cell_elements[cell])}
        rep = check_stein_square(tetra, dataclasses.replace(sc, cell_elements=moved))
        assert rep.continuous and not rep.commutes and not rep.passed
        assert rep.cell_map[s][0] == wrong
        assert f"composite sends {s!r} to {wrong!r}, not {right!r}" in rep.notes
        assert not stein_to_dict(rep)["passed"]


class TestStratumAudit:
    def test_constant_counts_on_goldens(self, torus, tetra):
        for f in (example_map("octahedron"), torus, tetra,
                  example_map("saddle_patch")):
            ok, results = stratum_fiber_audit(f, samples=5)
            assert ok
            for counts in results.values():
                assert len(set(counts)) == 1

    def test_without_a_scaffold_reads_the_cells_of_the_h_scaffold(
            self, torus, tetra, monkeypatch):
        # the fine cells and their strata are built once, by the helper the
        # scaffold uses, and give the H scaffold's counts
        expected = [stratum_fiber_audit(f, reeb_scaffold(f)) for f in (tetra, torus)]
        built = []
        strata = reeb.FineCells.strata

        def recorded(fine, cs):
            built.append((fine, cs, strata(fine, cs)))
            return built[-1][2]
        monkeypatch.setattr(reeb.FineCells, "strata", recorded)
        assert [stratum_fiber_audit(f) for f in (tetra, torus)] == expected
        assert len(built) == 2
        for fine, cs, (stratum, _, _) in built:
            assert stratum == naive_strata(fine, cs)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_needs_a_sample(self, tetra, samples):
        with pytest.raises(StructuralError):
            stratum_fiber_audit(tetra, samples=samples)

    @pytest.mark.parametrize("samples", [3, 5])
    def test_a_constant_count_is_repeated_samples_times(self, tetra, torus, samples):
        for f in (tetra, torus):
            sc = reeb_scaffold(f)
            ok, results = stratum_fiber_audit(f, sc, samples=samples)
            assert ok
            for label, counts in results.items():
                n = 1 if label[0] in "pv" else samples
                assert counts == (sc.counts[label],) * n, label


def _passed(audit) -> bool:
    """The verdict of an interval audit or of a stratum audit's pair."""
    return audit.passed if isinstance(audit, reeb.FiberAudit) else audit[0]


def _agree(exact, sampled) -> bool:
    """Where the exact audit passes, the sampled one passes with the same
    results; where the sampled one fails, the exact one fails.  Returns
    whether the exact one passes."""
    if _passed(exact):
        assert sampled == exact
    if not _passed(sampled):
        assert not _passed(exact)
    return _passed(exact)


def _compare_audits(f: PLMap, j: JacobiSet | None = None, samples: int = 3) -> Counter:
    """Both audits of f under the locus j against the sampled oracles: the
    interval audit for one parameter, the stratum audit with a scaffold
    over the codomain of j when it builds and, when j is None (the H
    locus), without one too.  Counts the exact audits that pass and fail."""
    seen: Counter = Counter()
    if f.k == 1:
        seen[_agree(interval_fiber_audit(f, j, samples),
                    sampled_interval_audit(f, j, samples))] += 1
    scaffolds = [None] if j is None else []
    try:
        scaffolds.append(reeb_scaffold(
            f, None if j is None else build_codomain_stratification(f, j)))
    except DegeneracyError:
        pass
    for sc in scaffolds:
        seen[_agree(stratum_fiber_audit(f, sc, samples),
                    sampled_stratum_audit(f, sc, samples))] += 1
    return seen


class TestExactAudit:
    """The audits read off the fine cells against the sampled oracles, the
    inputs on which sampling misses a count the cells hold, and the
    queries the audits no longer make."""

    @pytest.mark.parametrize("notion", ["H", "D", "L"])
    def test_examples_agree_with_sampling(self, notion):
        seen: Counter = Counter()
        for name in ("double_cone", "octahedron", "saddle_patch",
                     "solid_tetrahedron", "torus_grid"):
            f = example_map(name)
            try:
                j = jacobi_set(f, notion)
            except StructuralError:
                continue    # L on saddle_patch and solid_tetrahedron
            seen += _compare_audits(f, j, samples=5)
        assert seen[True]

    def test_random_maps_agree_with_sampling(self, rng):
        seen: Counter = Counter()
        for _ in range(60):
            f = random_surface_map(rng)
            seen += _compare_audits(f) + _compare_audits(f, jacobi_set(f, "D"))
        planar = 0
        for _ in range(30):
            try:
                seen += _compare_audits(random_planar_map(rng))
            except GenericityError:
                continue    # edge images out of general position
            planar += 1
        assert seen[True] and planar

    @pytest.mark.parametrize("seed", range(4))
    def test_torus_projections_agree_with_sampling(self, seed):
        assert _compare_audits(torus_projection(random.Random(seed), 3))

    def test_torus_grid_under_d(self, torus):
        # the D locus holds only the extrema: sampling sees 2 components at
        # its three points of i1, the levels next to either extremum hold 1
        j = jacobi_set(torus, "D")
        assert sampled_interval_audit(torus, j).passed
        audit = interval_fiber_audit(torus, j)
        assert not audit.passed
        assert audit.detail == ((0, 0, 0), (1, 2), (0, 0, 0))

    def test_branch_point_of_a_torus_projection(self):
        # the seed-1 map of `test_torus_projection_finishes_and_passes`:
        # its branch vertex lies over f5, where the count goes from 5 to 6
        f = torus_projection(random.Random("1:test_torus_projection_finishes_and_passes"), 3)
        assert sampled_stratum_audit(f)[0]
        ok, results = stratum_fiber_audit(f)
        assert not ok and results["f5"] == (5, 6)

    def test_twice_wound_disk(self):
        f = _twice_wound_disk()
        assert sampled_stratum_audit(f)[0]
        ok, results = stratum_fiber_audit(f)
        assert not ok and results["f2"] == (1, 2)

    def test_reads_the_cells_without_a_query(self, torus, tetra, monkeypatch):
        scaffolds = [reeb_scaffold(f) for f in (torus, tetra)]
        expected = [stratum_fiber_audit(f, sc) for f, sc in zip((torus, tetra), scaffolds)]

        def banned(*args, **kwargs):
            raise AssertionError("the audit made a point query")
        monkeypatch.setattr(reeb, "fiber_components", banned)
        monkeypatch.setattr(reeb.CodomainStratification, "locate", banned)
        monkeypatch.setattr(reeb.LineCuts, "locate", banned)
        monkeypatch.setattr(PlanarArrangement, "locate", banned)
        monkeypatch.setattr(PlanarArrangement, "face_interior_samples", banned)
        assert [stratum_fiber_audit(f, sc) for f, sc in
                zip((torus, tetra), scaffolds)] == expected

    @pytest.mark.parametrize("samples", [1, 5])
    def test_interval_audit_queries_once_per_interval(self, rng, samples,
                                                      monkeypatch):
        calls = []
        query = reeb.fiber_components

        def counted(f, y):
            calls.append(y)
            return query(f, y)
        monkeypatch.setattr(reeb, "fiber_components", counted)
        for f in [example_map("torus_grid")] + [random_surface_map(rng) for _ in range(5)]:
            calls.clear()
            audit = interval_fiber_audit(f, samples=samples)
            assert len(calls) == len(audit.boundaries) + 1
