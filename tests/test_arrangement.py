"""Planar arrangements, image refinement and the two codomain stratifiers."""
import dataclasses
import json
import os
import random
import re
import sys
from fractions import Fraction

import pytest

from helpers import (_stratum_samples, naive_arrangement, naive_face_samples,
                     naive_incidences, naive_locate, naive_multiplicities,
                     random_planar_map, random_segments, random_surface_map,
                     segments_as_map, torus_projection)
from plstrat import (DegeneracyError, GenericityError, InputError, JacobiSet,
                     LineCuts, PLMap, PlanarArrangement, SimplicialComplex,
                     SingularLocus,
                     StructuralError, build_codomain_stratification,
                     check_generic, coarseness_check, containment_comparable,
                     jacobi_set, refine_image, render_svg,
                     stratification_from_refined, stratify_singular_locus,
                     stratum_dimension, validate_poset)
from plstrat.arrangement import _homogeneous, _on_edge, edge_image_arrangement
from plstrat.cli import main
from plstrat.geometry import on_segment, vadd, vscale, vsub
from plstrat.io import (canonical_dumps, codomain_to_dict, example_input,
                        example_locus, example_map, example_names,
                        locus_stratification_to_dict, map_from_dict)

F = Fraction


def seg(ax, ay, bx, by):
    return ((F(ax), F(ay)), (F(bx), F(by)))


CROSS = [seg(-1, 0, 1, 0), seg(0, -1, 0, 1)]


class TestPlanarArrangement:
    def test_single_crossing_counts(self):
        arr = PlanarArrangement(CROSS)
        assert len(arr.vertices) == 5
        assert len(arr.edges) == 4
        assert arr.crossing_points == {(F(0), F(0))}

    def test_crossing_splits_preserve_sources(self):
        arr = PlanarArrangement(CROSS)
        assert sorted(arr.edge_source) == [0, 0, 1, 1]

    def test_no_crossing_keeps_segments(self):
        arr = PlanarArrangement([seg(0, 0, 1, 0), seg(0, 1, 1, 1)])
        assert len(arr.vertices) == 4
        assert len(arr.edges) == 2
        assert arr.component_count() == 2
        assert arr.euler_lhs() == 1 + 2

    def test_triple_point_rejected(self):
        with pytest.raises(GenericityError):
            PlanarArrangement(CROSS + [seg(-1, -1, 1, 1)])

    def test_collinear_overlap_rejected(self):
        with pytest.raises(GenericityError):
            PlanarArrangement([seg(0, 0, 2, 0), seg(1, 0, 3, 0)])

    def test_t_junction_rejected(self):
        with pytest.raises(GenericityError):
            PlanarArrangement([seg(-1, 0, 1, 0), seg(0, 0, 0, 1)])

    def test_duplicate_segment_rejected(self):
        with pytest.raises(GenericityError):
            PlanarArrangement([seg(0, 0, 1, 0), seg(1, 0, 0, 0)])

    def test_connected_euler_formula(self):
        arr = PlanarArrangement(CROSS)
        assert arr.component_count() == 1
        assert arr.euler_lhs() == 2

    def test_locate_all_cell_kinds(self):
        arr = PlanarArrangement(CROSS)
        assert arr.locate((F(0), F(0)))[0] == "v"
        assert arr.locate((F(1, 2), F(0)))[0] == "e"
        kind, idx = arr.locate((F(100), F(100)))
        assert kind == "f" and not arr.faces[idx].bounded

    @pytest.mark.parametrize("p", [(1,), (1, 0, 5)])
    def test_locate_needs_a_pair(self, p):
        arr = PlanarArrangement([seg(0, 0, 2, 0), seg(1, -1, 1, 1)])
        with pytest.raises(StructuralError,
                           match=rf"a point of R\^2 has 2 coordinates, got {len(p)}: "):
            arr.locate(p)

    def test_face_interior_samples_stay_inside(self):
        square = [seg(0, 0, 2, 1), seg(2, 1, 1, 3), seg(1, 3, -1, 2),
                  seg(-1, 2, 0, 0)]
        arr = PlanarArrangement(square)
        bounded = [f for f in arr.faces if f.bounded]
        assert len(bounded) == 1
        for p in arr.face_interior_samples(bounded[0].index, 4):
            assert arr.locate(p) == ("f", bounded[0].index)

    @pytest.mark.parametrize("n", [1, 3])
    def test_face_interior_samples_of_a_thin_face(self, n):
        # 2^-70 high: the offset off the edge is halved past any fixed cap
        a, b, c = (F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1, 2 ** 70))
        arr = PlanarArrangement([(a, b), (b, c), (c, a)])
        assert arr.faces[0].bounded
        points = arr.face_interior_samples(0, n)
        assert len(set(points)) == n
        assert all(arr.locate(p) == ("f", 0) for p in points)

    def test_random_connected_arrangements(self, rng):
        for _ in range(5):
            _, arr = random_segments(rng, max_segments=8)
            assert arr.euler_lhs() == 2
            for p in arr.crossing_points:
                assert arr.locate(p)[0] == "v"


def _edge_segments(f, k):
    """The segments `edge_image_arrangement(f, k)` is built from."""
    return [(f.value(a), f.value(b)) for a, b in k.simplices_of_dim(1)]


def _benchmark_torus_maps():
    """The 12 planar 6x6 torus maps of the torus_k2 benchmark workload at
    seeds 1 and 2, from its own generator."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    import gen
    maps = []
    for seed in (1, 2):
        rngs = [gen.map_rng(seed, "torus_k2", i)
                for i in range(gen.MAPS_PER_WORKLOAD)]
        docs = gen.torus_projections(
            gen.TORUS_K2_SIZE, rngs,
            lambda doc: check_generic(map_from_dict(doc)).passed)
        maps += [map_from_dict(doc) for doc in docs]
    return maps


def _grid_segments(rng, n):
    """Segments between points of a 5 x 5 grid: shared endpoints,
    collinear overlaps, T-junctions and triple points are all common."""
    segs = []
    while len(segs) < n:
        p = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        q = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        if p != q:
            segs.append((p, q))
    return segs


def assert_matches_oracle(segs, most=32) -> bool:
    """The integer kernel and the `Fraction` oracle build the same
    arrangement and locate the same cells at the `_locate_probes(arr,
    most)`, or both reject the segments with the same error class.  True
    when the segments were accepted."""
    try:
        arr = PlanarArrangement(segs)
    except Exception as exc:
        with pytest.raises(type(exc)):
            naive_arrangement(segs)
        return False
    ref = naive_arrangement(segs)
    assert arr.vertices == ref.vertices
    assert arr.vertex_id == ref.vertex_id
    assert arr.crossing_points == ref.crossing_points
    assert arr.edges == ref.edges
    assert arr.edge_source == ref.edge_source
    assert arr.faces == ref.faces
    assert arr.incidences() == naive_incidences(ref)
    # Fraction is the only type that leaves the arrangement
    assert all(type(c) is Fraction for p in arr.vertices for c in p)
    assert all(type(c) is Fraction for p in arr.crossing_points for c in p)
    assert all(type(face.area2) is Fraction for face in arr.faces)
    for p in _locate_probes(arr, most):
        assert arr.locate(p) == naive_locate(ref, p), p
    return True


def _locate_probes(arr, most):
    """Every vertex; the midpoints of edges and the points 2**-40 normals
    off them on either side; three interior samples of faces; a far point.
    Edges and faces are taken at an even stride, at most `most` of each, so
    that the `Fraction` oracle stays quick on large arrangements."""
    probes = list(arr.vertices)
    for u, v in _spread(arr.edges, most):
        a, b = arr.vertices[u], arr.vertices[v]
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        off = ((a[1] - b[1]) / 2 ** 40, (b[0] - a[0]) / 2 ** 40)
        probes += [mid, vadd(mid, off), vsub(mid, off)]
    for face in _spread(arr.faces, most):
        probes += arr.face_interior_samples(face.index, 3)
    x0, y0, x1, y1 = arr.bounding_box()
    return probes + [(x1 + 1, y0 - 1)]


def _spread(items, most):
    return items[::max(1, -(-len(items) // most))]


class TestIntegerKernel:
    def test_random_segments_match_the_oracle(self, rng):
        for _ in range(20):
            segs, _ = random_segments(rng)
            assert assert_matches_oracle(segs)

    def test_grid_segments_match_the_oracle(self, rng):
        accepted = 0
        for n in [2] * 150 + [3] * 150 + [5] * 100:
            accepted += assert_matches_oracle(_grid_segments(rng, n))
        assert 0 < accepted < 400
        # chords through the origin: triple points and overlaps
        for _ in range(30):
            star = [(p, (-p[0], -p[1])) for p, _ in _grid_segments(rng, 3)]
            assert not assert_matches_oracle(star)

    def test_nested_components_match_the_oracle(self, rng):
        # a copy shrunk 200 times dropped at a random point usually lands
        # inside one face of the other: a hole, found by the inside test
        holes = 0
        for _ in range(20):
            outer, _ = random_segments(rng, max_segments=6)
            inner, _ = random_segments(rng, max_segments=4)
            at = (F(rng.randint(-190, 190), 10), F(rng.randint(-190, 190), 10))
            inner = [tuple((at[0] + x / 200, at[1] + y / 200) for x, y in s)
                     for s in inner]
            if assert_matches_oracle(outer + inner):
                arr = PlanarArrangement(outer + inner)
                holes += sum(len(f.cycles) - 1 for f in arr.faces if f.bounded)
        assert holes

    def test_nested_rings_match_the_oracle(self):
        # the random holes above are mostly trees, whose walks no ray
        # crosses an odd number of times; a ring inside a ring has faces
        # inside each hole, with larger indices than the face around it
        rings = [e for s in (9, 3, 1)
                 for e in (seg(-s, -s, s, -s), seg(s, -s, 0, s), seg(0, s, -s, -s))]
        assert assert_matches_oracle(rings)
        assert [len(f.cycles) for f in PlanarArrangement(rings).faces] == [2, 2, 1, 1]

    def test_random_planar_maps_match_the_oracle(self, rng):
        accepted = 0
        for _ in range(30):
            f = random_planar_map(rng)
            accepted += assert_matches_oracle(_edge_segments(f, f.domain))
        assert 0 < accepted < 30

    @pytest.mark.parametrize("n", [3, 4])
    def test_torus_projections_match_the_oracle(self, rng, n):
        f = torus_projection(rng, n)
        assert assert_matches_oracle(_edge_segments(f, f.domain))

    def test_benchmark_torus_loci_match_the_oracle(self):
        maps = _benchmark_torus_maps()
        assert len(maps) == 12
        for f in maps:
            assert assert_matches_oracle(_edge_segments(f, jacobi_set(f).complex),
                                         most=8)

    def test_mixed_large_and_negative_denominators(self, rng):
        # a shear and translation with denominators beyond 2**64, some of
        # the inputs negative, keeps the combinatorics and scatters the
        # denominators of every coordinate
        big = 2 ** 67 + 9
        for _ in range(6):
            segs, _ = random_segments(rng, max_segments=8)
            sx = F(rng.randint(1, 2 ** 70), big)
            sy = F(rng.randint(1, 9), -rng.randint(2, 50))
            k = F(rng.randint(-99, 99), 2 ** 65 + rng.randint(1, 99))
            tx = F(-rng.randint(1, 2 ** 80), rng.randint(2, 2 ** 66))
            ty = F(rng.randint(1, 99), -(3 ** 41))

            def move(p):
                return (p[0] * sx + tx, p[1] * sy + p[0] * k + ty)
            moved = [(move(a), move(b)) for a, b in segs]
            assert assert_matches_oracle(moved)
        mixed = [((F(-1, 3), F(5, 7)), (F(2, 11), F(-9, 13))),
                 ((F(1, -5), F(-2, 9)), (F(7, 17), F(3, 4))),
                 ((F(-3), F(2 ** 70, 3 ** 50)), (F(5, 2 ** 66), F(-1, 2 ** 65)))]
        assert assert_matches_oracle(mixed)

    def test_positive_rescaling_keeps_the_combinatorics(self, rng):
        for c in (F(7), F(3, 2 ** 70), F(2 ** 80 + 1, 3 ** 45)):
            segs, arr = random_segments(rng, max_segments=8)
            scaled = PlanarArrangement(
                [tuple((x * c, y * c) for x, y in s) for s in segs])
            assert scaled.edges == arr.edges
            assert scaled.edge_source == arr.edge_source
            assert [(f.index, f.bounded, f.cycles) for f in scaled.faces] == \
                [(f.index, f.bounded, f.cycles) for f in arr.faces]
            assert [f.area2 for f in scaled.faces] == \
                [f.area2 * c * c for f in arr.faces]
            assert scaled.incidences() == arr.incidences()
            assert scaled.vertices == [(x * c, y * c) for x, y in arr.vertices]

    @pytest.mark.parametrize("segs", [
        [((0, 0), (0, 0))],
        [seg(-1, 0, 1, 0), ((F(1, 3), 2), ("1/3", F(2)))],
        [((F(2 ** 70, 3), 1), (F(2 ** 70, 3), 1)), seg(0, 0, 1, 1)],
    ])
    def test_zero_length_segment_rejected(self, segs):
        with pytest.raises(StructuralError):
            PlanarArrangement(segs)


def _sampler_arrangements(rng) -> list:
    """The fine and coarse arrangements of `solid_tetrahedron`, the general
    position draws among 30 random planar maps, and the seed 0-3 3x3 and
    seed-1 4x4 torus projections."""
    tetra = example_map("solid_tetrahedron")
    arrs = [edge_image_arrangement(tetra, tetra.domain),
            build_codomain_stratification(tetra, jacobi_set(tetra)).refined.arrangement]
    for _ in range(30):
        f = random_planar_map(rng)
        try:
            arrs.append(edge_image_arrangement(f, f.domain))
        except (GenericityError, StructuralError):
            pass
    for seed, n in [(0, 3), (1, 3), (2, 3), (3, 3), (1, 4)]:
        f = torus_projection(random.Random(seed), n)
        arrs.append(edge_image_arrangement(f, f.domain))
    return arrs


class TestSamplerOracle:
    def test_samples_match_the_located_halving(self, rng):
        arrs = _sampler_arrangements(rng)
        assert len(arrs) > 8
        for arr in arrs:
            for face in arr.faces:
                for n in (1, 3):
                    assert arr.face_interior_samples(face.index, n) == \
                        naive_face_samples(arr, face.index, n), (face.index, n)

    def test_samples_never_locate(self, rng, monkeypatch):
        arrs = _sampler_arrangements(rng)[:8]
        want = [[arr.face_interior_samples(face.index, 3) for face in arr.faces]
                for arr in arrs]

        def no_locate(self, p):
            raise AssertionError("face_interior_samples called locate")
        monkeypatch.setattr(PlanarArrangement, "locate", no_locate)
        assert [[arr.face_interior_samples(face.index, 3) for face in arr.faces]
                for arr in arrs] == want

    def test_on_edge_against_on_segment(self, rng):
        arrs = _sampler_arrangements(rng)
        for arr in arrs[:2] + arrs[-2:]:
            pts = arr.vertices
            for p in _locate_probes(arr, 32):
                q = _homogeneous(p, arr._scale)
                want = next((i for i, (u, v) in enumerate(arr.edges)
                             if on_segment(p, pts[u], pts[v], closed=True)), None)
                assert _on_edge(q, arr._hom, arr.edges) == want, p
                # a face's own walk, as the sampler passes it
                for face in _spread(arr.faces, 4):
                    walk = [h for c in face.cycles for h in c]
                    want = next((i for i, (u, v) in enumerate(walk)
                                 if on_segment(p, pts[u], pts[v], closed=True)), None)
                    assert _on_edge(q, arr._hom, walk) == want, p


class TestGenericityMessages:
    """Points are written as the input's values, segments by their two
    endpoints."""

    def test_overlap_names_both_segments(self):
        # a partial overlap, and segments that share a whole sub-segment:
        # an identical pair, a reversed one and a segment inside the other
        for a, b in (((0, 0, 2, 0), (1, 0, 3, 0)), ((0, 0, 4, 0), (0, 0, 4, 0)),
                     ((0, 0, 4, 0), (4, 0, 0, 0)), ((0, 0, 4, 0), (1, 0, 2, 0))):
            shown = [f"({ax}, {ay})-({bx}, {by})" for ax, ay, bx, by in (a, b)]
            with pytest.raises(GenericityError, match=re.escape(
                    f"segments {shown[0]} and {shown[1]} overlap along a line")):
                PlanarArrangement([seg(*a), seg(*b)])

    def test_endpoint_interior_names_point_and_segments(self):
        with pytest.raises(GenericityError, match=re.escape(
                "endpoint (1/2, 0) of segment (1/2, 0)-(1/2, 1) lies interior "
                "to segment (-1, 0)-(1, 0)")):
            PlanarArrangement([seg(-1, 0, 1, 0), seg(F(1, 2), 0, F(1, 2), 1)])

    def test_triple_point_names_point_and_segments(self):
        with pytest.raises(GenericityError, match=re.escape(
                "three or more segments meet at (0, 0): (-1, 0)-(1, 0), "
                "(0, -1)-(0, 1) and (-1, -1)-(1, 1)")):
            PlanarArrangement(CROSS + [seg(-1, -1, 1, 1)])

    def test_contour_t_junction_exits_2_with_the_message(self, tmp_path, capsys):
        path = tmp_path / "contour.json"
        path.write_text(json.dumps({"strands": [[["-2", "0"], ["2", "1"]],
                                                [["0", "1/2"], ["1", "3"]]]}))
        assert main(["morse2-locus", str(path)]) == 2
        assert ("endpoint (0, 1/2) of segment (0, 1/2)-(1, 3) lies interior "
                "to segment (-2, 0)-(2, 1)") in capsys.readouterr().err


class TestRefineImage:
    def test_interval_critical_values_sorted(self):
        torus = example_map("torus_grid")
        r = refine_image(torus, jacobi_set(torus))
        assert list(r.points) == sorted(r.points)
        assert len(r.points) == 4
        assert all(m == 1 for m in r.multiplicities)
        assert containment_comparable(r)

    def test_projection_circle_unchanged(self):
        tetra = example_map("solid_tetrahedron")
        r = refine_image(tetra, jacobi_set(tetra))
        assert len(r.arrangement.vertices) == 4
        assert len(r.arrangement.edges) == 4
        assert not r.arrangement.crossing_points
        assert containment_comparable(r)

    def test_crossing_multiplicity_two(self):
        f, j = segments_as_map(CROSS)
        r = refine_image(f, j)
        for p, m in zip(r.points, r.multiplicities):
            if p in r.arrangement.crossing_points:
                assert m == 2
        assert (F(0), F(0)) in r.arrangement.crossing_points
        assert containment_comparable(r)

    def test_shared_endpoint_rejected(self):
        f, j = segments_as_map([seg(0, 0, 1, 1), seg(0, 0, 1, -1)])
        with pytest.raises(GenericityError):
            refine_image(f, j)

    def test_locus_vertex_on_no_edge_rejected(self):
        # a lone locus vertex at the crossing would add a third preimage
        # point that no arrangement vertex records
        dom = SimplicialComplex.from_facets([(0, 1), (2, 3), (4,)])
        values = {4: (F(0), F(0))}
        for i, (a, b) in enumerate(CROSS):
            values[2 * i], values[2 * i + 1] = a, b
        f = PLMap(dom, 2, values)
        with pytest.raises(GenericityError):
            refine_image(f, JacobiSet(dom, "H", 2))

    def test_random_sets_obey_crossing_lemma(self, rng):
        for _ in range(5):
            segs, _ = random_segments(rng, max_segments=8)
            f, j = segments_as_map(segs)
            r = refine_image(f, j)
            assert containment_comparable(r)
            for p, m in zip(r.points, r.multiplicities):
                if p in r.arrangement.crossing_points:
                    assert m == 2

    def test_multiplicities_match_a_full_scan(self, rng):
        maps = [example_map("solid_tetrahedron"), torus_projection(rng)]
        maps += [random_planar_map(rng) for _ in range(8)]
        compared = crossings = 0
        for f in maps:
            try:
                j = jacobi_set(f)
                r = refine_image(f, j)
            except GenericityError:
                continue
            assert r.multiplicities == naive_multiplicities(f, j, r.points)
            compared += 1
            crossings += len(r.arrangement.crossing_points)
        assert compared > 2 and crossings

    def test_multiplicities_read_off_the_crossing_ids(self, rng):
        maps = [segments_as_map(random_segments(rng)[0]) for _ in range(4)]
        maps += [(f, jacobi_set(f)) for f in (torus_projection(rng, 3) for _ in range(2))]
        for f, j in maps:
            r = refine_image(f, j)
            crossings = r.arrangement.crossing_points
            assert r.multiplicities == tuple(2 if p in crossings else 1
                                             for p in r.arrangement.vertices)


class TestCodomainStratification:
    def test_interval_strata_and_order(self):
        torus = example_map("torus_grid")
        cs = build_codomain_stratification(torus, jacobi_set(torus))
        p = cs.space.poset
        assert len(p) == 9
        assert validate_poset(p)
        # each critical value sits below exactly its two flanking intervals
        for i in range(4):
            above = p.up_set(f"p{i}") - {f"p{i}"}
            assert above == {f"i{i}", f"i{i + 1}"}

    def test_projection_ten_strata(self):
        tetra = example_map("solid_tetrahedron")
        cs = build_codomain_stratification(tetra, jacobi_set(tetra))
        labels = set(cs.space.poset.elements)
        assert len(labels) == 10
        assert {l for l in labels if l.startswith("v")} == {"v0", "v1", "v2", "v3"}
        assert {l for l in labels if l.startswith("e")} == {"e0", "e1", "e2", "e3"}
        assert {l for l in labels if l.startswith("f")} == {"f0", "f_out"}

    def test_locate_examples(self):
        tetra = example_map("solid_tetrahedron")
        cs = build_codomain_stratification(tetra, jacobi_set(tetra))
        v0 = cs.refined.arrangement.vertices[0]
        assert cs.locate(v0) == "v0"
        assert cs.locate((F(1000), F(1000))) == "f_out"
        xs = [p[0] for p in cs.refined.arrangement.vertices]
        ys = [p[1] for p in cs.refined.arrangement.vertices]
        centroid = (sum(xs) / 4, sum(ys) / 4)
        assert cs.locate(centroid) == "f0"

    def test_interval_locate(self):
        torus = example_map("torus_grid")
        cs = build_codomain_stratification(torus, jacobi_set(torus))
        lo = cs.refined.points[0]
        assert cs.locate((lo,)) == "p0"
        assert cs.locate((lo - 5,)) == "i0"
        assert cs.locate((cs.refined.points[-1] + 5,)) == "i4"

    def test_interval_locate_needs_one_coordinate(self):
        torus = example_map("torus_grid")
        cs = build_codomain_stratification(torus, jacobi_set(torus))
        lo = cs.refined.points[0]
        assert cs.locate(lo) == "p0"
        for p in ((lo, 99), (), [lo, lo]):
            with pytest.raises(StructuralError,
                               match=rf"a point of R\^1 has 1 coordinates, got {len(p)}: "):
                cs.locate(p)

    def test_empty_image_single_stratum(self):
        from plstrat import RefinedImage
        r = RefinedImage(k=1, points=(), multiplicities=(), arrangement=None)
        cs = stratification_from_refined(r)
        assert set(cs.space.poset.elements) == {"i0"}

    def test_stratum_dimension_prefixes(self):
        assert stratum_dimension("p3") == 0
        assert stratum_dimension("v0") == 0
        assert stratum_dimension("z12") == 0
        assert stratum_dimension("i1") == 1
        assert stratum_dimension("e7") == 1
        assert stratum_dimension("c0") == 1
        assert stratum_dimension("f0") == 2
        assert stratum_dimension("f_out") == 2


def _naive_line_cell(values, t) -> tuple:
    """The cell of the line cut at `values` holding t, by a scan."""
    if t in values:
        return ("v", values.index(t))
    return ("f", sum(x < t for x in values))


class TestLineCuts:
    """The line cut at values, against a scan of the values."""

    def _value_sets(self, rng) -> list:
        sets = []
        for n in [0, 1] + [rng.randint(0, 12) for _ in range(30)]:
            d = rng.randint(1, 3)
            sets.append(sorted(F(x, d) for x in rng.sample(range(-40, 40), n)))
        return sets

    def test_locate_against_a_scan(self, rng):
        for values in self._value_sets(rng):
            cuts = LineCuts(values)
            probes = [F(rng.randint(-100, 100), rng.randint(1, 6)) for _ in range(20)]
            for x in values:
                probes += [x, x - F(1, 7), x + F(1, 7)]
            for t in probes:
                assert cuts.locate(t) == cuts.locate((t,)) == _naive_line_cell(values, t)

    def test_each_sample_lies_in_its_cell(self, rng):
        for values in self._value_sets(rng):
            cuts = LineCuts(values)
            n = len(values)
            assert cuts.cells() == ([("v", i) for i in range(n)]
                                    + [("f", i) for i in range(n + 1)])
            for c in cuts.cells():
                assert cuts.locate(cuts.sample(c)) == c
                assert _naive_line_cell(values, cuts.sample(c)[0]) == c

    def test_each_value_lies_below_the_cells_on_either_side(self, rng):
        for values in self._value_sets(rng):
            cuts = LineCuts(values)
            # less than half of every gap, so x - eps and x + eps flank x only
            eps = min((b - a for a, b in zip(values, values[1:])), default=F(2)) / 3
            pairs = sorted((("v", i), _naive_line_cell(values, x + d))
                           for i, x in enumerate(values) for d in (-eps, eps))
            assert sorted(cuts.incidences()) == pairs

    def test_no_cuts_leave_one_face(self):
        cuts = LineCuts([])
        assert cuts.cells() == [("f", 0)]
        assert cuts.incidences() == []
        assert cuts.sample(("f", 0)) == (F(0),)
        assert {cuts.locate(t) for t in (F(-5), F(0), F(7, 2))} == {("f", 0)}
        assert (cuts.segments, cuts.edge_source, cuts.vertices, cuts.vertex_id) == ((), (), [], {})

    def test_a_point_of_the_wrong_length_is_structural(self):
        cuts = LineCuts([F(0), F(1)])
        for p in ((F(0), F(5)), (), [F(0), F(0)]):
            with pytest.raises(StructuralError,
                               match=rf"^a point of R\^1 has 1 coordinates, got {len(p)}: "):
                cuts.locate(p)


def _codomains(rng) -> list:
    """The H and D codomains of every bundled map and of random surface and
    planar maps, each that builds."""
    maps = [f for f in map(example_input, example_names()) if isinstance(f, PLMap)]
    maps += [random_surface_map(rng) for _ in range(6)]
    maps += [random_planar_map(rng) for _ in range(6)]
    out = []
    for f in maps:
        for notion in ("H", "D"):
            try:
                out.append(build_codomain_stratification(f, jacobi_set(f, notion)))
            except (GenericityError, DegeneracyError):
                pass
    return out


class TestCodomainSampleOracle:
    """Each stratum's sample against the audit oracle's first sample, and
    located back in the stratum."""

    def test_sample_is_the_oracles_and_locates_back(self, rng):
        built = {1: 0, 2: 0}
        for cs in _codomains(rng):
            for label in sorted(cs.space.cells):
                y = cs.sample(label)
                assert y == _stratum_samples(cs, label, 1)[0], label
                assert cs.locate(y) == label
            built[cs.k] += 1
        assert built[1] >= 8 and built[2] >= 2


def _written_point(p) -> tuple:
    """A written point: a value of the line or a list of coordinates."""
    return (F(p),) if isinstance(p, str) else tuple(map(F, p))


class TestWrittenGeometryOracle:
    """The geometry each stratification writes, parsed back from its JSON
    text and located in the stratification: each point, each segment's
    midpoint and each interval's interior in the stratum that names it,
    and each vertex on a face's cycles, and each end of an interval, in a
    stratum paired with that face or interval in the closure.  The kind of
    a written entry is read off its shape, not off its label."""

    def _check(self, text: str, k: int, space, locate, vertices) -> int:
        """Check one written document; the number of faces it holds."""
        geometry = json.loads(text)["geometry"]
        assert set(geometry) == set(space.cells)
        zero, ends, spans, faces = {}, {}, {}, {}
        for label, g in geometry.items():
            if isinstance(g, dict):
                faces[label] = g
            elif k == 1 and isinstance(g, list):
                spans[label] = [None if x is None else F(x) for x in g]
            elif isinstance(g, str) or isinstance(g[0], str):
                zero[_written_point(g)] = label
            else:
                # a segment, or a contour chain of segments
                for a, b in ([g] if isinstance(g[0][0], str) else g):
                    a, b = _written_point(a), _written_point(b)
                    assert locate(vscale(F(1, 2), vadd(a, b))) == label, (label, g)
                    for p in (a, b):
                        ends.setdefault(p, set()).add(label)
        for p, label in zero.items():
            assert locate(p) == label, (label, p)
        for label, (lo, hi) in spans.items():
            if lo is None:
                t = F(0) if hi is None else hi - 1
            else:
                t = lo + 1 if hi is None else (lo + hi) / 2
            assert locate((t,)) == label, (label, lo, hi)
            assert all((zero[(x,)], label) in space.closure for x in (lo, hi) if x is not None)
        for label, g in faces.items():
            for u in sorted({u for cycle in g["cycles"] for u in cycle}):
                # the vertex's own stratum, or the one chain it lies inside
                p = vertices[u]
                held = [zero[p]] if p in zero else sorted(ends.get(p, ()))
                assert len(held) == 1 and (held[0], label) in space.closure, (label, u)
        return len(faces)

    def test_codomains_locate_back(self, rng):
        built, faces = {1: 0, 2: 0}, 0
        for cs in _codomains(rng):
            faces += self._check(canonical_dumps(codomain_to_dict(cs)), cs.k,
                                 cs.space, cs.locate, cs.cuts.vertices)
            built[cs.k] += 1
        assert built[1] >= 8 and built[2] >= 2 and faces >= 2 * built[2]

    def test_contours_locate_back(self):
        for name in ("oval_contour", "figure_eight_contour"):
            ls = stratify_singular_locus(example_locus(name))

            def locate(p):
                kind, i = ls.cuts.locate(p)
                return ls.labels[kind][i]
            text = canonical_dumps(locus_stratification_to_dict(ls))
            assert self._check(text, 2, ls.space, locate, ls.cuts.vertices) \
                == len(ls.cuts.faces)


class TestSingularLocus:
    def test_short_strand_rejected(self):
        with pytest.raises(InputError):
            SingularLocus(strands=(((F(0), F(0)),),))

    def test_a_point_repeated_back_to_back_is_input(self, tmp_path, capsys):
        # a zero-length segment, opening or closing a strand, and equal only
        # after parsing; named by its strand and point
        for repeat in ([["0", "0"], ["0/3", "0"], ["1", "1"]],
                       [["1", "1"], ["2", "0"], ["0", "0"], ["0", "0"], ["1", "1"]],
                       [["0", "0"], ["0", "0"]]):
            path = tmp_path / "contour.json"
            path.write_text(json.dumps({"strands": [[["-2", "5"], ["2", "6"]], repeat]}))
            assert main(["morse2-locus", str(path)]) == 1
            assert capsys.readouterr().err == (
                "error: strand 1 repeats the point (0, 0) back to back\n")
        with pytest.raises(InputError, match=re.escape(
                "strand 0 repeats the point (1/2, -3) back to back")):
            SingularLocus(strands=(((F(0), F(0)), (F(1, 2), F(-3)), (F(1, 2), F(-3))),))

    def test_cusp_mark_out_of_range(self):
        with pytest.raises(InputError):
            SingularLocus(strands=(CROSS[0],), cusp_marks=((0, 9),))

    def test_is_closed(self):
        loop = SingularLocus(strands=((
            (F(0), F(0)), (F(2), F(1)), (F(1), F(3)), (F(0), F(0))),))
        assert loop.is_closed(0)
        open_ = SingularLocus(strands=(CROSS[0],))
        assert not open_.is_closed(0)


class TestLocusStratification:
    def test_convex_loop_six_strata(self):
        oval = example_locus("oval_contour")
        ls = stratify_singular_locus(oval)
        els = set(ls.space.poset.elements)
        assert els == {"z0", "z1", "c0", "c1", "f0", "f_out"}
        assert all(ls.marks[z] == {"tangency"} for z in sorted(ls.marks))
        assert validate_poset(ls.space.poset)

    def test_crossing_locus_counts(self):
        fig8 = example_locus("figure_eight_contour")
        ls = stratify_singular_locus(fig8)
        kinds = [k for z in sorted(ls.marks) for k in ls.marks[z]]
        assert len(ls.marks) == 7
        assert kinds.count("crossing") == 1
        assert kinds.count("cusp") == 2
        assert kinds.count("endpoint") == 2
        assert kinds.count("tangency") == 2
        assert len([e for e in ls.space.poset.elements
                    if e.startswith("c")]) == 7
        faces = {e for e in ls.space.poset.elements if e.startswith("f")}
        assert faces == {"f0", "f1", "f_out"}

    def test_empty_locus_single_stratum(self):
        ls = stratify_singular_locus(SingularLocus(strands=()))
        assert set(ls.space.poset.elements) == {"f_out"}
        assert coarseness_check(ls) == (True, [])

    def test_vertical_segment_rejected(self):
        bad = SingularLocus(strands=((
            (F(0), F(0)), (F(0), F(2)), (F(1), F(3))),))
        with pytest.raises(GenericityError):
            stratify_singular_locus(bad)

    def test_strands_touching_at_a_plain_vertex_rejected(self):
        diamond = ((F(0), F(0)), (F(2), F(1)), (F(4), F(0)), (F(2), F(-1)),
                   (F(0), F(0)))
        wedge = ((F(1), F(3)), (F(2), F(1)), (F(3), F(4)), (F(1), F(3)))
        with pytest.raises(GenericityError,
                           match=re.escape("unmarked point (2, 1) has degree 4")):
            stratify_singular_locus(SingularLocus(strands=(diamond, wedge)))

    def test_coarseness_of_canonical_output(self):
        for name in ("oval_contour", "figure_eight_contour"):
            ls = stratify_singular_locus(example_locus(name))
            ok, removable = coarseness_check(ls)
            assert ok and removable == []

    def test_rotating_a_closed_strand_changes_nothing(self):
        # each closed strand started at another of its points, the cusp
        # marks on it moved along
        rotations = 0
        for name in ("oval_contour", "figure_eight_contour"):
            locus = example_locus(name)
            want = locus_stratification_to_dict(stratify_singular_locus(locus))
            for si, strand in enumerate(locus.strands):
                if not locus.is_closed(si):
                    continue
                n = len(strand) - 1
                for r in range(1, n):
                    turned = list(locus.strands)
                    turned[si] = strand[r:-1] + strand[:r + 1]
                    marks = tuple((i, (v - r) % n if i == si else v)
                                  for i, v in locus.cusp_marks)
                    moved = SingularLocus(strands=tuple(turned), cusp_marks=marks)
                    assert locus_stratification_to_dict(
                        stratify_singular_locus(moved)) == want, (name, r)
                    rotations += 1
        assert rotations == 12

    def test_only_an_unmarked_zero_cell_of_degree_two_is_removable(self):
        # every mark of the figure eight blanked: its cusps and tangencies
        # lie inside a strand and could go, its crossing (degree 4) and
        # strand endpoints (degree 1) could not
        ls = stratify_singular_locus(example_locus("figure_eight_contour"))
        fixed = [z for z in sorted(ls.marks) if ls.marks[z] & {"crossing", "endpoint"}]
        assert len(fixed) == 3
        bare = dataclasses.replace(ls, marks=dict.fromkeys(ls.marks, frozenset()))
        assert coarseness_check(bare) == (
            False, [z for z in sorted(ls.marks) if z not in fixed])

    def test_spurious_cut_breaks_coarseness(self):
        # a degree-2 zero-cell of the oval without its tangency mark
        ls = stratify_singular_locus(example_locus("oval_contour"))
        assert ls.marks["z1"] == {"tangency"}
        bare = dataclasses.replace(ls, marks={**ls.marks, "z1": frozenset()})
        assert coarseness_check(bare) == (False, ["z1"])


class TestSvg:
    def test_deterministic_and_well_formed(self):
        oval = example_locus("oval_contour")
        ls = stratify_singular_locus(oval)
        out = render_svg(ls)
        assert out == render_svg(ls)
        assert out.startswith("<svg") and out.rstrip().endswith("</svg>")

    def test_line_image_svg(self):
        torus = example_map("torus_grid")
        cs = build_codomain_stratification(torus, jacobi_set(torus))
        out = render_svg(cs)
        assert "<svg" in out and out == render_svg(cs)
