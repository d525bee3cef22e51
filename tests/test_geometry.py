from fractions import Fraction

import pytest

from plstrat import Simplex
from plstrat.geometry import (affinely_independent, barycenter, canon_key,
                              canon_sorted, cone_is_full, convex_hull_2d,
                              cross2, det, dot, format_frac, frac,
                              matrix_rank, on_segment, orient,
                              orthogonal_vector,
                              point_in_convex_hull_2d, proper_crossing,
                              segments_share_line_overlap, vadd, vscale, vsub)

F = Fraction


def test_frac_accepts_ints_strings_fractions():
    assert frac(3) == F(3)
    assert frac("3/4") == F(3, 4)
    assert frac("-7") == F(-7)
    assert frac(F(1, 2)) == F(1, 2)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)


def test_format_frac_round_trips():
    for x in (F(0), F(-3, 7), F(22), F(5, 2)):
        assert frac(format_frac(x)) == x


def test_vector_arithmetic():
    a, b = (F(1), F(2)), (F(3), F(5))
    assert vadd(a, b) == (F(4), F(7))
    assert vsub(b, a) == (F(2), F(3))
    assert vscale(F(1, 2), b) == (F(3, 2), F(5, 2))
    assert dot(a, b) == F(13)
    assert cross2(a, b) == F(-1)


def test_orient_signs():
    o = (F(0), F(0))
    assert orient(o, (F(1), F(0)), (F(0), F(1))) == 1
    assert orient(o, (F(0), F(1)), (F(1), F(0))) == -1
    assert orient(o, (F(1), F(1)), (F(2), F(2))) == 0


def test_barycenter():
    pts = [(F(0), F(0)), (F(2), F(0)), (F(1), F(3))]
    assert barycenter(pts) == (F(1), F(1))


def test_matrix_rank_and_det():
    assert matrix_rank([(F(1), F(0)), (F(0), F(1))]) == 2
    assert matrix_rank([(F(1), F(2)), (F(2), F(4))]) == 1
    assert matrix_rank([]) == 0
    assert det([(F(1), F(2)), (F(3), F(4))]) == F(-2)
    assert det([(F(2),)]) == F(2)
    assert det([]) == 1
    assert det([(F(1, 2), F(1), F(0)), (F(0), F(2, 3), F(1)),
                (F(1), F(0), F(3))]) == F(2)
    assert det([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 0
    # an even permutation of a diagonal, then a full 4x4
    assert det([(0, 2, 0, 0), (3, 0, 0, 0), (0, 0, 0, 5), (0, 0, 7, 0)]) == 210
    four = [(1, 2, 3, 4), (5, 6, 7, 8), (2, 6, 4, 8), (3, 1, 1, 2)]
    assert det(four) == 72 and type(det(four)) is int
    assert det([tuple(F(x, 3) for x in r) for r in four]) == F(72, 81)


def test_det_vanishes_exactly_on_rank_deficient_rows(rng):
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [tuple(F(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                      for _ in range(n)) for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            # one row a combination of two others
            a, b = rng.sample(range(n), 2)
            c = F(rng.randint(-2, 2), rng.choice((1, 2)))
            rows[b] = tuple(x * c + y for x, y in zip(rows[a], rows[(b + 1) % n]))
        singular = matrix_rank(rows) < n
        assert (det(rows) == 0) == singular, rows
        seen.add(singular)
    assert seen == {True, False}


def test_affinely_independent():
    assert affinely_independent([(F(0),), (F(1),)])
    assert not affinely_independent([(F(1),), (F(1),)])
    assert affinely_independent([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    assert not affinely_independent([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])
    # a single point is trivially independent
    assert affinely_independent([(F(5), F(7))])


def test_orthogonal_vector_is_orthogonal_and_nonzero():
    vs = [(F(1), F(2))]
    u = orthogonal_vector(vs, 2)
    assert u != (F(0), F(0))
    assert dot(u, vs[0]) == 0
    w = orthogonal_vector([], 1)
    assert w != (F(0),)


def test_cone_is_full_plane_cases():
    right = (F(1), F(0))
    left = (F(-1), F(0))
    up = (F(0), F(1))
    down = (F(0), F(-1))
    assert cone_is_full([right, left, up, down], 2)
    assert cone_is_full([right, up, (F(-1), F(-1))], 2)
    assert not cone_is_full([right, up], 2)
    assert not cone_is_full([right, left], 2)  # spans a line only
    assert not cone_is_full([], 2)


def test_cone_is_full_line_cases():
    assert cone_is_full([(F(1),), (F(-2),)], 1)
    assert not cone_is_full([(F(1),), (F(3),)], 1)


def test_on_segment_closed_versus_open():
    a, b = (F(0), F(0)), (F(2), F(2))
    mid = (F(1), F(1))
    assert on_segment(mid, a, b)
    assert on_segment(a, a, b)
    assert not on_segment(a, a, b, closed=False)
    assert on_segment(mid, a, b, closed=False)
    assert not on_segment((F(3), F(3)), a, b)
    assert not on_segment((F(1), F(2)), a, b)


def test_proper_crossing():
    p = proper_crossing((F(-1), F(0)), (F(1), F(0)), (F(0), F(-1)), (F(0), F(1)))
    assert p == (F(0), F(0))
    # endpoint touching is not a proper crossing
    assert proper_crossing((F(0), F(0)), (F(1), F(0)),
                           (F(0), F(0)), (F(0), F(1))) is None
    assert proper_crossing((F(0), F(0)), (F(1), F(0)),
                           (F(2), F(1)), (F(3), F(1))) is None


def test_segments_share_line_overlap():
    a, b = (F(0), F(0)), (F(2), F(0))
    assert segments_share_line_overlap(a, b, (F(1), F(0)), (F(3), F(0)))
    assert not segments_share_line_overlap(a, b, (F(2), F(0)), (F(3), F(0)))
    assert not segments_share_line_overlap(a, b, (F(0), F(1)), (F(2), F(1)))


def test_convex_hull_and_membership():
    square = [(F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(2)),
              (F(1), F(1))]
    hull = convex_hull_2d(square)
    assert len(hull) == 4
    assert point_in_convex_hull_2d((F(1), F(1)), square)
    assert point_in_convex_hull_2d((F(0), F(0)), square)
    assert not point_in_convex_hull_2d((F(3), F(1)), square)


def test_canon_key_orders_mixed_labels():
    labels = ["b", ("a", 1), 3, "a", (0,)]
    ordered = sorted(labels, key=canon_key)
    assert sorted(ordered, key=canon_key) == ordered
    assert len(set(map(canon_key, labels))) == len(labels)


class _Name(str):
    pass


def _random_label(rng, kind: int):
    texts = ["", "a", "b", "ab", "b0", "\u00e9"]
    words = [rng.choice(texts) for _ in range(rng.randrange(4))]
    odd = [0, 1, -2, True, False, F(1, 2), F(-3, 4), ("a",), ((),)]
    return [lambda: words[0] if words else "",
            lambda: _Name(rng.choice(texts)),
            lambda: tuple(words),
            lambda: Simplex(set(words) or {"a"}),
            lambda: tuple(words) + (rng.choice(odd),),
            lambda: rng.choice(odd[:7])][kind]()


def test_canon_sorted_is_the_canon_key_sort(rng):
    # mixtures of strs, str subclasses, tuples and `Simplex` of strs,
    # tuples holding numbers or tuples, and bare numbers; the same
    # objects in the same order, so ties keep their input order
    for _ in range(600):
        kinds = rng.sample(range(6), rng.randrange(1, 4))
        labels = [_random_label(rng, rng.choice(kinds))
                  for _ in range(rng.randrange(12))]
        want = sorted(labels, key=canon_key)
        got = canon_sorted(iter(labels))
        assert list(map(id, got)) == list(map(id, want)), labels


def _exact(x) -> bool:
    return type(x) in (int, Fraction)


def test_planar_predicates_agree_on_int_and_fraction_copies(rng):
    from helpers import random_segments
    crossings = 0
    for _ in range(5):
        segs, arr = random_segments(rng, max_segments=8)
        as_int = [tuple((int(x), int(y)) for x, y in s) for s in segs]
        probes = [p for s in segs for p in s] + sorted(arr.crossing_points)
        for (a, b), (ai, bi) in zip(segs, as_int):
            for p in probes:
                pi = tuple(int(c) if c.denominator == 1 else c for c in p)
                for closed in (True, False):
                    assert on_segment(p, a, b, closed=closed) == \
                        on_segment(pi, ai, bi, closed=closed)
            for (c, d), (ci, di) in zip(segs, as_int):
                assert segments_share_line_overlap(a, b, c, d) == \
                    segments_share_line_overlap(ai, bi, ci, di)
                x, xi = proper_crossing(a, b, c, d), proper_crossing(ai, bi, ci, di)
                assert x == xi
                if xi is not None:
                    crossings += 1
                    assert all(_exact(t) for t in x + xi)
        # the crossing points the arrangement found, and only those
        found = {proper_crossing(a, b, c, d) for i, (a, b) in enumerate(as_int)
                 for c, d in as_int[i + 1:]} - {None}
        assert found == arr.crossing_points
    assert crossings


def test_vector_helpers_keep_int_and_fraction_exact():
    a, b = (1, 2), (3, 5)
    assert vsub(b, a) == (2, 3) and all(type(x) is int for x in vsub(b, a))
    assert vadd(a, b) == (4, 7)
    assert dot(a, b) == 13 and type(dot(a, b)) is int
    assert cross2(a, b) == -1
    assert orient((0, 0), (1, 0), (0, 1)) == 1
    # a division between ints gives a Fraction, never a float
    p = proper_crossing((0, 0), (3, 0), (1, -1), (2, 1))
    assert p == (F(3, 2), F(0)) and all(type(c) is Fraction for c in p)


def test_three_planar_points_match_the_rank_test(rng):
    for _ in range(300):
        pts = [(F(rng.randint(-3, 3), rng.randint(1, 3)),
                F(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(3)]
        diffs = [vsub(p, pts[0]) for p in pts[1:]]
        assert affinely_independent(pts) == (matrix_rank(diffs) == 2)
