import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from pixelwedge import (
    AngleSpec,
    EmptyRegion,
    HalfIntegerTie,
    PixelCenterHit,
    Slopes,
    boundary_loops,
    cells_enclosed,
    digitize_angle_path,
    digitize_polyline,
    round_nearest,
    trace_region_boundary,
)
from pixelwedge.digitize import path_vertex_bound, region_pixels, window_columns
from pixelwedge.exact import HALF, extended_gcd
from pixelwedge.shapes import class_of_params

from conftest import corner_st, slopes_st
from oracles import column_interval, pixel_in_angle

F = Fraction


def oracle_segment(p, q):
    """Independent reconstruction: enumerate every half-integer crossing with
    its direction, sort by parameter, and emit one unit step per crossing."""
    p = (F(p[0]), F(p[1]))
    q = (F(q[0]), F(q[1]))
    events = []
    for axis in (0, 1):
        d = q[axis] - p[axis]
        if d == 0:
            continue
        lo, hi = sorted((p[axis], q[axis]))
        for k in range(math.ceil(lo - HALF), math.floor(hi - HALF) + 1):
            h = F(2 * k + 1, 2)
            events.append(((h - p[axis]) / d, axis, 1 if d > 0 else -1))
    events.sort()
    pos = [math.floor(p[0] + HALF), math.floor(p[1] + HALF)]
    path = [tuple(pos)]
    for _, axis, step in events:
        pos[axis] += step
        path.append(tuple(pos))
    return path


class TestRounding:
    def test_examples(self):
        assert round_nearest(F(49, 100)) == 0
        assert round_nearest(F(-3, 4)) == -1
        assert round_nearest(7) == 7

    def test_half_integer_tie(self):
        with pytest.raises(HalfIntegerTie):
            round_nearest(F(1, 2))
        with pytest.raises(HalfIntegerTie):
            round_nearest(F(-7, 2))


class TestDigitizeSegment:
    """A straight segment p -> q is the two-vertex polyline [p, q]."""

    def test_horizontal(self):
        assert digitize_polyline([(0, F(1, 5)), (3, F(1, 5))]) == [
            (0, 0), (1, 0), (2, 0), (3, 0),
        ]

    def test_vertical(self):
        assert digitize_polyline([(F(1, 4), F(1, 4)), (F(1, 4), F(13, 4))]) == [
            (0, 0), (0, 1), (0, 2), (0, 3),
        ]

    def test_slope_two_staircase(self):
        # crossing order worked out by hand: y, x, y, y, x, y
        assert digitize_polyline([(F(1, 4), F(1, 4)), (F(9, 4), F(17, 4))]) == [
            (0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (2, 4),
        ]

    def test_against_crossing_oracle(self):
        rng = random.Random(404)
        for _ in range(300):
            p = (F(rng.randint(-40, 40), rng.choice([3, 5, 7, 9, 11])),
                 F(rng.randint(-40, 40), rng.choice([3, 5, 7, 9, 11])))
            q = (F(rng.randint(-40, 40), rng.choice([3, 5, 7, 9, 11])),
                 F(rng.randint(-40, 40), rng.choice([3, 5, 7, 9, 11])))
            if p == q:
                continue
            try:
                got = digitize_polyline([p, q])
            except PixelCenterHit:
                continue
            assert got == oracle_segment(p, q)

    def test_reversal_symmetry(self):
        rng = random.Random(99)
        for _ in range(100):
            p = (F(rng.randint(-20, 20), 7), F(rng.randint(-20, 20), 9))
            q = (F(rng.randint(-20, 20), 7), F(rng.randint(-20, 20), 9))
            if p == q:
                continue
            try:
                forward = digitize_polyline([p, q])
            except PixelCenterHit:
                continue
            assert digitize_polyline([q, p]) == list(reversed(forward))

    def test_vertices_near_segment(self):
        # every vertex within Chebyshev distance 1 of the true segment
        def hits_box(p, q, v, r=1):
            t0, t1 = F(0), F(1)
            for axis in (0, 1):
                d = q[axis] - p[axis]
                lo, hi = v[axis] - r, v[axis] + r
                if d == 0:
                    if not lo <= p[axis] <= hi:
                        return False
                else:
                    ta, tb = sorted(((lo - p[axis]) / d, (hi - p[axis]) / d))
                    t0, t1 = max(t0, ta), min(t1, tb)
            return t0 <= t1

        rng = random.Random(7)
        for _ in range(60):
            p = (F(rng.randint(-30, 30), 11), F(rng.randint(-30, 30), 13))
            q = (F(rng.randint(-30, 30), 11), F(rng.randint(-30, 30), 13))
            if p == q:
                continue
            try:
                path = digitize_polyline([p, q])
            except PixelCenterHit:
                continue
            assert all(hits_box(p, q, v) for v in path)

    def test_monotone_staircase_for_positive_slope(self):
        rng = random.Random(1234)
        for _ in range(100):
            p = (F(rng.randint(-20, 20), 7), F(rng.randint(-20, 20), 11))
            dx = F(rng.randint(1, 30), 7)
            dy = F(rng.randint(1, 30), 11)
            q = (p[0] + dx, p[1] + dy)
            try:
                path = digitize_polyline([p, q])
            except PixelCenterHit:
                continue
            for (x1, y1), (x2, y2) in zip(path, path[1:]):
                assert x2 - x1 >= 0 and y2 - y1 >= 0

    def test_pixel_center_rejected(self):
        with pytest.raises(PixelCenterHit):
            digitize_polyline([(0, 0), (1, 1)])  # passes through (1/2, 1/2)

    def test_half_integer_endpoint_rejected(self):
        with pytest.raises(HalfIntegerTie, match=r"^path endpoint \(1/2, 0\) rounds ambiguously$"):
            digitize_polyline([(F(1, 2), 0), (2, 1)])

    def test_centre_vertex_rejected(self):
        with pytest.raises(PixelCenterHit, match=r"^path vertex \(1/2, 3/2\) is a pixel center$"):
            digitize_polyline([(0, 0), (F(1, 2), F(3, 2)), (2, 0)])

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            digitize_polyline([(F(1, 3), F(1, 3)), (F(1, 3), F(1, 3))])

    def test_interior_vertex_on_half_line_ok(self):
        path = digitize_polyline(
            [(F(5, 4), F(1, 4)), (F(1, 2), F(3, 4)), (F(5, 4), F(7, 4))]
        )
        assert path[0] == (1, 0) and path[-1] == (1, 2)

    def test_interior_segment_on_half_line_hits_center(self):
        with pytest.raises(PixelCenterHit):
            digitize_polyline(
                [(F(1, 4), 0), (F(1, 2), F(1, 4)), (F(1, 2), F(7, 4)), (F(1, 4), 2)]
            )


class TestPixelInAngle:
    SPEC = AngleSpec(2, 1, -3, 1, (F(1, 2), F(1, 2)))

    def member(self, px):
        """Whether the window scan keeps the pixel; the Fraction formula at
        its centre must agree."""
        got = px in region_pixels(self.SPEC, 2)
        assert got == pixel_in_angle(px, self.SPEC)
        return got

    def test_corner_pixel_included_by_closed_inequalities(self):
        assert self.member((0, 0))

    def test_first_form_negative(self):
        assert not self.member((-1, 0))

    def test_second_form_negative(self):
        # first form evaluates to 3 >= 0, second to -2: excluded
        assert not self.member((1, -1))


def clamped_interval_scan(a, b, c, d, alpha, beta, anchor, window):
    """Reference window scan: one column_interval call per column, clamped."""
    am, an = anchor
    cols = []
    for m in range(am - window, am + window + 1):
        iv = column_interval(a, b, c, d, alpha, beta, m)
        if iv is None:
            continue
        lo, hi = iv
        lo = an - window if lo is None else max(lo, an - window)
        hi = an + window if hi is None else min(hi, an + window)
        if lo <= hi:
            cols.append((m, lo, hi))
    return cols


def scanned(a, b, c, d, regions, window):
    """window_columns' column lists in absolute rows, one per region, each
    checked against the origin yielded with it (its first column's lowest
    pixel, None when it is empty) and the lowest row (the box's top row
    when it is empty)."""
    out = []
    for (_, _, (_, an)), (origin, runs, low) in zip(regions, window_columns(a, b, c, d, regions, window), strict=True):
        m0, n0 = origin or (0, 0)
        cols = [(m0 + m, n0 + lo, n0 + hi) for m, lo, hi in runs]
        assert origin == (cols[0][:2] if cols else None)
        assert low == min([lo for _, lo, _ in cols], default=an + window)
        out.append(cols)
    return out


class TestWindowScan:
    # every coprime pair with entries <= 3: b = 0 and d = 0 occur, and each
    # pair appears in both orders, so det takes both signs
    PAIRS = [(p, q) for p in range(-3, 4) for q in range(-3, 4) if math.gcd(p, q) == 1]

    def test_matches_column_interval_scan(self):
        # two regions per scan, so each one's columns and lowest row are
        # yielded apart from the other's
        rng = random.Random(93)
        for a, b in self.PAIRS:
            for c, d in self.PAIRS:
                if a * d - b * c == 0:
                    continue
                for window in range(1, 10):
                    regions = [
                        (rng.randint(-15, 15), rng.randint(-15, 15), (rng.randint(-6, 6), rng.randint(-6, 6)))
                        for _ in range(2)
                    ]
                    assert scanned(a, b, c, d, regions, window) == [
                        clamped_interval_scan(a, b, c, d, *region, window) for region in regions
                    ], (a, b, c, d, regions, window)

    def test_degenerate_strip_matches_column_interval_scan(self):
        # the slope pair (p, q), (-p, -q) bounds the line p*m - q*n = t on
        # both sides; the Hobby check finds pixel centres on it this way
        rng = random.Random(95)
        for p, q in self.PAIRS:
            for window in range(1, 10):
                ts = rng.randint(-15, 15), rng.randint(-15, 15)
                regions = [(t, -t, (rng.randint(-6, 6), rng.randint(-6, 6))) for t in ts]
                assert scanned(p, q, -p, -q, regions, window) == [
                    clamped_interval_scan(p, q, -p, -q, *region, window) for region in regions
                ], (p, q, regions, window)

    def test_region_pixels_matches_center_membership(self):
        rng = random.Random(94)
        pairs = [(a, b, c, d) for a, b in self.PAIRS for c, d in self.PAIRS if a * d - b * c]
        for a, b, c, d in rng.sample(pairs, 300):
            corner = (F(rng.randint(-300, 300), rng.randint(1, 30)),
                      F(rng.randint(-300, 300), rng.randint(1, 30)))
            spec = AngleSpec(a, b, c, d, corner)
            window = rng.randint(1, 9)
            am, an = math.floor(corner[0]), math.floor(corner[1])
            box = [(m, n) for m in range(am - window, am + window + 1)
                   for n in range(an - window, an + window + 1)]
            assert region_pixels(spec, window) == {px for px in box if pixel_in_angle(px, spec)}


class TestAnglePath:
    def test_vertex_bound_holds_and_is_nearly_reached(self):
        rng = random.Random(96)
        pairs = [(p, q) for p in range(-6, 7) for q in range(-6, 7) if math.gcd(p, q) == 1]
        worst = 0.0
        done = 0
        while done < 300:
            (a, b), (c, d) = rng.choice(pairs), rng.choice(pairs)
            if a * d == b * c:
                continue
            den = rng.choice((3, 10, 1000))
            spec = AngleSpec(a, b, c, d, (F(rng.randint(-9 * den, 9 * den), den) + F(1, 2017),
                                          F(rng.randint(-9 * den, 9 * den), den)))
            extent = rng.randint(1, 40)
            try:
                path = digitize_angle_path(spec, extent)
            except (PixelCenterHit, HalfIntegerTie):
                continue
            bound = path_vertex_bound(spec.slopes, extent)
            assert len(path) <= bound, (spec, extent)
            worst = max(worst, len(path) / bound)
            done += 1
        assert worst > 0.95, worst


class TestBoundaryTrace:
    def test_single_pixel_is_a_square_loop(self):
        loops = boundary_loops({(0, 0)})
        assert len(loops) == 1
        assert len(loops[0]) == 5 and loops[0][0] == loops[0][-1]
        assert cells_enclosed(loops) == {(0, 0)}

    def test_counterclockwise_orientation(self):
        (loop,) = boundary_loops({(0, 0)})
        area2 = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(loop, loop[1:]))
        assert area2 > 0

    def test_empty_region(self):
        spec = AngleSpec(4, 3, -3, -2, (F(9, 10), F(9, 10)))
        with pytest.raises(EmptyRegion):
            trace_region_boundary(spec, 1)

    def test_disconnected_region_gets_multiple_loops(self):
        spec = AngleSpec(4, 3, -3, -2, (F(1, 2) + F(1, 997), F(1, 2) + F(1, 991)))
        loops = trace_region_boundary(spec, 6)
        assert len(loops) >= 2
        assert cells_enclosed(loops) == region_pixels(spec, 6)

    def test_pinch_point_splits_into_simple_loops(self):
        loops = boundary_loops({(0, 0), (1, 1)})
        assert len(loops) == 2
        for loop in loops:
            assert len(set(loop[:-1])) == len(loop) - 1  # vertex-simple
        assert cells_enclosed(loops) == {(0, 0), (1, 1)}

    @given(slopes_st(), corner_st())
    @settings(max_examples=80)
    def test_enclosed_pixels_match_membership(self, slopes, corner):
        spec = AngleSpec(slopes.a, slopes.b, slopes.c, slopes.d, corner)
        members = region_pixels(spec, 4)
        if not members:
            return
        assert cells_enclosed(trace_region_boundary(spec, 4)) == members


class TestSlopesBezout:
    def test_cached_pair_leaves_eq_hash_repr_unchanged(self):
        s, t = Slopes(2, 1, -3, 1), Slopes(2, 1, -3, 1)
        before = (repr(s), hash(s))
        x, y = s.bezout
        assert 2 * x - 1 * y == 1
        assert s.bezout is s.bezout
        assert (repr(s), hash(s)) == before == (repr(t), hash(t))
        assert repr(s) == "Slopes(a=2, b=1, c=-3, d=1)"
        assert s == t and {s: 1}[t] == 1
        assert [f.name for f in dataclasses.fields(Slopes)] == ["a", "b", "c", "d"]
        assert pickle.loads(pickle.dumps(s)) == s
        # det and count are cached beside bezout, outside the fields
        assert (s.det, s.count) == (2 * 1 - 1 * -3, 5)
        neg = Slopes(1, 2, 3, 1)
        assert (neg.det, neg.count) == (-5, 5)
        assert repr(neg) == "Slopes(a=1, b=2, c=3, d=1)"
        assert hash(neg) == hash(Slopes(1, 2, 3, 1)) == hash((1, 2, 3, 1))
        for u in (s, neg):
            back = pickle.loads(pickle.dumps(u))
            assert (back.det, back.count, back.bezout) == (u.det, u.count, u.bezout)
            assert (repr(back), hash(back)) == (repr(u), hash(u))
        moved = dataclasses.replace(neg, c=-3)
        assert (moved.det, moved.count) == (7, 7)
        assert moved.bezout == neg.bezout and moved == Slopes(1, 2, -3, 1)
        same = dataclasses.replace(s)
        assert (same.det, same.count, same.bezout) == (s.det, s.count, s.bezout) and same == s

    def test_class_of_params_runs_extended_gcd_once_per_slopes(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return extended_gcd(a, b)

        monkeypatch.setattr("pixelwedge.digitize.extended_gcd", counting)
        slopes = Slopes(7, 2, -5, 3)
        classes = {class_of_params(slopes, alpha, beta) for alpha in range(-6, 6) for beta in range(-6, 6)}
        assert classes == set(range(slopes.count))
        assert calls == [(7, 2)]
