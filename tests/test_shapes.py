import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pixelwedge import (
    AngleSpec,
    InvalidAxis,
    RegionParams,
    ShapeClass,
    Slopes,
    WindowTooSmall,
    canonicalize,
    class_index,
    class_of_params,
    default_window,
    enumerate_shapes,
    equivalent,
    reflection_symmetric,
    region_params,
    shape_of_spec,
    shift_params,
)
from pixelwedge.digitize import angle_thresholds, corner_ceilings, region_pixels
from pixelwedge.shapes import _bitmaps, class_fingerprint, class_signatures
from pixelwedge.verify import coprime_pairs, hobby_region_check

from conftest import coprime_pair, corner_st, slopes_st
from oracles import direct_bitmaps

F = Fraction

P_SLOPES = Slopes(2, 1, -3, 1)
Q_SLOPES = Slopes(3, -1, -1, 2)


def spec_p(x, y):
    return AngleSpec(2, 1, -3, 1, (F(x), F(y)))


def _member_fn(spec):
    alpha, beta = angle_thresholds(spec)
    a, b, c, d = spec.a, spec.b, spec.c, spec.d
    return lambda m, n: a * m - b * n >= alpha and c * m - d * n >= beta


def oracle_same_shape(s1, s2, box=8, shift=8):
    """Brute-force translation equivalence: some integer offset (k, l) makes
    raw center membership of the two angles agree on a whole box around the
    first corner. No clipping or normalisation is involved."""
    in1, in2 = _member_fn(s1), _member_fn(s2)
    am = math.floor(s1.corner[0] - F(1, 2))
    an = math.floor(s1.corner[1] - F(1, 2))
    cells = [
        (m, n)
        for m in range(am - box, am + box + 1)
        for n in range(an - box, an + box + 1)
    ]
    for k in range(-shift, shift + 1):
        for l in range(-shift, shift + 1):
            if all(in1(m, n) == in2(m + k, n + l) for m, n in cells):
                return True
    return False


def brute_equivalent(slopes, da, db):
    """Search the two translation equations directly, over a bound derived
    from the instance so no witness can escape the search range."""
    a, b, c, d = slopes.as_tuple()
    bound = (abs(da) + abs(db) + slopes.count + 2) * (abs(a) + abs(b) + abs(c) + abs(d) + 2)
    if b != 0:
        for k in range(-bound, bound + 1):
            num = k * a - da
            if num % b == 0 and k * c - (num // b) * d == db:
                return True
        return False
    for l in range(-bound, bound + 1):
        num = l * b + da  # a*k = da + l*b with b == 0 => k = da / a
        if num % a == 0 and (num // a) * c - l * d == db:
            return True
    return False


class TestRegionParams:
    def test_examples(self):
        assert region_params(spec_p(F(1, 2), F(1, 2))) == RegionParams(F(0), F(0), 0, 0)
        p = region_params(spec_p(F(1, 10), F(7, 10)))
        assert (p.alpha, p.beta) == (F(-1), F(1))
        p = region_params(spec_p(F(9, 10), F(3, 10)))
        assert (p.alpha, p.beta) == (F(1), F(-1))

    @given(slopes_st(), corner_st())
    def test_ceilings_consistent(self, slopes, corner):
        spec = AngleSpec(slopes.a, slopes.b, slopes.c, slopes.d, corner)
        p = region_params(spec)
        assert p.alpha_ceil - 1 < p.alpha <= p.alpha_ceil
        assert p.beta_ceil - 1 < p.beta <= p.beta_ceil


class TestClassIndex:
    def test_known_corner_classes(self):
        assert class_index(spec_p(F(1, 2), F(1, 2))) == 0
        assert class_index(spec_p(F(1, 10), F(7, 10))) == 2
        assert class_index(spec_p(F(7, 10), F(9, 10))) == 4
        assert class_index(spec_p(F(3, 10), F(1, 10))) == 1
        assert class_index(spec_p(F(9, 10), F(3, 10))) == 3

    def test_matches_brute_force_translation_equivalence(self):
        rng = random.Random(61)
        reps = {}
        for _ in range(60):
            corner = (
                F(rng.randint(0, 2999), 1000) + F(1, 4003),
                F(rng.randint(0, 2999), 1000) + F(1, 4007),
            )
            spec = AngleSpec(2, 1, -3, 1, corner)
            j = class_index(spec)
            if j in reps:
                assert oracle_same_shape(reps[j], spec)
            else:
                reps[j] = spec
        assert sorted(reps) == [0, 1, 2, 3, 4]
        indices = sorted(reps)
        for i in indices:
            for j in indices:
                if i < j:
                    assert not oracle_same_shape(reps[i], reps[j])

    def test_translation_invariance(self):
        rng = random.Random(62)
        for _ in range(100):
            x = F(rng.randint(0, 999), 1000)
            y = F(rng.randint(0, 999), 1000)
            k, l = rng.randint(-20, 20), rng.randint(-20, 20)
            assert class_index(spec_p(x, y)) == class_index(spec_p(x + k, y + l))


    def test_integer_formula_matches_fraction_thresholds(self):
        # all pairs with entries <= 3; dyadic, decimal, integer and
        # half-integer corners, shifted by random integers
        rng = random.Random(960)
        pairs = coprime_pairs(3)
        for a, b in pairs:
            for c, d in pairs:
                if a * d == b * c:
                    continue
                coords = (
                    F(rng.getrandbits(64), 1 << 64),
                    F(rng.randrange(10 ** 3), 10 ** rng.randint(1, 3)),
                    F(rng.randint(-5, 5)),
                    F(2 * rng.randint(-5, 5) + 1, 2),
                )
                for x in coords:
                    for y in coords:
                        spec = AngleSpec(a, b, c, d, (x + rng.randint(-50, 50), y))
                        p = region_params(spec)
                        assert corner_ceilings(spec) == (p.alpha_ceil, p.beta_ceil), spec
                        expected = class_of_params(spec.slopes, p.alpha_ceil, p.beta_ceil)
                        assert class_index(spec) == expected, spec

    def test_spec_keeps_its_validated_slopes(self):
        spec = spec_p(F(1, 3), F(2, 3))
        assert spec.slopes is spec.slopes and spec.slopes == P_SLOPES
        assert spec == spec_p(F(1, 3), F(2, 3)) and "_slopes" not in repr(spec)


class TestEquivalent:
    def params(self, a, b):
        return RegionParams(F(a), F(b), a, b)

    def test_identity(self):
        assert equivalent(self.params(0, 0), self.params(0, 0), P_SLOPES)

    def test_multiple_of_determinant(self):
        assert equivalent(self.params(0, 0), self.params(0, 5), P_SLOPES)

    def test_non_multiple(self):
        assert not equivalent(self.params(0, 0), self.params(0, 2), P_SLOPES)
        assert not brute_equivalent(P_SLOPES, 0, -2)

    def test_against_brute_force(self):
        rng = random.Random(63)
        pairs = [
            (p, q)
            for p in range(-4, 5)
            for q in range(-4, 5)
            if math.gcd(p, q) == 1
        ]
        for _ in range(250):
            a, b = rng.choice(pairs)
            c, d = rng.choice(pairs)
            if a * d - b * c == 0:
                continue
            s = Slopes(a, b, c, d)
            p1 = self.params(rng.randint(-10, 10), rng.randint(-10, 10))
            p2 = self.params(rng.randint(-10, 10), rng.randint(-10, 10))
            want = brute_equivalent(
                s, p1.alpha_ceil - p2.alpha_ceil, p1.beta_ceil - p2.beta_ceil
            )
            assert equivalent(p1, p2, s) == want

    def test_against_brute_force_entries_to_twelve(self):
        # a seeded sample of pairs with entries <= 12; half of the second
        # threshold pairs are translates of the first, so both answers occur
        rng = random.Random(64)
        pairs = coprime_pairs(12)
        answers = {True: 0, False: 0}
        while answers[True] + answers[False] < 200:
            (a, b), (c, d) = rng.choice(pairs), rng.choice(pairs)
            if a * d == b * c:
                continue
            s = Slopes(a, b, c, d)
            alpha, beta = rng.randint(-30, 30), rng.randint(-30, 30)
            if rng.random() < 0.5:
                alpha2, beta2 = shift_params(s, alpha, beta, rng.randint(-6, 6), rng.randint(-6, 6))
            else:
                alpha2, beta2 = rng.randint(-30, 30), rng.randint(-30, 30)
            want = brute_equivalent(s, alpha - alpha2, beta - beta2)
            got = equivalent(self.params(alpha, beta), self.params(alpha2, beta2), s)
            assert got == want, (s, alpha, beta, alpha2, beta2)
            answers[want] += 1
        assert min(answers.values()) >= 50

    @given(slopes_st(), st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-8, 8), st.integers(-8, 8))
    def test_soundness_under_translation(self, slopes, alpha, beta, k, l):
        a2, b2 = shift_params(slopes, alpha, beta, k, l)
        assert equivalent(
            RegionParams(F(alpha), F(beta), alpha, beta),
            RegionParams(F(a2), F(b2), a2, b2),
            slopes,
        )
        assert class_of_params(slopes, alpha, beta) == class_of_params(slopes, a2, b2)


class TestLemmaOnBitmaps:
    @given(slopes_st(), st.integers(-10, 10), st.integers(-10, 10),
           st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=50)
    def test_shifted_params_are_translated_regions(self, slopes, alpha, beta, k, l):
        a, b, c, d = slopes.as_tuple()
        a2, b2 = shift_params(slopes, alpha, beta, k, l)
        for m in range(-6, 7):
            for n in range(-6, 7):
                in_base = a * m - b * n >= alpha and c * m - d * n >= beta
                in_shift = a * (m + k) - b * (n + l) >= a2 and (
                    c * (m + k) - d * (n + l) >= b2
                )
                assert in_base == in_shift

    @given(slopes_st(), st.integers(-10, 10), st.integers(-10, 10),
           st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=50)
    def test_shifted_params_share_fingerprints(self, slopes, alpha, beta, k, l):
        a2, b2 = shift_params(slopes, alpha, beta, k, l)
        w = 10
        assert class_fingerprint(slopes, alpha, beta, w) == class_fingerprint(slopes, a2, b2, w)


class TestCompleteInvariant:
    @given(slopes_st(), corner_st(), corner_st())
    @settings(max_examples=100)
    def test_equal_class_iff_equal_bitmap(self, slopes, c1, c2):
        s1 = AngleSpec(slopes.a, slopes.b, slopes.c, slopes.d, c1)
        s2 = AngleSpec(slopes.a, slopes.b, slopes.c, slopes.d, c2)
        w = max(enumerate_shapes(slopes)[0].window, 1)
        sh1, sh2 = shape_of_spec(s1, w), shape_of_spec(s2, w)
        assert (class_index(s1) == class_index(s2)) == (sh1.bitmap == sh2.bitmap)


class TestEnumerate:
    def test_both_families_have_five_classes(self):
        for slopes in (P_SLOPES, Q_SLOPES):
            shapes = enumerate_shapes(slopes)
            assert [s.index for s in shapes] == [0, 1, 2, 3, 4]
            assert len({s.bitmap for s in shapes}) == 5

    def test_determinant_two(self):
        assert len(enumerate_shapes(Slopes(1, 1, -1, 1))) == 2

    def test_grid_classification_agrees_with_count(self):
        # classify corners on a 100x100 sub-unit grid and count distinct bitmaps
        slopes = Slopes(1, 1, -1, 1)
        w = enumerate_shapes(slopes)[0].window
        seen = set()
        for i in range(100):
            for j in range(100):
                spec = AngleSpec(1, 1, -1, 1, (F(i, 100), F(j, 100)))
                seen.add(shape_of_spec(spec, w).bitmap)
        assert len(seen) == 2

    def test_window_growth_on_collision(self):
        shapes = enumerate_shapes(P_SLOPES, 1)
        assert shapes[0].window > 1
        assert len({s.bitmap for s in shapes}) == 5

    def test_every_window_below_one_is_refused(self):
        spec = spec_p(F(1, 10), F(71, 100))
        for window in (0, -1, -3):
            for call in (
                lambda: region_pixels(spec, window),
                lambda: enumerate_shapes(P_SLOPES, window),
                lambda: shape_of_spec(spec, window),
                lambda: hobby_region_check(spec, window),
            ):
                with pytest.raises(ValueError, match="window must be >= 1"):
                    call()

    def test_shapes_are_nonempty_and_canonical(self):
        for s in enumerate_shapes(Q_SLOPES):
            assert s.bitmap
            assert min(m for m, _ in s.bitmap) == 0
            assert min(n for _, n in s.bitmap) == 0

    def test_json_shape(self):
        s = enumerate_shapes(P_SLOPES)[3]
        d = s.to_json_dict()
        assert d["slopes"] == [2, 1, -3, 1]
        assert d["index"] == 3 and d["window"] == s.window
        assert d["pixels"] == sorted(s.bitmap)


def reference_shapes(slopes, window=None):
    """enumerate_shapes rebuilt pixel by pixel: centre membership over the
    whole window box, anchored at the floor of the exact boundary-line
    crossing, with the same window doubling."""
    a, b, c, d = slopes.as_tuple()
    det = b * c - a * d
    base = default_window(slopes) if window is None else window
    for factor in (1, 2, 4, 8):
        w = base * factor
        shapes = []
        for j in range(slopes.count):
            # crossing of a*m - b*n = 0 and c*m - d*n = j
            am, an = math.floor(F(b * j, det)), math.floor(F(a * j, det))
            pixels = {
                (m, n)
                for m in range(am - w, am + w + 1)
                for n in range(an - w, an + w + 1)
                if a * m - b * n >= 0 and c * m - d * n >= j
            }
            if not pixels:
                break
            min_m = min(m for m, _ in pixels)
            min_n = min(n for _, n in pixels)
            corner = (am - min_m, an - min_n)
            shapes.append(ShapeClass(slopes.as_tuple(), j, w, canonicalize(pixels), corner))
        else:
            if len({s.bitmap for s in shapes}) == slopes.count:
                return shapes
    raise WindowTooSmall(str(slopes.as_tuple()))


class TestEnumerateAgainstReference:
    PAIRS = [(p, q) for p in range(-5, 6) for q in range(-5, 6) if math.gcd(p, q) == 1]

    def test_every_field_matches_pixel_by_pixel_reference(self):
        rng = random.Random(95)
        all_slopes = [
            Slopes(a, b, c, d)
            for a, b in self.PAIRS
            for c, d in self.PAIRS
            if 0 < abs(a * d - b * c) <= 12
        ]
        doubled = 0
        for slopes in rng.sample(all_slopes, 40):
            assert enumerate_shapes(slopes) == reference_shapes(slopes)
            # window 1 starts too small, so the doubling branch runs
            shapes = enumerate_shapes(slopes, 1)
            assert shapes == reference_shapes(slopes, 1)
            doubled += shapes[0].window > 1
        assert doubled > 0

    def test_window_too_small_matches_reference(self):
        slopes = Slopes(10, 1, -1, 10)
        with pytest.raises(WindowTooSmall):
            reference_shapes(slopes, 1)
        with pytest.raises(WindowTooSmall):
            enumerate_shapes(slopes, 1)

    def test_classes_share_pixel_tuples(self):
        shapes = enumerate_shapes(P_SLOPES)
        pool = {}
        for s in shapes:
            for px in s.bitmap:
                assert pool.setdefault(px, px) is px


def column_tables(pair):
    """The class tables of a pair at the sweep's base window max |entry|."""
    window = max(abs(e) for e in pair)
    return [sig for sig, _ in class_signatures(Slopes(*pair), window)[1]]


def neighbour_moves(sigs):
    """(runs disjoint from the same column's run in the class before, classes
    whose column list differs from the one before)."""
    disjoint = changed = 0
    for s0, s1 in zip(sigs, sigs[1:]):
        if [m for m, _, _ in s0] != [m for m, _, _ in s1]:
            changed += 1
            continue
        disjoint += sum(hi1 < lo0 or lo1 > hi0 for (_, lo0, hi0), (_, lo1, hi1) in zip(s0, s1))
    return disjoint, changed


class TestBitmapsAgainstDirectBuild:
    def test_named_neighbour_cases(self):
        # class 1 of (-1,-3,-1,-1): column 6 moves from rows 4..4 to 3..3;
        # class 1 of (-1,-1,1,-1) occupies other columns than class 0
        for pair, moves in (((-1, -3, -1, -1), (1, 0)), ((-1, -1, 1, -1), (0, 1))):
            sigs = column_tables(pair)
            assert neighbour_moves(sigs) == moves, pair
            assert _bitmaps(sigs) == direct_bitmaps(sigs), pair
        sigs = column_tables((-1, -3, -1, -1))
        assert (6, 4, 4) in sigs[0] and (6, 3, 3) in sigs[1]

    def test_every_small_pair_and_seeded_large_pairs(self):
        pairs = [
            (a, b, c, d)
            for a, b in coprime_pairs(4)
            for c, d in coprime_pairs(4)
            if a * d - b * c
        ]
        assert len(pairs) == 2208
        rng = random.Random(10)
        large = []
        while len(large) < 20:
            a, b, c, d = pair = tuple(rng.randint(-16, 16) for _ in range(4))
            if math.gcd(a, b) == 1 and math.gcd(c, d) == 1 and 26 <= abs(a * d - b * c) <= 250:
                large.append(pair)
        disjoint = changed = derived = 0
        for pair in pairs + large:
            sigs = column_tables(pair)
            assert _bitmaps(sigs) == direct_bitmaps(sigs), pair
            moves = neighbour_moves(sigs)
            disjoint += moves[0]
            changed += moves[1]
            derived += len(sigs) - 1 - moves[1]
        # every branch of the derivation ran, many times
        assert disjoint > 100 and changed > 1000 and derived > 10000, (disjoint, changed, derived)


def column_top_diffs(bitmap):
    tops = {}
    for m, n in bitmap:
        tops[m] = max(tops.get(m, n), n)
    cols = sorted(tops)
    return [tops[cols[i + 1]] - tops[cols[i]] for i in range(len(cols) - 1)]


def contains_contiguous(haystack, needle):
    return any(
        haystack[i : i + len(needle)] == needle
        for i in range(len(haystack) - len(needle) + 1)
    )


class TestKnownShapeProfiles:
    # Column-top step sequences around the apex, worked out by hand from the
    # membership inequalities: tops of the 2/1 vs -3/1 family follow
    # min(2m, -3m - j), so the apex transition step distinguishes the class.
    P_STEPS = {
        0: [2, 2, 2, -3, -3],
        1: [2, 2, 1, -3, -3],
        2: [2, 2, 2, 0, -3, -3],
        3: [2, 2, 2, -1, -3],
        4: [2, 2, 2, -2, -3],
    }

    def test_first_family_profiles(self):
        shapes = enumerate_shapes(P_SLOPES)
        for j, steps in self.P_STEPS.items():
            diffs = column_top_diffs(shapes[j].bitmap)
            assert contains_contiguous(diffs, steps), (j, diffs)

    def test_second_family_first_profile(self):
        shape = enumerate_shapes(Q_SLOPES)[0]
        diffs = column_top_diffs(shape.bitmap)
        assert contains_contiguous(diffs, [-1, 0, -1, 0, -1, 0, -1]), diffs


class TestReflections:
    def test_single_pixel_own_axis(self):
        assert reflection_symmetric({(0, 0)}, "vertical", F(1, 2))

    def test_mirrored_pair(self):
        assert reflection_symmetric({(0, 0), (2, 0)}, "vertical", F(3, 2))

    def test_horizontal_and_diagonals(self):
        assert reflection_symmetric({(0, 0), (0, 2)}, "horizontal", F(3, 2))
        assert reflection_symmetric({(0, 0), (2, 2)}, "diagonal45", 0)
        assert not reflection_symmetric({(0, 1), (2, 2)}, "diagonal45", 0)
        assert reflection_symmetric({(0, 0)}, "antidiagonal45", 1)

    def test_apex_column_asymmetry(self):
        shape = enumerate_shapes(P_SLOPES)[0]
        col = shape.corner_pixel[0]
        assert not reflection_symmetric(shape.bitmap, "vertical", col)
        assert not reflection_symmetric(shape.bitmap, "vertical", F(2 * col + 1, 2))

    def test_invalid_axes(self):
        with pytest.raises(InvalidAxis):
            reflection_symmetric({(0, 0)}, "vertical", F(1, 3))
        with pytest.raises(InvalidAxis):
            reflection_symmetric({(0, 0)}, "diagonal45", F(1, 2))
        with pytest.raises(InvalidAxis):
            reflection_symmetric({(0, 0)}, "sideways", 0)


def test_canonicalize():
    assert canonicalize({(3, 5), (4, 7)}) == frozenset({(0, 0), (1, 2)})
    assert canonicalize(frozenset()) == frozenset()
