import math
import pickle
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
    canonicalize,
    class_index,
    class_of_params,
    default_window,
    enumerate_shapes,
    equivalent,
    reflection_symmetric,
    region_params,
    shape_of_spec,
)
from pixelwedge.digitize import region_pixels, window_columns
from pixelwedge.shapes import _bitmaps, anchored_regions, class_fingerprints, class_signatures, separating_window
from pixelwedge.verify import coprime_pairs, hobby_region_check

from conftest import coprime_pair, corner_st, rebuilt, slopes_st
from oracles import direct_bitmaps, fraction_thresholds, min_row_table, shift_params

F = Fraction

P_SLOPES = Slopes(2, 1, -3, 1)
Q_SLOPES = Slopes(3, -1, -1, 2)


def spec_p(x, y):
    return AngleSpec(2, 1, -3, 1, (F(x), F(y)))


def _member_fn(spec):
    alpha, beta = fraction_thresholds(spec)
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

    @staticmethod
    def corner_coords(rng):
        """A dyadic, a decimal, an integer and a half-integer coordinate."""
        return (
            F(rng.getrandbits(64), 1 << 64),
            F(rng.randrange(10 ** 3), 10 ** rng.randint(1, 3)),
            F(rng.randint(-5, 5)),
            F(2 * rng.randint(-5, 5) + 1, 2),
        )

    def test_integer_formula_matches_fraction_thresholds(self):
        # all pairs with entries <= 3; the corners of corner_coords, shifted
        # by random integers; the oracle is the Fraction formula
        rng = random.Random(960)
        pairs = coprime_pairs(3)
        for a, b in pairs:
            for c, d in pairs:
                if a * d == b * c:
                    continue
                coords = self.corner_coords(rng)
                for x in coords:
                    for y in coords:
                        spec = AngleSpec(a, b, c, d, (x + rng.randint(-50, 50), y))
                        alpha, beta = fraction_thresholds(spec)
                        ceilings = (math.ceil(alpha), math.ceil(beta))
                        assert region_params(spec) == RegionParams(alpha, beta, *ceilings), spec
                        assert class_index(spec) == class_of_params(spec.slopes, *ceilings), spec

    def test_integer_corner_is_the_fraction_corner(self):
        rng = random.Random(961)
        for _ in range(50):
            coords = self.corner_coords(rng)
            for x0 in coords:
                for y0 in coords:
                    spec = spec_p(x0 + rng.randint(-50, 50), y0)
                    x, y, q = spec.xyq
                    assert (F(x, q), F(y, q)) == spec.corner and q > 0, spec
                    assert q == math.lcm(spec.corner[0].denominator, spec.corner[1].denominator)
                    # outside the fields: eq, hash and repr see the corner only
                    twin = spec_p(*spec.corner)
                    assert spec == twin and hash(spec) == hash(twin) and repr(spec) == repr(twin)
                    assert "xyq" not in repr(spec)
                    assert pickle.loads(pickle.dumps(spec)).xyq == spec.xyq
                    assert rebuilt(spec).xyq == spec.xyq
                    mx, my, mq = rebuilt(spec, corner=(y0, x0)).xyq
                    assert (F(mx, mq), F(my, mq)) == (y0, x0)
        assert AngleSpec.__match_args__ == ("a", "b", "c", "d", "corner")

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
        base, shifted = class_fingerprints(slopes.as_tuple(), [(alpha, beta), (a2, b2)], w)
        assert shifted == base


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
    crossing, with the same window doubling. Distinct classes have distinct
    unclipped regions, so some window separates them and the loop ends."""
    a, b, c, d = slopes.as_tuple()
    det = b * c - a * d
    w = default_window(slopes) if window is None else window
    while True:
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
        w *= 2


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
        # window 1 collides at 1, 2, 4 and 8, and 16 >= max |entry| = 10 separates
        slopes = Slopes(10, 1, -1, 10)
        shapes = enumerate_shapes(slopes, 1)
        assert shapes[0].window == separating_window(slopes, 1) == 16
        assert shapes == reference_shapes(slopes, 1)

    def test_classes_share_pixel_tuples(self):
        shapes = enumerate_shapes(P_SLOPES)
        pool = {}
        for s in shapes:
            for px in s.bitmap:
                assert pool.setdefault(px, px) is px


class TestSeparatingWindow:
    """class_signatures' lemma: at the window M = max |entry| the D class
    fingerprints are nonempty and pairwise distinct."""

    @staticmethod
    def separates(pair):
        slopes = Slopes(*pair)
        window = max(abs(e) for e in pair)
        sigs = [sig for sig, _ in class_fingerprints(pair, [(0, j) for j in range(slopes.count)], window)]
        return all(sigs) and len(set(sigs)) == slopes.count

    def test_every_pair_with_entries_up_to_five(self):
        pairs = [(a, b, c, d) for a, b in coprime_pairs(5) for c, d in coprime_pairs(5) if a * d != b * c]
        assert len(pairs) == 6240
        assert [pair for pair in pairs if not self.separates(pair)] == []

    def test_seeded_pairs_with_entries_up_to_sixty(self):
        rng = random.Random(15)
        checked = 0
        while checked < 20:
            a, b, c, d = pair = tuple(rng.randint(-60, 60) for _ in range(4))
            if math.gcd(a, b) == 1 and math.gcd(c, d) == 1 and 0 < abs(a * d - b * c) <= 3000:
                assert self.separates(pair), pair
                checked += 1

    def test_separating_window_is_the_first_doubling_past_max_entry(self):
        for pair, window, grown in (((10, 1, -1, 10), 1, 16), ((40, 1, -1, 40), 6, 48),
                                    ((40, 1, -1, 40), 40, 40), ((2, 1, -3, 1), 1, 4)):
            assert separating_window(Slopes(*pair), window) == grown, pair

    def test_collision_at_the_separating_window_stops_the_doubling(self, monkeypatch):
        monkeypatch.setattr(
            "pixelwedge.shapes.class_fingerprints",
            lambda pair, thresholds, window: [(((0, 0, 0),), (0, 0)) for _ in thresholds],
        )
        with pytest.raises(AssertionError, match=r"classes of \(10, 1, -1, 10\) collide at window 16"):
            class_signatures(Slopes(10, 1, -1, 10), 1)


class TestFingerprintStrength:
    def test_runs_are_equal_iff_boxed_sets_are_translates(self):
        # windows run from 1 to max |entry|, below which the boxed sets of
        # distinct classes can coincide; the regions are the D classes, some
        # translates of them and some boxes placed at random. Runs from the
        # first pixel must merge and separate them exactly as `canonicalize`
        # does, also where two translates sit at different offsets from
        # their anchors, which runs taken from the anchor would keep apart.
        rng = random.Random(97)
        pairs = coprime_pairs(5)
        compared = off_anchor = 0
        for _ in range(150):
            (a, b), (c, d) = rng.choice(pairs), rng.choice(pairs)
            det = a * d - b * c
            if det == 0:
                continue
            slopes = Slopes(a, b, c, d)
            thresholds = [(0, j) for j in range(abs(det))]
            thresholds += [shift_params(slopes, 0, rng.randrange(abs(det)), rng.randint(-4, 4), rng.randint(-4, 4))
                           for _ in range(3)]
            regions = anchored_regions(a, b, c, d, thresholds)
            regions += [(rng.randint(-9, 9), rng.randint(-9, 9), (rng.randint(-5, 5), rng.randint(-5, 5)))
                        for _ in range(3)]
            window = rng.randint(1, max(abs(a), abs(b), abs(c), abs(d)))
            seen = []
            for (_, _, anchor), (origin, runs, _) in zip(regions, window_columns(a, b, c, d, regions, window)):
                m0, n0 = origin or (0, 0)
                pixels = canonicalize((m0 + m, n) for m, lo, hi in runs for n in range(n0 + lo, n0 + hi + 1))
                offset = origin and (origin[0] - anchor[0], origin[1] - anchor[1])
                for runs2, pixels2, offset2 in seen:
                    assert (runs == runs2) == (pixels == pixels2), (a, b, c, d, window)
                    off_anchor += pixels == pixels2 and offset != offset2
                    compared += 1
                seen.append((runs, pixels, offset))
        assert compared > 10000 and off_anchor > 100, (compared, off_anchor)


def column_tables(pair):
    """The class tables of a pair at the sweep's base window max |entry|,
    rows taken from each table's first pixel."""
    window = max(abs(e) for e in pair)
    return [sig for sig, _ in class_signatures(Slopes(*pair), window)[1]]


def neighbour_moves(sigs):
    """(columns that appear, columns that vanish, runs disjoint from the same
    column's run) from each class to the next, in canonical rows."""
    tables = [{m: (lo, hi) for m, lo, hi in min_row_table(sig)} for sig in sigs]
    appear = vanish = disjoint = 0
    for t0, t1 in zip(tables, tables[1:]):
        appear += len(t1.keys() - t0.keys())
        vanish += len(t0.keys() - t1.keys())
        disjoint += sum(t1[m][1] < lo0 or t1[m][0] > hi0 for m, (lo0, hi0) in t0.items() if m in t1)
    return appear, vanish, disjoint


class TestBitmapsAgainstDirectBuild:
    def test_named_neighbour_cases(self):
        # class 1 of (-1,-3,-1,-1): column 6 moves from rows 4..4 to 3..3;
        # class 1 of (-1,-1,1,-1): column 2 vanishes, column 0 moves from 1..1
        # to 0..0; class 1 of (1,1,-2,1) gains column 4, class 2 loses it
        cases = {(-1, -3, -1, -1): (0, 0, 1), (-1, -1, 1, -1): (0, 1, 1), (1, 1, -2, 1): (1, 1, 0)}
        for pair, moves in cases.items():
            sigs = column_tables(pair)
            assert neighbour_moves(sigs) == moves, pair
            assert _bitmaps(sigs) == direct_bitmaps(sigs), pair
        sigs = [min_row_table(sig) for sig in column_tables((-1, -3, -1, -1))]
        assert (6, 4, 4) in sigs[0] and (6, 3, 3) in sigs[1]
        sigs = [min_row_table(sig) for sig in column_tables((1, 1, -2, 1))]
        assert [len(sig) for sig in sigs] == [4, 5, 4] and (4, 0, 0) in sigs[1]

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
        appear = vanish = disjoint = shifted = 0
        for pair in pairs + large:
            sigs = column_tables(pair)
            out = _bitmaps(sigs)
            assert out == direct_bitmaps(sigs), pair
            # one frozenset object per class: the working set never leaks out
            assert all(type(b) is frozenset for b in out), pair
            assert len({id(b) for b in out}) == len(sigs), pair
            moves = neighbour_moves(sigs)
            appear += moves[0]
            vanish += moves[1]
            disjoint += moves[2]
            # classes whose first pixel sits at another height above the
            # lowest row than in the class before: all rows shift anew
            lows = [min(lo for _, lo, _ in sig) for sig in sigs]
            shifted += sum(lows[k] != lows[k + 1] for k in range(len(sigs) - 1))
        # every case of the walk ran, many times
        assert min(appear, vanish, disjoint, shifted) > 1000, (
            appear, vanish, disjoint, shifted)

    def test_shape_of_spec_is_its_enumerated_class(self):
        # shape_of_spec builds its one table directly, enumerate_shapes
        # through _bitmaps; at enumerate's own window both give one class
        rng = random.Random(13)
        pairs = coprime_pairs(3)
        checked = 0
        while checked < 150:
            a, b = rng.choice(pairs)
            c, d = rng.choice(pairs)
            if a * d == b * c:
                continue
            shapes = enumerate_shapes(Slopes(a, b, c, d))
            for _ in range(4):
                den = rng.choice((2, 3, 10, 1000))
                corner = (F(rng.randint(-5 * den, 5 * den), den), F(rng.randint(-5 * den, 5 * den), den))
                spec = AngleSpec(a, b, c, d, corner)
                shape = shape_of_spec(spec, shapes[0].window)
                assert shape == shapes[class_index(spec)], spec
            checked += 1


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
