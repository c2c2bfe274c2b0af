import hashlib
import json
import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from pixelwedge import (
    AngleSpec,
    DomainError,
    PixelCenterHit,
    Slopes,
    enumerate_shapes,
    exact_class_areas,
    hobby_region_check,
    sample_class_frequencies,
    theorem_sweep,
)
from pixelwedge import cli, verify
from pixelwedge.digitize import digitize_angle_path, is_pixel_center, threshold_ceilings
from pixelwedge.exact import extended_gcd
from pixelwedge.partition import cell_bases
from pixelwedge.shapes import canonicalize, class_of_params, class_signatures
from pixelwedge.verify import chi2_q999, coprime_pairs

from oracles import column_interval, direct_bitmaps, fraction_thresholds, integer_tie_in_window

F = Fraction

P_SLOPES = Slopes(2, 1, -3, 1)
Q_SLOPES = Slopes(3, -1, -1, 2)


class TestSampling:
    def test_counts_conserved(self):
        hist = sample_class_frequencies(P_SLOPES, 5, seed=123)
        assert sum(hist.counts) == 5
        assert len(hist.counts) == 5

    def test_deterministic_for_seed(self):
        h1 = sample_class_frequencies(P_SLOPES, 20000, seed=5)
        h2 = sample_class_frequencies(P_SLOPES, 20000, seed=5)
        assert h1.counts == h2.counts and h1.chisq == h2.chisq

    def test_different_seeds_differ(self):
        h1 = sample_class_frequencies(P_SLOPES, 20000, seed=5)
        h2 = sample_class_frequencies(P_SLOPES, 20000, seed=6)
        assert h1.counts != h2.counts

    def test_worker_count_does_not_change_results(self):
        h1 = sample_class_frequencies(P_SLOPES, 70000, seed=11, workers=1)
        h2 = sample_class_frequencies(P_SLOPES, 70000, seed=11, workers=3)
        assert h1.counts == h2.counts

    def test_package_import_leaves_process_pool_unloaded(self):
        # the process pool is imported only when workers > 1
        code = "import sys, pixelwedge; print('concurrent.futures.process' in sys.modules)"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout == b"False\n"

    def test_rejects_empty_draw(self):
        with pytest.raises(ValueError):
            sample_class_frequencies(P_SLOPES, 0, seed=1)

    @pytest.mark.parametrize(
        "n, seed, name",
        [(1000, 1.5, "seed"), (1000, True, "seed"), (1000, "5", "seed"), (1000.0, 5, "n"), (True, 5, "n")],
    )
    def test_rejects_n_and_seed_other_than_int(self, n, seed, name):
        # a float or bool seed used to be sampled as the text "1.5/0" or "True/0"
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            sample_class_frequencies(P_SLOPES, n, seed)

    def test_rough_uniformity_small_run(self):
        hist = sample_class_frequencies(Q_SLOPES, 50000, seed=42)
        assert hist.passed
        assert all(abs(f - 0.2) < 0.02 for f in hist.frequencies)

    def test_json_fields(self):
        hist = sample_class_frequencies(P_SLOPES, 1000, seed=3)
        d = hist.to_json_dict()
        assert d["samples"] == 1000 and d["classes"] == 5
        assert sum(d["counts"]) == 1000
        assert d["threshold"] == chi2_q999(4)
        assert "PASS" in hist.table() or "FAIL" in hist.table()


# sha256 of repr((counts, resampled, chisq)) over every (n, seed) below, in
# order; pins the sampled outputs of each pair, block boundaries included.
PINNED_NS = (1, 1023, 1025, 32767, 32768, 32769, 70000)
PINNED_SEEDS = (0, 7)
PINNED_SAMPLES = {
    (2, 1, -3, 1): "04b05562c3f03f1e54d43430ee47782602bad65d636ed89bd4108dab383a60f6",
    (3, -1, -1, 2): "b3f145e07d90e84cdb7d34325522d80af2693965507d2c94317bf929396972e8",
    (1, 0, 0, 1): "e999e7223250fc95c19362616a5ea3a2cd973bbff72b1715488c3203d6f84ebc",
    (13, 1, -13, 1): "0c80562871a2bb877e60b843973fdb80b36c2e9771ea9ddf564887500042622e",
    (5, -4, 3, 5): "36b4da280e270db7686885d1aca1ffa80ad8891b3d7fa26b7713a3e37d865259",
    (2**40 + 1, 2**40, 2**40, 2**40 - 1):
        "e999e7223250fc95c19362616a5ea3a2cd973bbff72b1715488c3203d6f84ebc",
}
# sha256 of `pixelwedge verify` stdout (seed 0)
PINNED_CLI = {
    ("2/1", "-3/1", "100000", "ascii"): "95c21c36f8fc41927577c2d9652acc69f3820b731b2c30f165116af0850aa040",
    ("2/1", "-3/1", "100000", "json"): "0c26d57d1daa29e2c950aeee5d217da8687d1579aa4f6d218746ba6df2249fe9",
    ("13/1", "-13/1", None, "ascii"): "1470ace5fc0e1e0a30319b5c93206f77b65f951dad1692f59d56497b459f8bf8",
    ("13/1", "-13/1", None, "json"): "92a27133792f4a3d4ce4c1a11dc1bb7d897d87401109c6c3a52e366f47ac1993",
}


class TestPinnedSamples:
    @pytest.mark.parametrize("pair", list(PINNED_SAMPLES))
    def test_sampled_outputs_pinned(self, pair):
        h = hashlib.sha256()
        for n in PINNED_NS:
            for seed in PINNED_SEEDS:
                hist = sample_class_frequencies(Slopes(*pair), n, seed)
                h.update(repr((hist.counts, hist.resampled, hist.chisq)).encode())
        assert h.hexdigest() == PINNED_SAMPLES[pair]

    @pytest.mark.parametrize("key", list(PINNED_CLI))
    def test_cli_verify_stdout_pinned(self, key):
        s1, s2, samples, fmt = key
        argv = ["verify", "--slope1", s1, "--slope2", s2, "--format", fmt]
        if samples is not None:
            argv += ["--samples", samples]
        r = subprocess.run([sys.executable, "-m", "pixelwedge", *argv], capture_output=True, timeout=120)
        assert (r.returncode, r.stderr) == (0, b"")
        assert hashlib.sha256(r.stdout).hexdigest() == PINNED_CLI[key]


def scalar_count_block(slopes_tuple, seed, block, take):
    """The one-corner-per-turn sampler the packed-lane kernel replaced; the
    oracle for `verify._count_block`."""
    a, b, c, d = slopes_tuple
    big_d = abs(a * d - b * c)
    _, x, y = extended_gcd(a, b)
    rng = random.Random(f"{seed}/{block}")
    counts = [0] * big_d
    resampled = 0
    for _ in range(take):
        while True:
            px = rng.getrandbits(64)
            py = rng.getrandbits(64)
            if px != 1 << 63 or py != 1 << 63:
                break
            resampled += 1  # corner fell on a pixel center
        nx = px - (1 << 63)  # numerator of x0 - 1/2 over 2^64
        ny = py - (1 << 63)
        alpha = -((-(a * nx - b * ny)) >> 64)  # exact ceiling
        beta = -((-(c * nx - d * ny)) >> 64)
        counts[(beta - alpha * x * c + alpha * y * d) % big_d] += 1
    return counts, resampled


def scalar_sample(pair, n, seed):
    """(counts, resampled, chisq) of sample_class_frequencies, by the oracle."""
    counts = [0] * abs(pair[0] * pair[3] - pair[1] * pair[2])
    resampled = 0
    for i in range(-(-n // verify._BLOCK)):
        block_counts, block_resampled = scalar_count_block(pair, seed, i, min(verify._BLOCK, n - i * verify._BLOCK))
        counts = [u + v for u, v in zip(counts, block_counts)]
        resampled += block_resampled
    expected = n / len(counts)
    return tuple(counts), resampled, sum((cnt - expected) ** 2 / expected for cnt in counts)


SMALL_PAIRS = [
    (a, b, c, d) for a, b in coprime_pairs(3) for c, d in coprime_pairs(3) if a * d - b * c
]
# pairs whose lanes and keys are wider than those of small entries
WIDE_PAIRS = [
    (300, 1, -1, 300),  # D = 90001
    (123, -97, 77, 65),
    (1000, 999, 999, 998),
    (2**70 + 1, 2**70, 2**70, 2**70 - 1),  # D = 1
    (2**70 + 1, 2**70, 2**70 + 3, 2**70 + 2),  # D = 2
    (2**40 + 1, 2**40, 2**40 + 4, 2**40 + 3),  # D = 3: keys wider than 64 bits
    (2**70 + 1, 2**70, 2**70 + 4, 2**70 + 3),  # D = 3
    (2**30 + 1, 2**30, 2**30 + 4, 2**30 + 3),  # D = 3: keys of 64 bits, through the lanes
    (2**30 + 1, 2**30, 2**31 + 5, 2**31 + 3),  # D = 3: keys of 65 bits, draw by draw
    (2**62 + 1, 2**62 - 1, 1, 1),  # D = 2: keys of 66 bits, draw by draw
    (2**61 + 2, 2**61 - 1, 1, 1),  # D = 3: keys of 65 bits, the top one set in half the draws, draw by draw
    (2**60 + 1, 2**60 - 1, 1, 1),  # D = 2: keys of 64 bits, through the lanes
    (1, 1, 2**62 + 1, 2**62 - 1),  # D = 2: keys of 66 bits, draw by draw
]


# pairs on each side of the byte-key selection: keys of at most 8 bits and
# D <= verify._BYTE_KEY_CLASSES (66) are counted by class, the rest by key
BYTE_KEY_PAIRS = [
    (2, 1, -3, 1),  # D = 5: keys of 5 bits
    (-15, -7, -5, -2),  # D = 5: keys of 8 bits
    (-1, 5, 13, 1),  # D = 66: keys of 7 bits
]
COUNTED_KEY_PAIRS = [
    (-1, 6, 11, 1),  # D = 67: keys of 7 bits
    (7, 8, -8, 7),  # D = 113: keys of 8 bits
    (-15, -7, -5, -3),  # D = 10: keys of 9 bits
    (16, 1, -1, 16),  # D = 257: keys of 10 bits
]
# byte-key pairs at the edges of the popcount's groups of 8 classes, which
# count the D - 1 classes but the last: none at D = 1, three groups, the
# third one class short, at D = 24 and full at D = 25, four likewise at
# D = 32 and 33; BYTE_KEY_PAIRS holds the bound's, nine groups at D = 66
GROUP_EDGE_PAIRS = [
    (2, 1, 1, 1),  # D = 1
    (-3, 4, 3, 4),  # D = 24
    (5, 2, -5, 3),  # D = 25, the largest D of the benchmark's sample workload
    (-1, 6, 5, 2),  # D = 32
    (-2, 5, 5, 4),  # D = 33
]


def sampled(pair, n, seed):
    hist = sample_class_frequencies(Slopes(*pair), n, seed)
    return hist.counts, hist.resampled, hist.chisq


class TestPackedKernel:
    def test_all_small_pairs_match_scalar_sampler(self):
        assert len(SMALL_PAIRS) == 960
        for pair in SMALL_PAIRS + BYTE_KEY_PAIRS + COUNTED_KEY_PAIRS + GROUP_EDGE_PAIRS:
            for n in (1, 1000):
                assert sampled(pair, n, 3) == scalar_sample(pair, n, 3), (pair, n)

    def test_block_boundaries_match_scalar_sampler(self):
        for pair in SMALL_PAIRS[::20] + BYTE_KEY_PAIRS + COUNTED_KEY_PAIRS + GROUP_EDGE_PAIRS:
            for n in (32767, 32769):
                assert sampled(pair, n, 9) == scalar_sample(pair, n, 9), (pair, n)

    @pytest.mark.parametrize("pair", WIDE_PAIRS)
    def test_wide_lanes_match_scalar_sampler(self, pair):
        for n in (1, 1000, 2049):
            assert sampled(pair, n, 5) == scalar_sample(pair, n, 5), n

    @pytest.mark.parametrize("pair", BYTE_KEY_PAIRS[:2])
    def test_key_groups_match_scalar_sampler(self, pair):
        # byte keys gather in groups of 16 lane chunks: blocks that end one
        # chunk short of, at and one past one and two full groups, and a short
        # final chunk after a partial group
        chunk = verify._CHUNK
        takes = [k * chunk for k in (15, 16, 17, 31, 32, 33)] + [17 * chunk + 7, 20 * chunk + 300]
        for take in takes:
            assert verify._count_block(pair, 2, 0, take) == scalar_count_block(pair, 2, 0, take), take

    @pytest.mark.parametrize(
        "pair, by_class",
        [(p, True) for p in BYTE_KEY_PAIRS]
        + [(p, False) for p in COUNTED_KEY_PAIRS]
        + [(p, True) for p in GROUP_EDGE_PAIRS],
    )
    def test_byte_keys_are_counted_by_class(self, monkeypatch, pair, by_class):
        a, b, c, d = pair
        width = (abs(a) + abs(b)).bit_length() + (abs(c) + abs(d)).bit_length()
        assert by_class == (width <= 8 and abs(a * d - b * c) <= verify._BYTE_KEY_CLASSES)
        updates = []

        class Recorded(Counter):
            def update(self, keys=None):
                if keys is not None:  # Counter() itself calls update(None)
                    updates.append(keys)
                super().update(keys)

        monkeypatch.setattr("pixelwedge.verify.Counter", Recorded)
        assert verify._count_block(pair, 1, 0, 1000) == scalar_count_block(pair, 1, 0, 1000)
        assert bool(updates) != by_class


HALF_Q = 1 << 63


class ScriptedRandom:
    """Serves a fixed list of 32-bit words, least significant first, as
    CPython's Mersenne Twister does for getrandbits(k), k > 32; the seed is
    ignored."""

    script: list[int] = []

    def __init__(self, seed=None):
        self.words = iter(self.script)

    def getrandbits(self, k):
        out = 0
        for i in range(-(-k // 32)):
            word = next(self.words)
            if k - 32 * i < 32:
                word >>= 32 - (k - 32 * i)
            out |= word << (32 * i)
        return out


def words_of(draws):
    return [w for px, py in draws for v in (px, py) for w in (v & 0xFFFFFFFF, v >> 32)]


class TestPixelCentreRedraw:
    def test_stub_matches_mersenne_twister_word_order(self, monkeypatch):
        ref = random.Random(1)
        monkeypatch.setattr(ScriptedRandom, "script", [ref.getrandbits(32) for _ in range(64)])
        ref.seed(1)
        stub = ScriptedRandom()
        assert [stub.getrandbits(64) for _ in range(4)] == [ref.getrandbits(64) for _ in range(4)]
        assert stub.getrandbits(128 * 3) == ref.getrandbits(128 * 3)
        assert stub.getrandbits(40) == ref.getrandbits(40)

    @pytest.mark.parametrize(
        "pair",
        [
            (2, 1, -3, 1),
            (2**70 + 1, 2**70, 2**70 + 3, 2**70 + 2),
            (2**30 + 1, 2**30, 2**30 + 4, 2**30 + 3),
            (7, 8, -8, 7),
            (16, 1, -1, 16),
        ],
    )
    def test_centre_draws_are_redrawn_like_scalar_sampler(self, monkeypatch, pair):
        n = 2100
        rng = random.Random(8)
        draws = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(n + 5)]
        # first draw, a chunk's last draw, two in a row, and the block's last draw
        hits = (0, verify._CHUNK - 1, 1500, 1501, n + 3)
        for i in hits:
            draws[i] = (HALF_Q, HALF_Q)
        draws[700] = (HALF_Q, draws[700][1])  # only px central: not a hit
        # py of one draw then px of the next: the centre's bytes, across two lanes
        draws[900] = (draws[900][0], HALF_Q)
        draws[901] = (HALF_Q, draws[901][1])
        # corners on a boundary line of either pair, where a ceiling is exact
        draws[1100:1104] = [(HALF_Q + HALF_Q // 2, 0), (HALF_Q + HALF_Q // 2,) * 2, (HALF_Q, 0), (0, 0)]
        monkeypatch.setattr("pixelwedge.verify.random.Random", ScriptedRandom)
        monkeypatch.setattr(ScriptedRandom, "script", words_of(draws))
        got = verify._count_block(pair, 0, 0, n)
        want = scalar_count_block(pair, 0, 0, n)
        assert got == want
        assert got[1] == len(hits)
        assert sum(got[0]) == n

    @pytest.mark.parametrize("pair", [(2, 1, -3, 1), (7, 8, -8, 7)])
    def test_only_chunks_with_a_centre_lane_go_draw_by_draw(self, monkeypatch, pair):
        chunk = verify._CHUNK
        n = 3 * chunk + 7
        rng = random.Random(4)
        draws = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(n + 2)]
        # chunk 0, near misses only: px central, py central, py of one draw
        # then px of the next, and one off the centre in either coordinate
        draws[1] = (HALF_Q, draws[1][1])
        draws[2] = (draws[2][0], HALF_Q)
        draws[3], draws[4] = (draws[3][0], HALF_Q), (HALF_Q, draws[4][1])
        draws[5:9] = [(HALF_Q, HALF_Q + 1), (HALF_Q, HALF_Q - 1), (HALF_Q + 1, HALF_Q), (HALF_Q - 1, HALF_Q)]
        # chunk 1 holds a centre in its last lane, so chunk 2 is 1024..1535 and
        # the short final chunk, 1536..1543, holds one in lane 0; 1544 replaces it
        draws[2 * chunk - 1] = (HALF_Q, HALF_Q)
        draws[3 * chunk] = (HALF_Q, HALF_Q)
        calls = []

        def counted(*args):
            calls.append(args)
            return threshold_ceilings(*args)

        monkeypatch.setattr("pixelwedge.verify.random.Random", ScriptedRandom)
        monkeypatch.setattr(ScriptedRandom, "script", words_of(draws))
        monkeypatch.setattr("pixelwedge.verify.threshold_ceilings", counted)
        got = verify._count_block(pair, 0, 0, n)
        assert got == scalar_count_block(pair, 0, 0, n)
        assert got[1] == 2
        # the kept draws of chunk 1 and of the short chunk, and no others
        assert [args[4:6] for args in calls] == draws[chunk:2 * chunk - 1] + draws[3 * chunk + 1:3 * chunk + 8]

    @pytest.mark.parametrize("centre_chunk", [15, 16])
    def test_a_centre_chunk_leaves_a_pending_key_group_whole(self, monkeypatch, centre_chunk):
        # byte keys gather in groups of 16 lane chunks; a chunk that goes draw
        # by draw with 15 of them pending, or just after a full group, joins
        # none, and the lane chunks after it fill the group as before
        chunk = verify._CHUNK
        n = 33 * chunk + 5
        rng = random.Random(6)
        draws = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(n + 1)]
        draws[centre_chunk * chunk + 100] = (HALF_Q, HALF_Q)
        monkeypatch.setattr("pixelwedge.verify.random.Random", ScriptedRandom)
        monkeypatch.setattr(ScriptedRandom, "script", words_of(draws))
        got = verify._count_block((2, 1, -3, 1), 0, 0, n)
        assert got == scalar_count_block((2, 1, -3, 1), 0, 0, n)
        assert got[1] == 1

    def test_more_centre_draws_than_samples(self, monkeypatch):
        rng = random.Random(3)
        draws = [(HALF_Q, HALF_Q)] * 1100 + [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(10)]
        monkeypatch.setattr("pixelwedge.verify.random.Random", ScriptedRandom)
        monkeypatch.setattr(ScriptedRandom, "script", words_of(draws))
        got = verify._count_block((3, -1, -1, 2), 0, 0, 10)
        assert got == scalar_count_block((3, -1, -1, 2), 0, 0, 10)
        assert got[1] == 1100


# The 0.999 chi-square quantiles the verdict used as a fixed table, to 6 decimals.
CHI2_Q999 = {
    1: 10.827566, 2: 13.815511, 3: 16.266236, 4: 18.466827, 5: 20.515006,
    6: 22.457744, 7: 24.321886, 8: 26.124482, 9: 27.877165, 10: 29.588298,
    11: 31.264134, 12: 32.909490, 13: 34.528179, 14: 36.123274, 15: 37.697298,
    16: 39.252355, 17: 40.790217, 18: 42.312396, 19: 43.820196, 20: 45.314747,
    21: 46.797038, 22: 48.267942, 23: 49.728232, 24: 51.178598,
}


class TestVerdict:
    def test_quantile_reproduces_table(self):
        assert {dof: chi2_q999(dof) for dof in CHI2_Q999} == CHI2_Q999

    def test_quantile_near_wilson_hilferty_at_large_dof(self):
        # the Wilson-Hilferty approximation's relative error shrinks like 1/dof
        z = 3.090232306167813  # standard normal 0.999 quantile
        for dof in (25, 40, 100, 1000, 10**5):
            approx = dof * (1 - 2 / (9 * dof) + z * (2 / (9 * dof)) ** 0.5) ** 3
            assert abs(chi2_q999(dof) - approx) < 0.06 / dof * approx, dof

    def test_quantile_increases_with_dof(self):
        values = [chi2_q999(dof) for dof in range(0, 60)]
        assert values[0] == 0.0
        assert all(u < v for u, v in zip(values, values[1:]))

    def test_verdict_for_one_class_is_pass(self):
        hist = sample_class_frequencies(Slopes(1, 0, 0, 1), 100, seed=1)
        assert hist.counts == (100,)
        assert hist.passed
        assert hist.table().endswith("(0 dof): PASS")
        assert hist.to_json_dict()["pass"] is True

    def test_verdict_at_the_threshold_fails(self):
        # D = 2 gives n * chi-square = (c0 - c1)^2, so with n = Q * 10^6 and
        # c0 - c1 = Q the exact chi-square is Q / 10^6, the threshold itself
        q = 10827566
        assert round(chi2_q999(1) * 10**6) == q
        n = q * 10**6

        def hist(counts):
            chisq = sum((c - n / 2) ** 2 / (n / 2) for c in counts)
            return verify.ClassHistogram((1, 1, -1, 1), n, 0, counts, chisq)

        assert not hist(((n + q) // 2, (n - q) // 2)).passed
        assert hist(((n + q) // 2 - 1, (n - q) // 2 + 1)).passed

    def test_verdict_beyond_old_table(self):
        slopes = Slopes(13, 1, -13, 1)
        assert slopes.count == 26
        hist = sample_class_frequencies(slopes, 26_000, seed=4)
        assert hist.threshold == chi2_q999(25)
        assert hist.passed == (hist.chisq < hist.threshold)
        assert hist.table().splitlines()[-1].endswith(("PASS", "FAIL"))


class TestExactAreas:
    def test_five_class_family(self):
        assert exact_class_areas(P_SLOPES) == [F(1, 5)] * 5

    def test_determinant_two(self):
        assert exact_class_areas(Slopes(1, 1, -1, 1)) == [F(1, 2), F(1, 2)]

    def test_areas_sum_to_one(self):
        for a, b in ((1, 3), (4, 1), (0, 1)):
            for c, d in ((-1, 2), (3, -2), (1, 0)):
                if a * d - b * c == 0:
                    continue
                assert sum(exact_class_areas(Slopes(a, b, c, d))) == 1


def interval_hobby_check(spec, window):
    """hobby_region_check with its earlier tie and flip tests: a division
    per column for each boundary line, and one unclamped column_interval per
    window column, each end a flip only inside the window, on the Fraction
    thresholds."""
    if is_pixel_center(spec.corner):
        raise PixelCenterHit("corner is a pixel center")
    alpha, beta = fraction_thresholds(spec)
    m0, n0 = math.floor(spec.corner[0]), math.floor(spec.corner[1])
    w = window
    m_range = range(m0 - w - 1, m0 + w + 2)
    n_range = (n0 - w - 1, n0 + w + 1)
    if integer_tie_in_window(spec.a, spec.b, alpha, m_range, n_range) or (
        integer_tie_in_window(spec.c, spec.d, beta, m_range, n_range)
    ):
        raise PixelCenterHit("a boundary line passes through a window pixel center")
    path = digitize_angle_path(spec, w + 4)
    edge_parity = {}
    for (x1, y1), (x2, y2) in zip(path, path[1:]):
        if y1 == y2:
            key = (min(x1, x2), y1)
            edge_parity[key] = edge_parity.get(key, 0) ^ 1
    for m in range(m0 - w, m0 + w + 1):
        flips = set()
        iv = column_interval(spec.a, spec.b, spec.c, spec.d, alpha, beta, m)
        if iv is not None:
            lo, hi = iv
            if lo is None or hi is None or lo <= hi:
                if lo is not None and n0 - w <= lo <= n0 + w:
                    flips.add(lo)
                if hi is not None and n0 - w <= hi + 1 <= n0 + w:
                    flips.add(hi + 1)
        path_edges = {
            k for (col, k), parity in edge_parity.items()
            if col == m and parity and n0 - w <= k <= n0 + w
        }
        if flips != path_edges:
            return False
    return True


def outcome(check, spec, window):
    try:
        return check(spec, window)
    except DomainError as exc:
        return type(exc), str(exc)


class TestHobbyProperty:
    SPEC = AngleSpec(2, 1, -3, 1, (F(1, 10), F(7, 10) + F(1, 1000)))

    def test_example(self):
        assert hobby_region_check(self.SPEC, 6)

    def patch_first_window_edge(self, monkeypatch, detour):
        """Insert `detour(x1, x2, y)` into the first horizontal path edge
        (x1, y) -> (x2, y) inside the window of SPEC at 6."""
        real = verify.digitize_angle_path

        def patched(spec, extent):
            path = real(spec, extent)
            for i, ((x1, y1), (x2, y2)) in enumerate(zip(path, path[1:])):
                if y1 == y2 and abs(min(x1, x2)) <= 6 and abs(y1) <= 5:
                    return path[: i + 1] + detour(x1, x2, y1) + path[i + 1 :]
            raise AssertionError("no horizontal path edge inside the window")

        monkeypatch.setattr("pixelwedge.verify.digitize_angle_path", patched)

    def test_edge_moved_one_row_fails(self, monkeypatch):
        self.patch_first_window_edge(monkeypatch, lambda x1, x2, y: [(x1, y + 1), (x2, y + 1)])
        assert hobby_region_check(self.SPEC, 6) is False

    def test_dropped_edge_fails(self, monkeypatch):
        # the detour vertex leaves a vertical and a diagonal step, no horizontal edge
        self.patch_first_window_edge(monkeypatch, lambda x1, x2, y: [(x1, y + 1)])
        assert hobby_region_check(self.SPEC, 6) is False

    def test_matches_column_interval_check(self):
        rng = random.Random(7070)
        pairs = coprime_pairs(4)
        results = set()
        for window in range(1, 10):
            done = 0
            while done < 40:
                a, b = rng.choice(pairs)
                c, d = rng.choice(pairs)
                if a * d - b * c == 0:
                    continue
                # small denominators put pixel centres on corners and boundary lines
                den = rng.choice((2, 10, 1000))
                nudge = rng.choice((0, F(1, 2017)))
                corner = (F(rng.randint(-3 * den, 3 * den), den) + nudge,
                          F(rng.randint(-3 * den, 3 * den), den))
                spec = AngleSpec(a, b, c, d, corner)
                got = outcome(hobby_region_check, spec, window)
                assert got == outcome(interval_hobby_check, spec, window), (spec, window)
                results.add(got if got is True else got[0])
                done += 1
        assert results == {True, PixelCenterHit}

    def test_corner_at_pixel_center(self):
        with pytest.raises(PixelCenterHit):
            hobby_region_check(AngleSpec(2, 1, -3, 1, (F(1, 2), F(1, 2))), 4)

    def test_boundary_through_center_rejected(self):
        # slope-1 line from (1/4, 1/4) runs through every center (k+1/2, k+1/2)
        spec = AngleSpec(1, 1, -1, 1, (F(1, 4), F(1, 4)))
        with pytest.raises(PixelCenterHit):
            hobby_region_check(spec, 4)

    def test_tie_one_pixel_past_the_window_is_refused(self):
        # m + 4n = 1 holds at the centres of (1, 0) and (-3, 1), two columns
        # either side of the corner pixel (-1, 0): outside window 1, inside
        # the box one pixel past it
        spec = AngleSpec(1, -4, 1, 0, (F(-1, 10), F(9, 10)))
        with pytest.raises(PixelCenterHit, match="boundary line passes through a window pixel center"):
            hobby_region_check(spec, 1)

    def test_tie_two_pixels_past_the_window_is_left_to_the_path(self):
        # 7m - 11n = 6 holds at the centre of (4, 2), three columns right of
        # the corner pixel (1, 0): past the box one pixel beyond window 1, so
        # only the digitized path, which runs further out, meets it
        spec = AngleSpec(4, -5, 7, 11, (F(7, 4), F(3, 4)))
        with pytest.raises(PixelCenterHit, match=r"^path passes through a pixel center at t=13/16$"):
            hobby_region_check(spec, 1)

    def test_randomised(self):
        rng = random.Random(2024)
        pairs = coprime_pairs(4)
        passed = 0
        while passed < 150:
            a, b = rng.choice(pairs)
            c, d = rng.choice(pairs)
            if a * d - b * c == 0:
                continue
            corner = (
                F(rng.randint(-2000, 2000), 1000) + F(1, 2017),
                F(rng.randint(-2000, 2000), 1000) + F(1, 2027),
            )
            spec = AngleSpec(a, b, c, d, corner)
            try:
                assert hobby_region_check(spec, rng.randint(2, 6))
            except PixelCenterHit:
                continue
            passed += 1


class TestSweep:
    def test_includes_both_five_class_families(self):
        report = theorem_sweep(5)
        assert report.ok
        recorded = {e.slopes: e for e in report.entries}
        assert recorded[(2, 1, -3, 1)].classes == 5
        assert recorded[(3, -1, -1, 2)].classes == 5

    def test_parallel_pairs_skipped(self):
        report = theorem_sweep(3)
        assert all(e.slopes[0] * e.slopes[3] != e.slopes[1] * e.slopes[2] for e in report.entries)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            theorem_sweep(0)

    @pytest.mark.parametrize("max_entry", [0, -2])
    def test_rejects_max_entry_below_one(self, max_entry):
        # a sweep over no pairs would report PASS having checked nothing
        with pytest.raises(ValueError, match="max_entry must be >= 1"):
            theorem_sweep(4, max_entry)

    def test_json_and_table(self):
        report = theorem_sweep(2)
        d = report.to_json_dict()
        assert d["pass"] is True and d["failures"] == []
        assert "PASS" in report.table()

    def test_rotated_cell_indices_fail(self, monkeypatch):
        def rotated(a, b, c, d):
            return [((j + 1) % abs(a * d - b * c), x, y) for j, x, y in cell_bases(a, b, c, d)]

        monkeypatch.setattr("pixelwedge.verify.cell_bases", rotated)
        report = theorem_sweep(3)
        assert report.ok is False
        # rotating a single cell changes nothing; every D >= 2 entry fails
        assert {e.expected for e in report.failures} == {2, 3}
        assert all(e.areas_ok == (e.expected == 1) for e in report.entries)

    def test_fingerprint_collision_fails_the_entry(self, monkeypatch, capsys):
        # the sweep counts classes as distinct runs of the column scan; give
        # every class of one pair the same runs
        real = verify.window_columns

        def colliding(a, b, c, d, regions, window):
            if (a, b, c, d) == (2, 1, -3, 1):
                return [(anchor, ((0, 0, 0),), anchor[1]) for _, _, anchor in regions]
            return real(a, b, c, d, regions, window)

        monkeypatch.setattr(verify, "window_columns", colliding)
        report = theorem_sweep(5)
        assert report.ok is False
        [entry] = report.failures
        assert entry.slopes == (2, 1, -3, 1) and (entry.classes, entry.expected) == (1, 5)
        assert "FAIL (2, 1, -3, 1): classes=1 expected=5" in report.table()
        # the report is written in full, and the exit code says it failed
        assert cli.main(["sweep", "5", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is False
        assert [f["slopes"] for f in payload["failures"]] == [[2, 1, -3, 1]]

    def test_cell_moved_by_an_edge_fails(self, monkeypatch):
        # every pair of the D <= 6 sweep: moving one cell's base by e1 = (b, a)/D
        # or e2 = (-d, -c)/D, mod 1, moves its centre into a neighbouring class;
        # at D = 1 both edges are integer vectors and the move is no move.
        # Each unmoved cell's centre is also of its own class by the Bezout
        # formula, which the lattice check does not call.
        bases = []
        monkeypatch.setattr("pixelwedge.verify.cell_bases", lambda a, b, c, d: bases)
        for entry in theorem_sweep(6).entries:
            slopes = Slopes(*entry.slopes)
            a, b, c, d = entry.slopes
            q = 2 * slopes.count
            shared = list(cell_bases(a, b, c, d))
            bases[:] = shared
            assert verify.cells_match_classes(a, b, c, d), entry
            for k, (j, x, y) in enumerate(shared):
                assert class_of_params(slopes, *threshold_ceilings(a, b, c, d, x + b - d, y + a - c, q)) == j
                for ex, ey in ((2 * b, 2 * a), (-2 * d, -2 * c)):
                    bases[:] = shared
                    bases[k] = (j, (x + ex) % q, (y + ey) % q)
                    assert verify.cells_match_classes(a, b, c, d) == (slopes.count == 1), (entry, k, ex, ey)

    def test_sweep_builds_no_slopes(self, monkeypatch):
        # the sweep's pairs are coprime by construction and run on plain
        # integers; a Slopes built per pair would raise here
        def refuse(slopes, *pair):
            raise AssertionError(f"theorem_sweep built Slopes{pair}")

        monkeypatch.setattr(Slopes, "__init__", refuse)
        report = theorem_sweep(8, 3)
        assert report.ok and len(report.entries) == 848

    def test_class_count_matches_enumerated_bitmaps(self):
        for entry in theorem_sweep(8).entries:
            slopes = Slopes(*entry.slopes)
            shapes = enumerate_shapes(slopes)
            assert entry.classes == len({s.bitmap for s in shapes}), entry
            w = max(abs(e) for e in entry.slopes)
            assert w <= shapes[0].window
            # each sweep fingerprint is its class's enumerated bitmap clipped
            # to the (2w+1)^2 box around the corner pixel, taken from the
            # box's first pixel, anchor included
            window, sigs = class_signatures(slopes, w)
            assert window == w, entry
            for shape, (sig, anchor) in zip(shapes, sigs, strict=True):
                cm, cn = shape.corner_pixel
                box = {(m, n) for m, n in shape.bitmap if abs(m - cm) <= w and abs(n - cn) <= w}
                min_m, min_n = min(m for m, _ in box), min(n for _, n in box)
                assert sig[0][:2] == (0, 0), entry
                assert canonicalize(box) == direct_bitmaps([sig])[0], entry
                assert anchor == (cm - min_m, cn - min_n), entry


def test_two_class_pair_splits_evenly_at_a_million():
    hist = sample_class_frequencies(Slopes(1, 1, -1, 1), 1_000_000, seed=42)
    assert len(hist.counts) == 2
    assert all(abs(f - 0.5) <= 0.002 for f in hist.frequencies)


def test_full_sweep_to_twelve_has_no_failures():
    report = theorem_sweep(12)
    assert report.failures == []


def test_frequencies_track_exact_areas_over_sweep():
    # every pair of the D<=8 sweep: sampled frequencies within 5 sigma of 1/D
    report = theorem_sweep(8)
    n = 1024
    for entry in report.entries:
        slopes = Slopes(*entry.slopes)
        d = slopes.count
        hist = sample_class_frequencies(slopes, n, seed=17)
        tol = 5 * (1 / d * (1 - 1 / d) / n) ** 0.5
        for freq, area in zip(hist.frequencies, exact_class_areas(slopes)):
            assert abs(freq - float(area)) <= tol, (entry.slopes, freq)
