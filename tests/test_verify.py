import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from pixelwedge import (
    AngleSpec,
    PixelCenterHit,
    Slopes,
    enumerate_shapes,
    exact_class_areas,
    hobby_region_check,
    partition_unit_square,
    sample_class_frequencies,
    theorem_sweep,
)
from pixelwedge.verify import chi2_q999, coprime_pairs

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


class TestHobbyProperty:
    def test_example(self):
        spec = AngleSpec(2, 1, -3, 1, (F(1, 10), F(7, 10) + F(1, 1000)))
        assert hobby_region_check(spec, 6)

    def test_corner_at_pixel_center(self):
        with pytest.raises(PixelCenterHit):
            hobby_region_check(AngleSpec(2, 1, -3, 1, (F(1, 2), F(1, 2))), 4)

    def test_boundary_through_center_rejected(self):
        # slope-1 line from (1/4, 1/4) runs through every center (k+1/2, k+1/2)
        spec = AngleSpec(1, 1, -1, 1, (F(1, 4), F(1, 4)))
        with pytest.raises(PixelCenterHit):
            hobby_region_check(spec, 4)

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

    def test_json_and_table(self):
        report = theorem_sweep(2)
        d = report.to_json_dict()
        assert d["pass"] is True and d["failures"] == []
        assert "PASS" in report.table()

    def test_rotated_cell_indices_fail(self, monkeypatch):
        def rotated(slopes):
            cells = partition_unit_square(slopes)
            return [replace(cell, index=(cell.index + 1) % len(cells)) for cell in cells]

        monkeypatch.setattr("pixelwedge.verify.partition_unit_square", rotated)
        report = theorem_sweep(3)
        assert report.ok is False
        # rotating a single cell changes nothing; every D >= 2 entry fails
        assert {e.expected for e in report.failures} == {2, 3}
        assert all(e.areas_ok == (e.expected == 1) for e in report.entries)

    def test_off_lattice_cell_fails(self, monkeypatch):
        def shifted(slopes):
            cells = partition_unit_square(slopes)
            (x, y) = cells[0].base
            return [replace(cells[0], base=(x + F(1, 7 * slopes.count), y))] + cells[1:]

        monkeypatch.setattr("pixelwedge.verify.partition_unit_square", shifted)
        assert theorem_sweep(2).ok is False

    def test_class_count_matches_enumerated_bitmaps(self):
        for entry in theorem_sweep(8).entries:
            shapes = enumerate_shapes(Slopes(*entry.slopes))
            assert entry.classes == len({s.bitmap for s in shapes}), entry
            assert entry.window == shapes[0].window


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
