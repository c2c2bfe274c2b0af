"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and
enforces the stated runtime budget on this machine.
"""
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from pixelwedge import (
    AngleSpec,
    PartitionBoundary,
    PartitionLocator,
    PixelCenterHit,
    Slopes,
    class_index,
    enumerate_shapes,
    exact_class_areas,
    hobby_region_check,
    reflection_symmetric,
    sample_class_frequencies,
    theorem_sweep,
)
from pixelwedge.digitize import window_columns
from pixelwedge.shapes import class_fingerprint, class_of_params
from pixelwedge.verify import chi2_q999, coprime_pairs

from oracles import column_interval

F = Fraction

P_SLOPES = Slopes(2, 1, -3, 1)
Q_SLOPES = Slopes(3, -1, -1, 2)


@contextmanager
def criterion(num, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s > {budget_s}s"
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_shape_counts():
    with criterion(1, "shape counts", budget_s=1.0):
        for slopes in (P_SLOPES, Q_SLOPES):
            shapes = enumerate_shapes(slopes)
            assert len(shapes) == 5
            assert len({s.bitmap for s in shapes}) == 5


def test_criterion_2_families_disjoint():
    with criterion(2, "family disjointness", budget_s=1.0):
        first = {s.bitmap for s in enumerate_shapes(P_SLOPES)}
        second = {s.bitmap for s in enumerate_shapes(Q_SLOPES)}
        assert not (first & second)


def test_criterion_3_count_and_area_sweep():
    with criterion(3, "count/area sweep", budget_s=30.0):
        report = theorem_sweep(12, max_entry=4)
        assert report.entries
        assert report.failures == []
        for entry in report.entries:
            assert entry.classes == entry.expected
            assert entry.areas_ok


def test_criterion_4_uniformity_million_samples():
    with criterion(4, "uniformity at 10^6", budget_s=10.0):
        for slopes in (P_SLOPES, Q_SLOPES):
            hist = sample_class_frequencies(slopes, 1_000_000, seed=42)
            for freq in hist.frequencies:
                assert abs(freq - 0.2) <= 0.002
            assert hist.chisq < chi2_q999(4)


def test_criterion_5_partition_agreement():
    with criterion(5, "partition agreement", budget_s=5.0):
        rng = random.Random(1202)
        for slopes in (P_SLOPES, Q_SLOPES):
            locator = PartitionLocator(slopes)
            located = 0
            boundary_hits = 0
            draws = 0
            while located < 10_000:
                x = F(rng.getrandbits(64), 1 << 64)
                y = F(rng.getrandbits(64), 1 << 64)
                draws += 1
                try:
                    j = locator.locate(x, y)
                except PartitionBoundary:
                    boundary_hits += 1
                    continue
                spec = AngleSpec(slopes.a, slopes.b, slopes.c, slopes.d, (x, y))
                assert j == class_index(spec)
                located += 1
            assert boundary_hits <= 0.001 * draws


def test_criterion_6_equivalence_matches_bitmaps():
    with criterion(6, "equivalence closed form vs bitmaps", budget_s=30.0):
        rng = random.Random(606)
        pairs = coprime_pairs(6)
        tested = 0
        while tested < 10:
            a, b = rng.choice(pairs)
            c, d = rng.choice(pairs)
            det = a * d - b * c
            if det == 0 or abs(det) > 10:
                continue
            slopes = Slopes(a, b, c, d)
            window = enumerate_shapes(slopes)[0].window
            by_class = {}
            by_bitmap = {}
            for alpha in range(-10, 11):
                for beta in range(-10, 11):
                    cls = class_of_params(slopes, alpha, beta)
                    fp = class_fingerprint(slopes, alpha, beta, window)
                    # the class partition and the bitmap partition must agree
                    assert by_class.setdefault(cls, fp) == fp
                    assert by_bitmap.setdefault(fp, cls) == cls
            assert len(by_class) == min(slopes.count, 21 * 21)
            tested += 1


def test_criterion_7_hobby_property():
    with criterion(7, "center-membership property", budget_s=30.0):
        rng = random.Random(707)
        pairs = coprime_pairs(4)
        passed = 0
        while passed < 1000:
            a, b = rng.choice(pairs)
            c, d = rng.choice(pairs)
            if a * d - b * c == 0:
                continue
            corner = (
                F(rng.randint(-3000, 3000), 1000) + F(1, 2017),
                F(rng.randint(-3000, 3000), 1000) + F(1, 2027),
            )
            spec = AngleSpec(a, b, c, d, corner)
            try:
                assert hobby_region_check(spec, rng.randint(2, 8))
            except PixelCenterHit:
                continue
            passed += 1


def test_criterion_8_ceiling_identity():
    with criterion(8, "ceiling identity", budget_s=5.0):
        rng = random.Random(808)
        pairs = coprime_pairs(4)

        def box_pixels(slopes, alpha, beta, half=10):
            out = set()
            for m in range(-half, half + 1):
                iv = column_interval(slopes.a, slopes.b, slopes.c, slopes.d, alpha, beta, m)
                if iv is None:
                    continue
                lo, hi = iv
                lo = -half if lo is None else max(lo, -half)
                hi = half if hi is None else min(hi, half)
                out.update((m, n) for n in range(lo, hi + 1))
            return out

        for _ in range(1000):
            a, b = rng.choice(pairs)
            c, d = rng.choice(pairs)
            if a * d - b * c == 0:
                continue
            slopes = Slopes(a, b, c, d)
            alpha = F(rng.randint(-1200, 1200), rng.randint(1, 97))
            beta = F(rng.randint(-1200, 1200), rng.randint(1, 97))
            expected = box_pixels(slopes, alpha, beta)
            assert expected == box_pixels(slopes, math.ceil(alpha), math.ceil(beta))
            cols = window_columns(a, b, c, d, math.ceil(alpha), math.ceil(beta), (0, 0), 10)
            assert expected == {(m, n) for m, lo, hi in cols for n in range(lo, hi + 1)}


def test_criterion_9_apex_asymmetry():
    with criterion(9, "apex asymmetry", budget_s=5.0):
        for shape in enumerate_shapes(P_SLOPES):
            col = shape.corner_pixel[0]
            axes = (F(col), F(2 * col + 1, 2), F(col + 1))
            assert any(
                not reflection_symmetric(shape.bitmap, "vertical", anchor)
                for anchor in axes
            )
