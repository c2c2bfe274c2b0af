"""Fixed per-layer probes for the traced run: ROADMAP's baseline table, the
process-pool speed-up, the split of CLI start-up cost, and the pairs on
which verify's verdict is missing."""
from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import pixelwedge as pw
from pixelwedge.verify import ClassHistogram

import workloads

FAMILY = (2, 1, -3, 1)
POOL_SAMPLES = 1 << 20


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _corners(seed: int, count: int) -> list[tuple[Fraction, Fraction]]:
    rng = random.Random(f"probe/{seed}")
    return [(workloads.random_coordinate(rng), workloads.random_coordinate(rng)) for _ in range(count)]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def verdict_gap(bound: int = 5) -> tuple[float, dict[str, list[int]]]:
    """Share of the slope pairs with entries <= bound whose uniformity
    verdict raises, and the D values on which it raises, by exception type.

    The workloads leave these pairs out of every op that needs the verdict
    (see workloads.VERDICT_D); this keeps the defect visible. The verdict
    depends only on D, so it is asked once per D, of a histogram that
    needs no sampling."""
    pairs = workloads.slope_pairs(bound)
    raised: dict[int, str] = {}
    for big_d in sorted({workloads.pair_d(p) for p in pairs}):
        hist = ClassHistogram(slopes=(1, 0, 0, 1), n=big_d, seed=0, counts=(1,) * big_d, chisq=0.0)
        try:
            hist.passed
        except Exception as exc:
            raised[big_d] = type(exc).__name__
    by_type: dict[str, list[int]] = {}
    for big_d, kind in raised.items():
        by_type.setdefault(kind, []).append(big_d)
    gap = sum(1 for p in pairs if workloads.pair_d(p) in raised) / len(pairs)
    return gap, by_type


def baseline(seed: int) -> dict[str, tuple[float, str]]:
    """ROADMAP's baseline rows, measured with tracing off."""
    slopes = pw.Slopes(*FAMILY)
    corners = _corners(seed, 200)
    specs = [pw.AngleSpec(*FAMILY, c) for c in corners]

    def classify_all():
        for spec in specs:
            pw.class_index(spec)

    loc = pw.PartitionLocator(slopes)

    def locate_all():
        for x, y in corners:
            try:
                loc.locate(x, y)
            except pw.PartitionBoundary:
                pass

    out = {
        "baseline.class_index_us": (_median_time(classify_all, 7) / len(specs) * 1e6, "us"),
        "baseline.locate_us": (_median_time(locate_all, 7) / len(corners) * 1e6, "us"),
        "baseline.locator_build_ms": (_median_time(lambda: pw.PartitionLocator(slopes), 15) * 1e3, "ms"),
        "baseline.enumerate_2_1_-3_1_ms": (
            _median_time(lambda: pw.enumerate_shapes(slopes), 15) * 1e3, "ms"),
        "baseline.enumerate_7_2_-5_3_ms": (
            _median_time(lambda: pw.enumerate_shapes(pw.Slopes(7, 2, -5, 3)), 5) * 1e3, "ms"),
    }
    one = _median_time(lambda: pw.sample_class_frequencies(slopes, POOL_SAMPLES, seed, workers=1), 1)
    many = _median_time(
        lambda: pw.sample_class_frequencies(slopes, POOL_SAMPLES, seed, workers=nproc()), 1)
    out["baseline.sample_1m_per_s"] = (POOL_SAMPLES / one, "1/s")
    out["verify.pool_speedup"] = (one / many, "ratio")
    out["baseline.theorem_sweep_8_s"] = (_median_time(lambda: pw.theorem_sweep(8), 1), "s")
    return out


def _child_ms(args: list[str], env: dict, reps: int = 5) -> float:
    def once():
        subprocess.run([sys.executable, *args], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    return _median_time(once, reps) * 1e3


def _import_ms(env: dict, reps: int = 5) -> tuple[float, float]:
    """Cumulative import time of pixelwedge and pixelwedge.verify, from
    `-X importtime` (microseconds on stderr)."""
    pkg, ver = [], []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pixelwedge"],
                              env=env, check=True, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                try:
                    cumulative[parts[2].strip()] = int(parts[1])
                except ValueError:
                    continue  # the header line
        pkg.append(cumulative["pixelwedge"] / 1e3)
        ver.append(cumulative["pixelwedge.verify"] / 1e3)
    return statistics.median(pkg), statistics.median(ver)


def cli_split(seed: int) -> dict[str, tuple[float, str]]:
    """Interpreter start (with and without `site`), pixelwedge's own import,
    and in-process `cli.main` on one op of each subcommand."""
    env = workloads.cli_env()
    import_ms, import_verify_ms = _import_ms(env)
    ops = workloads.Cli(seed)
    argvs = [workloads.cli_argv(ops.input(i)) for i in range(len(workloads.CLI_FORMATS))]
    main_ms = statistics.median(
        _median_time(lambda argv=argv: workloads.main_in_process(argv), 1) * 1e3 for argv in argvs
    )
    return {
        "cli.interpreter_ms": (_child_ms(["-c", "pass"], env), "ms"),
        "cli.interpreter_no_site_ms": (_child_ms(["-S", "-c", "pass"], env), "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.import_verify_ms": (import_verify_ms, "ms"),
        "cli.main_ms": (main_ms, "ms"),
    }
