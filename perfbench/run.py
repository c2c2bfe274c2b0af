#!/usr/bin/env python3
"""pixelwedge benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload {cli,sample,sweep,corners} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`. One op runs at a time and the next starts when it completes. Ops run
until their summed time reaches --seconds; every op's answer is checked
(untimed). The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it holds run metadata.

Op and set-up times are scaled to a fixed machine speed measured around each
of them (see `reference_s`); raw times are in the metadata line.

--trace 0 reports the end-to-end metrics. --trace 1 runs the same inputs
untraced and then traced, and reports the per-layer metrics: spans recorded
around each module's entry points (see spans.py), fixed probes (probes.py),
and the tracing overhead.

`python3 perfbench/selftest.py` shows that each checker rejects a corrupted
result.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 7  # fresh interpreters timed per run; setup_s is their median
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many ops beyond it
WALL_FACTOR = 4  # a run stops after this many times --seconds of wall time
REF_NOMINAL_S = 0.0038  # reference_s() at the typical speed of the 2-CPU machine the benchmark was set on


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "pixelwedge", "__init__.py")):
        die(f"no pixelwedge sources under {SRC}")
    sys.path.insert(0, SRC)
    import pixelwedge

    if not os.path.abspath(pixelwedge.__file__).startswith(SRC + os.sep):
        die(f"imported pixelwedge from {pixelwedge.__file__}, not from {SRC}")


def reference_s() -> float:
    """Wall time of fixed small-int and 64-bit-int loops that use nothing
    from pixelwedge.

    The machine's speed drifts by up to ~40% over seconds to minutes (shared
    host). Op and set-up times are scaled by REF_NOMINAL_S over the mean of
    this time just before and just after each, so they read as seconds at the
    reference speed; program changes still move them in full. Raw times go
    to the metadata line.
    """
    rng = random.Random(0)
    t0 = perf_counter()
    s = 0
    for k in range(20_000):
        s += k * k
    for k in range(6_000):
        s += (rng.getrandbits(64) * 5 - k) >> 64
    return perf_counter() - t0


class Phase:
    """Outcome of one timed phase."""

    def __init__(self):
        self.latencies: list[float] = []  # ops that answered or refused, raw
        self.scaled: list[float] = []  # the same at reference speed
        self.attempted = self.failed = self.wrong = self.refused = 0
        self.busy = self.busy_scaled = 0.0  # summed op time
        self.refs: list[float] = []
        self.errors: Counter = Counter()

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def measure(wl, seconds: float, tracer=None) -> Phase:
    from pixelwedge.errors import DomainError

    from checks import CheckFailed, OpFailed
    from workloads import Cli, cli_argv, main_in_process

    replay = tracer is not None and isinstance(wl, Cli)
    ph = Phase()
    wall0 = perf_counter()
    i = 0
    ref_before = reference_s()
    while ph.busy < seconds and perf_counter() - wall0 < WALL_FACTOR * seconds:
        inp = wl.input(i)
        i += 1
        if tracer is not None:
            tracer.active = True
        refused = False
        out = None  # let the previous result go before the next op runs
        t0 = perf_counter()
        try:
            out = wl.run(inp)
        except DomainError:
            refused = True
        except OpFailed as exc:
            out = exc
        except Exception as exc:  # an undocumented exception is a failed op
            out = OpFailed(type(exc).__name__, str(exc))
        dt = perf_counter() - t0
        if replay:
            main_in_process(cli_argv(inp))  # spans of what the subprocess did
        if tracer is not None:
            tracer.active = False
        ref_after = reference_s()
        scale = REF_NOMINAL_S / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        ph.refs.append(ref_after)
        ph.busy += dt
        ph.busy_scaled += dt * scale
        ph.attempted += 1
        if refused:
            ph.refused += 1
        elif isinstance(out, OpFailed):
            ph.failed += 1
            ph.errors[out.kind] += 1
            continue
        else:
            try:
                wl.check(inp, out)
            except CheckFailed as exc:
                print(f"perfbench: wrong answer for {inp!r:.200}: {exc}", file=sys.stderr)
                ph.failed += 1
                ph.wrong += 1
                ph.errors["CheckFailed"] += 1
                continue
        ph.latencies.append(dt)
        ph.scaled.append(dt * scale)
    return ph


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import pixelwedge and
    generate this workload's seeded inputs: (at reference speed, raw)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    raw, scaled = [], []
    ref_before = reference_s()
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        dt = perf_counter() - t0
        ref_after = reference_s()
        raw.append(dt)
        scaled.append(dt * REF_NOMINAL_S / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return statistics.median(scaled), statistics.median(raw)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb(wl) -> float:
    """Peak RSS of the workload process. CLI ops each run in their own
    process, so for them it is the median over ops of each one's peak."""
    if hasattr(wl, "child_rss_mb"):
        return statistics.median(wl.child_rss_mb)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(ph: Phase, setup_s: float, wl) -> dict:
    if not ph.latencies:
        die("no op completed")
    tail_s, _ = tail(ph.scaled)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ph.completed / ph.busy_scaled, "1/s"),
        "op_p50_ms": (statistics.median(ph.scaled) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }


# Which end-to-end metric each layer should move, and where:
#   verify.sample_class_frequencies.*, verify.resampled_ratio
#       -> ops_per_s, op_p50_ms on sample
#   verify.pool_speedup (probe only) -> none; informs keeping the process pool
#   verify.theorem_sweep.*, verify.exact_class_areas.*, shapes.enumerate_shapes.*,
#   partition.partition_unit_square.* -> ops_per_s, peak_rss_mb on sweep
#   shapes.class_index.*, exact.extended_gcd.calls, partition.locator_build.*,
#   partition.locate.* -> op_p50_ms on corners; nothing on sample
#   digitize.*, verify.hobby_region_check.*, shapes.shape_of_spec.*
#       -> op_p50_ms, op_tail_ms on corners
#   render.* -> corners and cli
#   cli.* -> op_p50_ms on cli, and setup_s everywhere
#   baseline.* -> the rows of ROADMAP's baseline table (fixed inputs)
SPANS = (
    "verify.sample_class_frequencies", "verify.theorem_sweep", "verify.exact_class_areas",
    "shapes.enumerate_shapes", "partition.partition_unit_square", "shapes.class_index",
    "partition.locator_build", "partition.locate", "digitize.digitize_angle_path",
    "digitize.region_pixels", "digitize.boundary_loops", "verify.hobby_region_check",
    "shapes.shape_of_spec", "render.render_pixelset", "render.render_partition",
)


def per_layer(tr, untraced: Phase, traced: Phase) -> dict:
    def ratio(num, den):
        return num / den if den else 0.0

    c = tr.counters.get
    m = {}
    for name in SPANS:
        m[f"{name}.calls"] = (tr.calls(name), "count")
        m[f"{name}.self_s"] = (tr.self_s(name), "s")
    sample, sweep, enum = "verify.sample_class_frequencies", "verify.theorem_sweep", "shapes.enumerate_shapes"
    m[f"{sample}.samples_per_s"] = (ratio(c("samples", 0), tr.total(sample)), "1/s")
    m["verify.resampled_ratio"] = (ratio(c("resampled", 0), c("samples", 0)), "ratio")
    m[f"{sweep}.pairs_per_s"] = (ratio(c("sweep_pairs", 0), tr.total(sweep)), "1/s")
    m[f"{enum}.window_factor_mean"] = (ratio(c("window_factor", 0), tr.calls(enum)), "ratio")
    m[f"{enum}.bitmap_pixels"] = (ratio(c("bitmap_pixels", 0), tr.calls(enum)), "count")
    m["shapes.class_index.us_per_call"] = (
        ratio(tr.total("shapes.class_index") * 1e6, tr.calls("shapes.class_index")), "us")
    m["exact.extended_gcd.calls"] = (c("exact.extended_gcd.calls", 0), "count")
    m["partition.locator_build.fragments_per_cell"] = (
        ratio(c("fragments_per_cell", 0), tr.calls("partition.locator_build")), "ratio")
    m["partition.locate.us_per_call"] = (
        ratio(tr.total("partition.locate") * 1e6, tr.calls("partition.locate")), "us")
    m["partition.locate.boundary_ratio"] = (
        ratio(c("partition.locate.refusals", 0), tr.calls("partition.locate")), "ratio")
    m["digitize.digitize_angle_path.path_vertices"] = (
        ratio(c("path_vertices", 0), tr.calls("digitize.digitize_angle_path")), "count")
    m["verify.hobby_region_check.refusal_ratio"] = (
        ratio(c("verify.hobby_region_check.refusals", 0), tr.calls("verify.hobby_region_check")), "ratio")
    m["render.render_pixelset.bytes"] = (
        ratio(c("pixelset_bytes", 0), tr.calls("render.render_pixelset")), "bytes")
    m["render.render_partition.bytes"] = (
        ratio(c("partition_bytes", 0), tr.calls("render.render_partition")), "bytes")
    m["bench.trace_overhead_ratio"] = (
        ratio(traced.completed / traced.busy_scaled, untraced.completed / untraced.busy_scaled), "ratio")
    m["bench.error_rate"] = (ratio(traced.failed, traced.attempted), "ratio")
    return m


def read_commit() -> str | None:
    """HEAD of a git checkout at ROOT, read from files (the benchmark may run
    outside any repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_stats() -> tuple[int, str]:
    """Line count and content digest of src/pixelwedge."""
    lines, digest = 0, hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "pixelwedge", "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(os.path.basename(path).encode() + b"\0" + data)
    return lines, digest.hexdigest()


def phase_meta(ph: Phase) -> dict:
    raw_tail, pct = tail(ph.latencies) if ph.latencies else (0.0, 0.0)
    return {
        "attempted": ph.attempted, "completed": ph.completed, "failed": ph.failed,
        "wrong": ph.wrong, "refused": ph.refused, "errors": dict(sorted(ph.errors.items())),
        "measured_s": ph.busy, "tail_percentile": pct, "tail_ops": len(ph.latencies),
        "raw_ops_per_s": ph.completed / ph.busy if ph.busy else 0.0,
        "raw_op_p50_ms": statistics.median(ph.latencies) * 1e3 if ph.latencies else 0.0,
        "raw_op_tail_ms": raw_tail * 1e3,
        "reference_ms": statistics.median(ph.refs) * 1e3 if ph.refs else 0.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cli", "sample", "sweep", "corners"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    load_program()
    import workloads

    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        make(args.seed)
        return 0

    import probes

    setup_s, setup_raw_s = time_setup(args.workload, args.seed)
    gap, gap_d = probes.verdict_gap()
    wl = make(args.seed)
    try:
        untraced = measure(wl, args.seconds)
        phases = [untraced]
        if args.trace:
            import spans

            tracer = spans.Tracer()
            undo = spans.install(tracer)
            try:
                traced = measure(wl, args.seconds, tracer)
            finally:
                undo()
            phases.append(traced)
            metrics = per_layer(tracer, untraced, traced)
            metrics.update(probes.baseline(args.seed))
            metrics.update(probes.cli_split(args.seed))
            metrics["verify.verdict_gap_ratio"] = (gap, "ratio")
        else:
            metrics = end_to_end(untraced, setup_s, wl)
    finally:
        wl.close()

    lines, digest = src_stats()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": read_commit(), "src_sha256": digest, "src_lines": lines,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "setup_runs": SETUP_REPS, "setup_s": setup_s, "raw_setup_s": setup_raw_s,
        "phases": [phase_meta(ph) for ph in phases],
        "verdict_gap": {"pairs_ratio": gap, "raises_at_d": gap_d},
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": all(ph.wrong == 0 for ph in phases),
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
