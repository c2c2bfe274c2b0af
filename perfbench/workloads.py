"""The four closed-loop workloads.

Each workload turns the benchmark seed into a deterministic stream of op
inputs (`input(i)`), runs one op on the library (`run`, the timed part) and
checks its answer (`check`, untimed). The library sees only generated inputs.
Input streams are stratified so that every run, whatever its length, holds
each kind of input in the same proportion; that keeps run-to-run spread low
without leaving any input out.
"""
from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pixelwedge as pw
from pixelwedge import cli as pw_cli
from pixelwedge.errors import DomainError, PartitionBoundary, UnsupportedFormat

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def slope_pairs(bound: int) -> list[tuple[int, int, int, int]]:
    """All non-parallel pairs of coprime slopes with entries in [-bound, bound]."""
    ps = checks.coprime_pairs(bound)
    return [(a, b, c, d) for a, b in ps for c, d in ps if a * d - b * c]


def pair_d(pair) -> int:
    a, b, c, d = pair
    return abs(a * d - b * c)


def d_band(pair) -> int:
    """D=1, 2..25 and larger D. Stratifying on these bands keeps the share
    of each band the same in every run."""
    big_d = pair_d(pair)
    return 0 if big_d == 1 else 1 if big_d <= 25 else 2


# verify's verdict (ClassHistogram.passed, and the CLI's verify output that
# prints it) raises KeyError at D=1 (no degrees of freedom) and D >= 26 (the
# chi-square table stops at 24): a known defect. Ops that need the verdict
# draw their pair from 2 <= D <= 25 only, so that no op fails and the op mix
# stays fixed when the defect is fixed; probes.verdict_gap() measures the
# defect over all pairs in every run instead.
VERDICT_D = range(2, 26)


def verdict_pairs(bound: int) -> list[tuple[int, int, int, int]]:
    return [p for p in slope_pairs(bound) if pair_d(p) in VERDICT_D]


def stratified(items, stratum, rng: random.Random) -> list:
    """Seeded order of all items in which each stratum's share of any prefix
    matches its share of the whole to within one item."""
    groups: dict = {}
    for it in items:
        groups.setdefault(stratum(it), []).append(it)
    keyed = []
    for key in sorted(groups):
        group = groups[key]
        rng.shuffle(group)
        offset = rng.random()
        keyed.extend(((i + offset) / len(group), it) for i, it in enumerate(group))
    keyed.sort(key=lambda t: t[0])
    return [it for _, it in keyed]


class Cycle:
    """Endless stream over a seeded order, reshuffled on each pass."""

    def __init__(self, items, stratum, rng):
        self.items, self.stratum, self.rng = list(items), stratum, rng
        self.order: list = []

    def next(self):
        if not self.order:
            self.order = stratified(self.items, self.stratum, self.rng)[::-1]
        return self.order.pop()


class Workload:
    name = ""
    prefill = 0  # inputs made during set-up

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.inputs: list = []
        self.start()
        self.extend(self.prefill)

    def start(self) -> None:
        """Seeded state the input stream draws from."""

    def close(self) -> None:
        """Stop any process the workload started."""

    def extend(self, count: int) -> None:
        for _ in range(count):
            self.inputs.append(self.make())

    def input(self, i: int):
        while i >= len(self.inputs):
            self.extend(max(1, self.prefill // 4))
        return self.inputs[i]


# --- sample ------------------------------------------------------------------


class Sample(Workload):
    """verify.sample_class_frequencies at n=10^5, one worker, entries <= 5,
    2 <= D <= 25 (see VERDICT_D)."""

    name = "sample"
    prefill = 100
    N = 100_000

    def start(self):
        self.pairs = Cycle(verdict_pairs(5), pair_d, self.rng)

    def make(self):
        return self.pairs.next(), self.rng.getrandbits(32)

    def run(self, inp):
        pair, seed = inp
        hist = pw.sample_class_frequencies(pw.Slopes(*pair), self.N, seed, workers=1)
        return hist, hist.passed

    def check(self, inp, out):
        pair, seed = inp
        hist, passed = out
        again = pw.sample_class_frequencies(pw.Slopes(*pair), self.N, seed, workers=1)
        checks.histogram(hist, pw.Slopes(*pair).count, self.N, again)
        checks.verdict(hist, passed)


# --- sweep -------------------------------------------------------------------

# theorem_sweep (max_shapes, max_entry) options. On a 2-CPU machine each light
# one takes under 0.1 s, an enumerate op about 0.17 s and the heavy one 0.47 s,
# so a run's median op is an enumerate op and its tail op the heavy sweep.
SWEEP_LIGHT = ((4, 2), (8, 2), (12, 2), (2, 3), (3, 3), (1, 4), (2, 4))
SWEEP_HEAVY = (8, 3)
# enumerate_shapes ops have a fixed size: this many bitmap pixels, within 5%.
ENUM_PIXELS = 450_000
ENUM_ENTRY = 16


def class_pixels(pair) -> int:
    """Pixels of class 0 in its default window: rows n in [-w, w] of columns
    m in [-w, w] with b*n <= a*m and d*n <= c*m. Every class is a translate,
    so D times this is the size of the enumerate_shapes result to within
    its boundary."""
    a, b, c, d = pair
    w = 2 * (abs(a) + abs(b) + abs(c) + abs(d))
    total = 0
    for m in range(-w, w + 1):
        lo, hi = -w, w
        for p, q in ((a, b), (c, d)):
            v = p * m
            if q > 0:
                hi = min(hi, v // q)
            elif q < 0:
                lo = max(lo, -(-v // q))
            elif v < 0:
                hi = lo - 1
        total += max(0, hi - lo + 1)
    return total


class Sweep(Workload):
    """Rounds of three ops in seeded order: the heavy theorem_sweep, a light
    one drawn from a seeded mix, and enumerate_shapes on a pair with
    26 <= D <= 250 and ENUM_PIXELS bitmap pixels."""

    name = "sweep"
    prefill = 3 * 6

    def start(self):
        self.round: list = []
        self.expected: dict = {}

    def enum_pair(self):
        rng = self.rng
        while True:
            pair = tuple(rng.randint(-ENUM_ENTRY, ENUM_ENTRY) for _ in range(4))
            a, b, c, d = pair
            if math.gcd(a, b) != 1 or math.gcd(c, d) != 1:
                continue
            big_d = abs(a * d - b * c)
            if 26 <= big_d <= 250 and abs(big_d * class_pixels(pair) - ENUM_PIXELS) <= ENUM_PIXELS // 20:
                return pair

    def make(self):
        if not self.round:
            light = self.rng.choice(SWEEP_LIGHT)
            self.round = [("sweep", SWEEP_HEAVY), ("sweep", light), ("enumerate", self.enum_pair())]
            self.rng.shuffle(self.round)
        return self.round.pop()

    def run(self, inp):
        kind, arg = inp
        if kind == "sweep":
            return pw.theorem_sweep(*arg)
        return pw.enumerate_shapes(pw.Slopes(*arg))

    def check(self, inp, out):
        kind, arg = inp
        if kind == "sweep":
            if arg not in self.expected:
                self.expected[arg] = checks.sweep_pair_count(*arg)
            checks.sweep(out, self.expected[arg])
        else:
            checks.shapes(out, pw.Slopes(*arg).count)


# --- corners -----------------------------------------------------------------

BATCH = 32  # corners classified per op
DEEP = 2  # of which this many also go through digitize/trace/render
EXTENT = 12  # digitize_angle_path extent
WINDOW = 6  # hobby_region_check / trace_region_boundary window


def random_coordinate(rng: random.Random) -> Fraction:
    """A 64-bit dyadic or a 1-3 digit decimal, shifted by a random integer."""
    if rng.random() < 0.5:
        frac = Fraction(rng.getrandbits(64), 1 << 64)
    else:
        digits = rng.randint(1, 3)
        frac = Fraction(rng.randrange(10 ** digits), 10 ** digits)
    return frac + rng.randint(-1000, 1000)


class Corners(Workload):
    """Locator build, then a batch of corners through class_index and locate;
    a few corners also through digitize, hobby check, boundary trace, shape
    and PBM render."""

    name = "corners"
    prefill = 100

    def start(self):
        self.pairs = Cycle(slope_pairs(5), pair_d, self.rng)

    def make(self):
        pair = self.pairs.next()
        corners = [(random_coordinate(self.rng), random_coordinate(self.rng)) for _ in range(BATCH)]
        return pair, corners

    def run(self, inp):
        pair, corners = inp
        a, b, c, d = pair
        loc = pw.PartitionLocator(pw.Slopes(*pair))
        indices, located = [], []
        for x, y in corners:
            indices.append(pw.class_index(pw.AngleSpec(a, b, c, d, (x, y))))
            try:
                located.append(loc.locate(x, y))
            except PartitionBoundary:
                located.append(None)
        deep = []
        for corner in corners[:DEEP]:
            spec = pw.AngleSpec(a, b, c, d, corner)
            path = refusable(pw.digitize_angle_path, spec, EXTENT)
            hobby = refusable(pw.hobby_region_check, spec, WINDOW)
            loops = refusable(pw.trace_region_boundary, spec, WINDOW)
            shape = pw.shape_of_spec(spec)
            pbm = refusable(pw.render_pixelset, shape.bitmap, pw.RenderOptions(format="pbm"))
            deep.append((spec, path, hobby, loops, shape, pbm))
        return indices, located, deep

    def check(self, inp, out):
        pair, _ = inp
        indices, located, deep = out
        checks.classes_agree(indices, located, pair_d(pair))
        for spec, path, hobby, loops, shape, pbm in deep:
            if path is not None:
                checks.grid_path(path)
            checks.require(hobby is not False, "hobby_region_check returned False")
            if loops is not None:
                checks.same_pixels(pw.cells_enclosed(loops), pw.digitize.region_pixels(spec, WINDOW),
                                   "cells_enclosed(trace_region_boundary) vs region_pixels")
            if pbm is not None:
                checks.same_pixels(pw.parse_pbm(pbm), pw.canonicalize(shape.bitmap), "PBM round trip")


def refusable(fn, *args):
    """fn(*args), or None when the library refuses with a DomainError."""
    try:
        return fn(*args)
    except DomainError:
        return None


# --- cli ---------------------------------------------------------------------

CLI_FORMATS = {
    "classify": ("ascii", "json"),
    "enumerate": ("ascii", "json"),
    "partition": ("svg", "json"),
    "digitize": ("json",),
    "render": ("ascii", "pbm", "svg", "json"),
    "verify": ("ascii", "json"),
    "sweep": ("ascii", "json"),
}
CLI_SAMPLES = 10_000
CLI_SWEEP = 3
CLI_WINDOW = 6


def corner_text(rng: random.Random) -> str:
    """A short decimal or a small fraction, shifted by a random integer."""
    if rng.random() < 0.5:
        v = rng.randrange(-2000, 2001)
        return f"{'-' if v < 0 else ''}{abs(v) // 100}.{abs(v) % 100:02d}"
    q = rng.randint(2, 13)
    return f"{rng.randint(-20 * q, 20 * q)}/{q}"


def cli_argv(op: dict) -> list[str]:
    cmd = op["cmd"]
    if cmd == "sweep":
        return ["sweep", str(CLI_SWEEP), "--format", op["format"]]
    a, b, c, d = op["pair"]
    argv = [cmd, "--slope1", f"{a}/{b}", "--slope2", f"{c}/{d}"]
    if "corner" in op:
        argv += ["--corner", op["corner"]]
    if cmd == "digitize":
        argv += ["--window", str(CLI_WINDOW)]
    if cmd == "verify":
        argv += ["--samples", str(CLI_SAMPLES), "--seed", str(op["seed"])]
    return argv + ["--format", op["format"]]


def _json_line(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def library_answer(op: dict) -> bytes:
    """What the CLI documents for this op, computed with library calls."""
    cmd, fmt = op["cmd"], op["format"]
    if cmd == "sweep":
        report = pw.theorem_sweep(CLI_SWEEP)
        return _json_line(report.to_json_dict()) if fmt == "json" else (report.table() + "\n").encode()
    slopes = pw.Slopes(*op["pair"])
    if "corner" in op:
        x, y = op["corner"].split(",")
        spec = pw.AngleSpec(*op["pair"], (pw.parse_rational(x), pw.parse_rational(y)))
    if cmd == "classify":
        j = pw.class_index(spec)
        if fmt == "ascii":
            return f"class {j} of {slopes.count}\n".encode()
        p = pw.region_params(spec)
        fr = pw.format_rational
        return _json_line({
            "slopes": list(op["pair"]),
            "corner": [fr(spec.corner[0]), fr(spec.corner[1])],
            "alpha": fr(p.alpha), "beta": fr(p.beta),
            "alpha_ceil": p.alpha_ceil, "beta_ceil": p.beta_ceil,
            "index": j, "classes": slopes.count,
        })
    if cmd == "enumerate":
        shapes = pw.enumerate_shapes(slopes)
        if fmt == "json":
            return _json_line([s.to_json_dict() for s in shapes])
        ascii_opts = pw.RenderOptions(format="ascii")
        return "\n".join(
            f"class {s.index} of {len(shapes)}:\n" + pw.render_pixelset(s.bitmap, ascii_opts).decode()
            for s in shapes
        ).encode()
    if cmd == "partition":
        return pw.render_partition(pw.partition_unit_square(slopes), pw.RenderOptions(format=fmt, scale=512))
    if cmd == "digitize":
        return _json_line([list(v) for v in pw.digitize_angle_path(spec, CLI_WINDOW)])
    if cmd == "verify":
        hist = pw.sample_class_frequencies(slopes, CLI_SAMPLES, op["seed"])
        return _json_line(hist.to_json_dict()) if fmt == "json" else (hist.table() + "\n").encode()
    if cmd == "render":
        return pw.render_pixelset(pw.shape_of_spec(spec).bitmap, pw.RenderOptions(format=fmt))
    raise AssertionError(cmd)


def expected_exit(op: dict) -> tuple[int, bytes]:
    try:
        return 0, library_answer(op)
    except UnsupportedFormat:
        return 2, b""
    except (DomainError, ValueError):
        return 1, b""


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


class Cli(Workload):
    """`python -m pixelwedge` subprocesses, one at a time, over rounds of all
    seven subcommands in seeded order; verify draws from VERDICT_D only."""

    name = "cli"
    prefill = 7 * 10

    def start(self):
        self.round: list = []
        pairs, checked = slope_pairs(5), verdict_pairs(5)
        self.pairs = {
            cmd: Cycle(checked if cmd == "verify" else pairs, d_band, self.rng)
            for cmd in sorted(CLI_FORMATS)
        }
        self.launcher = None  # started by the first op
        self.child_rss_mb: list[float] = []  # peak RSS of each CLI process

    def make(self):
        rng = self.rng
        if not self.round:
            self.round = sorted(CLI_FORMATS)
            rng.shuffle(self.round)
        cmd = self.round.pop()
        op = {"cmd": cmd, "format": rng.choice(CLI_FORMATS[cmd])}
        if cmd != "sweep":
            op["pair"] = self.pairs[cmd].next()
        if cmd in ("classify", "digitize", "render"):
            op["corner"] = f"{corner_text(rng)},{corner_text(rng)}"
        if cmd == "verify":
            op["seed"] = rng.getrandbits(16)
        return op

    def run(self, op):
        if self.launcher is None:
            self.launcher = Launcher(cli_env())
        proc, rss_kib = self.launcher.run([sys.executable, "-m", "pixelwedge", *cli_argv(op)])
        self.child_rss_mb.append(rss_kib / 1024)
        checks.cli_crash(proc.returncode, proc.stderr)
        return proc

    def check(self, op, proc):
        checks.cli_output(proc.returncode, proc.stdout, proc.stderr, expected_exit(op))

    def close(self):
        if self.launcher is not None:
            self.launcher.close()
            self.launcher = None


class Launcher:
    """Client of launcher.py, which forks the CLI processes (see there why)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )

    def run(self, cmd: list[str]) -> tuple[subprocess.CompletedProcess, int]:
        """Run cmd to completion; also return its peak RSS in KiB."""
        self.proc.stdin.write(json.dumps(cmd).encode() + b"\n")
        self.proc.stdin.flush()
        code, rss_kib, n_out, n_err = json.loads(self.proc.stdout.readline())
        out, err = self.proc.stdout.read(n_out), self.proc.stdout.read(n_err)
        return subprocess.CompletedProcess(cmd, code, out, err), rss_kib

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def main_in_process(argv: list[str]) -> int | None:
    """cli.main with stdout/stderr captured; None if it raised."""
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(io.BytesIO())
    sys.stderr = io.StringIO()
    try:
        return pw_cli.main(argv)
    except Exception:
        return None
    finally:
        sys.stdout, sys.stderr = saved


WORKLOADS = {w.name: w for w in (Cli, Sample, Sweep, Corners)}
