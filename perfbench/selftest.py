#!/usr/bin/env python3
"""Show that every check the benchmark runs can fail.

    python3 perfbench/selftest.py

For each workload, a real op's answer passes its check, and each corrupted
copy of that answer is rejected. Exits 1 if any corruption is accepted.
"""
from __future__ import annotations

import dataclasses
import subprocess
import sys

from run import load_program

load_program()


import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, OpFailed  # noqa: E402

failures = []


def expect(accepted: bool, fn, *args, label: str) -> None:
    try:
        fn(*args)
        ok = accepted
    except (CheckFailed, OpFailed):
        ok = not accepted
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def first(wl, want):
    i = 0
    while not want(wl.input(i)):
        i += 1
    return wl.input(i)


def sample():
    wl = workloads.Sample(0)
    inp = first(wl, lambda x: 2 <= workloads.pair_d(x[0]) <= 25)
    hist, passed = wl.run(inp)
    counts = list(hist.counts)
    moved = [counts[0] - 1, counts[1] + 1] + counts[2:]
    expect(True, wl.check, inp, (hist, passed), label="sample: real histogram")
    for label, bad in (
        ("counts moved between classes (digest)", moved),
        ("one class dropped (length)", counts[:-1]),
        ("one extra sample (sum)", [counts[0] + 1] + counts[1:]),
    ):
        expect(False, wl.check, inp, (dataclasses.replace(hist, counts=tuple(bad)), passed),
               label=f"sample: {label}")
    expect(False, checks.verdict, dataclasses.replace(hist, chisq=hist.chisq + 1), passed,
           label="sample: chi-square misreported")
    expect(False, checks.verdict, hist, not passed, label="sample: verdict flipped")
    shift = hist.n // len(counts) // 5
    skewed = tuple([counts[0] + shift, counts[1] - shift] + counts[2:])
    expected = hist.n / len(skewed)
    chisq = sum((c - expected) ** 2 / expected for c in skewed)
    biased = dataclasses.replace(hist, counts=skewed, chisq=chisq)
    expect(False, checks.verdict, biased, biased.passed, label="sample: counts 20% off n/D (bias)")


def sweep():
    wl = workloads.Sweep(0)
    inp = ("sweep", (4, 2))
    report = wl.run(inp)
    expect(True, wl.check, inp, report, label="sweep: real report")
    short = dataclasses.replace(report, entries=report.entries[:-1])
    expect(False, wl.check, inp, short, label="sweep: one pair missing (count)")
    wrong = dataclasses.replace(report.entries[0], classes=report.entries[0].classes + 1)
    expect(False, wl.check, inp, dataclasses.replace(report, entries=[wrong] + report.entries[1:]),
           label="sweep: class count != D (report.ok)")
    inp = ("enumerate", (2, 1, -3, 1))
    shapes = wl.run(inp)
    expect(True, wl.check, inp, shapes, label="enumerate: real classes")
    dup = [shapes[0], dataclasses.replace(shapes[1], bitmap=shapes[0].bitmap)] + shapes[2:]
    expect(False, wl.check, inp, dup, label="enumerate: two equal bitmaps")
    expect(False, wl.check, inp, shapes[:-1], label="enumerate: a class missing")


def corners():
    wl = workloads.Corners(0)
    inp = first(wl, lambda x: True)
    pair, _ = inp
    indices, located, deep = wl.run(inp)
    while any(None in d for d in deep):  # need every deep part answered
        inp = (pair, [(c[0] + 1, c[1] + 7) for c in inp[1]][1:] + inp[1][:1])
        indices, located, deep = wl.run(inp)
    expect(True, wl.check, inp, (indices, located, deep), label="corners: real batch")
    d = workloads.pair_d(pair)
    bad_loc = [(located[0] + 1) % d if d > 1 else 1] + located[1:]
    expect(False, wl.check, inp, (indices, bad_loc, deep), label="corners: locate != class_index")
    spec, path, hobby, loops, shape, pbm = deep[0]

    def with_deep(**kw):
        parts = dict(spec=spec, path=path, hobby=hobby, loops=loops, shape=shape, pbm=pbm)
        parts.update(kw)
        return indices, located, [tuple(parts.values())] + deep[1:]

    expect(False, wl.check, inp, with_deep(path=path[:1] + path[2:]), label="corners: path skips a vertex")
    expect(False, wl.check, inp, with_deep(hobby=False), label="corners: hobby check False")
    shifted = [[(x + 1, y) for x, y in loop] for loop in loops]
    expect(False, wl.check, inp, with_deep(loops=shifted), label="corners: boundary != region_pixels")
    flipped = pbm[:-2] + (b"0" if pbm[-2:-1] == b"1" else b"1") + pbm[-1:]
    expect(False, wl.check, inp, with_deep(pbm=flipped), label="corners: PBM bit flipped")


def cli():
    wl = workloads.Cli(0)
    inp = first(wl, lambda x: x["cmd"] == "classify")
    try:
        proc = wl.run(inp)
    finally:
        wl.close()
    expect(True, wl.check, inp, proc, label="cli: real classify")
    bad = subprocess.CompletedProcess(proc.args, proc.returncode, proc.stdout + b" ", proc.stderr)
    expect(False, wl.check, inp, bad, label="cli: stdout differs")
    bad = subprocess.CompletedProcess(proc.args, 1, b"", b"pixelwedge: refused\n")
    expect(False, wl.check, inp, bad, label="cli: wrong exit code")
    tb = b"Traceback (most recent call last):\n  ...\nKeyError: 0\n"
    expect(False, checks.cli_crash, 1, tb, label="cli: traceback is a failed op")
    expect(False, checks.cli_crash, -9, b"", label="cli: exit code outside 0/1/2")
    expect(True, checks.cli_crash, 1, b"pixelwedge: parallel\n", label="cli: refusal is not a crash")


def main() -> int:
    sample()
    sweep()
    corners()
    cli()
    print(f"{len(failures)} corruption(s) accepted" if failures else "every check rejects its corruptions")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
