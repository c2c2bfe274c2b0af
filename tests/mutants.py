"""Source mutants that the tests must catch, and a runner that checks it.

Each mutant replaces one exact text of a module in `src/pixelwedge` by
another. `tests/test_mutants.py` checks that every old text still occurs
exactly once, so the list cannot silently go stale. Running a mutant copies
`src/`, `tests/` and `pyproject.toml` to a temporary directory, applies the
replacement there, and runs the mutant's test targets with `pytest -x`; the
mutant is killed when they fail, and survives when they pass.

    python tests/mutants.py             # every mutant; exit 1 if one survives
    python tests/mutants.py NAME ...    # only the named ones

Equivalent mutants, such as another `_CHUNK` size (the random stream, and so
every count, stays the same) or a `_bitmaps` walk whose empty column side
keeps the low 0 or that toggles an end that did not move (each toggles rows
twice or toggles nothing, exact but slower), are left out: no test can kill
them.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pixelwedge"


class Mutant(NamedTuple):
    name: str
    module: str  # file stem in src/pixelwedge
    old: str  # occurs exactly once in the module
    new: str
    tests: tuple[str, ...]  # pytest targets, relative to the repository root
    why: str


VERIFY = ("tests/test_verify.py",)
SHAPES = ("tests/test_shapes.py",)
FLOAT_FREE = ("tests/test_float_free.py",)
VALUE_TYPES = ("tests/test_value_types.py",)

MUTANTS = [
    Mutant(
        "key-group-flush-at-15", "verify", "if acc_n == 16:", "if acc_n == 15:", VERIFY,
        "a group of 15 chunks converted as 16 counts the empty 16th byte of each lane as key 0",
    ),
    Mutant(
        "key-group-flush-at-17", "verify", "if acc_n == 16:", "if acc_n == 17:", VERIFY,
        "a 17th chunk's keys land on the next lane's first chunk and are ORed into them",
    ),
    Mutant(
        "beta-factors-not-pre-scaled", "verify", "c_ka, d_ka = c << ka, d << ka", "c_ka, d_ka = c, d", VERIFY,
        "beta's offset is scaled by 2^ka and its px, py factors are not, so its ceiling is wrong",
    ),
    Mutant(
        "beta-offset-not-pre-scaled", "verify",
        "off_c = ((hc + 1) * _Q - 1 - (c - d) * _HALF_Q) << ka",
        "off_c = ((hc + 1) * _Q - 1 - (c - d) * _HALF_Q)", VERIFY,
        "beta's factors are scaled by 2^ka and its offset is not, so its ceiling is wrong",
    ),
    Mutant(
        "beta-mask-one-bit-short", "verify",
        "(((1 << kc) - 1) << (_Q_BITS + ka))", "(((1 << kc - 1) - 1) << (_Q_BITS + ka))", VERIFY,
        "beta's top key bit is dropped, merging the keys beta + hc = 2^(kc-1) + j and j",
    ),
    Mutant(
        "beta-mask-over-alpha", "verify",
        "(((1 << kc) - 1) << (_Q_BITS + ka))", "(((1 << kc) - 1) << _Q_BITS)", VERIFY,
        "the beta mask takes alpha's bits and the garbage below beta, not beta's ceiling",
    ),
    Mutant(
        "no-key-group-flush-at-block-end", "verify",
        "        key_bytes += _pending_key_bytes(acc, acc_n, acc_t)\n        counted = ",
        "        counted = ", VERIFY,
        "the keys of a block's last partial group are never counted",
    ),
    Mutant(
        "no-key-group-flush-at-size-change", "verify", "if t != acc_t:", "if not acc_t:", VERIFY,
        "a short chunk joins a group of full ones, whose flush reads its missing lanes as key 0",
    ),
    Mutant(
        "partial-key-group-drops-a-chunk", "verify", "range(8, 8 + acc_n)", "range(9, 8 + acc_n)", VERIFY,
        "a partial group's flush skips the keys of its last chunk",
    ),
    Mutant(
        "full-key-group-drops-a-byte", "verify", 'acc.to_bytes(16 * t + 8, "little")[8:]',
        'acc.to_bytes(16 * t + 8, "little")[9:]', VERIFY,
        "a full group's flush loses one key",
    ),
    Mutant(
        "centre-test-on-px-alone", "verify", "((px ^ halves | py ^ halves) + low)", "((px ^ halves) + low)", VERIFY,
        "every chunk with a lane at px = 2^63 goes draw by draw, though only px = py = 2^63 is a centre",
    ),
    Mutant(
        "centre-carries-at-bit-63", "verify", "_HALF_Q * ones, _Q * ones,", "_HALF_Q * ones, _HALF_Q * ones,", VERIFY,
        "the carry test reads bit 63, so chunks without a centre lane go draw by draw",
    ),
    Mutant(
        "byte-key-bound-67", "verify", "_BYTE_KEY_CLASSES = 66", "_BYTE_KEY_CLASSES = 67", VERIFY,
        "D = 67 is counted by class, past the measured break-even",
    ),
    Mutant(
        "popcount-group-stride-7", "verify",
        "one_hot[j // 8][ia | ib << ka] = 1 << j % 8", "one_hot[j // 7][ia | ib << ka] = 1 << j % 7", VERIFY,
        "the tables put 7 classes in a group and the counts read 8, so classes shift groups or overrun the list",
    ),
    Mutant(
        "popcount-mask-shifted-one-bit", "verify", "ones << k for k in range(8)",
        "ones << k + 1 for k in range(8)", VERIFY,
        "each class is counted as the next one's bit, the group's last as the next byte's first",
    ),
    Mutant(
        "popcount-last-group-skipped", "verify", "enumerate(one_hot)", "enumerate(one_hot[:-1])", VERIFY,
        "the classes of the last group are never counted, so the last class takes their samples",
    ),
    Mutant(
        "popcount-table-one-class-off", "verify", "= 1 << j % 8", "= 1 << (j + 1) % 8", VERIFY,
        "a key of class j sets the bit of class j + 1, and the group's last class that of its first",
    ),
    Mutant(
        "verdict-at-threshold-passes", "verify", "< q * n", "<= q * n", VERIFY,
        "a chi-square equal to the 0.999 quantile passes",
    ),
    Mutant(
        "bitmap-empty-side-one-row", "shapes",
        "lo0, hi0 = lo1, lo1 - 1\n                elif hi1 < lo1:\n                    lo1, hi1 = lo0, lo0 - 1",
        "lo0, hi0 = lo1, lo1\n                elif hi1 < lo1:\n                    lo1, hi1 = lo0, lo0", SHAPES,
        "an empty column side is the one-row run (lo, lo), so a run that appears or vanishes misses its lowest row",
    ),
    Mutant(
        "bitmap-high-toggle-off-by-one", "shapes",
        "col[min(hi0, hi1) + 1 : max(hi0, hi1) + 1]", "col[min(hi0, hi1) : max(hi0, hi1)]", SHAPES,
        "the high toggle flips the rows one below the ones between the two highs",
    ),
    Mutant(
        "bitmap-working-set-unfrozen", "shapes", "out.append(frozenset(work))", "out.append(work)", SHAPES,
        "every class is the one working set, which ends as the last class's pixels",
    ),
    Mutant(
        "threshold-ceiling-true-division", "digitize", "-((b * v - a * u) // (2 * q))",
        "-((b * v - a * u) / (2 * q))", FLOAT_FREE + SHAPES,
        "alpha's ceiling is a float quotient, neither exact nor an integer",
    ),
    Mutant(
        "class-of-params-through-float", "shapes", "return (beta - k0 * slopes.c + l0 * slopes.d) % slopes.count",
        "return int(float(beta - k0 * slopes.c + l0 * slopes.d)) % slopes.count", FLOAT_FREE,
        "a float enters the class formula, which rounds past 2^53",
    ),
    Mutant(
        "frozen-without-reduce", "digitize", "    def __reduce__(self):\n        return type(self), self._fields\n", "",
        VALUE_TYPES,
        "pickle and copy restore the slots by assignment, which the frozen types refuse",
    ),
    Mutant(
        "fingerprint-from-anchor", "digitize", "origin = m0, n0 = m, lo", "origin = m0, n0 = am, an",
        ("tests/test_shapes.py::TestFingerprintStrength",),
        "runs start at the anchor, not the first pixel, so a table's first column is not 0",
    ),
    Mutant(
        "point-reader-takes-bool", "digitize", "if type(v) is bool or not isinstance(", "if not isinstance(",
        VALUE_TYPES,
        "a bool coordinate is read as 0 or 1",
    ),
]


def run(mutant: Mutant, timeout: float = 1200) -> int:
    """pytest's exit code for `mutant.tests` on a copy with the mutant applied:
    1 when a test fails (killed), 0 when every test passes (survived)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "pixelwedge" / f"{mutant.module}.py"
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.module}.py")
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        return subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=timeout).returncode


def main(argv: list[str]) -> int:
    names = {m.name for m in MUTANTS}
    unknown = [name for name in argv if name not in names]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for m in MUTANTS:
        if argv and m.name not in argv:
            continue
        start = time.perf_counter()
        code = run(m)
        verdict = {1: "killed", 0: "SURVIVED"}.get(code, f"ERROR (pytest exit {code})")
        failed += code != 1
        print(f"{verdict:<10} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
