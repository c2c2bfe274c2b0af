"""Checkers run on every op's result. Each raises CheckFailed on a wrong answer.

`selftest.py` feeds each one a corrupted result to show that it can fail.
"""
from __future__ import annotations

import hashlib
import math


class CheckFailed(Exception):
    """The program answered, and the answer is wrong."""


class OpFailed(Exception):
    """The op did not produce an answer (crash, traceback)."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def counts_digest(counts) -> str:
    return hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()


def histogram(hist, classes: int, n: int, again) -> None:
    """Counts have one entry per class, sum to n, and repeat for the same
    (pair, n, seed) in a second, independent call."""
    require(len(hist.counts) == classes, f"{len(hist.counts)} counts for D={classes}")
    require(all(c >= 0 for c in hist.counts), "negative count")
    require(sum(hist.counts) == n, f"counts sum to {sum(hist.counts)}, not {n}")
    require(counts_digest(hist.counts) == counts_digest(again.counts), "counts differ on repeat")


def verdict(hist, passed: bool) -> None:
    """The chi-square statistic and verdict follow from the counts, and no
    count is more than UNIFORM_SIGMAS standard deviations from n/D.

    A FAIL verdict is not a failed op: at the 0.999 quantile a correct
    sampler fails one op in a thousand by chance, which would make the
    failure count of a run random. The sigma bound is what catches a
    biased sampler; a correct one breaks it with odds below 1e-14 per class."""
    n, classes = hist.n, len(hist.counts)
    expected = n / classes
    chisq = sum((c - expected) ** 2 / expected for c in hist.counts)
    require(math.isclose(hist.chisq, chisq, rel_tol=1e-9, abs_tol=1e-9),
            f"chi-square {hist.chisq}, counts give {chisq}")
    require(passed == (chisq < hist.threshold), f"verdict {passed} for chi-square {chisq}")
    sd = math.sqrt(n * (1 / classes) * (1 - 1 / classes))
    worst = max(abs(c - expected) for c in hist.counts)
    require(worst <= UNIFORM_SIGMAS * sd, f"a count is {worst / sd:.1f} sd from n/D")


UNIFORM_SIGMAS = 8


def coprime_pairs(bound: int) -> list[tuple[int, int]]:
    return [
        (p, q)
        for p in range(-bound, bound + 1)
        for q in range(-bound, bound + 1)
        if math.gcd(p, q) == 1
    ]


def sweep_pair_count(max_shapes: int, max_entry: int) -> int:
    """Slope pairs with entries bounded by max_entry and 1 <= D <= max_shapes."""
    pairs = coprime_pairs(max_entry)
    return sum(1 for a, b in pairs for c, d in pairs if 0 < abs(a * d - b * c) <= max_shapes)


def sweep(report, expected_pairs: int) -> None:
    require(report.ok, f"sweep failures: {report.failures[:3]}")
    require(len(report.entries) == expected_pairs,
            f"{len(report.entries)} sweep entries, expected {expected_pairs}")


def shapes(result, classes: int) -> None:
    """D classes in index order with D distinct, nonempty bitmaps."""
    require([s.index for s in result] == list(range(classes)), "class indices are not 0..D-1")
    require(all(s.bitmap for s in result), "empty class bitmap")
    require(len({s.bitmap for s in result}) == classes, "class bitmaps are not distinct")


def classes_agree(indices, located, classes: int) -> None:
    """class_index equals locate wherever locate answers (None = refused)."""
    require(len(indices) == len(located), "batch length mismatch")
    for j, loc in zip(indices, located):
        require(0 <= j < classes, f"class {j} out of range for D={classes}")
        require(loc is None or loc == j, f"class_index {j} != locate {loc}")


def grid_path(path) -> None:
    require(len(path) >= 2, "path too short")
    for (x1, y1), (x2, y2) in zip(path, path[1:]):
        require(abs(x2 - x1) + abs(y2 - y1) == 1, f"path step {(x1, y1)}->{(x2, y2)}")


def same_pixels(got, want, what: str) -> None:
    require(set(got) == set(want), f"{what}: pixel sets differ")


def cli_crash(returncode: int, stderr: bytes) -> None:
    """A traceback, or an exit code other than 0/1/2, is a failed op; the
    exception type names the failure."""
    if b"Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1].decode(errors="replace")
        raise OpFailed(last.split(":", 1)[0], last)
    if returncode not in (0, 1, 2):
        raise OpFailed(f"exit{returncode}")


def cli_output(returncode: int, stdout: bytes, stderr: bytes, expected) -> None:
    """Exit status and stdout bytes equal the in-process library answer."""
    want_code, want_out = expected
    require(returncode == want_code, f"exit {returncode}, expected {want_code}")
    require(stdout == want_out, "stdout differs from the library answer")
    if returncode:
        require(stderr.startswith(b"pixelwedge: "), "refusal without a one-line message")
