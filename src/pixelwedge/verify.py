"""Statistical and exact verification of the shape-count and uniformity claims.

Monte Carlo corners are exact dyadic rationals (64-bit numerator over 2^64),
so classification never leaves integer arithmetic and results are bit-stable
for a given seed regardless of worker count. Corners are classified a chunk
at a time: one getrandbits call fills a chunk of draws, and a few
big-integer operations over 128-bit lanes, masked straight out of the draw
integer, give every draw's class parameters as a 64-bit key. A chunk whose
keys are wider than 64 bits, or which holds a pixel-centre draw, goes draw
by draw through `threshold_ceilings` instead. The random stream, and so
every count, is the same as drawing and classifying one corner at a time.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .digitize import (
    AngleSpec,
    Slopes,
    angle_thresholds,
    corner_ceilings,
    digitize_angle_path,
    is_pixel_center,
    threshold_ceilings,
    window_columns,
)
from .errors import PixelCenterHit, WindowTooSmall
from .partition import cell_bases, partition_unit_square
from .shapes import class_of_params, class_signatures


def _gamma_p(s: float, x: float) -> float:
    """Regularised lower incomplete gamma P(s, x), x > 0, by its power series."""
    term = total = 1 / s
    k = s
    while term > total * 1e-17:
        k += 1
        term *= x / k
        total += term
    return total * math.exp(s * math.log(x) - x - math.lgamma(s))


@lru_cache
def chi2_q999(dof: int) -> float:
    """0.999 quantile of the chi-square distribution with `dof` degrees of
    freedom, to 6 decimals; 0.0 for dof 0, where chi-square is always 0.

    Bisection on P(dof/2, q/2) == 0.999 over a bracket reaching 10 standard
    deviations past the mean; memoised, as a verdict reads it twice.
    """
    if dof == 0:
        return 0.0
    lo, hi = 0.0, dof + 10 * math.sqrt(2 * dof) + 30
    for _ in range(64):
        mid = (lo + hi) / 2
        if _gamma_p(dof / 2, mid / 2) < 0.999:
            lo = mid
        else:
            hi = mid
    return round((lo + hi) / 2, 6)


_BLOCK = 1 << 15
_CHUNK = 1 << 9  # draws per packed-lane chunk: whole blocks outgrow the cache and the heap
_Q_BITS = 64
_Q = 1 << _Q_BITS
_HALF_Q = 1 << (_Q_BITS - 1)
_CENTRE = (_HALF_Q | _HALF_Q << _Q_BITS).to_bytes(16, "little")  # the lane of (1/2, 1/2)


@dataclass(frozen=True)
class ClassHistogram:
    """Sampled class counts for one slope pair, with a uniformity statistic."""

    slopes: tuple[int, int, int, int]
    n: int
    seed: int
    counts: tuple[int, ...]
    chisq: float
    resampled: int = 0

    @property
    def count(self) -> int:
        return len(self.counts)

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(c / self.n for c in self.counts)

    @property
    def threshold(self) -> float:
        return chi2_q999(len(self.counts) - 1)

    @property
    def passed(self) -> bool:
        """Chi-square below the 0.999 quantile; a single class is trivially uniform."""
        return self.count == 1 or self.chisq < self.threshold

    def to_json_dict(self) -> dict:
        return {
            "slopes": list(self.slopes),
            "classes": self.count,
            "samples": self.n,
            "seed": self.seed,
            "counts": list(self.counts),
            "frequencies": list(self.frequencies),
            "chi_square": self.chisq,
            "threshold": self.threshold,
            "resampled_centers": self.resampled,
            "pass": self.passed,
        }

    def table(self) -> str:
        a, b, c, d = self.slopes
        lines = [
            f"slopes {a}/{b} and {c}/{d}  classes={self.count}  "
            f"samples={self.n}  seed={self.seed}",
            "class  count      frequency",
        ]
        for j, cnt in enumerate(self.counts):
            lines.append(f"{j:<6d} {cnt:<10d} {cnt / self.n:.6f}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"chi-square {self.chisq:.3f} vs 0.999 quantile "
            f"{self.threshold:.3f} ({self.count - 1} dof): {verdict}"
        )
        return "\n".join(lines)


def _count_block(slopes_tuple, seed, block, take):
    """Classify `take` dyadic-rational corners from one seeded block.

    Draws come in chunks of up to _CHUNK 128-bit lanes of one getrandbits
    call: px in bits 0-63 of a lane, py in bits 64-127, the same words as two
    getrandbits(64) calls. Where the key alpha | beta << ka fits one 64-bit
    word, px and py are masked straight out of the draw integer, and
    off + a*px - b*py stays in [0, (|a|+|b|+1) * 2^64), so it never borrows
    across lanes: one shift then gives every lane's ceiling of
    (a*nx - b*ny) / 2^64, offset by (|a|+|b|) // 2, in its low ka bits, and
    the next lane's low word in its top 64. The key lies below that word, so
    only beta needs a mask, and each lane's low word is its key.

    A chunk goes draw by draw, through threshold_ceilings, when its keys are
    wider than 64 bits or it holds the bytes of the pixel centre (1/2, 1/2)
    anywhere. A centre draw is then dropped, counted as resampled and
    replaced from the next chunk, as a per-sample redraw would. Each draw's
    key is counted, however wide, and each distinct key is classified once
    by class_of_params.
    """
    a, b, c, d = slopes_tuple
    slopes = Slopes(a, b, c, d)
    sa, sc = abs(a) + abs(b), abs(c) + abs(d)
    ha, hc = sa // 2, sc // 2  # key offsets: alpha + ha and beta + hc lie in [0, sa] and [0, sc]
    ka, kc = sa.bit_length(), sc.bit_length()  # bits of alpha and beta in a key
    lanes_fit = ka + kc <= 64
    # lane value (ha + ceil(v / 2^64)) * 2^64 + r, 0 <= r < 2^64, for v = a*nx - b*ny
    off_a = (ha + 1) * _Q - 1 - (a - b) * _HALF_Q
    off_c = (hc + 1) * _Q - 1 - (c - d) * _HALF_Q
    lanes = {}  # chunk size -> (offsets, beta mask and low-word mask repeated per lane)
    rng = random.Random(f"{seed}/{block}")
    keys = Counter()
    resampled = 0
    while take:
        t = min(_CHUNK, take)
        draw = rng.getrandbits(128 * t)
        raw = draw.to_bytes(16 * t, "little")
        if not lanes_fit or _CENTRE in raw:
            words = memoryview(raw).cast("Q")
            kept = [(px, py) for px, py in zip(words[::2], words[1::2]) if px != _HALF_Q or py != _HALF_Q]
            resampled += t - len(kept)
            take -= len(kept)
            ceilings = (threshold_ceilings(slopes, px, py, _Q) for px, py in kept)
            keys.update(alpha + ha | (beta + hc) << ka for alpha, beta in ceilings)
            continue
        take -= t
        if t not in lanes:
            ones = int.from_bytes((b"\1" + bytes(15)) * t, "little")
            lanes[t] = (off_a * ones, off_c * ones, ((1 << kc) - 1) * ones, (_Q - 1) * ones)
        lane_a, lane_c, mask_c, low = lanes[t]
        px, py = draw & low, draw >> _Q_BITS & low
        del draw, raw  # lowers the peak heap of the lane arithmetic below
        alphas = (lane_a + a * px - b * py) >> _Q_BITS
        betas = ((lane_c + c * px - d * py) >> _Q_BITS) & mask_c
        keys.update(memoryview((alphas | betas << ka).to_bytes(16 * t, "little")).cast("Q")[::2])
    counts = [0] * slopes.count
    for key, cnt in keys.items():
        alpha, beta = (key & ((1 << ka) - 1)) - ha, (key >> ka) - hc
        counts[class_of_params(slopes, alpha, beta)] += cnt
    return counts, resampled


def sample_class_frequencies(
    slopes: Slopes, n: int, seed: int, workers: int = 1
) -> ClassHistogram:
    """Classify n uniform corners; deterministic in (n, seed), independent of
    workers because randomness is tied to fixed-size blocks of the index range."""
    if n < 1:
        raise ValueError("need n >= 1")
    big_d = slopes.count
    blocks = [
        (slopes.as_tuple(), seed, i, min(_BLOCK, n - i * _BLOCK))
        for i in range((n + _BLOCK - 1) // _BLOCK)
    ]
    counts = [0] * big_d
    resampled = 0
    if workers > 1:
        # deferred: loading it costs about as much as the rest of `import pixelwedge`
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_count_block, *zip(*blocks))
    else:
        results = (_count_block(*args) for args in blocks)
    for block_counts, block_resampled in results:
        for j, cnt in enumerate(block_counts):
            counts[j] += cnt
        resampled += block_resampled
    expected = n / big_d
    chisq = sum((cnt - expected) ** 2 / expected for cnt in counts)
    return ClassHistogram(slopes.as_tuple(), n, seed, tuple(counts), chisq, resampled)


def exact_class_areas(slopes: Slopes) -> list[Fraction]:
    """Exact area of each partition cell (edge-vector determinant); all 1/D."""
    return [cell.area for cell in partition_unit_square(slopes)]


def cells_match_classes(slopes: Slopes) -> bool:
    """Whether the centre base + (e1 + e2)/2 of every partition cell j is a
    corner of class j by the closed-form class formula; over 2D the centre of
    the cell based at (x, y) / (2D) is the integer pair (x + b - d, y + a - c)."""
    a, b, c, d = slopes.a, slopes.b, slopes.c, slopes.d
    q = 2 * slopes.count
    for j, x, y in cell_bases(slopes):
        if class_of_params(slopes, *threshold_ceilings(slopes, x + b - d, y + a - c, q)) != j:
            return False
    return True


# --- the center-membership property ---------------------------------------------


def _integer_tie_in_window(a, b, alpha, m_range, n_range) -> bool:
    """Does the line a*m - b*n = alpha pass through a window pixel center?"""
    if alpha.denominator != 1:
        return False
    t = int(alpha)
    for m in m_range:
        v = a * m - t
        if b == 0:
            if v == 0:
                return True
        elif v % b == 0 and n_range[0] <= v // b <= n_range[1]:
            return True
    return False


def hobby_region_check(spec: AngleSpec, window: int) -> bool:
    """Compare the digitized angular path against center membership.

    For every window column the multiset-parity of the digitized path's
    horizontal edges must sit exactly at the heights where pixel-center
    membership flips; that is the boundary form of "a pixel belongs to the
    digitized region iff its center lies in the undigitized region".
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if is_pixel_center(spec.corner):
        raise PixelCenterHit("corner is a pixel center")
    alpha, beta = angle_thresholds(spec)
    m0, n0 = math.floor(spec.corner[0]), math.floor(spec.corner[1])
    w = window
    m_range = range(m0 - w - 1, m0 + w + 2)
    n_range = (n0 - w - 1, n0 + w + 1)
    if _integer_tie_in_window(spec.a, spec.b, alpha, m_range, n_range) or (
        _integer_tie_in_window(spec.c, spec.d, beta, m_range, n_range)
    ):
        raise PixelCenterHit("a boundary line passes through a window pixel center")

    path = digitize_angle_path(spec, w + 4)

    edge_parity: dict[tuple[int, int], int] = {}
    for (x1, y1), (x2, y2) in zip(path, path[1:]):
        if y1 == y2:
            key = (min(x1, x2), y1)
            edge_parity[key] = edge_parity.get(key, 0) ^ 1

    # one row and column past the window, so that an end clamped to the box
    # lies outside the window and is never taken for a flip
    cols = window_columns(spec.a, spec.b, spec.c, spec.d, *corner_ceilings(spec), (m0, n0), w + 1)
    flips = {
        (m, n) for m, lo, hi in cols for n in (lo, hi + 1)
        if abs(m - m0) <= w and abs(n - n0) <= w
    }
    path_edges = {
        (m, n) for (m, n), parity in edge_parity.items()
        if parity and abs(m - m0) <= w and abs(n - n0) <= w
    }
    return flips == path_edges


# --- exhaustive small-slope sweep ------------------------------------------------


def coprime_pairs(bound: int) -> list[tuple[int, int]]:
    return [
        (p, q)
        for p in range(-bound, bound + 1)
        for q in range(-bound, bound + 1)
        if math.gcd(p, q) == 1
    ]


def sweep_pair_estimate(bound: int) -> int:
    """len(coprime_pairs(bound)) ** 2 for bound >= 1, the slope pairs a sweep
    scans, in O(bound**0.75) steps: four quadrants plus (0, +-1) and (+-1, 0)."""
    memo: dict[int, int] = {}

    def quadrant(n: int) -> int:
        """#{1 <= p, q <= n : gcd(p, q) = 1}: the n*n pairs less, for each
        g >= 2, the quadrant(n // g) pairs with gcd g."""
        if n not in memo:
            total, g = n * n, 2
            while g <= n:
                last = n // (n // g)  # every g in [g, last] has the same n // g
                total -= (last - g + 1) * quadrant(n // g)
                g = last + 1
            memo[n] = total
        return memo[n]

    return (4 * quadrant(bound) + 4) ** 2


@dataclass(frozen=True)
class SweepEntry:
    slopes: tuple[int, int, int, int]
    expected: int
    classes: int
    window: int  # the sweep's own separating window, not enumerate_shapes'
    areas_ok: bool  # cells_match_classes: each partition cell holds its own class
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.classes == self.expected and self.areas_ok


@dataclass
class SweepReport:
    max_shapes: int
    max_entry: int
    entries: list[SweepEntry] = field(default_factory=list)

    @property
    def failures(self) -> list[SweepEntry]:
        return [e for e in self.entries if not e.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "max_shapes": self.max_shapes,
            "max_entry": self.max_entry,
            "pairs": len(self.entries),
            "failures": [
                {
                    "slopes": list(e.slopes),
                    "expected": e.expected,
                    "classes": e.classes,
                    "areas_ok": e.areas_ok,
                    "error": e.error,
                }
                for e in self.failures
            ],
            "pass": self.ok,
        }

    def table(self) -> str:
        counts: dict[int, int] = {}
        for e in self.entries:
            counts[e.expected] = counts.get(e.expected, 0) + 1
        lines = [
            f"slope pairs with entries <= {self.max_entry} and 1 <= D <= {self.max_shapes}: "
            f"{len(self.entries)}",
            "D      pairs",
        ]
        for d in sorted(counts):
            lines.append(f"{d:<6d} {counts[d]}")
        for e in self.failures:
            lines.append(f"FAIL {e.slopes}: classes={e.classes} expected={e.expected} error={e.error}")
        lines.append("sweep: PASS" if self.ok else "sweep: FAIL")
        return "\n".join(lines)


def theorem_sweep(max_shapes: int, max_entry: int | None = None) -> SweepReport:
    """Check class count == D and that every partition cell holds the corners
    of its own class, over every coprime slope pair with entries bounded by
    max_entry and 1 <= D <= max_shapes.

    Classes are counted by their distinct fingerprints, so no bitmap is
    built. The window starts at max(|a|, |b|, |c|, |d|) and doubles until the
    D fingerprints differ; each clips the region around an anchor that moves
    with it, so distinct fingerprints prove distinct classes at any window.
    """
    if max_shapes < 1:
        raise ValueError("max_shapes must be >= 1")
    if max_entry is not None and max_entry < 1:
        raise ValueError("max_entry must be >= 1")
    bound = max_shapes if max_entry is None else max_entry
    report = SweepReport(max_shapes, bound)
    pairs = coprime_pairs(bound)
    for a, b in pairs:
        for c, d in pairs:
            det = a * d - b * c
            if det == 0 or abs(det) > max_shapes:
                continue
            slopes = Slopes(a, b, c, d)
            expected = slopes.count
            try:
                window, sigs = class_signatures(slopes, max(abs(a), abs(b), abs(c), abs(d)))
                report.entries.append(
                    SweepEntry(
                        slopes.as_tuple(), expected, len({sig for sig, _ in sigs}),
                        window, cells_match_classes(slopes),
                    )
                )
            except WindowTooSmall as exc:
                report.entries.append(
                    SweepEntry(slopes.as_tuple(), expected, 0, 0, False, str(exc))
                )
    return report
