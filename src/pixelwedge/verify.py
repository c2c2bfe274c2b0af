"""Statistical and exact verification of the shape-count and uniformity claims.

Monte Carlo corners are exact dyadic rationals (64-bit numerator over 2^64),
so classification never leaves integer arithmetic and results are bit-stable
for a given seed regardless of worker count. Corners are classified a chunk
at a time: one getrandbits call fills a chunk of draws, and a few
big-integer operations over 128-bit lanes, masked straight out of the draw
integer, give every draw's class parameters as a 64-bit key. A chunk whose
keys are wider than 64 bits, or which holds a pixel-centre draw (found by
one carry test per lane), goes draw by draw through `threshold_ceilings`
instead. Keys of one byte, at small D, are mapped to one-hot class bits
and counted by class with a population count; wider ones are counted by
key. The random stream, and so every count, is the same as drawing and
classifying one corner at a time.
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
    digitize_angle_path,
    is_pixel_center,
    threshold_ceilings,
    window_columns,
)
from .errors import PixelCenterHit
from .partition import cell_bases, partition_unit_square
from .shapes import anchored_regions, class_of_params, region_params


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
_WIDE_KEY_WORK = 32  # what `sample_work` counts for a draw-by-draw sample (see cli.VERIFY_WORK_LIMIT)
# the largest D whose one-byte keys are counted by class: per block of 2^15
# 8-bit keys, the byte path takes ~2.9 ms at D = 16 and ~22 us more per class
# (per group of 8 classes a translate, ~13 us, and an int.from_bytes, ~29 us;
# per class an AND and an int.bit_count, ~18 us), the Counter path ~4.0 ms at
# any D; whole blocks read 3.98 against 4.06 ms at D = 65, even at D = 66 and
# 67, and 4.04 against 3.98 ms at D = 69 (min of 7, 2 CPUs, Python 3.11.7)
_BYTE_KEY_CLASSES = 66


def _lanes_fit(a: int, b: int, c: int, d: int) -> bool:
    """Whether a sample key alpha | beta << ka fits one 64-bit word, ka and kc
    being the bit lengths of |a| + |b| and |c| + |d|; `_count_block` classifies
    draw by draw where it does not."""
    return (abs(a) + abs(b)).bit_length() + (abs(c) + abs(d)).bit_length() <= 64


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
        """Chi-square below the 0.999 quantile; a single class is trivially uniform.

        Decided on integers: n * chi-square is exactly D * sum(c^2) - n^2, and
        the quantile is a whole number Q of millionths, so chi-square < Q / 10^6
        iff 10^6 * (D * sum(c^2) - n^2) < Q * n."""
        n, q = self.n, round(self.threshold * 10**6)
        return self.count == 1 or 10**6 * (self.count * sum(c * c for c in self.counts) - n * n) < q * n

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


def _pending_key_bytes(acc: int, acc_n: int, t: int) -> bytes:
    """The key bytes of acc_n < 16 chunks of t lanes gathered as acc << 8 | key:
    lane j's keys, the last chunk's first, are bytes 16j + 8 onwards."""
    packed = acc.to_bytes(16 * t + 8, "little")
    return b"".join(packed[i::16] for i in range(8, 8 + acc_n))


@lru_cache(maxsize=2)  # a run's blocks have at most two lengths: _BLOCK and its last block's
def _byte_bit_masks(size: int) -> tuple[int, ...]:
    """For k = 0 to 7, the `size`-byte integer with bit k of every byte set.

    Cached, as building them in every block made whole 2^15-key blocks
    ~0.1 ms slower: min of 63 alternating, 2.85 against 2.74 ms at D = 5
    and 4.08 against 3.93 ms at D = 64 (2 CPUs, Python 3.11.7)."""
    ones = int.from_bytes(b"\1" * size, "little")
    return tuple(ones << k for k in range(8))


def _count_block(slopes_tuple, seed, block, take):
    """Classify `take` dyadic-rational corners from one seeded block.

    Draws come in chunks of up to _CHUNK 128-bit lanes of one getrandbits
    call: px in bits 0-63 of a lane, py in bits 64-127, the same words as two
    getrandbits(64) calls. Where the key alpha | beta << ka fits one 64-bit
    word, px and py are masked straight out of the draw integer, and
    off + a*px - b*py stays in [0, (|a|+|b|+1) * 2^64), so it never borrows
    across lanes: bits 64 to 64 + ka of each lane hold its ceiling of
    (a*nx - b*ny) / 2^64, offset by (|a|+|b|) // 2. Beta's offset, c and d
    are scaled by 2^ka once per block, so its ceiling lies in bits 64 + ka
    to 64 + ka + kc, still inside the lane, and two masks and an OR give
    every lane's key in its high word, where the multiplies left it.

    A chunk goes draw by draw, through threshold_ceilings, when its keys are
    wider than 64 bits or it holds a centre lane, px = py = 2^63: the pixel
    centre (1/2, 1/2). The test is one carry per lane: px ^ 2^63 | py ^ 2^63
    is below 2^64, and 0 only at the centre, so adding 2^64 - 1 sets bit 64
    of every lane but a centre lane and never carries into the next. A
    centre draw is then dropped, counted as resampled and replaced from the
    next chunk, as a per-sample redraw would.

    Where every key fits one byte and D <= _BYTE_KEY_CLASSES, up to 16
    chunks of one size gather in one integer, acc << 8 | key, which puts
    lane j's keys in bytes 16j + 8 to 16j + 23 and never lets two meet; a
    full group goes to one bytearray with one to_bytes, and a partial one,
    at a change of chunk size or at the block's end, by one strided slice
    per chunk. At the block's end the classes are counted by popcount, in
    groups of 8: class_of_params over the (sa+1)(sc+1) keys a draw can reach
    builds, per group g, a 256-byte table mapping a key of class j in the
    group to the one-hot byte 1 << (j - 8g) and every other key to 0. One
    translate through it and one int.from_bytes read the block's keys as one
    integer, and each class of the group is one AND with a mask holding its
    bit in every byte and one int.bit_count. Every class but the last is
    counted so; the last gets the block's samples the others leave.
    Draw-by-draw chunks append their key bytes directly.
    Otherwise each draw's key is counted, however wide, and each distinct
    key is classified once by class_of_params.
    """
    a, b, c, d = slopes_tuple
    slopes = Slopes(a, b, c, d)
    sa, sc = abs(a) + abs(b), abs(c) + abs(d)
    ha, hc = sa // 2, sc // 2  # key offsets: alpha + ha and beta + hc lie in [0, sa] and [0, sc]
    ka, kc = sa.bit_length(), sc.bit_length()  # bits of alpha and beta in a key
    lanes_fit = _lanes_fit(a, b, c, d)
    byte_keys = ka + kc <= 8 and slopes.count <= _BYTE_KEY_CLASSES
    # lane value (ha + ceil(v / 2^64)) * 2^64 + r, 0 <= r < 2^64, for v = a*nx - b*ny;
    # beta's lane is scaled by 2^ka, so that its ceiling lies just above alpha's
    off_a = (ha + 1) * _Q - 1 - (a - b) * _HALF_Q
    off_c = ((hc + 1) * _Q - 1 - (c - d) * _HALF_Q) << ka
    c_ka, d_ka = c << ka, d << ka
    lanes = {}  # chunk size -> (offsets, alpha and beta masks, low-word mask, 2^63, 2^64), each repeated per lane
    rng = random.Random(f"{seed}/{block}")
    keys = Counter()
    key_bytes = bytearray()
    acc = acc_n = acc_t = 0  # the keys of acc_n chunks of acc_t lanes, one byte above the next
    resampled = 0
    while take:
        t = min(_CHUNK, take)
        draw = rng.getrandbits(128 * t)
        if lanes_fit:
            if t not in lanes:
                ones = int.from_bytes((b"\1" + bytes(15)) * t, "little")
                lanes[t] = (
                    off_a * ones, off_c * ones, (((1 << ka) - 1) << _Q_BITS) * ones,
                    (((1 << kc) - 1) << (_Q_BITS + ka)) * ones, (_Q - 1) * ones, _HALF_Q * ones, _Q * ones,
                )
            lane_a, lane_c, mask_a, mask_c, low, halves, carries = lanes[t]
            px, py = draw & low, draw >> _Q_BITS & low
            if ((px ^ halves | py ^ halves) + low) & carries == carries:  # no centre lane
                take -= t
                del draw  # lowers the peak heap of the lane arithmetic below
                key = (lane_a + a * px - b * py) & mask_a | (lane_c + c_ka * px - d_ka * py) & mask_c
                if not byte_keys:
                    keys.update(memoryview(key.to_bytes(16 * t, "little")).cast("Q")[1::2])
                    continue
                if t != acc_t:
                    key_bytes += _pending_key_bytes(acc, acc_n, acc_t)
                    acc, acc_n, acc_t = 0, 0, t
                acc = acc << 8 | key
                acc_n += 1
                if acc_n == 16:
                    key_bytes += acc.to_bytes(16 * t + 8, "little")[8:]
                    acc = acc_n = 0
                continue
        words = memoryview(draw.to_bytes(16 * t, "little")).cast("Q")
        kept = [(px, py) for px, py in zip(words[::2], words[1::2]) if px != _HALF_Q or py != _HALF_Q]
        resampled += t - len(kept)
        take -= len(kept)
        ceilings = (threshold_ceilings(a, b, c, d, px, py, _Q) for px, py in kept)
        chunk_keys = (alpha + ha | (beta + hc) << ka for alpha, beta in ceilings)
        if byte_keys:
            key_bytes += bytes(chunk_keys)
        else:
            keys.update(chunk_keys)
    if byte_keys:
        key_bytes += _pending_key_bytes(acc, acc_n, acc_t)
        counted = slopes.count - 1  # the last class gets the samples the others leave
        one_hot = [bytearray(256) for _ in range(0, counted, 8)]  # per group of 8 classes: key -> class bit
        for ia in range(sa + 1):
            for ib in range(sc + 1):
                j = class_of_params(slopes, ia - ha, ib - hc)
                if j < counted:
                    one_hot[j // 8][ia | ib << ka] = 1 << j % 8
        # ~21 us per class at any D; a bytes.count per class costs less the
        # rarer its byte, ~88 us at D = 5 but ~21 from D = 56, so against it
        # whole blocks gain 0.28 ms at D = 5 and 0.07 at D = 48 and lose 0.08
        # of ~4.2 ms at D = 64 (medians of 63 alternating blocks, 2 CPUs,
        # Python 3.11.7), a loss accepted to keep one counting path
        masks = _byte_bit_masks(len(key_bytes))
        counts = []
        for g, table in enumerate(one_hot):
            bits = int.from_bytes(key_bytes.translate(table), "little")
            counts += [(bits & mask).bit_count() for mask in masks[: counted - 8 * g]]
        counts.append(len(key_bytes) - sum(counts))
        return counts, resampled
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
    for name, value in (("n", n), ("seed", seed)):
        if type(value) is bool or not isinstance(value, int):
            raise TypeError(f"{name} must be an int, not {type(value).__name__}")
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


def sample_work(slopes: Slopes, n: int) -> int:
    """The n samples of `sample_class_frequencies`, each counted
    _WIDE_KEY_WORK times where keys are too wide for the lanes, plus its
    merges of one D-long count list per block."""
    weight = 1 if _lanes_fit(*slopes.as_tuple()) else _WIDE_KEY_WORK
    return n * weight + slopes.count * -(-n // _BLOCK)


def exact_class_areas(slopes: Slopes) -> list[Fraction]:
    """Exact area of each partition cell (edge-vector determinant); all 1/D."""
    return [cell.area for cell in partition_unit_square(slopes)]


def cells_match_classes(a: int, b: int, c: int, d: int) -> bool:
    """Whether the centre base + (e1 + e2)/2 of every partition cell j is a
    corner of class j; over 2D the centre of the cell based at (x, y) / (2D)
    is the integer pair (x + b - d, y + a - c).

    Its ceilings (alpha, beta) give class j iff R(alpha, beta) ~ R(0, j),
    iff (alpha, beta - j) is a vector (a*k - b*l, c*k - d*l), k and l
    integers, of the translation lattice; solved for k and l, iff det divides
    d*alpha - b*(beta - j) and c*alpha - a*(beta - j), det = ad - bc.
    """
    det = a * d - b * c
    q = 2 * abs(det)
    for j, x, y in cell_bases(a, b, c, d):
        alpha, beta = threshold_ceilings(a, b, c, d, x + b - d, y + a - c, q)
        if (d * alpha - b * (beta - j)) % det or (c * alpha - a * (beta - j)) % det:
            return False
    return True


# --- the center-membership property ---------------------------------------------


def hobby_region_check(spec: AngleSpec, window: int) -> bool:
    """Compare the digitized angular path against center membership.

    For every window column the multiset-parity of the digitized path's
    horizontal edges must sit exactly at the heights where pixel-center
    membership flips; that is the boundary form of "a pixel belongs to the
    digitized region iff its center lies in the undigitized region". Raises
    PixelCenterHit when the corner is a pixel center, or when a boundary
    line has one within a pixel of the window: `window_columns` finds it as
    a member of the degenerate strip t <= p*m - r*n <= t.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if is_pixel_center(spec.corner):
        raise PixelCenterHit("corner is a pixel center")
    rp = region_params(spec)
    x, y, q = spec.xyq
    m0, n0 = x // q, y // q
    w = window
    for p, r, t, ceil in ((spec.a, spec.b, rp.alpha, rp.alpha_ceil), (spec.c, spec.d, rp.beta, rp.beta_ceil)):
        if t == ceil and next(window_columns(p, r, -p, -r, [(ceil, -ceil, (m0, n0))], w + 1))[1]:
            raise PixelCenterHit("a boundary line passes through a window pixel center")

    path = digitize_angle_path(spec, w + 4)

    edge_parity: dict[tuple[int, int], int] = {}
    for (x1, y1), (x2, y2) in zip(path, path[1:]):
        if y1 == y2:
            key = (min(x1, x2), y1)
            edge_parity[key] = edge_parity.get(key, 0) ^ 1

    # one row and column past the window, so that an end clamped to the box
    # lies outside the window and is never taken for a flip
    [(origin, runs, _)] = window_columns(spec.a, spec.b, spec.c, spec.d, [(rp.alpha_ceil, rp.beta_ceil, (m0, n0))], w + 1)
    om, on = origin or (0, 0)
    flips = {
        (om + m, on + n) for m, lo, hi in runs for n in (lo, hi + 1)
        if abs(om + m - m0) <= w and abs(on + n - n0) <= w
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


@dataclass(frozen=True)
class SweepEntry:
    slopes: tuple[int, int, int, int]
    expected: int
    classes: int  # distinct nonempty `window_columns` runs of the (0, j) regions at window max |entry|
    areas_ok: bool  # cells_match_classes: each partition cell holds its own class

    @property
    def ok(self) -> bool:
        return self.classes == self.expected and self.areas_ok


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
            lines.append(f"FAIL {e.slopes}: classes={e.classes} expected={e.expected}")
        lines.append("sweep: PASS" if self.ok else "sweep: FAIL")
        return "\n".join(lines)


def theorem_sweep(max_shapes: int, max_entry: int | None = None) -> SweepReport:
    """Check class count == D and that every partition cell holds the corners
    of its own class, over every coprime slope pair with entries bounded by
    max_entry and 1 <= D <= max_shapes.

    Classes are counted as the distinct nonempty `window_columns` runs of
    R(0, j) at the window max(|a|, |b|, |c|, |d|), so no bitmap is built.
    Each clips the region around an anchor that moves with it, so distinct
    runs prove distinct classes; class_signatures proves that this window
    shows all D, and a collision leaves an entry with fewer than expected.

    The pairs are coprime by construction, so each is swept as plain
    integers: no `Slopes` and no Bezout pair, one column scan over its D
    classes, and `cells_match_classes` on the translation lattice.
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
            count, window = abs(det), max(abs(a), abs(b), abs(c), abs(d))
            regions = anchored_regions(a, b, c, d, [(0, j) for j in range(count)])
            sigs = {runs for _, runs, _ in window_columns(a, b, c, d, regions, window)}
            sigs.discard(())
            report.entries.append(SweepEntry((a, b, c, d), count, len(sigs), cells_match_classes(a, b, c, d)))
    return report
