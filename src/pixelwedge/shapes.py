"""Translation-equivalence classes of digitized angles.

A corner (x0, y0) with slope pairs (a, b), (c, d) digitizes to the pixel set
{(m, n) : a*m - b*n >= alpha, c*m - d*n >= beta} with exact rational
thresholds; only their ceilings matter, and integer parameter pairs fall into
exactly D = |ad - bc| classes under integer translation. This module computes
the class arithmetic in closed form and materialises canonical window-clipped
bitmaps so that two parameter pairs are equivalent iff their bitmaps are
literally equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .digitize import AngleSpec, PixelIndex, Slopes, _Frozen, threshold_ceilings, window_columns
from .errors import InvalidAxis

PixelSet = frozenset  # of (m, n) pixel indices


class RegionParams(_Frozen):
    """Exact thresholds of one digitized angle and their integer ceilings."""

    __slots__ = __match_args__ = ("alpha", "beta", "alpha_ceil", "beta_ceil")

    def __init__(self, alpha, beta, alpha_ceil: int, beta_ceil: int):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha_ceil", alpha_ceil)
        object.__setattr__(self, "beta_ceil", beta_ceil)


def region_params(spec: AngleSpec) -> RegionParams:
    """Exact thresholds (alpha, beta) such that pixel (m, n) is in the angle
    iff a*m - b*n >= alpha and c*m - d*n >= beta, and their ceilings. Over
    2q the corner less (1/2, 1/2) is the integer pair (2x - q, 2y - q)."""
    x, y, q = spec.xyq
    u, v = 2 * x - q, 2 * y - q
    alpha, beta = Fraction(spec.a * u - spec.b * v, 2 * q), Fraction(spec.c * u - spec.d * v, 2 * q)
    return RegionParams(alpha, beta, *threshold_ceilings(spec.a, spec.b, spec.c, spec.d, x, y, q))


def class_of_params(slopes: Slopes, alpha: int, beta: int) -> int:
    """Class index j in [0, D): the unique j with R(alpha, beta) ~ R(0, j).

    Any Bezout pair (k0, l0) with k0*a - l0*b == alpha moves alpha to zero;
    the second threshold then lands at beta - (k0*c - l0*d), determined
    modulo ad - bc.
    """
    x, y = slopes.bezout
    k0, l0 = alpha * x, alpha * y
    return (beta - k0 * slopes.c + l0 * slopes.d) % slopes.count


def class_index(spec: AngleSpec) -> int:
    """Class of the corner's integer thresholds."""
    return class_of_params(spec.slopes, *threshold_ceilings(spec.a, spec.b, spec.c, spec.d, *spec.xyq))


def equivalent(p1: RegionParams, p2: RegionParams, slopes: Slopes) -> bool:
    """Whether two digitized angles have the same shape (integer translate).

    Translation shifts the thresholds linearly, so the angles are equivalent
    iff the difference of their integer thresholds lies in class 0.
    """
    return class_of_params(slopes, p1.alpha_ceil - p2.alpha_ceil, p1.beta_ceil - p2.beta_ceil) == 0


Columns = tuple[tuple[int, int, int], ...]  # (column, row_lo, row_hi) inclusive, from the first pixel


def anchored_regions(a: int, b: int, c: int, d: int, thresholds) -> list:
    """(alpha, beta, anchor) of each threshold pair, the anchor the floor of the
    boundary-line crossing: it moves by (k, l) when the region does."""
    det = a * d - b * c
    return [(alpha, beta, ((d * alpha - b * beta) // det, (c * alpha - a * beta) // det)) for alpha, beta in thresholds]


def class_fingerprints(pair: tuple[int, int, int, int], thresholds, window: int):
    """For each integer threshold pair (alpha, beta) in turn, the `window_columns`
    runs of R(alpha, beta) in the window around its anchor, and the anchor in
    canonical coordinates (minimum column and row 0); ((), (0, 0)) when the
    window holds no pixel. Equivalent pairs give equal fingerprints."""
    regions = anchored_regions(*pair, thresholds)
    for (_, _, (am, an)), (origin, runs, low) in zip(regions, window_columns(*pair, regions, window)):
        yield runs, (0, 0) if origin is None else (am - origin[0], an - low)


def _row_shift(runs: Columns) -> int:
    """Rows from the first pixel plus this are canonical rows, whose minimum is 0."""
    return -min([lo for _, lo, _ in runs], default=0)


def canonicalize(ps) -> PixelSet:
    """Translate a pixel set so its minimum occupied column and row are 0."""
    ps = frozenset(ps)
    if not ps:
        return ps
    min_m = min(m for m, _ in ps)
    min_n = min(n for _, n in ps)
    return frozenset((m - min_m, n - min_n) for m, n in ps)


@dataclass(frozen=True)
class ShapeClass:
    """One translation-equivalence class, materialised as a canonical bitmap."""

    slopes: tuple[int, int, int, int]
    index: int
    window: int
    bitmap: PixelSet
    corner_pixel: PixelIndex  # boundary-line crossing pixel, canonical coords

    def to_json_dict(self) -> dict:
        return {
            "slopes": list(self.slopes),
            "index": self.index,
            "window": self.window,
            "pixels": sorted(self.bitmap),
        }


def default_window(slopes: Slopes) -> int:
    return 2 * (abs(slopes.a) + abs(slopes.b) + abs(slopes.c) + abs(slopes.d))


def separating_window(slopes: Slopes, window: int) -> int:
    """The first doubling of `window` that is at least max(|a|, |b|, |c|, |d|):
    the largest window that class_signatures grows `window` to."""
    top = max(abs(slopes.a), abs(slopes.b), abs(slopes.c), abs(slopes.d))
    return window << ((top - 1) // window).bit_length()


def class_signatures(slopes: Slopes, window: int | None = None) -> tuple[int, list[tuple[Columns, PixelIndex]]]:
    """The window and the fingerprints of the D classes, index order 0..D-1.

    The window doubles from the one asked for until the D fingerprints are
    nonempty and pairwise distinct. They are at every window w >= M =
    max(|a|, |b|, |c|, |d|), so the doubling stops by `separating_window`.

    Proof. The apex P of R(0, j) lies in [A, A+1)^2, A its anchor. Lattice
    points on the line a*m - b*n = 0 are (b, a) apart, so within one step
    from P along the boundary ray inside c*m - d*n >= j lies a member pixel
    with a*m - b*n = 0 exactly; each coordinate of its offset from A is at
    most max(|a|, |b|) <= w in size, so the box holds it. Likewise the box
    holds a member pixel with c*m - d*n = j. Equal fingerprints of classes j
    and k make the two boxed sets translates, S_k = S_j + t. The minimum of
    a*m - b*n is 0 over both, so a*t_x = b*t_y and, as gcd(a, b) = 1,
    t = s*(b, a) for an integer s. The minimum of c*m - d*n then gives
    k = j - s*det, and 0 <= j, k < D forces k = j.
    """
    w = default_window(slopes) if window is None else window
    if w < 1:
        raise ValueError("window must be >= 1")
    d, top = slopes.count, separating_window(slopes, w)
    while True:
        sigs = list(class_fingerprints(slopes.as_tuple(), [(0, j) for j in range(d)], w))
        if all(sig for sig, _ in sigs) and len({sig for sig, _ in sigs}) == d:
            return w, sigs
        if w >= top:  # only if the proof above is wrong
            raise AssertionError(f"classes of {slopes.as_tuple()} collide at window {w}")
        w *= 2


def _bitmaps(sigs: list[Columns]) -> list[PixelSet]:
    """Canonical pixel sets of column tables, built from one grid of (m, n)
    tuples that all share; rows shift to canonical in slices and comparisons.

    Neighbouring classes differ in few pixels. One mutable working set
    carries a class's pixels into the next when both have the same column
    list: each run that moved from [lo0, hi0] to [lo1, hi1] toggles the rows
    between the two lows and between the two highs in place, which is exact
    also for disjoint runs, and the class is frozen from it, one table copy
    that reuses the stored hashes. A table with another column list than the
    one before it is built from its runs, and the working set is taken from
    it only once a class follows with the same column list.
    """
    shifts = [_row_shift(sig) for sig in sigs]
    width = 1 + max(sig[-1][0] for sig in sigs)
    height = 1 + max(hi + s for sig, s in zip(sigs, shifts) for _, _, hi in sig)
    grid = [[(m, n) for n in range(height)] for m in range(width)]
    out: list[PixelSet] = []
    work: set | None = None
    prev_sig, prev_cols, s0 = (), None, 0
    for sig, s1 in zip(sigs, shifts):
        cols = [m for m, _, _ in sig]
        if cols == prev_cols:
            if work is None:
                work = set(out[-1])
            k = s1 - s0  # canonical rows agree where lo0 - lo1 == k
            for (m, lo0, hi0), (_, lo1, hi1) in zip(prev_sig, sig):
                if lo0 - lo1 != k or hi0 - hi1 != k:
                    col = grid[m]
                    lo0, hi0, lo1, hi1 = lo0 + s0, hi0 + s0, lo1 + s1, hi1 + s1
                    work.symmetric_difference_update(col[min(lo0, lo1) : max(lo0, lo1)])
                    work.symmetric_difference_update(col[min(hi0, hi1) + 1 : max(hi0, hi1) + 1])
            out.append(frozenset(work))
        else:
            work = None
            out.append(frozenset(chain.from_iterable(grid[m][lo + s1 : hi + s1 + 1] for m, lo, hi in sig)))
        prev_sig, prev_cols, s0 = sig, cols, s1
    return out


def enumerate_shapes(slopes: Slopes, window: int | None = None) -> list[ShapeClass]:
    """All D shape classes as canonical windowed bitmaps, index order 0..D-1,
    at the window class_signatures grows the starting one to."""
    w, sigs = class_signatures(slopes, window)
    bitmaps = _bitmaps([sig for sig, _ in sigs])
    return [
        ShapeClass(slopes.as_tuple(), j, w, bitmap, corner)
        for j, (bitmap, (_, corner)) in enumerate(zip(bitmaps, sigs))
    ]


def shape_of_spec(spec: AngleSpec, window: int | None = None) -> ShapeClass:
    """Canonical windowed bitmap of one concrete digitized angle."""
    slopes = spec.slopes
    w = default_window(slopes) if window is None else window
    if w < 1:
        raise ValueError("window must be >= 1")
    alpha, beta = threshold_ceilings(spec.a, spec.b, spec.c, spec.d, *spec.xyq)
    [(sig, corner)] = class_fingerprints(slopes.as_tuple(), [(alpha, beta)], w)
    s = _row_shift(sig)
    bitmap = frozenset((m, n) for m, lo, hi in sig for n in range(lo + s, hi + s + 1))
    return ShapeClass(slopes.as_tuple(), class_of_params(slopes, alpha, beta), w, bitmap, corner)


# --- reflections ---------------------------------------------------------------

_AXES = ("horizontal", "vertical", "diagonal45", "antidiagonal45")


def reflection_symmetric(ps, axis: str, anchor) -> bool:
    """Whether reflecting every pixel across the axis reproduces the set.

    Horizontal/vertical axes may sit on pixel-corner lines (integer anchor) or
    pixel-center lines (half-integer anchor). Diagonal axes map pixels to
    pixels only when they pass through pixel corners, i.e. integer offset.
    """
    if axis not in _AXES:
        raise InvalidAxis(f"unknown axis {axis!r}")
    anchor = Fraction(anchor)
    ps = frozenset(ps)
    if axis in ("horizontal", "vertical"):
        twice = anchor * 2
        if twice.denominator != 1:
            raise InvalidAxis("axis must sit on a pixel-corner or pixel-center line")
        t = int(twice)
        if axis == "vertical":
            reflected = {(t - 1 - m, n) for m, n in ps}
        else:
            reflected = {(m, t - 1 - n) for m, n in ps}
    else:
        if anchor.denominator != 1:
            raise InvalidAxis("diagonal axes must pass through pixel corners")
        t = int(anchor)
        if axis == "diagonal45":  # the line y = x + t
            reflected = {(n - t, m + t) for m, n in ps}
        else:  # the line y = -x + t
            reflected = {(t - n - 1, t - m - 1) for m, n in ps}
    return reflected == ps
