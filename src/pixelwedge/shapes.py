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

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .digitize import AngleSpec, PixelIndex, Slopes, angle_thresholds, corner_ceilings, window_columns
from .errors import InvalidAxis, WindowTooSmall

PixelSet = frozenset  # of (m, n) pixel indices


@dataclass(frozen=True)
class RegionParams:
    """Exact thresholds of one digitized angle and their integer ceilings."""

    alpha: Fraction
    beta: Fraction
    alpha_ceil: int
    beta_ceil: int


def region_params(spec: AngleSpec) -> RegionParams:
    alpha, beta = angle_thresholds(spec)
    return RegionParams(alpha, beta, math.ceil(alpha), math.ceil(beta))


def shift_params(slopes: Slopes, alpha: int, beta: int, k: int, l: int) -> tuple[int, int]:
    """Parameters of the region translated by (k, l): R(shifted) == R(a,b) + (k,l)."""
    return (alpha + k * slopes.a - l * slopes.b, beta + k * slopes.c - l * slopes.d)


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
    return class_of_params(spec.slopes, *corner_ceilings(spec))


def equivalent(p1: RegionParams, p2: RegionParams, slopes: Slopes) -> bool:
    """Whether two digitized angles have the same shape (integer translate).

    Translation shifts the thresholds linearly, so the angles are equivalent
    iff the difference of their integer thresholds lies in class 0.
    """
    return class_of_params(slopes, p1.alpha_ceil - p2.alpha_ceil, p1.beta_ceil - p2.beta_ceil) == 0


Columns = tuple[tuple[int, int, int], ...]  # (column, row_lo, row_hi) inclusive


def class_fingerprint(slopes: Slopes, alpha: int, beta: int, window: int) -> tuple[Columns, PixelIndex]:
    """Canonical (translation-normalised) column table of R(alpha, beta)
    clipped to the window around its anchor, and the anchor's position in
    canonical coordinates.

    The anchor is the floor of the boundary-line crossing. It depends on the
    region only and shifts by exactly (k, l) when the region is translated by
    (k, l), so equivalent parameter pairs produce identical fingerprints at
    equal window.
    """
    a, b, c, d, det = slopes.a, slopes.b, slopes.c, slopes.d, slopes.det
    am = (d * alpha - b * beta) // det
    an = (c * alpha - a * beta) // det
    cols = window_columns(a, b, c, d, alpha, beta, (am, an), window)
    if not cols:
        return (), (0, 0)
    min_m = cols[0][0]
    min_n = min([lo for _, lo, _ in cols])
    sig = tuple([(m - min_m, lo - min_n, hi - min_n) for m, lo, hi in cols])
    return sig, (am - min_m, an - min_n)


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


def class_signatures(slopes: Slopes, window: int | None = None) -> tuple[int, list[tuple[Columns, PixelIndex]]]:
    """The window and the fingerprints of the D classes, index order 0..D-1.

    The window grows by doubling (up to 8x the starting size) if two classes
    collide inside it; distinct classes have distinct unclipped regions, so
    some finite window always separates them. The returned fingerprints are
    nonempty and pairwise distinct.
    """
    base = default_window(slopes) if window is None else window
    if base < 1:
        raise ValueError("window must be >= 1")
    d = slopes.count
    for factor in (1, 2, 4, 8):
        w = base * factor
        sigs = [class_fingerprint(slopes, 0, j, w) for j in range(d)]
        if all(sig for sig, _ in sigs) and len({sig for sig, _ in sigs}) == d:
            return w, sigs
    raise WindowTooSmall(
        f"classes of {slopes.as_tuple()} not pairwise distinct within window {base * 8}"
    )


def _bitmaps(sigs: list[Columns]) -> list[PixelSet]:
    """Pixel sets of canonical column tables, built from one grid of (m, n)
    tuples that all of them share.

    Neighbouring classes differ in few pixels. A table with the same column
    list as the one before it starts from a copy of that one's set, which
    reuses its stored hashes; each run that moved from [lo0, hi0] to
    [lo1, hi1] then toggles the rows between the two lows and between the
    two highs, which is exact also for disjoint runs. Other tables are built
    from their runs.
    """
    width = 1 + max(sig[-1][0] for sig in sigs)
    height = 1 + max(hi for sig in sigs for _, _, hi in sig)
    grid = [[(m, n) for n in range(height)] for m in range(width)]
    out: list[PixelSet] = []
    prev_sig, prev_cols = (), None
    for sig in sigs:
        cols = [m for m, _, _ in sig]
        if cols == prev_cols:
            work = set(out[-1])
            for (m, lo0, hi0), (_, lo1, hi1) in zip(prev_sig, sig):
                if lo0 != lo1 or hi0 != hi1:
                    col = grid[m]
                    work.symmetric_difference_update(col[min(lo0, lo1) : max(lo0, lo1)])
                    work.symmetric_difference_update(col[min(hi0, hi1) + 1 : max(hi0, hi1) + 1])
            out.append(frozenset(work))
        else:
            out.append(frozenset(chain.from_iterable(grid[m][lo : hi + 1] for m, lo, hi in sig)))
        prev_sig, prev_cols = sig, cols
    return out


def enumerate_shapes(slopes: Slopes, window: int | None = None) -> list[ShapeClass]:
    """All D shape classes as canonical windowed bitmaps, index order 0..D-1.

    Raises WindowTooSmall when no window up to 8x the starting size separates
    the classes (see class_signatures).
    """
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
    alpha, beta = corner_ceilings(spec)
    sig, corner = class_fingerprint(slopes, alpha, beta, w)
    bitmap = _bitmaps([sig])[0] if sig else frozenset()
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
