"""Digitizing points, segments, and angular regions onto the pixel grid.

The plane is tiled by unit-square pixels with integer corners; pixel (m, n)
has corners (m, n)..(m+1, n+1) and center (m + 1/2, n + 1/2). A curve is
digitized by rounding each coordinate to the nearest integer as the parameter
sweeps, which yields a path along pixel boundaries; whenever a coordinate
crosses a half-integer the whole unit edge between the two rounded positions
joins the path. Paths through pixel centers are rejected: both coordinates
would be ambiguous at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EmptyRegion,
    HalfIntegerTie,
    ParallelSlopes,
    PixelCenterHit,
)
from .exact import HALF, extended_gcd

Point = tuple[Fraction, Fraction]
PixelIndex = tuple[int, int]
GridPath = list[tuple[int, int]]


def as_point(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def is_half_integer(r: Fraction) -> bool:
    return r.denominator == 2


def is_pixel_center(p: Point) -> bool:
    return is_half_integer(p[0]) and is_half_integer(p[1])


def round_nearest(r: Fraction | int) -> int:
    """The integer nearest r; raises HalfIntegerTie when r is k + 1/2."""
    r = Fraction(r)
    if r.denominator == 2:
        raise HalfIntegerTie(f"{r} is halfway between integers")
    return math.floor(r + HALF)


@dataclass(frozen=True)
class Slopes:
    """Two directed slopes a/b and c/d, each pair coprime, lines not parallel.

    The sign of each pair selects one of the two half-planes its line bounds;
    negating (a, b) or (c, d) picks the opposite one, so all four corner
    regions of the line crossing are reachable. Three invariants are computed
    once at construction and kept outside the dataclass fields, so eq, hash
    and repr ignore them: `det` = ad - bc, `count` = D = |ad - bc| (the
    number of distinct digitized shapes) and `bezout`, a pair (x, y) with
    a*x - b*y == 1.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for p, q, name in ((self.a, self.b, "first"), (self.c, self.d, "second")):
            if math.gcd(p, q) != 1:
                raise ValueError(f"{name} slope pair ({p}, {q}) is not coprime")
        det = self.a * self.d - self.b * self.c
        if det == 0:
            raise ParallelSlopes(f"slopes {self.a}/{self.b} and {self.c}/{self.d} are parallel")
        _, x, y = extended_gcd(self.a, self.b)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "count", abs(det))
        object.__setattr__(self, "bezout", (x, y))

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def ray_directions(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Directions of the two boundary rays, each inside the other half-plane."""
        u1 = (self.b, self.a)
        if self.c * u1[0] - self.d * u1[1] < 0:
            u1 = (-self.b, -self.a)
        u2 = (self.d, self.c)
        if self.a * u2[0] - self.b * u2[1] < 0:
            u2 = (-self.d, -self.c)
        return u1, u2


@dataclass(frozen=True)
class AngleSpec:
    """An angular region: corner point plus the two directed slope pairs."""

    a: int
    b: int
    c: int
    d: int
    corner: Point

    def __post_init__(self):
        # validates coprimality and det; kept, so `slopes` is a plain read
        object.__setattr__(self, "_slopes", Slopes(self.a, self.b, self.c, self.d))
        object.__setattr__(
            self, "corner", (Fraction(self.corner[0]), Fraction(self.corner[1]))
        )

    @property
    def slopes(self) -> Slopes:
        return self._slopes

    @property
    def count(self) -> int:
        return self.slopes.count


def angle_thresholds(spec: AngleSpec) -> tuple[Fraction, Fraction]:
    """Exact thresholds (alpha, beta) such that pixel (m, n) is in the angle
    iff a*m - b*n >= alpha and c*m - d*n >= beta."""
    x0, y0 = spec.corner
    alpha = spec.a * (x0 - HALF) - spec.b * (y0 - HALF)
    beta = spec.c * (x0 - HALF) - spec.d * (y0 - HALF)
    return alpha, beta


def threshold_ceilings(slopes: Slopes, x: int, y: int, q: int) -> tuple[int, int]:
    """(ceil(alpha), ceil(beta)) of the corner (x/q, y/q), q > 0.

    a*m - b*n is an integer, so it is >= alpha iff it is >= ceil(alpha), and
    likewise for beta. Over 2q the corner less (1/2, 1/2) has integer
    numerators, so each ceiling is one floor division.
    """
    u, v = 2 * x - q, 2 * y - q
    return (
        -((slopes.b * v - slopes.a * u) // (2 * q)),
        -((slopes.d * v - slopes.c * u) // (2 * q)),
    )


def corner_ceilings(spec: AngleSpec) -> tuple[int, int]:
    """`threshold_ceilings` of the spec's corner, over its common denominator."""
    x0, y0 = spec.corner
    q = math.lcm(x0.denominator, y0.denominator)
    return threshold_ceilings(
        spec.slopes, x0.numerator * (q // x0.denominator), y0.numerator * (q // y0.denominator), q
    )


def pixel_in_angle(px: PixelIndex, spec: AngleSpec) -> bool:
    """Closed-inequality membership of a pixel, decided at its center point."""
    alpha, beta = angle_thresholds(spec)
    m, n = px
    return spec.a * m - spec.b * n >= alpha and spec.c * m - spec.d * n >= beta


def window_columns(
    a: int, b: int, c: int, d: int, alpha: int, beta: int, anchor: PixelIndex, window: int
) -> list[tuple[int, int, int]]:
    """Member rows (m, lo, hi), inclusive, of the columns of the
    (2*window+1)^2 box centred on `anchor`, in increasing m, for integer
    thresholds alpha and beta; empty columns are left out.
    """
    am, an = anchor
    bottom, top = an - window, an + window
    cols = []
    for m in range(am - window, am + window + 1):
        lo, hi = bottom, top
        v = a * m - alpha
        if b > 0:
            t = v // b
            if t < hi:
                hi = t
        elif b < 0:
            t = -(v // -b)
            if t > lo:
                lo = t
        elif v < 0:
            continue
        v = c * m - beta
        if d > 0:
            t = v // d
            if t < hi:
                hi = t
        elif d < 0:
            t = -(v // -d)
            if t > lo:
                lo = t
        elif v < 0:
            continue
        if lo <= hi:
            cols.append((m, lo, hi))
    return cols


def region_pixels(spec: AngleSpec, window: int) -> set[PixelIndex]:
    """All member pixels in the (2*window+1)^2 box centred on the pixel
    containing the corner."""
    if window < 1:
        raise ValueError("window must be >= 1")
    anchor = (math.floor(spec.corner[0]), math.floor(spec.corner[1]))
    cols = window_columns(spec.a, spec.b, spec.c, spec.d, *corner_ceilings(spec), anchor, window)
    return {(m, n) for m, lo, hi in cols for n in range(lo, hi + 1)}


# --- segment / polyline digitization -----------------------------------------


def _on_half_line_checks(p: Point, q: Point) -> None:
    """Reject a segment that runs along a half-integer grid line."""
    for axis in (0, 1):
        if p[axis] == q[axis] and is_half_integer(p[axis]):
            o = 1 - axis
            if _crossing_params(*sorted((p[o], q[o]))):
                raise PixelCenterHit(
                    "segment lies on a half-integer line and crosses a pixel center"
                )
            raise HalfIntegerTie(
                "segment lies on a half-integer grid line; rounding undefined"
            )


def _crossing_params(lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Half-integer values k + 1/2 inside [lo, hi] (inclusive)."""
    k_min = math.ceil(lo - HALF)
    k_max = math.floor(hi - HALF)
    return [Fraction(2 * k + 1, 2) for k in range(k_min, k_max + 1)]


def digitize_polyline(points: list[Point]) -> GridPath:
    """Digitize a piecewise-linear path given by its vertices.

    Implements the rounding sweep event-by-event: the exact parameters where a
    coordinate crosses a half-integer split the parameter range into intervals
    on which the rounded point is constant; each crossing contributes the unit
    edge between the rounded positions on either side. Interior vertices may
    sit on half-integer lines (the sweep sees them as ordinary events), but
    the two path endpoints must round unambiguously.
    """
    pts = [as_point(*p) for p in points]
    if len(pts) < 2 or any(pts[i] == pts[i + 1] for i in range(len(pts) - 1)):
        raise ValueError("polyline needs distinct consecutive vertices")
    for end in (pts[0], pts[-1]):
        if is_half_integer(end[0]) or is_half_integer(end[1]):
            raise HalfIntegerTie(f"path endpoint ({end[0]}, {end[1]}) rounds ambiguously")
    for v in pts[1:-1]:
        if is_pixel_center(v):
            raise PixelCenterHit(f"path vertex ({v[0]}, {v[1]}) is a pixel center")

    events: dict[Fraction, set[int]] = {}
    nseg = len(pts) - 1
    for i in range(nseg):
        p, q = pts[i], pts[i + 1]
        _on_half_line_checks(p, q)
        for axis in (0, 1):
            delta = q[axis] - p[axis]
            if delta == 0:
                continue
            lo, hi = sorted((p[axis], q[axis]))
            for h in _crossing_params(lo, hi):
                t = i + (h - p[axis]) / delta
                events.setdefault(t, set()).add(axis)

    for t, axes in events.items():
        if len(axes) == 2:
            raise PixelCenterHit(f"path passes through a pixel center at t={t}")

    cuts = [Fraction(0)] + sorted(events) + [Fraction(nseg)]

    def rounded_at(t: Fraction) -> tuple[int, int]:
        i = min(math.floor(t), nseg - 1)
        p, q = pts[i], pts[i + 1]
        s = t - i
        x = p[0] + s * (q[0] - p[0])
        y = p[1] + s * (q[1] - p[1])
        return (round_nearest(x), round_nearest(y))

    path: GridPath = []
    prev: tuple[int, int] | None = None
    for i in range(len(cuts) - 1):
        if cuts[i] == cuts[i + 1]:
            continue
        pos = rounded_at((cuts[i] + cuts[i + 1]) / 2)
        if prev is None:
            path.append(pos)
        elif pos != prev:
            dm, dn = pos[0] - prev[0], pos[1] - prev[1]
            if abs(dm) + abs(dn) != 1:
                raise PixelCenterHit(
                    f"rounded path jumps from {prev} to {pos}; pixel-center crossing"
                )
            path.append(pos)
        prev = pos
    return path


def digitize_segment(p: Point, q: Point) -> GridPath:
    """Digitize the straight segment p -> q.

    The open segment must avoid pixel centers, and the endpoints must not sit
    on half-integer grid lines (their rounded positions start and end the
    path).
    """
    if as_point(*p) == as_point(*q):
        raise ValueError("degenerate segment")
    return digitize_polyline([p, q])


def _odd_prime_avoiding(values: list[int]) -> int:
    """Smallest odd prime dividing none of the given integers."""
    p = 3
    while True:
        if all(i * i > p or p % i for i in range(3, p, 2)) and all(v % p for v in values):
            return p
        p += 2


def digitize_angle_path(spec: AngleSpec, extent: int) -> GridPath:
    """Digitize the angular path: in along one boundary ray, around the
    corner, out along the other, swept far enough to leave a box of
    half-width `extent` around the corner pixel.

    Orientation keeps the angular region on the left.
    """
    if is_pixel_center(spec.corner):
        raise PixelCenterHit("corner is a pixel center")
    u1, u2 = spec.slopes.ray_directions()
    if u2[0] * u1[1] - u2[1] * u1[0] > 0:
        u_in, u_out = u1, u2
    else:
        u_in, u_out = u2, u1
    cx, cy = spec.corner

    def endpoint(u):
        steps = (extent + 3) // max(abs(u[0]), abs(u[1])) + 1
        # Overshoot the integer step count by 1/p for an odd prime p dividing
        # neither the nonzero ray components nor the corner denominators: the
        # prime survives into each moving coordinate's denominator, so no
        # endpoint coordinate can land on an exact half-integer.
        p = _odd_prime_avoiding(
            [v for v in u if v] + [cx.denominator, cy.denominator]
        )
        t = steps + Fraction(1, p)
        return (cx + t * u[0], cy + t * u[1])

    return digitize_polyline([endpoint(u_in), (cx, cy), endpoint(u_out)])


# --- boundary of a windowed region --------------------------------------------

_LEFT = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}
_RIGHT = {v: k for k, v in _LEFT.items()}


def boundary_loops(pixels: set[PixelIndex]) -> list[GridPath]:
    """Closed counterclockwise loops bounding a union of unit pixel squares.

    Each loop is a vertex cycle with first == last. Loops keep their interior
    on the left; at pinch points (two squares meeting only at a corner) the
    trace prefers the left turn, which splits the boundary into simple loops.
    """
    edges: dict[tuple[int, int], set[tuple[int, int]]] = {}

    def add(u, v):
        edges.setdefault(u, set()).add(v)

    for (m, n) in pixels:
        if (m, n - 1) not in pixels:
            add((m, n), (m + 1, n))
        if (m + 1, n) not in pixels:
            add((m + 1, n), (m + 1, n + 1))
        if (m, n + 1) not in pixels:
            add((m + 1, n + 1), (m, n + 1))
        if (m - 1, n) not in pixels:
            add((m, n + 1), (m, n))

    loops: list[GridPath] = []
    while edges:
        start = min(edges)
        cur = start
        nxt = min(edges[cur])
        loop = [cur]
        direction = (nxt[0] - cur[0], nxt[1] - cur[1])
        while True:
            edges[cur].discard(nxt)
            if not edges[cur]:
                del edges[cur]
            loop.append(nxt)
            cur = nxt
            if cur == start and (cur not in edges or not edges[cur]):
                break
            # prefer left turn, then straight, then right
            chosen = None
            for cand in (_LEFT[direction], direction, _RIGHT[direction]):
                target = (cur[0] + cand[0], cur[1] + cand[1])
                if cur in edges and target in edges[cur]:
                    chosen = cand
                    break
            if chosen is None:
                break  # no continuation: must be back at the start
            direction = chosen
            nxt = (cur[0] + direction[0], cur[1] + direction[1])
        if loop[0] != loop[-1]:
            raise ValueError("boundary walk did not close (malformed pixel set)")
        loops.append(loop)
    return loops


def trace_region_boundary(spec: AngleSpec, window: int) -> list[GridPath]:
    """Boundary loops of the window-clipped member-pixel set of the angle.

    Raises EmptyRegion when no pixel of the window belongs to the region.
    Angular regions are unbounded, so the window frame closes the boundary
    where the region leaves it.
    """
    pixels = region_pixels(spec, window)
    if not pixels:
        raise EmptyRegion("no member pixel in window")
    return boundary_loops(pixels)


def cells_enclosed(loops: list[GridPath]) -> set[PixelIndex]:
    """Pixels enclosed by a family of closed rectilinear loops (even-odd rule)."""
    cols: dict[int, list[int]] = {}
    for loop in loops:
        for (x1, y1), (x2, y2) in zip(loop, loop[1:]):
            if y1 == y2:
                cols.setdefault(min(x1, x2), []).append(y1)
    out: set[PixelIndex] = set()
    for m, ys in cols.items():
        ys.sort()
        if len(ys) % 2:
            raise ValueError("open boundary: odd number of horizontal edges in column")
        for lo, hi in zip(ys[::2], ys[1::2]):
            for n in range(lo, hi):
                out.add((m, n))
    return out
