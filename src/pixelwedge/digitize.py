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
from dataclasses import FrozenInstanceError
from fractions import Fraction
from operator import attrgetter

from .errors import (
    EmptyRegion,
    HalfIntegerTie,
    ParallelSlopes,
    PixelCenterHit,
)
from .exact import HALF, common_denominator, extended_gcd, parse_rational

Point = tuple[Fraction, Fraction]
PixelIndex = tuple[int, int]
GridPath = list[tuple[int, int]]


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


def read_point(point, name: str = "point") -> Point:
    """A tuple or list (x, y) of int, Fraction or rational-text coordinates,
    read exactly: a Fraction as it is, text by `parse_rational` with the
    CLI's grammar and limits. Any other point or coordinate, a float or a
    bool among them, raises TypeError."""
    if not isinstance(point, (tuple, list)) or len(point) != 2:
        raise TypeError(f"{name} must be a pair (x, y), not {point!r}")
    for v in point:
        if type(v) is bool or not isinstance(v, (int, Fraction, str)):
            raise TypeError(f"{name} coordinates must be int, Fraction or str, not {type(v).__name__}")
    x, y = (v if type(v) is Fraction else parse_rational(v) if isinstance(v, str) else Fraction(v) for v in point)
    return x, y


class _Frozen:
    """Base of the frozen slotted value types. Eq, hash and repr read the
    declared fields, `__match_args__`, and no other slot; assignment and
    deletion raise FrozenInstanceError, so each `__init__` sets its slots
    with `object.__setattr__`; pickle and copy rebuild from the fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = property(attrgetter(*cls.__match_args__))  # the fields' values, a tuple

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields


class Slopes(_Frozen):
    """Two directed slopes a/b and c/d, each pair coprime, lines not parallel;
    a bool entry raises TypeError.

    The sign of each pair selects one of the two half-planes its line bounds;
    negating (a, b) or (c, d) picks the opposite one, so all four corner
    regions of the line crossing are reachable. Three invariants are computed
    once at construction and kept outside the fields, so eq, hash and repr
    ignore them: `det` = ad - bc, `count` = D = |ad - bc| (the number of
    distinct digitized shapes) and `bezout`, a pair (x, y) with
    a*x - b*y == 1.
    """

    __match_args__ = ("a", "b", "c", "d")
    __slots__ = __match_args__ + ("det", "count", "bezout")

    def __init__(self, a: int, b: int, c: int, d: int):
        if type(a) is bool or type(b) is bool or type(c) is bool or type(d) is bool:
            raise TypeError(f"slope entries must be ints, not bool: {a!r}, {b!r}, {c!r}, {d!r}")
        for p, q, name in ((a, b, "first"), (c, d, "second")):
            if math.gcd(p, q) != 1:
                raise ValueError(f"{name} slope pair ({p}, {q}) is not coprime")
        det = a * d - b * c
        if det == 0:
            raise ParallelSlopes(f"slopes {a}/{b} and {c}/{d} are parallel")
        _, x, y = extended_gcd(a, b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
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


class AngleSpec(_Frozen):
    """An angular region: corner point plus the two directed slope pairs.

    The corner is read by `read_point`: a tuple or list (x, y) of ints,
    Fractions or rational text; any other corner or coordinate, a float
    among them, raises TypeError.

    The integer kernels read the corner as `xyq`, the triple (x, y, q) with
    corner == (x/q, y/q) over the least common denominator q > 0. Like the
    validated `slopes` it is kept outside the fields, so eq, hash and repr
    ignore it.
    """

    __match_args__ = ("a", "b", "c", "d", "corner")
    __slots__ = __match_args__ + ("_slopes", "xyq")

    def __init__(self, a: int, b: int, c: int, d: int, corner: Point):
        # validates coprimality and det; kept, so `slopes` is a plain read
        slopes = Slopes(a, b, c, d)
        x, y = read_point(corner, "corner")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "corner", (x, y))
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "xyq", common_denominator(x, y))

    @property
    def slopes(self) -> Slopes:
        return self._slopes

    @property
    def count(self) -> int:
        return self.slopes.count


def threshold_ceilings(a: int, b: int, c: int, d: int, x: int, y: int, q: int) -> tuple[int, int]:
    """(ceil(alpha), ceil(beta)) of the corner (x/q, y/q), q > 0, for the
    slope pairs (a, b) and (c, d).

    a*m - b*n is an integer, so it is >= alpha iff it is >= ceil(alpha), and
    likewise for beta. Over 2q the corner less (1/2, 1/2) has integer
    numerators, so each ceiling is one floor division.
    """
    u, v = 2 * x - q, 2 * y - q
    return -((b * v - a * u) // (2 * q)), -((d * v - c * u) // (2 * q))


def window_columns(a: int, b: int, c: int, d: int, regions, window: int):
    """The one column scan: for each region (alpha, beta, anchor) in turn,
    integer thresholds and a pixel, yields (origin, runs, low) for its member
    pixels in the (2*window+1)^2 box centred on `anchor`. `origin` is the
    first member pixel (m0, n0), the lowest of the first member column, or
    None. `runs` holds each member column's rows as (m - m0, lo - n0,
    hi - n0), inclusive, in increasing m; it is the set's fingerprint, equal
    exactly when two boxed sets are translates. `low` is the lowest member
    row (the box's top row when no column is a member). The pairs may be
    parallel: (c, d, beta) = (-a, -b, -alpha) gives the degenerate strip
    a*m - b*n == alpha, the pixels whose centres lie on that line.
    """
    for alpha, beta, (am, an) in regions:
        bottom, top = an - window, an + window
        low, origin, runs = top, None, []
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
                if origin is None:
                    origin = m0, n0 = m, lo
                runs.append((m - m0, lo - n0, hi - n0))
                if lo < low:
                    low = lo
        yield origin, tuple(runs), low


def region_pixels(spec: AngleSpec, window: int) -> set[PixelIndex]:
    """All member pixels in the (2*window+1)^2 box centred on the pixel
    containing the corner."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x, y, q = spec.xyq
    a, b, c, d = spec.a, spec.b, spec.c, spec.d
    [(origin, runs, _)] = window_columns(a, b, c, d, [(*threshold_ceilings(a, b, c, d, x, y, q), (x // q, y // q))], window)
    m0, n0 = origin or (0, 0)
    return {(m0 + m, n) for m, lo, hi in runs for n in range(n0 + lo, n0 + hi + 1)}


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
    the two path endpoints must round unambiguously. Each vertex is read by
    `read_point`, so a float coordinate raises TypeError.
    """
    pts = [read_point(p) for p in points]
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


def _odd_prime_avoiding(values: list[int]) -> int:
    """Smallest odd prime dividing none of the given integers."""
    p = 3
    while True:
        if all(i * i > p or p % i for i in range(3, p, 2)) and all(v % p for v in values):
            return p
        p += 2


def _ray_steps(u: tuple[int, int], extent: int) -> int:
    """Whole steps of u that carry a ray past the box of half-width `extent`."""
    return (extent + 3) // max(abs(u[0]), abs(u[1])) + 1


def path_vertex_bound(slopes: Slopes, extent: int) -> int:
    """At least the vertex count of `digitize_angle_path`: a ray runs under
    `_ray_steps` + 1 steps of u, a step crosses at most |ux| + |uy|
    half-integer lines, and each crossing adds one vertex to the first."""
    return 1 + sum((_ray_steps(u, extent) + 1) * (abs(u[0]) + abs(u[1])) for u in slopes.ray_directions())


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
        # Overshoot the integer step count by 1/p for an odd prime p dividing
        # neither the nonzero ray components nor the corner's denominator q:
        # the prime survives into each moving coordinate's denominator, so no
        # endpoint coordinate can land on an exact half-integer.
        p = _odd_prime_avoiding([v for v in u if v] + [spec.xyq[2]])
        t = _ray_steps(u, extent) + Fraction(1, p)
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
