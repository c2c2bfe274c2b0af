"""The unit-square partition of corner positions by resulting shape class.

Corner points (x0, y0) with equal shape class fill a parallelogram lattice;
reduced mod 1 the D parallelograms tile the unit square, each with area 1/D.
Cells are computed exactly; a locator answers point queries with integer
arithmetic and refuses points that sit exactly on a cell boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .digitize import Point, Slopes
from .errors import PartitionBoundary
from .exact import format_rational

Vec = tuple[Fraction, Fraction]


def _cross(u: Vec, v: Vec) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _ccw(corners, turn) -> list:
    """Corners (base, +e1, +e2, +e1+e2) as a counterclockwise cycle, given the
    sign of cross(e1, e2)."""
    c0, c1, c2, c3 = corners
    return [c0, c1, c3, c2] if turn > 0 else [c0, c2, c3, c1]


@dataclass(frozen=True)
class Parallelogram:
    """One partition cell: base corner (mod-1 representative) plus two edges."""

    index: int
    base: Point
    edge1: Vec
    edge2: Vec

    def corners(self) -> tuple[Point, Point, Point, Point]:
        bx, by = self.base
        e1, e2 = self.edge1, self.edge2
        return (
            (bx, by),
            (bx + e1[0], by + e1[1]),
            (bx + e2[0], by + e2[1]),
            (bx + e1[0] + e2[0], by + e1[1] + e2[1]),
        )

    def polygon(self) -> list[Point]:
        """Corners as a counterclockwise cycle."""
        return _ccw(self.corners(), _cross(self.edge1, self.edge2))

    @property
    def area(self) -> Fraction:
        return abs(_cross(self.edge1, self.edge2))

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "base": [format_rational(v) for v in self.base],
            "edge1": [format_rational(v) for v in self.edge1],
            "edge2": [format_rational(v) for v in self.edge2],
        }


def cell_bases(slopes: Slopes):
    """(j, x, y) for each cell j in index order: its base is (x, y) / (2D),
    0 <= x, y < 2D. Corners inside cell j produce class j.

    Cell j is the preimage of the unit parameter square whose interior has
    integerised thresholds (0, j); its base is the boundary-line crossing at
    that square's corner plus (1/2, 1/2), reduced mod 1.
    """
    a, b, c, d = slopes.as_tuple()
    det = slopes.det
    D = slopes.count
    sign = 1 if det > 0 else -1
    for j in range(D):
        alpha, beta = (0, j) if det > 0 else (-1, j - 1)
        x = sign * (2 * (d * alpha - b * beta) + det) % (2 * D)
        y = sign * (2 * (c * alpha - a * beta) + det) % (2 * D)
        yield j, x, y


def partition_unit_square(slopes: Slopes) -> list[Parallelogram]:
    """The D cells at `cell_bases`, with edges (b, a)/D and (-d, -c)/D."""
    D = slopes.count
    e1: Vec = (Fraction(slopes.b, D), Fraction(slopes.a, D))
    e2: Vec = (Fraction(-slopes.d, D), Fraction(-slopes.c, D))
    bases = cell_bases(slopes)
    return [Parallelogram(j, (Fraction(x, 2 * D), Fraction(y, 2 * D)), e1, e2) for j, x, y in bases]


# --- clipping to the unit square -----------------------------------------------


def polygon_area(poly: list[Point]) -> Fraction:
    """Signed shoelace area (positive for counterclockwise), also of integer
    polygons."""
    twice = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]))
    return Fraction(twice, 2)


def _clip(poly, axis: int, lo: int, hi: int):
    """Sutherland-Hodgman clip of an integer polygon to lo <= p[axis] <= hi.

    Every edge lies on a cell edge line or a clip line, so at the scale of
    _int_fragments each crossing is an integer and the division leaves no
    remainder. Repeated consecutive vertices are dropped after each side;
    fewer than three vertices leave nothing.
    """
    other = 1 - axis
    for k, sign in ((lo, 1), (hi, -1)):
        out = []
        for cur, nxt in zip(poly, poly[1:] + poly[:1]):
            vc, vn = sign * (cur[axis] - k), sign * (nxt[axis] - k)
            if vc >= 0:
                out.append(cur)
            if (vc > 0 > vn) or (vc < 0 < vn):
                t, r = divmod((k - cur[axis]) * (nxt[other] - cur[other]), nxt[axis] - cur[axis])
                assert not r, "inexact crossing"
                out.append((k, cur[other] + t) if axis == 0 else (cur[other] + t, k))
        poly = [p for i, p in enumerate(out) if p != out[i - 1]]
        if len(poly) < 3:
            return []
    return poly


def _int_fragments(cell: Parallelogram) -> tuple[int, list[list[tuple[int, int]]]]:
    """A scale S and the cell's integer translates, times S, clipped to [0, S]^2.

    S is the lcm of the coordinate denominators times the lcm of the nonzero
    integer edge components (4*D*lcm(|a|, |b|, |c|, |d|) for partition
    cells), so every crossing of a cell edge line with x or y in S*Z is an
    integer. Each x-strip is clipped once and then cut by every y-shift that
    reaches it; the fragments come out in (dx, dy) order with positive area.
    """
    coords = (*cell.base, *cell.edge1, *cell.edge2)
    q = math.lcm(*(v.denominator for v in coords))
    s = q * math.lcm(*(v.numerator * (q // v.denominator) for v in coords[2:] if v))
    bx, by, ux, uy, wx, wy = (v.numerator * (s // v.denominator) for v in coords)
    corners = ((bx, by), (bx + ux, by + uy), (bx + wx, by + wy), (bx + ux + wx, by + uy + wy))
    poly = _ccw(corners, ux * wy - uy * wx)
    xs = [x for x, _ in poly]
    frags = []
    for dx in range(-max(xs) // s, -((min(xs) - s) // s) + 1):
        strip = _clip([(x + dx * s, y) for x, y in poly], 0, 0, s)
        if not strip:
            continue
        ys = [y for _, y in strip]
        for dy in range(-max(ys) // s, -((min(ys) - s) // s) + 1):
            frag = _clip(strip, 1, -dy * s, s - dy * s)
            if frag and polygon_area(frag) > 0:
                frags.append([(x, y + dy * s) for x, y in frag])
    return s, frags


def _as_fractions(frag, s: int) -> list[Point]:
    return [(Fraction(x, s), Fraction(y, s)) for x, y in frag]


def cell_fragments(cell: Parallelogram) -> list[list[Point]]:
    """Mod-1 fragments of a cell: integer translates clipped to [0,1]^2.

    Fragments have positive area and counterclockwise orientation; their
    areas sum to the cell area.
    """
    s, frags = _int_fragments(cell)
    return [_as_fractions(frag, s) for frag in frags]


class PartitionLocator:
    """Exact point-in-cell queries over the mod-1 fragments.

    Edge lines come from the integer fragments with coprime integer
    coefficients, so each query runs on plain integers. Points exactly on any
    fragment edge raise PartitionBoundary (this includes the unit-square seam
    for wrapped cells).
    """

    def __init__(self, slopes: Slopes):
        self.slopes = slopes
        self.cells = partition_unit_square(slopes)
        self.fragments = []
        self._edges = []
        for cell in self.cells:
            s, frags = _int_fragments(cell)
            for frag in frags:
                self.fragments.append((cell.index, _as_fractions(frag, s)))
                rows = []
                for (vx, vy), (wx, wy) in zip(frag, frag[1:] + frag[:1]):
                    # (ex, ey, cross(e, v)) of the edge in unit-square coordinates, times s^2
                    ex, ey = (wx - vx) * s, (wy - vy) * s
                    cc = (wy - vy) * vx - (wx - vx) * vy
                    g = math.gcd(ex, ey, cc)
                    rows.append((ex // g, ey // g, cc // g))
                self._edges.append((cell.index, rows))

    def locate(self, x, y) -> int:
        """Class index of the cell whose interior contains (x mod 1, y mod 1)."""
        px, py = Fraction(x) % 1, Fraction(y) % 1
        q = math.lcm(px.denominator, py.denominator)
        ix, iy = int(px * q), int(py * q)
        touched = False
        for idx, rows in self._edges:
            outside = False
            grazing = False
            for ex, ey, cc in rows:
                # sign of cross(edge, p - v), scaled by a positive factor
                s = ex * iy - ey * ix + cc * q
                if s < 0:
                    outside = True
                    break
                if s == 0:
                    grazing = True
            if outside:
                continue
            if grazing:
                touched = True
                continue
            return idx
        if touched:
            raise PartitionBoundary(f"({px}, {py}) lies on a cell boundary")
        raise RuntimeError("partition does not cover the unit square (bug)")
