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
from .exact import ceil_exact, floor_exact

Vec = tuple[Fraction, Fraction]


def _cross(u: Vec, v: Vec) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


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
        c0, c1, c2, c3 = self.corners()
        return [c0, c1, c3, c2] if _cross(self.edge1, self.edge2) > 0 else [c0, c2, c3, c1]

    @property
    def area(self) -> Fraction:
        return abs(_cross(self.edge1, self.edge2))

    def to_json_dict(self) -> dict:
        from .exact import format_rational as fr

        return {
            "index": self.index,
            "base": [fr(self.base[0]), fr(self.base[1])],
            "edge1": [fr(self.edge1[0]), fr(self.edge1[1])],
            "edge2": [fr(self.edge2[0]), fr(self.edge2[1])],
        }


def partition_unit_square(slopes: Slopes) -> list[Parallelogram]:
    """The D cells, indexed so that corners inside cell j produce class j.

    Cell j is the preimage of the unit parameter square whose interior has
    integerised thresholds (0, j); its base, the boundary-line crossing at
    that square's corner plus (1/2, 1/2), is reduced mod 1 over 2D.
    """
    a, b, c, d = slopes.as_tuple()
    det = slopes.det
    D = slopes.count
    e1: Vec = (Fraction(b, D), Fraction(a, D))
    e2: Vec = (Fraction(-d, D), Fraction(-c, D))
    sign = 1 if det > 0 else -1
    cells = []
    for j in range(D):
        alpha, beta = (0, j) if det > 0 else (-1, j - 1)
        x = sign * (2 * (d * alpha - b * beta) + det) % (2 * D)
        y = sign * (2 * (c * alpha - a * beta) + det) % (2 * D)
        cells.append(Parallelogram(j, (Fraction(x, 2 * D), Fraction(y, 2 * D)), e1, e2))
    return cells


# --- clipping to the unit square -----------------------------------------------


def polygon_area(poly: list[Point]) -> Fraction:
    """Signed shoelace area (positive for counterclockwise)."""
    s = Fraction(0)
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        s += x1 * y2 - x2 * y1
    return s / 2


def _clip_halfplane(poly, value, boundary):
    """Keep the part of a polygon with value(p) >= boundary (exact)."""
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        vc, vn = value(cur), value(nxt)
        if vc >= boundary:
            out.append(cur)
        if (vc > boundary > vn) or (vc < boundary < vn):
            t = (boundary - vc) / (vn - vc)
            out.append(
                (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            )
    dedup = [p for i, p in enumerate(out) if p != out[(i - 1) % len(out)]]
    return dedup


def clip_to_unit_square(poly: list[Point]) -> list[Point]:
    for value, boundary in (
        (lambda p: p[0], Fraction(0)),
        (lambda p: -p[0], Fraction(-1)),
        (lambda p: p[1], Fraction(0)),
        (lambda p: -p[1], Fraction(-1)),
    ):
        poly = _clip_halfplane(poly, value, boundary)
        if len(poly) < 3:
            return []
    return poly if polygon_area(poly) > 0 else []


def cell_fragments(cell: Parallelogram) -> list[list[Point]]:
    """Mod-1 fragments of a cell: integer translates clipped to [0,1]^2.

    Fragments have positive area and counterclockwise orientation; their
    areas sum to the cell area.
    """
    poly = cell.polygon()
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    frags = []
    for dx in range(floor_exact(-max(xs)), ceil_exact(1 - min(xs)) + 1):
        for dy in range(floor_exact(-max(ys)), ceil_exact(1 - min(ys)) + 1):
            shifted = [(x + dx, y + dy) for x, y in poly]
            clipped = clip_to_unit_square(shifted)
            if clipped:
                frags.append(clipped)
    return frags


class PartitionLocator:
    """Exact point-in-cell queries over the mod-1 fragments.

    Edge lines are pre-scaled to integer coefficients so each query runs on
    plain integers. Points exactly on any fragment edge raise
    PartitionBoundary (this includes the unit-square seam for wrapped cells).
    """

    def __init__(self, slopes: Slopes):
        self.slopes = slopes
        self.cells = partition_unit_square(slopes)
        self.fragments = [(cell.index, frag) for cell in self.cells for frag in cell_fragments(cell)]
        self._edges = []
        for idx, frag in self.fragments:
            rows = []
            for i in range(len(frag)):
                vx, vy = frag[i]
                wx, wy = frag[(i + 1) % len(frag)]
                ex, ey = wx - vx, wy - vy
                cc = ey * vx - ex * vy
                scale = math.lcm(ex.denominator, ey.denominator, cc.denominator)
                rows.append(
                    (
                        int(ex * scale),
                        int(ey * scale),
                        int(cc * scale),
                    )
                )
            self._edges.append((idx, rows))

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
