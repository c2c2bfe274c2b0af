"""The unit-square partition of corner positions by resulting shape class.

Corner points (x0, y0) with equal shape class fill a parallelogram lattice;
reduced mod 1 the D parallelograms tile the unit square, each with area 1/D.
Every cell is based at an integer point over 2D and shares the edges
(b, a)/D and (-d, -c)/D, so each cell's corners, unit-square fragments and
rendered text come from one integer form over 2D (`_int_corners`); a locator
finds a point's cell on that lattice with integer arithmetic and refuses
points on a cell boundary.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .digitize import Point, Slopes, _Frozen
from .errors import PartitionBoundary
from .exact import common_denominator, format_rational


def _shoelace(poly) -> int:
    """Twice the signed area of an integer polygon, positive for counterclockwise."""
    return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]))


def _int_corners(cell: Parallelogram) -> tuple[int, tuple[tuple[int, int], ...]]:
    """n = 2D and the cell's corners (base, +e1, +e2, +e1+e2) as integer
    pairs over n: e1 = (b, a)/D and e2 = (-d, -c)/D are (2b, 2a) and
    (-2d, -2c) over n."""
    a, b, c, d = cell.slopes.as_tuple()
    x, y = cell.x, cell.y
    ux, uy, wx, wy = 2 * b, 2 * a, -2 * d, -2 * c
    return 2 * cell.slopes.count, ((x, y), (x + ux, y + uy), (x + wx, y + wy), (x + ux + wx, y + uy + wy))


class Parallelogram(_Frozen):
    """One partition cell of `slopes`: its base corner (x, y)/(2D), the
    mod-1 representative with 0 <= x, y < 2D, plus the shared edges
    (b, a)/D and (-d, -c)/D."""

    __slots__ = __match_args__ = ("index", "slopes", "x", "y")

    def __init__(self, index: int, slopes: Slopes, x: int, y: int):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def area(self) -> Fraction:
        """|e1 x e2|, from the integer corners over 2D; 1/D."""
        n, ((x0, y0), (x1, y1), (x2, y2), _) = _int_corners(self)
        return Fraction(abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)), n * n)

    def to_json_dict(self) -> dict:
        """Base, edges and corners (base, +e1, +e2, +e1+e2) as "num/den" text,
        all from the one integer form of `_int_corners`."""
        n, corners = _int_corners(self)
        a, b, c, d = self.slopes.as_tuple()
        return {
            "index": self.index,
            "base": [format_rational(self.x, n), format_rational(self.y, n)],
            "edge1": [format_rational(2 * b, n), format_rational(2 * a, n)],
            "edge2": [format_rational(-2 * d, n), format_rational(-2 * c, n)],
            "corners": [[format_rational(x, n), format_rational(y, n)] for x, y in corners],
        }


def cell_bases(a: int, b: int, c: int, d: int):
    """(j, x, y) for each cell j of the slope pairs (a, b) and (c, d), in
    index order: its base is (x, y) / (2D), 0 <= x, y < 2D, D = |ad - bc|.
    Corners inside cell j produce class j.

    Cell j is the preimage of the unit parameter square whose interior has
    integerised thresholds (0, j); its base is the boundary-line crossing at
    that square's corner plus (1/2, 1/2), reduced mod 1.
    """
    det = a * d - b * c
    D = abs(det)
    sign = 1 if det > 0 else -1
    for j in range(D):
        alpha, beta = (0, j) if det > 0 else (-1, j - 1)
        x = sign * (2 * (d * alpha - b * beta) + det) % (2 * D)
        y = sign * (2 * (c * alpha - a * beta) + det) % (2 * D)
        yield j, x, y


def partition_unit_square(slopes: Slopes) -> list[Parallelogram]:
    """The D cells at `cell_bases`, in index order."""
    return [Parallelogram(j, slopes, x, y) for j, x, y in cell_bases(*slopes.as_tuple())]


# --- clipping to the unit square -----------------------------------------------


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

    S is n = 2D of `_int_corners` times m = 2 * lcm(nonzero |a|, |b|, |c|, |d|),
    the lcm of the nonzero integer edge components over n, so S =
    4*D*lcm(...) and every crossing of a cell edge line with x or y in S*Z is
    an integer. Each x-strip is clipped once and then cut by every y-shift
    that reaches it; the fragments come out in (dx, dy) order with positive
    area.
    """
    n, corners = _int_corners(cell)
    m = 2 * math.lcm(*(v for v in cell.slopes.as_tuple() if v))
    s = n * m
    # base, +e1, +e1+e2, +e2 runs counterclockwise iff e1 x e2 = ad - bc > 0
    c0, c1, c2, c3 = [(x * m, y * m) for x, y in corners]
    poly = [c0, c1, c3, c2] if cell.slopes.det > 0 else [c0, c2, c3, c1]
    xs = [x for x, _ in poly]
    frags = []
    for dx in range(-max(xs) // s, -((min(xs) - s) // s) + 1):
        strip = _clip([(x + dx * s, y) for x, y in poly], 0, 0, s)
        if not strip:
            continue
        ys = [y for _, y in strip]
        for dy in range(-max(ys) // s, -((min(ys) - s) // s) + 1):
            frag = _clip(strip, 1, -dy * s, s - dy * s)
            if frag and _shoelace(frag) > 0:
                frags.append([(x, y + dy * s) for x, y in frag])
    return s, frags


def fragment_bound(slopes: Slopes) -> int:
    """An upper bound on the fragments of all D cells together:
    D * ((|b| + |d|)//D + (|a| + |c|)//D + 4).

    A cell's fragments are the pieces the unit lines x, y in Z cut it into.
    k vertical and l horizontal lines through the interior of a convex cell
    cut it into at most 1 + k + l + p pieces, where p counts the integer
    points (the crossings of those lines) inside the cell: each line adds one
    piece, plus one for each earlier line it crosses inside. The cell spans
    (|b| + |d|)/D in x, and an open interval of length s holds at most
    floor(s) + 1 integers, so k <= (|b| + |d|)//D + 1; likewise
    l <= (|a| + |c|)//D + 1. And p <= 1: the cell is a fundamental domain of
    the lattice spanned by its edges, which contains Z^2, so two integer
    points inside it would differ by a lattice vector, which no two points
    of one open cell do.
    """
    a, b, c, d = slopes.as_tuple()
    D = slopes.count
    return D * ((abs(b) + abs(d)) // D + (abs(a) + abs(c)) // D + 4)


def cell_fragments(cell: Parallelogram) -> list[list[Point]]:
    """Mod-1 fragments of a cell: integer translates clipped to [0,1]^2.

    Fragments have positive area and counterclockwise orientation; their
    areas sum to the cell area.
    """
    s, frags = _int_fragments(cell)
    return [[(Fraction(x, s), Fraction(y, s)) for x, y in frag] for frag in frags]


class PartitionLocator:
    """Point-in-cell queries on the lattice the cells tile.

    Every cell is a translate of the parallelogram spanned by e1 = (b, a)/D
    and e2 = (-d, -c)/D, and Z^2 lies in the lattice those edges span, so the
    translates of cell 0 by that lattice tile the plane. A query finds its
    tile from the integer parts (k, l) of its coordinates in the (e1, e2)
    frame, and names the cell at that tile's base mod 1, on plain integers
    and in time independent of D. Points on a tile edge or on the
    unit-square seam x = 0 or y = 0 raise PartitionBoundary.
    """

    def __init__(self, slopes: Slopes):
        self.slopes = slopes
        bases = [(x, y) for _, x, y in cell_bases(*slopes.as_tuple())]
        self._index = {base: j for j, base in enumerate(bases)}
        self._base0 = bases[0]

    @functools.cached_property
    def cells(self) -> list[Parallelogram]:
        """`partition_unit_square(slopes)`, computed on first read."""
        return partition_unit_square(self.slopes)

    @functools.cached_property
    def fragments(self) -> list[tuple[int, list[Point]]]:
        """(cell index, fragment) for every cell's `cell_fragments`, computed
        on first read."""
        return [(cell.index, frag) for cell in self.cells for frag in cell_fragments(cell)]

    def locate(self, x, y) -> int:
        """Class index of the cell whose interior contains (x mod 1, y mod 1)."""
        fx, fy = Fraction(x), Fraction(y)
        x, y, q = common_denominator(fx, fy)
        px, py = x % q, y % q
        a, b, c, d = self.slopes.as_tuple()
        n = 2 * self.slopes.count
        sign = 1 if self.slopes.det > 0 else -1
        x0, y0 = self._base0
        # p - base 0 is (vx, vy)/(nq); its (e1, e2) coordinates are k + rk/(nq), l + rl/(nq)
        vx = n * px - q * x0
        vy = n * py - q * y0
        k, rk = divmod(sign * (d * vy - c * vx), n * q)
        l, rl = divmod(sign * (b * vy - a * vx), n * q)
        if not (px and py and rk and rl):
            raise PartitionBoundary(f"({fx % 1}, {fy % 1}) lies on a cell boundary")
        return self._index[(x0 + 2 * (k * b - l * d)) % n, (y0 + 2 * (k * a - l * c)) % n]
