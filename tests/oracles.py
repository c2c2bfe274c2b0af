"""Reference implementations that tests compare the library against."""
import math
from fractions import Fraction

from pixelwedge.errors import PartitionBoundary
from pixelwedge.partition import _int_fragments, partition_unit_square


def polygon_area(poly):
    """Signed shoelace area of a polygon, positive for counterclockwise."""
    return Fraction(sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1])), 2)


def fraction_thresholds(spec):
    """(alpha, beta) by the Fraction formula a*(x0 - 1/2) - b*(y0 - 1/2)
    and c*(x0 - 1/2) - d*(y0 - 1/2) of the corner (x0, y0)."""
    x0, y0 = spec.corner
    half = Fraction(1, 2)
    return (spec.a * (x0 - half) - spec.b * (y0 - half), spec.c * (x0 - half) - spec.d * (y0 - half))


def pixel_in_angle(px, spec):
    """Closed-inequality membership of a pixel, decided at its center point."""
    alpha, beta = fraction_thresholds(spec)
    m, n = px
    return spec.a * m - spec.b * n >= alpha and spec.c * m - spec.d * n >= beta


def shift_params(slopes, alpha, beta, k, l):
    """Parameters of the region translated by (k, l): R(shifted) == R(alpha, beta) + (k, l)."""
    return (alpha + k * slopes.a - l * slopes.b, beta + k * slopes.c - l * slopes.d)


def column_interval(a, b, c, d, alpha, beta, m):
    """Pixel rows of column m satisfying a*m - b*n >= alpha, c*m - d*n >= beta.

    Returns None when the column is empty, else an inclusive (lo, hi) pair in
    which either side may be None for a half-infinite interval; callers clamp
    with their window. Thresholds may be ints or Fractions; all arithmetic is
    exact either way.
    """
    lo, hi = None, None  # None = unbounded on that side
    for p, q, t in ((a, b, alpha), (c, d, beta)):
        v = p * m - t  # constraint becomes q*n <= v
        if q > 0:
            bound = v // q if isinstance(v, int) else math.floor(v / q)
            hi = bound if hi is None else min(hi, bound)
        elif q < 0:
            bound = -(v // -q) if isinstance(v, int) else math.ceil(v / q)
            lo = bound if lo is None else max(lo, bound)
        else:
            if v < 0:  # q == 0: column is all-or-nothing
                return None
    return lo, hi


def integer_tie_in_window(a, b, alpha, m_range, n_range):
    """Does the line a*m - b*n = alpha pass through the center of a pixel
    with m in m_range and n in the inclusive pair n_range? One division per
    column."""
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


def min_row_table(runs):
    """A column table (column, row_lo, row_hi) translated so that its first
    column and its lowest row are 0: the canonical table, whose pixels are
    `canonicalize` of the table's pixels."""
    if not runs:
        return ()
    min_m, min_n = runs[0][0], min(lo for _, lo, _ in runs)
    return tuple((m - min_m, lo - min_n, hi - min_n) for m, lo, hi in runs)


def direct_bitmaps(sigs):
    """Canonical pixel sets of column tables, each built from its own
    min-row table alone."""
    return [frozenset((m, n) for m, lo, hi in min_row_table(sig) for n in range(lo, hi + 1)) for sig in sigs]


class FragmentLocator:
    """Exact point-in-cell queries over the mod-1 fragments.

    Edge lines come from the integer fragments with coprime integer
    coefficients, so each query runs on plain integers. Points exactly on any
    fragment edge raise PartitionBoundary (this includes the unit-square seam
    for wrapped cells).
    """

    def __init__(self, slopes):
        self.slopes = slopes
        self.cells = partition_unit_square(slopes)
        self.fragments = []
        self._edges = []
        for cell in self.cells:
            s, frags = _int_fragments(cell)
            for frag in frags:
                self.fragments.append((cell.index, [(Fraction(x, s), Fraction(y, s)) for x, y in frag]))
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
