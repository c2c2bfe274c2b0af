"""Reference implementations that tests compare the library against."""
import math


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


def direct_bitmaps(sigs):
    """Pixel sets of canonical column tables (column, row_lo, row_hi), each
    built from its own runs alone."""
    return [frozenset((m, n) for m, lo, hi in sig for n in range(lo, hi + 1)) for sig in sigs]
