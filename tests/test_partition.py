import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from pixelwedge import (
    AngleSpec,
    PartitionBoundary,
    PartitionLocator,
    Parallelogram,
    Slopes,
    cell_fragments,
    class_index,
    partition_unit_square,
)
from pixelwedge.partition import cell_bases, polygon_area
from pixelwedge.verify import coprime_pairs

from conftest import slopes_st

F = Fraction

P_SLOPES = Slopes(2, 1, -3, 1)
Q_SLOPES = Slopes(3, -1, -1, 2)


def test_first_cell_corners_match_known_values():
    cell = partition_unit_square(P_SLOPES)[0]
    assert cell.corners() == (
        (F(1, 2), F(1, 2)),
        (F(7, 10), F(9, 10)),
        (F(3, 10), F(11, 10)),
        (F(1, 2), F(3, 2)),
    )


def test_cell_bases_one_per_class():
    bases = {cell.index: cell.base for cell in partition_unit_square(P_SLOPES)}
    assert bases == {
        0: (F(1, 2), F(1, 2)),
        1: (F(3, 10), F(1, 10)),
        2: (F(1, 10), F(7, 10)),
        3: (F(9, 10), F(3, 10)),
        4: (F(7, 10), F(9, 10)),
    }


def test_cell_areas():
    for slopes, d in ((P_SLOPES, 5), (Q_SLOPES, 5), (Slopes(1, 1, -1, 1), 2)):
        cells = partition_unit_square(slopes)
        assert all(cell.area == F(1, d) for cell in cells)
        assert sum(cell.area for cell in cells) == 1


@given(slopes_st())
def test_edges_have_unit_cell_cross_product(slopes):
    for cell in partition_unit_square(slopes):
        e1, e2 = cell.edge1, cell.edge2
        assert abs(e1[0] * e2[1] - e1[1] * e2[0]) == F(1, slopes.count)
        assert all(0 <= v < 1 for v in cell.base)


@given(slopes_st())
@settings(max_examples=40)
def test_fragments_tile_each_cell_exactly(slopes):
    for cell in partition_unit_square(slopes):
        frags = cell_fragments(cell)
        assert frags
        assert sum(polygon_area(f) for f in frags) == cell.area
        for frag in frags:
            assert polygon_area(frag) > 0
            assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in frag)


@given(slopes_st())
@settings(max_examples=25)
def test_fragments_tile_the_unit_square(slopes):
    cells = partition_unit_square(slopes)
    total = sum(polygon_area(f) for c in cells for f in cell_fragments(c))
    assert total == 1


def test_interior_points_locate_uniquely():
    # rational grid sampling: each point strictly inside exactly one fragment
    loc = PartitionLocator(P_SLOPES)
    for i in range(23):
        for j in range(23):
            x = F(i, 23) + F(1, 1013)
            y = F(j, 23) + F(1, 1019)
            hits = 0
            for _, rows in loc._edges:
                q = 1013 * 1019 * 23
                ix, iy = int(x * q), int(y * q)
                if all(ex * iy - ey * ix + cc * q > 0 for ex, ey, cc in rows):
                    hits += 1
            assert hits == 1, (x, y)


def test_locate_agrees_with_class_index():
    rng = random.Random(512)
    for slopes in (P_SLOPES, Q_SLOPES, Slopes(1, 2, 3, 1), Slopes(0, 1, 1, 0)):
        loc = PartitionLocator(slopes)
        for _ in range(400):
            x = F(rng.getrandbits(48), 1 << 48)
            y = F(rng.getrandbits(48), 1 << 48)
            spec = AngleSpec(slopes.a, slopes.b, slopes.c, slopes.d, (x, y))
            assert loc.locate(x, y) == class_index(spec)


def test_locate_reduces_mod_one():
    loc = PartitionLocator(P_SLOPES)
    x, y = F(1, 10) + F(1, 997), F(7, 10) + F(1, 991)
    assert loc.locate(x, y) == loc.locate(x + 3, y - 2)


def test_exact_boundary_refused():
    loc = PartitionLocator(P_SLOPES)
    # cell base corners are boundary points
    with pytest.raises(PartitionBoundary):
        loc.locate(F(1, 10), F(7, 10))
    with pytest.raises(PartitionBoundary):
        loc.locate(F(1, 2), F(1, 2))


def test_negative_determinant_cells_carry_their_class():
    slopes = Slopes(1, 2, 3, 1)  # ad - bc = -5
    assert slopes.det < 0
    loc = PartitionLocator(slopes)
    rng = random.Random(77)
    for _ in range(300):
        x = F(rng.getrandbits(40), 1 << 40)
        y = F(rng.getrandbits(40), 1 << 40)
        spec = AngleSpec(1, 2, 3, 1, (x, y))
        assert loc.locate(x, y) == class_index(spec)


def test_parallelogram_json():
    cell = partition_unit_square(P_SLOPES)[2]
    d = cell.to_json_dict()
    assert d == {
        "index": 2,
        "base": ["1/10", "7/10"],
        "edge1": ["1/5", "2/5"],
        "edge2": ["-1/5", "3/5"],
    }


# --- the exact Fraction clipper the integer one replaced, kept as the oracle ---


def _ref_clip_halfplane(poly, value, boundary):
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        vc, vn = value(cur), value(nxt)
        if vc >= boundary:
            out.append(cur)
        if (vc > boundary > vn) or (vc < boundary < vn):
            t = (boundary - vc) / (vn - vc)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return [p for i, p in enumerate(out) if p != out[(i - 1) % len(out)]]


def _ref_clip_to_unit_square(poly):
    for value, boundary in (
        (lambda p: p[0], F(0)),
        (lambda p: -p[0], F(-1)),
        (lambda p: p[1], F(0)),
        (lambda p: -p[1], F(-1)),
    ):
        poly = _ref_clip_halfplane(poly, value, boundary)
        if len(poly) < 3:
            return []
    return poly if polygon_area(poly) > 0 else []


def _ref_cell_fragments(cell):
    poly = cell.polygon()
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    frags = []
    for dx in range(math.floor(-max(xs)), math.ceil(1 - min(xs)) + 1):
        for dy in range(math.floor(-max(ys)), math.ceil(1 - min(ys)) + 1):
            clipped = _ref_clip_to_unit_square([(x + dx, y + dy) for x, y in poly])
            if clipped:
                frags.append(clipped)
    return frags


def _all_slopes(max_entry, max_d=None):
    pairs = coprime_pairs(max_entry)
    return [
        Slopes(a, b, c, d)
        for a, b in pairs
        for c, d in pairs
        if a * d - b * c and (max_d is None or abs(a * d - b * c) <= max_d)
    ]


def test_partition_is_the_shared_integer_bases():
    # every pair with entries <= 5: cell j is based at cell_bases' j-th
    # (x, y) over 2D, inside [0, 1)^2, with edges (b, a)/D and (-d, -c)/D
    for slopes in _all_slopes(5):
        a, b, c, d = slopes.as_tuple()
        D = slopes.count
        bases = list(cell_bases(slopes))
        assert [j for j, _, _ in bases] == list(range(D))
        assert all(0 <= x < 2 * D and 0 <= y < 2 * D for _, x, y in bases)
        e1, e2 = (F(b, D), F(a, D)), (F(-d, D), F(-c, D))
        assert partition_unit_square(slopes) == [
            Parallelogram(j, (F(x, 2 * D), F(y, 2 * D)), e1, e2) for j, x, y in bases
        ]


SWEEP_8 = _all_slopes(3, max_d=8)  # the D <= 8 sweep, entries <= 3


def test_fragments_equal_fraction_clipper_vertex_for_vertex():
    sample = _all_slopes(2) + random.Random(60).sample(_all_slopes(5), 60)
    for slopes in sample:
        for cell in partition_unit_square(slopes):
            assert cell_fragments(cell) == _ref_cell_fragments(cell), (slopes, cell.index)


def test_fragments_equal_fraction_clipper_off_partition():
    # cells that are not partition cells: other denominators, axis-parallel
    # and degenerate edges
    for cell in (
        Parallelogram(0, (F(1, 3), F(2, 7)), (F(2, 5), F(1, 3)), (F(-1, 6), F(3, 4))),
        Parallelogram(1, (F(-5, 4), F(9, 8)), (F(3, 2), F(0)), (F(0), F(-7, 3))),
        Parallelogram(2, (F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
        Parallelogram(3, (F(1, 2), F(1, 3)), (F(1, 4), F(1, 4)), (F(-1, 2), F(-1, 2))),
    ):
        assert cell_fragments(cell) == _ref_cell_fragments(cell), cell


def test_fragment_areas_over_sweep():
    for slopes in SWEEP_8:
        total = F(0)
        for cell in partition_unit_square(slopes):
            area = sum(polygon_area(f) for f in cell_fragments(cell))
            assert area == F(1, slopes.count), (slopes, cell.index)
            total += area
        assert total == 1, slopes


def test_locate_agrees_with_class_index_over_sweep():
    rng = random.Random(848)
    for slopes in SWEEP_8:
        loc = PartitionLocator(slopes)
        for _ in range(10):
            x = F(rng.getrandbits(48), 1 << 48) + rng.randint(-9, 9)
            y = F(rng.getrandbits(48), 1 << 48) + rng.randint(-9, 9)
            spec = AngleSpec(slopes.a, slopes.b, slopes.c, slopes.d, (x, y))
            assert loc.locate(x, y) == class_index(spec), (slopes, x, y)


def test_offset_grid_hits_exactly_one_fragment_over_sweep():
    # grid points i/5 + 1/1013, j/5 + 1/1019 lie on no edge line (the primes
    # divide no cell denominator), so each must sit strictly inside exactly one
    # fragment: the "does not cover" RuntimeError in locate cannot be reached
    q = 5 * 1013 * 1019
    grid = [(i * 1013 * 1019 + 5 * 1019, j * 1013 * 1019 + 5 * 1013) for i in range(5) for j in range(5)]
    for slopes in SWEEP_8:
        loc = PartitionLocator(slopes)
        for ix, iy in grid:
            hits = [
                idx for idx, rows in loc._edges
                if all(ex * iy - ey * ix + cc * q > 0 for ex, ey, cc in rows)
            ]
            assert len(hits) == 1, (slopes, ix, iy, hits)
            assert loc.locate(F(ix, q), F(iy, q)) == hits[0]
