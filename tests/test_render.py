import hashlib
import random
import re

import pytest
from hypothesis import given, strategies as st

from pixelwedge import (
    EmptySet,
    RenderOptions,
    Slopes,
    UnsupportedFormat,
    canonicalize,
    enumerate_shapes,
    parse_pbm,
    partition_unit_square,
    render_partition,
    render_pixelset,
)

P_SLOPES = Slopes(2, 1, -3, 1)

pixelsets = st.sets(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=30
).map(frozenset)


def test_single_pixel_ascii():
    assert render_pixelset({(0, 0)}, RenderOptions(format="ascii")) == b"#\n"


def test_ascii_rows_top_down():
    out = render_pixelset({(0, 0), (1, 1)}, RenderOptions(format="ascii"))
    assert out == b".#\n#.\n"


def test_custom_glyphs():
    out = render_pixelset({(0, 0), (1, 1)}, RenderOptions(format="ascii", glyphs="@ "))
    assert out == b" @\n@ \n"


def test_pbm_example():
    out = render_pixelset({(0, 0), (1, 1)}, RenderOptions(format="pbm"))
    assert out == b"P1\n2 2\n0 1\n1 0\n"


def test_empty_ascii_is_empty_bytes():
    assert render_pixelset(frozenset(), RenderOptions(format="ascii")) == b""


def test_empty_image_formats_raise():
    for fmt in ("pbm", "svg"):
        with pytest.raises(EmptySet):
            render_pixelset(frozenset(), RenderOptions(format=fmt))


def test_unknown_format_rejected():
    with pytest.raises(UnsupportedFormat):
        RenderOptions(format="bmp")


@given(pixelsets)
def test_pbm_round_trip(ps):
    data = render_pixelset(ps, RenderOptions(format="pbm"))
    assert parse_pbm(data) == canonicalize(ps)


@given(pixelsets, pixelsets)
def test_injective_on_canonical_sets(ps1, ps2):
    ps1, ps2 = canonicalize(ps1), canonicalize(ps2)
    opts = RenderOptions(format="pbm")
    if ps1 != ps2:
        assert render_pixelset(ps1, opts) != render_pixelset(ps2, opts)
    else:
        assert render_pixelset(ps1, opts) == render_pixelset(ps2, opts)


def test_svg_pixelset_structure():
    shape = enumerate_shapes(P_SLOPES)[0]
    out = render_pixelset(shape.bitmap, RenderOptions(format="svg", scale=8)).decode()
    assert out.startswith("<svg ") or out.startswith('<svg xmlns')
    assert out.count("<rect") == len(shape.bitmap) + 1  # background + pixels
    assert out == render_pixelset(shape.bitmap, RenderOptions(format="svg", scale=8)).decode()


def test_json_pixelset():
    out = render_pixelset({(1, 0), (0, 0)}, RenderOptions(format="json"))
    assert out == b'{"pixels": [[0, 0], [1, 0]]}\n'


def test_partition_svg_has_all_labels():
    cells = partition_unit_square(P_SLOPES)
    out = render_partition(cells, RenderOptions(format="svg")).decode()
    for j in range(5):
        assert f">{j}</text>" in out
    assert out.count("<polygon") >= 5


def test_partition_empty_cell_list_is_bare_square():
    out = render_partition([], RenderOptions(format="svg")).decode()
    assert "<svg" in out and "<polygon" not in out


def test_partition_json_exact():
    cells = partition_unit_square(P_SLOPES)
    out = render_partition(cells, RenderOptions(format="json")).decode()
    assert '"1/10"' in out and '"edge1"' in out


def test_partition_rejects_ascii():
    with pytest.raises(UnsupportedFormat):
        render_partition(partition_unit_square(P_SLOPES), RenderOptions(format="ascii"))


def test_options_validate():
    with pytest.raises(ValueError):
        RenderOptions(scale=0)
    with pytest.raises(ValueError):
        RenderOptions(glyphs="#")


@given(pixelsets)
def test_ascii_rows_are_the_pbm_body(ps):
    rows = render_pixelset(ps, RenderOptions(format="ascii")).decode().splitlines()
    pbm = render_pixelset(ps, RenderOptions(format="pbm")).decode().splitlines()
    assert pbm[:2] == ["P1", f"{len(rows[0])} {len(rows)}"]
    assert pbm[2:] == [" ".join({"#": "1", ".": "0"}[ch] for ch in row) for row in rows]


@given(pixelsets, st.integers(1, 5))
def test_svg_black_rects_are_the_canonical_set(ps, scale):
    svg = render_pixelset(ps, RenderOptions(format="svg", scale=scale)).decode()
    height = int(re.search(r'height="(\d+)"', svg).group(1)) // scale
    rects = re.findall(r'<rect x="(\d+)" y="(\d+)" [^>]*fill="black"', svg)
    cells = {(int(x) // scale, height - 1 - int(y) // scale) for x, y in rects}
    assert len(rects) == len(cells)
    assert cells == canonicalize(ps)


# sha256 of render_pixelset over a seeded corpus, recorded before the ascii,
# pbm and svg encoders were folded into one raster.
RENDER_CORPUS_SHA256 = "647e6c9163408c5609ce98e6ba0904f31e1d966d09353bd1b2a73cce1d9f9902"


def test_render_pixelset_bytes_are_pinned():
    rng = random.Random(20240607)
    sets = [frozenset()]
    for _ in range(400):
        r = rng.randint(1, 10)
        size = rng.randint(1, 40)
        sets.append(frozenset((rng.randint(-r, r), rng.randint(-r, r)) for _ in range(size)))
    variants = [RenderOptions(format=fmt) for fmt in ("ascii", "pbm", "svg", "json")]
    variants += [RenderOptions(format="svg", scale=3), RenderOptions(format="ascii", glyphs="@ ")]
    digest = hashlib.sha256()
    for ps in sets:
        for opts in variants:
            if ps or opts.format in ("ascii", "json"):
                digest.update(render_pixelset(ps, opts) + b"\0")
    assert digest.hexdigest() == RENDER_CORPUS_SHA256
