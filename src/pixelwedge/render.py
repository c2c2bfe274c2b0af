"""Deterministic text and image encodings of pixel sets and partitions.

ASCII rows run top-down (decreasing n), matching visual orientation: pixel
(0, 0) is bottom-left. All outputs are byte-deterministic for fixed options.
"""
from __future__ import annotations

from .digitize import _Frozen
from .errors import EmptySet, UnsupportedFormat
from .partition import Parallelogram, _int_fragments, _shoelace

FORMATS = ("ascii", "pbm", "svg", "json")

_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
)


class RenderOptions(_Frozen):
    __slots__ = __match_args__ = ("format", "scale", "glyphs")

    def __init__(self, format: str = "ascii", scale: int = 16, glyphs: str = "#."):
        # scale: svg pixels per cell / per unit; glyphs: on/off characters for ascii
        object.__setattr__(self, "format", format)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "glyphs", glyphs)
        if scale < 1:
            raise ValueError("scale must be >= 1")
        if len(glyphs) < 2:
            raise ValueError("need an on and an off glyph")
        if format not in FORMATS:
            raise UnsupportedFormat(f"unknown format {format!r}")


def json_line(obj) -> bytes:
    """The one JSON encoding of every answer: sorted keys, one line. `json`
    loads here, on first use, so answers in other formats never import it."""
    import json

    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def _svg(width: int, height: int, body: list[str]) -> bytes:
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *body,
        "</svg>\n",
    ]).encode()


def _raster(ps, on, off) -> list[list]:
    """Rows of a nonempty pixel set's bounding box, top-down, holding `on`
    at member pixels and `off` elsewhere."""
    ms = [m for m, _ in ps]
    ns = [n for _, n in ps]
    cols = range(min(ms), max(ms) + 1)
    return [[on if (m, n) in ps else off for m in cols] for n in range(max(ns), min(ns) - 1, -1)]


def render_pixelset(ps, opts: RenderOptions) -> bytes:
    """Encode a pixel set; pbm/svg require a nonempty set."""
    ps = frozenset(ps)
    if opts.format == "json":
        return json_line({"pixels": sorted(ps)})
    if not ps:
        if opts.format == "ascii":
            return b""
        raise EmptySet(f"cannot render an empty set as {opts.format}")
    if opts.format == "ascii":
        return "".join("".join(row) + "\n" for row in _raster(ps, *opts.glyphs[:2])).encode()
    if opts.format == "pbm":
        rows = _raster(ps, "1", "0")
        body = "".join(" ".join(row) + "\n" for row in rows)
        return f"P1\n{len(rows[0])} {len(rows)}\n{body}".encode()
    # svg: one rect per pixel in sorted (m, n) order, i.e. by column, bottom-up
    rows, s = _raster(ps, True, False), opts.scale
    return _svg(len(rows[0]) * s, len(rows) * s, [
        f'<rect x="{i * s}" y="{j * s}" width="{s}" height="{s}" fill="black"/>'
        for i, col in enumerate(zip(*rows))
        for j in range(len(rows) - 1, -1, -1)
        if col[j]
    ])


def parse_pbm(data: bytes) -> frozenset:
    """Read plain-P1 PBM back into a pixel set (round-trip of render_pixelset).

    A truncated header, a width or height below 1, a bit other than 0 or 1,
    or a wrong bit count raises ValueError.
    """
    tokens = []
    for line in data.decode().splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if len(tokens) < 3 or tokens[0] != "P1":
        raise ValueError("not a plain PBM stream")
    width, height = int(tokens[1]), int(tokens[2])
    if width < 1 or height < 1:
        raise ValueError("PBM width and height must be at least 1")
    bits = tokens[3:]
    if not set(bits) <= {"0", "1"}:
        raise ValueError("PBM bits must be 0 or 1")
    if len(bits) != width * height:
        raise ValueError("PBM bit count mismatch")
    out = set()
    for i, bit in enumerate(bits):
        if bit == "1":
            row, col = divmod(i, width)
            out.add((col, height - 1 - row))
    return frozenset(out)


# --- partitions ------------------------------------------------------------------


def _fmt(num: int, den: int) -> str:
    """num/den to 4 decimals, trailing zeros dropped; int / int rounds correctly."""
    return f"{num / den:.4f}".rstrip("0").rstrip(".")


def _svg_partition(cells: list[Parallelogram], s: int) -> bytes:
    """Every cell fragment, y up, each cell labelled at its largest fragment's vertex centroid."""
    body, labels = [], []
    for cell in cells:
        color = _PALETTE[cell.index % len(_PALETTE)]
        unit, frags = _int_fragments(cell)
        for frag in frags:
            pts = " ".join(f"{_fmt(x * s, unit)},{_fmt((unit - y) * s, unit)}" for x, y in frag)
            body.append(f'<polygon points="{pts}" fill="{color}" stroke="black" stroke-width="0.5"/>')
        if frags:
            frag = max(frags, key=_shoelace)
            n = len(frag) * unit  # the centroid is (sum x, sum y) / n
            cx, cy = sum(x for x, _ in frag), sum(y for _, y in frag)
            labels.append(
                f'<text x="{_fmt(cx * s, n)}" y="{_fmt((n - cy) * s, n)}" font-size="{s // 20}" '
                f'text-anchor="middle" dominant-baseline="middle">{cell.index}</text>'
            )
    return _svg(s, s, [*body, *labels, f'<rect width="{s}" height="{s}" fill="none" stroke="black"/>'])


def render_partition(cells: list[Parallelogram], opts: RenderOptions) -> bytes:
    """SVG diagram or exact-JSON dump of the unit-square partition."""
    if opts.format == "svg":
        return _svg_partition(cells, max(opts.scale, 64))
    if opts.format == "json":
        return json_line({"cells": [cell.to_json_dict() for cell in cells]})
    raise UnsupportedFormat(f"partitions render as svg or json, not {opts.format!r}")
