"""Deterministic text and image encodings of pixel sets and partitions.

ASCII rows run top-down (decreasing n), matching visual orientation: pixel
(0, 0) is bottom-left. All outputs are byte-deterministic for fixed options.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptySet, UnsupportedFormat
from .exact import format_rational
from .partition import Parallelogram, cell_fragments, polygon_area
from .shapes import canonicalize

FORMATS = ("ascii", "pbm", "svg", "json")

_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
)


@dataclass(frozen=True)
class RenderOptions:
    format: str = "ascii"
    scale: int = 16  # svg pixels per cell / per unit
    glyphs: str = "#."  # on/off characters for ascii

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if len(self.glyphs) < 2:
            raise ValueError("need an on and an off glyph")
        if self.format not in FORMATS:
            raise UnsupportedFormat(f"unknown format {self.format!r}")


def _ascii(ps, glyphs: str) -> str:
    if not ps:
        return ""
    on, off = glyphs[0], glyphs[1]
    min_m = min(m for m, _ in ps)
    max_m = max(m for m, _ in ps)
    min_n = min(n for _, n in ps)
    max_n = max(n for _, n in ps)
    rows = []
    for n in range(max_n, min_n - 1, -1):
        rows.append("".join(on if (m, n) in ps else off for m in range(min_m, max_m + 1)))
    return "\n".join(rows) + "\n"


def _pbm(ps) -> str:
    ps = canonicalize(ps)
    width = max(m for m, _ in ps) + 1
    height = max(n for _, n in ps) + 1
    rows = [f"P1\n{width} {height}"]
    for n in range(height - 1, -1, -1):
        rows.append(" ".join("1" if (m, n) in ps else "0" for m in range(width)))
    return "\n".join(rows) + "\n"


def _svg_pixelset(ps, scale: int) -> str:
    ps = canonicalize(ps)
    width = (max(m for m, _ in ps) + 1) * scale
    height = (max(n for _, n in ps) + 1) * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for m, n in sorted(ps):
        x = m * scale
        y = height - (n + 1) * scale
        parts.append(f'<rect x="{x}" y="{y}" width="{scale}" height="{scale}" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_pixelset(ps, opts: RenderOptions) -> bytes:
    """Encode a pixel set; pbm/svg require a nonempty set."""
    ps = frozenset(ps)
    if opts.format == "ascii":
        return _ascii(ps, opts.glyphs).encode()
    if opts.format == "json":
        return (json.dumps({"pixels": sorted(ps)}, sort_keys=True) + "\n").encode()
    if not ps:
        raise EmptySet(f"cannot render an empty set as {opts.format}")
    if opts.format == "pbm":
        return _pbm(ps).encode()
    if opts.format == "svg":
        return _svg_pixelset(ps, opts.scale).encode()
    raise UnsupportedFormat(opts.format)


def parse_pbm(data: bytes) -> frozenset:
    """Read plain-P1 PBM back into a pixel set (round-trip of render_pixelset)."""
    tokens = []
    for line in data.decode().splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens or tokens[0] != "P1":
        raise ValueError("not a plain PBM stream")
    width, height = int(tokens[1]), int(tokens[2])
    bits = tokens[3:]
    if len(bits) != width * height:
        raise ValueError("PBM bit count mismatch")
    out = set()
    for i, bit in enumerate(bits):
        if bit == "1":
            row, col = divmod(i, width)
            out.add((col, height - 1 - row))
    return frozenset(out)


# --- partitions ------------------------------------------------------------------


def _fmt(v: Fraction, scale: int) -> str:
    return f"{float(v * scale):.4f}".rstrip("0").rstrip(".")


def _svg_partition(cells: list[Parallelogram], scale: int) -> str:
    s = scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
        f'viewBox="0 0 {s} {s}">',
        f'<rect width="{s}" height="{s}" fill="white"/>',
    ]
    labels = []
    for cell in cells:
        color = _PALETTE[cell.index % len(_PALETTE)]
        best = None
        for frag in cell_fragments(cell):
            pts = " ".join(f"{_fmt(x, s)},{_fmt(1 - y, s)}" for x, y in frag)
            parts.append(
                f'<polygon points="{pts}" fill="{color}" stroke="black" stroke-width="0.5"/>'
            )
            area = polygon_area(frag)
            if best is None or area > best[0]:
                centroid_x = sum(x for x, _ in frag) / len(frag)
                centroid_y = sum(y for _, y in frag) / len(frag)
                best = (area, centroid_x, centroid_y)
        if best is not None:
            _, cx, cy = best
            labels.append(
                f'<text x="{_fmt(cx, s)}" y="{_fmt(1 - cy, s)}" font-size="{s // 20}" '
                f'text-anchor="middle" dominant-baseline="middle">{cell.index}</text>'
            )
    parts.extend(labels)
    parts.append(f'<rect width="{s}" height="{s}" fill="none" stroke="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_partition(cells: list[Parallelogram], opts: RenderOptions) -> bytes:
    """SVG diagram or exact-JSON dump of the unit-square partition."""
    if opts.format == "svg":
        return _svg_partition(cells, max(opts.scale, 64)).encode()
    if opts.format == "json":
        payload = {
            "cells": [
                {
                    **cell.to_json_dict(),
                    "corners": [[format_rational(x), format_rational(y)] for x, y in cell.corners()],
                }
                for cell in cells
            ]
        }
        return (json.dumps(payload, sort_keys=True) + "\n").encode()
    raise UnsupportedFormat(f"partitions render as svg or json, not {opts.format!r}")
