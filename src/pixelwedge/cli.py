"""Command-line front end.

Every run is reproducible from its flags alone: no config file or environment
variable, exact rational inputs, deterministic output bytes. Each subcommand's
handler bounds its work (`_within`) and does all that can raise before `main`
writes a byte. Exit codes: 0 success, 1 domain error (parallel slopes,
pixel-center hits, work over a limit, ...), an answer that cannot be written
to stdout or `--out`, or a failing sweep, whose report is still written,
2 usage error, whose message names the flag and its reason.
"""
from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .digitize import AngleSpec, Slopes, digitize_angle_path, path_vertex_bound
from .errors import DomainError
from .exact import format_rational, parse_ratio, parse_rational
from .partition import fragment_bound, partition_unit_square
from .render import RenderOptions, json_line, render_partition, render_pixelset
from .shapes import class_index, default_window, enumerate_shapes, region_params, separating_window, shape_of_spec
from .verify import coprime_pairs, sample_class_frequencies, sample_work, theorem_sweep

_VALUE_FLAGS = ("--slope1", "--slope2", "--corner")
# `sweep N` scans ~N**4 slope pairs; this admits N <= 19 (921600 pairs, ~10 s on 2 CPUs)
SWEEP_PAIR_LIMIT = 1_000_000
# `verify` keeps a count per class, in every block; this admits D <= 10**6 (8 MB a list)
VERIFY_CLASS_LIMIT = 1_000_000
# `verify` draws its samples and merges one D-long count list per block of
# 2**15 of them (`sample_work`); near 10**8 (99984000, the most the limit admits
# at D = 5) a run takes ~12-14 s at D = 5 on 2 CPUs, and took ~25 s at D = 99857
# and ~12 s at D = 999001 on a slower host. A sample whose key is wider
# than 64 bits goes draw by draw: per sample it took 14-16x the D = 5 time with a
# 102-bit key (entries near 10**15) and 29-31x with a 986-bit key (four 149-digit
# entries, about the widest the text limit admits); `sample_work` counts it as
# `verify._WIDE_KEY_WORK` = 32 samples
VERIFY_WORK_LIMIT = 100_000_000
# `enumerate` builds up to D*(2w+1)**2 bitmap pixels, about half of them at worst, at
# w = `separating_window`; at 10**7 the json answer takes ~6 s and ~400 MB on 2 CPUs.
# `render` draws one (2w+1)**2 box at its own w, and is held to the same limit
ENUMERATE_PIXEL_LIMIT = 10_000_000
# `partition` writes D cells (json) or every cell's pieces (svg, see fragment_bound);
# near 10**5, json took ~3.6-4.0 s and 262 MB at D = 99999, and svg ~3 s and 110 MB for
# the one thin cell of 24999/24998, 25000/24999 (bound 100000, 99998 pieces) on 2 CPUs
PARTITION_PIECE_LIMIT = 100_000
# `digitize` traces up to `path_vertex_bound` vertices; near 10**5 (99186 for 2/1, -3/1
# at --window 35000) a run took ~3.8 s with --corner 0.1,0.71 and ~5.0 s with a 300-character
# x coordinate on 2 CPUs: the cost per vertex grows with the corner's text
DIGITIZE_VERTEX_LIMIT = 100_000


def parse_slope_pair(text: str) -> tuple[int, int]:
    """`parse_ratio`'s parts over their positive gcd: the written orientation
    matters, as (3, -1) and (-3, 1) select opposite half-planes."""
    p, q = parse_ratio(text)
    if p == 0 and q == 0:
        raise ValueError("slope 0/0 is not a direction")
    g = math.gcd(p, q)
    return p // g, q // g


def parse_corner(text: str) -> tuple[Fraction, Fraction]:
    x, comma, y = text.partition(",")
    if not comma:
        raise ValueError(f"corner {text!r} is not x,y")
    return parse_rational(x), parse_rational(y)


def positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _usage(parse):
    """`parse` as an argparse type whose ValueError is a usage error naming its reason."""
    def read(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pixelwedge",
        description="digitize rational-slope angles and study their shape classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, run, *, corner=False, window=False, seeded=False, formats=("ascii", "json"), default_format="ascii"):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        p.add_argument("--slope1", type=_usage(parse_slope_pair), required=True, metavar="a/b")
        p.add_argument("--slope2", type=_usage(parse_slope_pair), required=True, metavar="c/d")
        if corner:
            p.add_argument("--corner", type=_usage(parse_corner), required=True, metavar="x,y")
        if window:
            p.add_argument("--window", type=_usage(positive_int), default=None, metavar="W")
        if seeded:
            p.add_argument("--samples", type=_usage(positive_int), default=100000, metavar="N")
            p.add_argument("--seed", type=int, default=0, metavar="S")
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", default=None, metavar="PATH")
        return p

    add("digitize", "digitize the angular path at the corner", _digitize, corner=True,
        window=True, formats=("json",), default_format="json").set_defaults(window=8)
    add("classify", "shape class of the digitized angle at the corner", _classify, corner=True)
    add("enumerate", "all shape classes of a slope pair", _enumerate, window=True)
    add("partition", "unit-square partition of corner positions by class", _partition,
        formats=("svg", "json"), default_format="svg")
    add("verify", "Monte Carlo uniformity check of class frequencies", _verify, seeded=True)
    add("render", "render the digitized angle at one corner", _render, corner=True,
        window=True, formats=("ascii", "pbm", "svg", "json"))

    sweep = sub.add_parser("sweep", help="exhaustive small-slope shape-count check")
    sweep.add_argument("max_shapes", type=_usage(positive_int), nargs="?", default=8)
    sweep.add_argument("--format", choices=("ascii", "json"), default="ascii")
    sweep.add_argument("--out", default=None, metavar="PATH")
    sweep.set_defaults(run=_sweep)
    return parser


def _merge_flag_values(argv: list[str]) -> list[str]:
    """Join value flags with their argument so argparse never mistakes a
    leading-minus value like -3/1 for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _within(limit: int, estimate: int, claim: str) -> None:
    """Refuse, before any work, a run that claims an estimate over the limit."""
    if estimate > limit:
        raise DomainError(f"{claim}, over the limit of {limit}")


def _digitize(args) -> tuple[bytes, int]:
    spec = AngleSpec(*args.slope1, *args.slope2, args.corner)
    vertices = path_vertex_bound(spec.slopes, args.window)
    _within(DIGITIZE_VERTEX_LIMIT, vertices, f"digitize would trace up to {vertices} path vertices")
    return json_line(digitize_angle_path(spec, args.window)), 0


def _classify(args) -> tuple[bytes, int]:
    spec = AngleSpec(*args.slope1, *args.slope2, args.corner)
    j = class_index(spec)
    d = spec.count
    if args.format == "json":
        p = region_params(spec)
        payload = {
            "slopes": [spec.a, spec.b, spec.c, spec.d],
            "corner": [format_rational(spec.corner[0]), format_rational(spec.corner[1])],
            "alpha": format_rational(p.alpha),
            "beta": format_rational(p.beta),
            "alpha_ceil": p.alpha_ceil,
            "beta_ceil": p.beta_ceil,
            "index": j,
            "classes": d,
        }
        return json_line(payload), 0
    return f"class {j} of {d}\n".encode(), 0


def _enumerate(args) -> tuple[bytes, int]:
    slopes = Slopes(*args.slope1, *args.slope2)
    w = default_window(slopes) if args.window is None else args.window
    pixels = slopes.count * (2 * separating_window(slopes, w) + 1) ** 2
    _within(ENUMERATE_PIXEL_LIMIT, pixels, f"enumerate would build up to {pixels} bitmap pixels")
    shapes = enumerate_shapes(slopes, w)
    if args.format == "json":
        return json_line([s.to_json_dict() for s in shapes]), 0
    blocks = []
    for s in shapes:
        art = render_pixelset(s.bitmap, RenderOptions(format="ascii")).decode()
        blocks.append(f"class {s.index} of {len(shapes)}:\n{art}")
    return "\n".join(blocks).encode(), 0


def _partition(args) -> tuple[bytes, int]:
    slopes = Slopes(*args.slope1, *args.slope2)
    pieces = slopes.count if args.format == "json" else fragment_bound(slopes)
    _within(PARTITION_PIECE_LIMIT, pieces,
            f"partition --format {args.format} would write up to {pieces} polygons")
    cells = partition_unit_square(slopes)
    return render_partition(cells, RenderOptions(format=args.format, scale=512)), 0


def _verify(args) -> tuple[bytes, int]:
    slopes = Slopes(*args.slope1, *args.slope2)
    _within(VERIFY_CLASS_LIMIT, slopes.count, f"verify would count {slopes.count} shape classes")
    work = sample_work(slopes, args.samples)
    _within(VERIFY_WORK_LIMIT, work, f"verify would draw and merge {work} samples and class counts")
    hist = sample_class_frequencies(slopes, args.samples, args.seed)
    if args.format == "json":
        return json_line(hist.to_json_dict()), 0
    return (hist.table() + "\n").encode(), 0


def _sweep(args) -> tuple[bytes, int]:
    n = pairs = 0  # pairs up to n = N, stopping at the first n over the limit (a lower bound)
    while n < args.max_shapes and pairs <= SWEEP_PAIR_LIMIT:
        n += 1
        pairs = len(coprime_pairs(n)) ** 2
    _within(SWEEP_PAIR_LIMIT, pairs, f"sweep {args.max_shapes} would scan at least {pairs} slope pairs")
    report = theorem_sweep(args.max_shapes)
    if args.format == "json":  # a failing sweep writes its report, then exits 1
        return json_line(report.to_json_dict()), int(not report.ok)
    return (report.table() + "\n").encode(), int(not report.ok)


def _render(args) -> tuple[bytes, int]:
    spec = AngleSpec(*args.slope1, *args.slope2, args.corner)
    w = default_window(spec.slopes) if args.window is None else args.window
    pixels = (2 * w + 1) ** 2
    _within(ENUMERATE_PIXEL_LIMIT, pixels, f"render would draw up to {pixels} box pixels")
    shape = shape_of_spec(spec, w)
    return render_pixelset(shape.bitmap, RenderOptions(format=args.format)), 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_flag_values(argv))
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        data, code = args.run(args)
    except DomainError as exc:
        print(f"pixelwedge: {exc}", file=sys.stderr)
        return 1
    try:
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
    except OSError as exc:
        print(f"pixelwedge: cannot write {args.out or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
