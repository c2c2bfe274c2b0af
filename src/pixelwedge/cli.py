"""Command-line front end.

Every run is reproducible from its flags alone: no config files, exact
rational inputs, deterministic output bytes. Exit codes: 0 success, 1 domain
error (parallel slopes, pixel-center hits, ...), 2 usage error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from .digitize import AngleSpec, Slopes, digitize_angle_path
from .errors import DomainError, UnsupportedFormat
from .exact import check_rational_text, format_rational, parse_rational
from .partition import partition_unit_square
from .render import RenderOptions, json_line, render_partition, render_pixelset
from .shapes import class_index, enumerate_shapes, region_params, shape_of_spec
from .verify import sample_class_frequencies, sweep_pair_estimate, theorem_sweep

_VALUE_FLAGS = ("--slope1", "--slope2", "--corner")
# `sweep N` scans ~N**4 slope pairs; this admits N <= 19 (921600 pairs, ~20 s on 2 CPUs)
SWEEP_PAIR_LIMIT = 1_000_000
# `verify` keeps a count per class, in every block; this admits D <= 10**6 (8 MB a list)
VERIFY_CLASS_LIMIT = 1_000_000


def _bounded(text: str) -> str:
    """`check_rational_text`, refusing as a usage error that names the limit."""
    try:
        return check_rational_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_slope_pair(text: str) -> tuple[int, int]:
    """Parse "p/q" (signs of p and q both kept) or an exact decimal/integer.

    The written orientation matters: (3, -1) and (-3, 1) select opposite
    half-planes, so reduction divides by the positive gcd only.
    """
    text = _bounded(text)
    if "/" in text:
        num, den = text.split("/", 1)
        p, q = int(num), int(den)
    else:
        f = parse_rational(text)
        p, q = f.numerator, f.denominator
    if p == 0 and q == 0:
        raise ValueError("slope 0/0 is not a direction")
    g = math.gcd(p, q)
    return p // g, q // g


def parse_corner(text: str) -> tuple[Fraction, Fraction]:
    try:
        x, y = text.split(",", 1)
    except ValueError:
        raise ValueError(f"corner must be 'x,y', got {text!r}") from None
    return parse_rational(_bounded(x)), parse_rational(_bounded(y))


def positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _spec(args) -> AngleSpec:
    (a, b), (c, d) = args.slope1, args.slope2
    x, y = args.corner
    return AngleSpec(a, b, c, d, (x, y))


def _slopes(args) -> Slopes:
    (a, b), (c, d) = args.slope1, args.slope2
    return Slopes(a, b, c, d)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pixelwedge",
        description="digitize rational-slope angles and study their shape classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, *, corner=False, window=False, seeded=False, formats=("ascii", "json"), default_format="ascii"):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--slope1", type=parse_slope_pair, required=True, metavar="a/b")
        p.add_argument("--slope2", type=parse_slope_pair, required=True, metavar="c/d")
        if corner:
            p.add_argument("--corner", type=parse_corner, required=True, metavar="x,y")
        if window:
            p.add_argument("--window", type=positive_int, default=None, metavar="W")
        if seeded:
            p.add_argument("--samples", type=positive_int, default=100000, metavar="N")
            p.add_argument("--seed", type=int, default=0, metavar="S")
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", default=None, metavar="PATH")
        return p

    add("digitize", "digitize the angular path at the corner", corner=True,
        window=True, formats=("json",), default_format="json").set_defaults(window=8)
    add("classify", "shape class of the digitized angle at the corner", corner=True)
    add("enumerate", "all shape classes of a slope pair", window=True)
    add("partition", "unit-square partition of corner positions by class",
        formats=("svg", "json"), default_format="svg")
    add("verify", "Monte Carlo uniformity check of class frequencies", seeded=True)
    add("render", "render the digitized angle at one corner", corner=True,
        window=True, formats=("ascii", "pbm", "svg", "json"))

    sweep = sub.add_parser("sweep", help="exhaustive small-slope shape-count check")
    sweep.add_argument("max_shapes", type=positive_int, nargs="?", default=8)
    sweep.add_argument("--format", choices=("ascii", "json"), default="ascii")
    sweep.add_argument("--out", default=None, metavar="PATH")
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


def _run(args) -> bytes:
    if args.command == "digitize":
        path = digitize_angle_path(_spec(args), args.window)
        return json_line(path)

    if args.command == "classify":
        spec = _spec(args)
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
            return json_line(payload)
        return f"class {j} of {d}\n".encode()

    if args.command == "enumerate":
        shapes = enumerate_shapes(_slopes(args), args.window)
        if args.format == "json":
            return json_line([s.to_json_dict() for s in shapes])
        blocks = []
        for s in shapes:
            art = render_pixelset(s.bitmap, RenderOptions(format="ascii")).decode()
            blocks.append(f"class {s.index} of {len(shapes)}:\n{art}")
        return "\n".join(blocks).encode()

    if args.command == "partition":
        cells = partition_unit_square(_slopes(args))
        return render_partition(cells, RenderOptions(format=args.format, scale=512))

    if args.command == "verify":
        slopes = _slopes(args)
        if slopes.count > VERIFY_CLASS_LIMIT:
            raise DomainError(
                f"verify would count {slopes.count} shape classes, "
                f"over the limit of {VERIFY_CLASS_LIMIT}"
            )
        hist = sample_class_frequencies(slopes, args.samples, args.seed)
        if args.format == "json":
            return json_line(hist.to_json_dict())
        return (hist.table() + "\n").encode()

    if args.command == "sweep":
        # past 10**6 the count (monotone in N) stops at 10**6 and is a lower bound
        pairs = sweep_pair_estimate(min(args.max_shapes, 10**6))
        if pairs > SWEEP_PAIR_LIMIT:
            raise DomainError(
                f"sweep {args.max_shapes} would scan at least {pairs} slope pairs, "
                f"over the limit of {SWEEP_PAIR_LIMIT}"
            )
        report = theorem_sweep(args.max_shapes)
        if args.format == "json":
            return json_line(report.to_json_dict())
        return (report.table() + "\n").encode()

    if args.command == "render":
        shape = shape_of_spec(_spec(args), args.window)
        return render_pixelset(shape.bitmap, RenderOptions(format=args.format))

    raise AssertionError(args.command)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_flag_values(argv))
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        data = _run(args)
    except UnsupportedFormat as exc:
        print(f"pixelwedge: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError) as exc:
        print(f"pixelwedge: {exc}", file=sys.stderr)
        return 1
    if args.out:
        # PIXELWEDGE_OUT_DIR supplies the default directory for relative paths
        base = os.environ.get("PIXELWEDGE_OUT_DIR", "")
        path = args.out if os.path.isabs(args.out) or not base else os.path.join(base, args.out)
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"pixelwedge: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
