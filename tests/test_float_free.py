"""The exact-arithmetic invariant as a check: no float enters the library
outside a named allowlist of functions.

Each module of src/pixelwedge is parsed with `ast`, and every float literal,
`float(...)` call, true division `/`, `math.sqrt`/`log`/`exp`/`lgamma` and
float format spec is reported with the function that holds it. Output text,
the chi-square statistic and `digitize_polyline`'s exact Fraction division
are the only places allowed one.

The kernels compute on integers too: in every module only named edges may
name `Fraction` at all, where rational text is read or written and where
exact values are handed to or taken from library users.
"""
import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pixelwedge"

ALLOWED = {
    "render._fmt",  # svg coordinates printed to 4 decimals
    "verify.ClassHistogram.table",  # frequencies and chi-square as text
    "verify.ClassHistogram.frequencies",
    "verify._gamma_p",  # the chi-square quantile's series
    "verify.chi2_q999",
    "verify.sample_class_frequencies",  # the expected count and the statistic
    "digitize.digitize_polyline",  # Fraction / Fraction, exact
}
# where each module may name Fraction: its edges, never a kernel; render.py nowhere
FRACTION_ALLOWED = {
    "cli (import)",
    "cli.parse_corner",  # the corner text
    "digitize (import)",
    "digitize.Point",  # the public corner type
    "digitize.read_point",  # a corner or point as given, read exactly
    "digitize.is_half_integer",
    "digitize.round_nearest",
    "digitize._crossing_params",  # the Fraction polyline sweep, until its integer stepper
    "digitize.digitize_polyline",
    "digitize.digitize_polyline.rounded_at",
    "digitize.digitize_angle_path.endpoint",
    "exact (import)",
    "exact.HALF",
    "exact.common_denominator",  # Fractions to the integer triple
    "exact.parse_ratio",  # rational text
    "exact.parse_rational",
    "exact.format_rational",
    "partition (import)",
    "partition.Parallelogram.area",  # the exact area, for exact_class_areas
    "partition.cell_fragments",  # the public fragments as Fraction polygons
    "shapes (import)",
    "shapes.region_params",  # the exact thresholds
    "shapes.reflection_symmetric",
    "verify (import)",
    "verify.exact_class_areas",
}
FLOAT_MATH = {"sqrt", "log", "exp", "lgamma"}
FLOAT_SPEC = re.compile(r"[eEfFgG%]$")


def _kind(node) -> str | None:
    """What makes a node a float site, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return f"float literal {node.value!r}"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return "float()"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    if (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
            and isinstance(node.value, ast.Name) and node.value.id == "math"):
        return f"math.{node.attr}"
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        names = sorted(alias.name for alias in node.names if alias.name in FLOAT_MATH)
        return f"from math import {', '.join(names)}" if names else None
    if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
        spec = "".join(v.value for v in node.format_spec.values if isinstance(v, ast.Constant))
        return f"format spec {spec!r}" if FLOAT_SPEC.search(spec) else None
    return None


def _fraction_kind(node) -> str | None:
    """How a node names Fraction, or None."""
    if isinstance(node, ast.Name) and node.id == "Fraction":
        return "Fraction"
    if isinstance(node, ast.Attribute) and node.attr == "Fraction":
        return ".Fraction"
    if isinstance(node, ast.ImportFrom) and any(alias.name == "Fraction" for alias in node.names):
        return "import"
    return None


def scan_sites(source: str, module: str, kind_of=_kind) -> list[tuple[str, int, str]]:
    """(qualified name of the enclosing function or class, line, kind) of
    each site `kind_of` names in one module's source: float sites by default."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif scope == module and isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            scope = f"{scope}.{node.targets[0].id}"  # a module constant or alias
        kind = kind_of(node)
        if kind:
            sites.append((scope, node.lineno, kind))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return sites


def owner(scope: str) -> str | None:
    """The allowlist entry that covers a scope, nested functions included."""
    return next((name for name in ALLOWED if scope == name or scope.startswith(name + ".")), None)


def library_sites():
    return [site for path in sorted(SRC.glob("*.py")) for site in scan_sites(path.read_text(), path.stem)]


def test_no_float_outside_the_allowlist():
    assert [site for site in library_sites() if owner(site[0]) is None] == []


def test_every_allowlisted_function_still_holds_a_float():
    # the allowlist only shrinks: an entry whose float is gone is removed
    assert {owner(scope) for scope, _, _ in library_sites()} - {None} == ALLOWED


def test_the_scan_sees_every_kind_of_float():
    source = '''
import math
from math import lgamma
def f(x, y):
    z = x / y
    x /= 2
    return 0.5, float(x), math.sqrt(x), math.log(x), math.exp(x), f"{x:.3f}", f"{y:e}", f"{x:{y}g}", f"{x:d}"
class K:
    def g(self):
        return 1e3
'''
    kinds = [(scope, kind) for scope, _, kind in scan_sites(source, "m")]
    assert kinds == [
        ("m", "from math import lgamma"),
        ("m.f", "true division"),
        ("m.f", "true division"),
        ("m.f", "float literal 0.5"),
        ("m.f", "float()"),
        ("m.f", "math.sqrt"),
        ("m.f", "math.log"),
        ("m.f", "math.exp"),
        ("m.f", "format spec '.3f'"),
        ("m.f", "format spec 'e'"),
        ("m.f", "format spec 'g'"),
        ("m.K.g", "float literal 1000.0"),
    ]


def fraction_sites():
    """(entry, line) of each name of Fraction in the library: the enclosing
    function, class or module constant, or "<module> (import)" for an import."""
    return [
        (f"{scope} (import)" if kind == "import" else scope, line)
        for path in sorted(SRC.glob("*.py"))
        for scope, line, kind in scan_sites(path.read_text(), path.stem, _fraction_kind)
    ]


def test_fraction_only_in_named_edges():
    assert [site for site in fraction_sites() if site[0] not in FRACTION_ALLOWED] == []


def test_every_fraction_entry_still_names_it():
    # like ALLOWED, the Fraction entries only shrink
    assert {entry for entry, _ in fraction_sites()} == FRACTION_ALLOWED


def test_the_scan_sees_every_name_of_fraction():
    source = '''
import fractions
from fractions import Fraction
Pair = tuple[Fraction, int]
def f(x) -> Fraction:
    return fractions.Fraction(x) + Fraction(1, 2)
'''
    assert [(scope, kind) for scope, _, kind in scan_sites(source, "m", _fraction_kind)] == [
        ("m", "import"),
        ("m.Pair", "Fraction"),
        ("m.f", ".Fraction"),
        ("m.f", "Fraction"),
        ("m.f", "Fraction"),  # the return annotation, visited after the body
    ]
