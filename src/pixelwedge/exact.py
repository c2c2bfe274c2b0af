"""Exact rational arithmetic and the small number theory the geometry needs.

Rational text is read by one grammar, `parse_ratio`, and written as
"num/den" at the text edges. In between, the kernels compute on plain
ints: a point is the integer triple of `common_denominator`. No floating
point enters any predicate.
"""
from __future__ import annotations

import math
from fractions import Fraction

HALF = Fraction(1, 2)


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x - b*y == g == gcd(|a|, |b|).

    Note the minus sign in the identity; for coprime (a, b) this yields
    g == 1. Rejects (0, 0), which has no such pair.
    """
    if a == 0 and b == 0:
        raise ValueError("extended_gcd(0, 0) is undefined")
    old_r, r = abs(a), abs(b)
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # old_s*|a| + old_t*|b| == old_r == g; fold input signs back in.
    x = old_s if a >= 0 else -old_s
    y = -old_t if b >= 0 else old_t
    return old_r, x, y


def common_denominator(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    """(X, Y, q) with x == X/q and y == Y/q over the least common
    denominator q > 0 of the two rationals."""
    q = math.lcm(x.denominator, y.denominator)
    return x.numerator * (q // x.denominator), y.numerator * (q // y.denominator), q


# characters of one rational's text, and the largest |exponent| of a decimal:
# Fraction and int do work that grows with both, and ints print at most 4300 digits
TEXT_LIMIT = 300


def parse_ratio(text: str) -> tuple[int, int]:
    """The parts (p, q) of one rational's text, for slopes and corners alike:
    "p/q" gives its parts as written, each read by int() ("1/-2" -> (1, -2),
    q may be 0), a decimal or integer its least terms by Fraction's exact
    parser ("0.1" -> (1, 10)). ValueError on malformed text, and first on
    text over TEXT_LIMIT characters or on a decimal with an exponent past
    +-TEXT_LIMIT."""
    text = text.strip()
    if len(text) > TEXT_LIMIT:
        raise ValueError(f"rational text of {len(text)} characters, over the limit of {TEXT_LIMIT}")
    num, slash, den = text.partition("/")
    exponent = "" if slash else text.lower().partition("e")[2]  # int() reads no exponent
    digits = exponent.lstrip("+-").replace("_", "")
    if digits.isdecimal() and int(digits) > TEXT_LIMIT:
        raise ValueError(f"decimal exponent {exponent}, past the limit of +-{TEXT_LIMIT}")
    try:
        return (int(num), int(den)) if slash else Fraction(text).as_integer_ratio()
    except ValueError:
        raise ValueError(f"{text!r} is not a rational p/q or decimal") from None


def parse_rational(text: str) -> Fraction:
    """The value of `parse_ratio`'s parts; ValueError on a zero denominator too."""
    p, q = parse_ratio(text)
    if q == 0:
        raise ValueError(f"zero denominator in {text.strip()!r}")
    return Fraction(p, q)


def format_rational(num: Fraction | int, den: int = 1) -> str:
    """Canonical "num/den" form of num/den, den > 0, used in all JSON output
    (e.g. "-2/5", "3/1"); reduces by one gcd and builds no Fraction."""
    num, den = num.numerator, num.denominator * den
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"
