"""Exact rational arithmetic and the small number theory the geometry needs.

Rationals are parsed to `fractions.Fraction` and written as "num/den" at the
text edges. In between, the kernels compute on plain ints: a point is the
integer triple of `common_denominator`. No floating point enters any
predicate.
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


def check_rational_text(text: str) -> str:
    """`text` stripped; ValueError if it is longer than TEXT_LIMIT characters
    or carries a decimal exponent past +-TEXT_LIMIT. Reads no number longer
    than the text, so it is safe to call before Fraction or int."""
    text = text.strip()
    if len(text) > TEXT_LIMIT:
        raise ValueError(f"rational text of {len(text)} characters, over the limit of {TEXT_LIMIT}")
    exponent = text.lower().partition("e")[2]
    digits = exponent.lstrip("+-").replace("_", "")
    if digits.isdecimal() and int(digits) > TEXT_LIMIT:
        raise ValueError(f"decimal exponent {exponent}, past the limit of +-{TEXT_LIMIT}")
    return text


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a decimal literal to an exact Fraction.

    Fraction's own string parser is exact for both forms ("0.1" -> 1/10);
    no float is ever constructed. Text past `check_rational_text`'s limits,
    a zero denominator and any other malformed text raise ValueError.
    """
    text = check_rational_text(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(num: Fraction | int, den: int = 1) -> str:
    """Canonical "num/den" form of num/den, den > 0, used in all JSON output
    (e.g. "-2/5", "3/1"); reduces by one gcd and builds no Fraction."""
    num, den = num.numerator, num.denominator * den
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"
