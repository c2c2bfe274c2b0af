"""Exact rational arithmetic and the small number theory the geometry needs.

Everything downstream computes with `fractions.Fraction` (lowest terms,
positive denominator, arbitrary precision) or plain ints, with `math` for
gcd, floor and ceiling. No floating point enters any predicate.
"""
from __future__ import annotations

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


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a decimal literal to an exact Fraction.

    Fraction's own string parser is exact for both forms ("0.1" -> 1/10);
    no float is ever constructed. A zero denominator raises ValueError, as
    any other malformed text does.
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def format_rational(r: Fraction | int) -> str:
    """Canonical "num/den" form used in all JSON output (e.g. "-2/5", "3/1")."""
    r = Fraction(r)
    return f"{r.numerator}/{r.denominator}"
