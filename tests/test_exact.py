import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from pixelwedge import extended_gcd, format_rational, parse_rational


def test_gcd_examples():
    assert gcd(6, 4) == 2
    assert gcd(0, 7) == 7
    assert gcd(2, 1) == 1
    assert gcd(0, 0) == 0
    assert gcd(-6, 4) == 2


def test_extended_gcd_spec_triples_by_substitution():
    for a, b in [(2, 1), (1, 0), (3, -1), (0, 7), (-5, 3), (12, 18)]:
        g, x, y = extended_gcd(a, b)
        assert g == gcd(a, b)
        assert a * x - b * y == g


def test_extended_gcd_rejects_double_zero():
    with pytest.raises(ValueError):
        extended_gcd(0, 0)


def test_extended_gcd_bezout_identity_randomised():
    # 10^4 random coprime pairs
    rng = random.Random(20240917)
    done = 0
    while done < 10_000:
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        if gcd(a, b) != 1:
            continue
        g, x, y = extended_gcd(a, b)
        assert g == 1 and a * x - b * y == 1
        done += 1


@given(st.fractions(max_denominator=10**4), st.fractions(max_denominator=10**4))
def test_rational_round_trip(p, q):
    assert (p + q) - q == p


def test_rational_normal_form():
    # lowest terms, positive denominator, zero is 0/1
    assert Fraction(2, 4) == Fraction(1, 2) and Fraction(2, 4).denominator == 2
    r = Fraction(1, -2)
    assert r.denominator == 2 and r.numerator == -1
    assert Fraction(0, 7) == Fraction(0, 1)


def test_rational_string_forms():
    assert parse_rational("-2/5") == Fraction(-2, 5)
    assert parse_rational("0.1") == Fraction(1, 10)
    assert parse_rational("3") == Fraction(3)
    assert format_rational(Fraction(-2, 5)) == "-2/5"
    assert format_rational(3) == "3/1"
    assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


def test_zero_denominator_is_value_error():
    for text in ("1/0", " -3/0 ", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)


def test_text_past_the_limit_is_value_error():
    assert parse_rational("1e300") == 10**300 and parse_rational(" 1E-300 ") == Fraction(1, 10**300)
    assert parse_rational("1" * 300) == int("1" * 300)
    for text in ("1e301", "1E-301", "2.5e+0301", "1" * 301, "1/" + "3" * 299):
        with pytest.raises(ValueError, match=r"limit of (\+-)?300$"):
            parse_rational(text)
