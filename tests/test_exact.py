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


def test_format_rational_of_integer_parts():
    assert format_rational(-4, 6) == "-2/3" and format_rational(-7) == "-7/1"
    assert format_rational(0, 5) == "0/1" == format_rational(0)
    assert format_rational(12, 4) == "3/1" and format_rational(6, 1) == "6/1"
    assert format_rational(Fraction(3, 4), 6) == "1/8" and format_rational(Fraction(-3, 4)) == "-3/4"


def test_format_rational_matches_fraction():
    rng = random.Random(78)
    for _ in range(3000):
        bits = rng.choice((3, 20, 70, 300))
        num = rng.randint(-(1 << bits), 1 << bits) * rng.choice((1, 6, 1 << 40))
        den = rng.randint(1, 1 << bits) * rng.choice((1, 6, 1 << 40))
        r = Fraction(num, den)
        text = f"{r.numerator}/{r.denominator}"
        assert format_rational(num, den) == text == format_rational(r), (num, den)


def test_zero_denominator_is_value_error():
    for text in ("1/0", " -3/0 ", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)


def test_text_past_the_limit_is_value_error():
    assert parse_rational("1e300") == 10**300 and parse_rational(" 1E-300 ") == Fraction(1, 10**300)
    assert parse_rational("1" * 300) == int("1" * 300)
    for text in ("1e301", "1E-301", "2.5e+0301", "1" * 301, "1/" + "3" * 299, "1e400", "1e-400", "1E+400"):
        with pytest.raises(ValueError, match=r"limit of (\+-)?300$"):
            parse_rational(text)


def test_exponent_limit_reads_only_decimal_text():
    # int() reads no exponent, so a p/q part that looks like one is malformed
    for text in ("1/1e400", "1e400/1", "1/1e-400", "1/1e4"):
        with pytest.raises(ValueError, match="is not a rational p/q or decimal$"):
            parse_rational(text)


def rational_texts(rng: random.Random):
    """Seeded rational text, valid or not, from the pieces of the CLI grammar."""
    c = rng.choice
    signs, pads = ("", "", "+", "-"), ("", "", " ", "\t")
    digits = ("0", "1", "2", "12", "007", "1_000", "1__0", "3_", "\u0663", "9" * 40)
    yield from ("1//2", "1/2/3", "1.5/2", "1/x", "0/0", "1/0", "-3/0", "1/-2", "1/+2", "1 / 2", "", "/", "1/",
                "/2", "+", "abc", "1e300", "1E-300", "1e301", "-1e-301", "2.5e+0301", "1_0e2_99", "1/1e400",
                "1e400/1", "1/1e-400", "1e400", "1e-400", "1E+400")
    for _ in range(3000):
        shape = rng.randrange(3)
        if shape == 0:
            yield f"{c(pads)}{c(signs)}{c(digits)}{c(pads)}/{c(pads)}{c(signs)}{c(digits)}{c(pads)}"
        elif shape == 1:
            exponent = c(("", f"e{c(signs)}{rng.randint(295, 305)}", f"E{c(signs)}{rng.randint(0, 9)}"))
            yield f"{c(pads)}{c(signs)}{c(digits)}.{c(('', '5', '25', '0_1'))}{exponent}{c(pads)}"
        else:
            yield f"{c(signs)}{c(digits)}{c(('', '', '/', '.', 'e', ',', 'x'))}{c(digits)}"


def test_slope_and_corner_readers_share_one_grammar():
    from pixelwedge.cli import parse_slope_pair

    for text in rational_texts(random.Random(19)):
        try:
            slope = parse_slope_pair(text)
        except ValueError:
            slope = None
        try:
            value = parse_rational(text)
        except ValueError as exc:
            value = exc
        if slope is None:
            assert isinstance(value, ValueError), text
        elif slope[1] == 0:  # a vertical direction, no value
            assert slope[0] != 0 and "zero denominator" in str(value), text
        else:
            assert value == Fraction(*slope), text
