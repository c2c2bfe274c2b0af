import math
from fractions import Fraction

from hypothesis import settings, strategies as st

from pixelwedge import Slopes

settings.register_profile("ci", max_examples=60, deadline=None)
settings.load_profile("ci")


def coprime_pair(bound):
    return (
        st.tuples(st.integers(-bound, bound), st.integers(-bound, bound))
        .filter(lambda p: math.gcd(p[0], p[1]) == 1)
    )


@st.composite
def slopes_st(draw, bound=4):
    a, b = draw(coprime_pair(bound))
    c, d = draw(coprime_pair(bound))
    if a * d - b * c == 0:
        a, b = draw(coprime_pair(bound).filter(lambda p: p[0] * d - p[1] * c != 0))
    return Slopes(a, b, c, d)


def corner_st(max_den=50):
    q = st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=max_den
    )
    return st.tuples(q, q)


def rebuilt(value, **changes):
    """A frozen value type built again from its declared fields, some changed."""
    return type(value)(**{name: getattr(value, name) for name in value.__match_args__} | changes)
