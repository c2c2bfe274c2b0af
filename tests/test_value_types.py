"""The contract of the five frozen value types: what their frozen
dataclasses gave, kept by the slotted classes that replace them."""
import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

from pixelwedge import AngleSpec, Parallelogram, PartitionLocator, RenderOptions, Slopes, digitize_polyline
from pixelwedge.shapes import RegionParams

CASES = [
    (Slopes, dict(a=2, b=1, c=-3, d=1), "Slopes(a=2, b=1, c=-3, d=1)"),
    (
        AngleSpec,
        dict(a=2, b=1, c=-3, d=1, corner=(F(1, 10), F(71, 100))),
        "AngleSpec(a=2, b=1, c=-3, d=1, corner=(Fraction(1, 10), Fraction(71, 100)))",
    ),
    (
        RegionParams,
        dict(alpha=F(-1, 2), beta=F(3, 4), alpha_ceil=0, beta_ceil=1),
        "RegionParams(alpha=Fraction(-1, 2), beta=Fraction(3, 4), alpha_ceil=0, beta_ceil=1)",
    ),
    (
        Parallelogram,
        dict(index=3, slopes=Slopes(2, 1, -3, 1), x=1, y=7),
        "Parallelogram(index=3, slopes=Slopes(a=2, b=1, c=-3, d=1), x=1, y=7)",
    ),
    (RenderOptions, dict(format="svg", scale=4, glyphs="xo"), "RenderOptions(format='svg', scale=4, glyphs='xo')"),
]


def slot_values(value) -> dict:
    """Every slot, declared fields and the invariants kept beside them."""
    return {name: getattr(value, name) for name in type(value).__slots__}


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_frozen_value_type_contract(cls, fields, text):
    value = cls(**fields)
    assert cls.__match_args__ == tuple(fields)
    assert {name: getattr(value, name) for name in fields} == fields
    # eq, hash and repr over the declared fields only
    twin = cls(*fields.values())
    assert value == twin and hash(value) == hash(twin) == hash(tuple(fields.values()))
    assert value.__eq__(tuple(fields.values())) is NotImplemented
    assert repr(value) == repr(twin) == text
    # frozen: every slot and any new name refuse assignment and deletion
    before = slot_values(value)
    for name in [*type(value).__slots__, "other"]:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert slot_values(value) == before
    assert not hasattr(value, "__dict__")
    # pickle and copy rebuild the value, its kept invariants too
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(back) is cls and back == value and repr(back) == text
        assert slot_values(back) == before


def test_render_options_keep_their_defaults():
    assert RenderOptions() == RenderOptions(format="ascii", scale=16, glyphs="#.")
    assert repr(RenderOptions(scale=2)) == "RenderOptions(format='ascii', scale=2, glyphs='#.')"


@pytest.mark.parametrize("entries", [(True, 1, -3, 1), (2, 1, -3, False), (1, True, True, 0)])
def test_slopes_refuse_bool_entries(entries):
    # bool is an int subclass that gcd accepts: Slopes(True, 1, -3, 1) used to keep a=True
    with pytest.raises(TypeError, match="^slope entries must be ints, not bool"):
        Slopes(*entries)


# the library's point readers, each called with a pair where its corner or
# vertex goes, and the name its refusals give that pair
PAIR_READERS = [
    ("corner", lambda p: AngleSpec(2, 1, -3, 1, p)),
    ("point", lambda p: digitize_polyline([p, (2, F(1, 3))])),
]


@pytest.mark.parametrize(
    "corner",
    [(F(1, 3),), (F(1, 3), F(1, 2), F(0)), F(1, 3), None, "12", {"0.5": 0, "0.25": 1}, iter([F(1, 3), 1])],
)
def test_angle_spec_refuses_a_corner_that_is_not_a_pair(corner):
    # (F(1, 3),) used to raise IndexError in AngleSpec and an unpacking
    # ValueError in digitize_polyline, a triple kept its first two, "12" was
    # the point (1, 2) and a dict gave its keys
    for name, read in PAIR_READERS:
        with pytest.raises(TypeError, match=f"^{name} must be a pair"):
            read(corner)
    assert AngleSpec(2, 1, -3, 1, [F(1, 3), 1]).corner == (F(1, 3), F(1))
    assert digitize_polyline([[F(1, 3), 1], (2, F(1, 3))]) == digitize_polyline([(F(1, 3), 1), (2, F(1, 3))])


@pytest.mark.parametrize(
    "corner, kind",
    [
        ((0.3, F(1, 10)), "float"),
        ((F(1, 3), True), "bool"),
        ((None, 1), "NoneType"),
        ((1, 1j), "complex"),
        ((0.3, 0.1), "float"),
        ((True, F(1, 7)), "bool"),
    ],
)
def test_angle_spec_refuses_coordinates_other_than_int_fraction_or_text(corner, kind):
    # a float used to be read as its binary value: (0.3, 0.1) is class 2, (3/10,
    # 1/10) class 1, and `locate(0.3, 0.1)` answered 2 where `locate` refuses
    # the boundary corner (3/10, 1/10); `locate` read True as 1
    readers = [*PAIR_READERS, ("point", lambda p: PartitionLocator(Slopes(2, 1, -3, 1)).locate(*p))]
    for name, read in readers:
        with pytest.raises(TypeError, match=f"^{name} coordinates must be int, Fraction or str, not {kind}$"):
            read(corner)


def test_angle_spec_reads_corner_text_as_the_cli_does():
    assert AngleSpec(2, 1, -3, 1, ("0.3", "0.7")).corner == (F(3, 10), F(7, 10))
    assert AngleSpec(2, 1, -3, 1, [" 1/-2", "2"]).corner == (F(-1, 2), F(2))
    assert AngleSpec(2, 1, -3, 1, (3, F(1, 4))).corner == (F(3), F(1, 4))
    locator = PartitionLocator(Slopes(2, 1, -3, 1))
    assert locator.locate("0.1", " 71/100") == locator.locate(F(1, 10), F(71, 100))
    # parse_rational's limits, which Fraction's own parser does not keep
    with pytest.raises(ValueError, match="past the limit"):
        AngleSpec(2, 1, -3, 1, ("1e301", "0"))
    with pytest.raises(ValueError, match="over the limit"):
        AngleSpec(2, 1, -3, 1, ("0." + "1" * 300, "0"))
    with pytest.raises(ValueError, match="zero denominator"):
        AngleSpec(2, 1, -3, 1, ("1/0", "0"))
