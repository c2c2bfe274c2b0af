"""The contract of the five frozen value types: what their frozen
dataclasses gave, kept by the slotted classes that replace them."""
import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

from pixelwedge import AngleSpec, Parallelogram, RenderOptions, Slopes
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
