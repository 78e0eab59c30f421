"""Helpers that several test modules share: a type's root system and Weyl
group by name, the directory of the golden CLI outputs, and the weights
the property tests draw."""

import pathlib
from fractions import Fraction

from hypothesis import strategies as st

from jantzen.roots import LieType, Weight, build_root_system
from jantzen.weyl import weyl_group

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# Types of the property tests; every example draws one weight per type.
PROPERTY_TYPES = ("A2", "B2", "G2", "A3", "B3")


def root_system(name):
    """The root system of a type named like "B3", kept per type by
    ``build_root_system``."""
    return build_root_system(LieType.parse(name))


def group_of(name):
    """The ambient Weyl group of a type named like "B3"."""
    return weyl_group(root_system(name))


@st.composite
def drawn_weights(draw):
    """{type: weight} with signed rational coordinates of denominator <= 6."""
    out = {}
    for name in PROPERTY_TYPES:
        rank = int(name[1:])
        out[name] = Weight.of(
            *(Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 6))) for _ in range(rank))
        )
    return out
