"""The canonical encoding behind every content hash.

Cache keys and ledger ``config_hash`` values are compared across runs
and across history, so the encoding may not move: the pinned digests
below were taken from the original implementation, and ``jsonable`` is
checked against that implementation, kept here verbatim as an oracle.
"""

import collections
import dataclasses
import enum
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.config import haswell_e5_2650l_v3
from repro.hashing import content_hash, jsonable
from repro.workloads.profile import InputSize
from repro.workloads.spec2017 import cpu2017


def oracle_jsonable(obj):
    """Recursively convert dataclasses/enums/tuples to JSON-safe values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: oracle_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [oracle_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): oracle_jsonable(value) for key, value in obj.items()}
    return obj


class Flavor(str, enum.Enum):
    SWEET = "sweet"
    SOUR = "sour"


class Rank(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Labels(dict):
    """A dict subclass, as some callers pass."""


Point = collections.namedtuple("Point", "x y")


@dataclasses.dataclass(frozen=True)
class Leaf:
    flavor: Flavor
    rank: Rank
    weight: float = -0.0
    tags: Tuple[str, ...] = ("a", "b")
    hidden: int = dataclasses.field(default=7, repr=False, compare=False)


@dataclasses.dataclass
class Tree:
    name: str
    leaves: list
    index: Dict[str, Leaf]
    extra: object = None


def _tree():
    sweet = Leaf(Flavor.SWEET, Rank.HIGH)
    sour = Leaf(Flavor.SOUR, Rank.LOW, weight=0.25, tags=())
    return Tree(
        name="t",
        leaves=[sweet, (sour, [sweet])],
        index={"sweet": sweet, Flavor.SOUR: sour, 3: None},
        extra=Tree("inner", [], {}, extra=Point(1, (2, 3))),
    )


CASES = {
    "nested dataclasses": _tree(),
    "str-mixin enum": Flavor.SOUR,
    "int enum": {"rank": Rank.HIGH, "ranks": [Rank.LOW, Rank.HIGH]},
    "tuples and lists": ((1, [2, (3,)]), [], (), [[(), []]]),
    "namedtuple": Point(0.5, [Point(1, 2)]),
    "dict subclass": Labels({"k": Labels(inner=(1, 2)), Rank.LOW: Flavor.SWEET}),
    "ordered dict": collections.OrderedDict([("b", 1), ("a", (2,))]),
    "numpy scalars": {
        "f": np.float64(1.5), "g": [np.float32(0.25)], "b": np.bool_(True),
    },
    "scalars": [None, True, False, 0, -1, 2**70, 0.0, -0.0, 1e300, "", "x"],
    "config": haswell_e5_2650l_v3(),
    "profile": cpu2017().get("505.mcf_r").profile(InputSize.REF),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_jsonable_matches_the_oracle(name):
    material = CASES[name]
    ours = jsonable(material)
    expected = oracle_jsonable(material)
    assert ours == expected
    # repr tells -0.0 from 0.0 and a numpy scalar from a float.
    assert repr(ours) == repr(expected)


def test_dataclass_class_passes_through_unchanged():
    assert jsonable(Leaf) is Leaf
    assert oracle_jsonable(Leaf) is Leaf
    assert jsonable([Leaf, {"cls": Tree}]) == [Leaf, {"cls": Tree}]


class TestPinnedDigests:
    """Digests taken before the encoder was reworked; they may not move."""

    def test_table1_config(self):
        assert content_hash(haswell_e5_2650l_v3()) == (
            "f90bfd09e8f7f1dab9319cc8f35d1221e54505653810ec427a9d7c65917320c5"
        )

    def test_mcf_ref_profile(self):
        profile = cpu2017().get("505.mcf_r").profile(InputSize.REF)
        assert content_hash(profile) == (
            "c9ca5a6fcfbaf84b582bed6a0a756ad02cfe01bc1fbdb765f5ca95493994bd8a"
        )
