"""Unit and property tests for canonical encoding and digests."""

from dataclasses import dataclass, field

import pytest
from hypothesis import given, strategies as st

from repro.crypto.digest import canonical_bytes, digest, digest_hex
from repro.errors import CryptoError
from repro.sim.latency import Region


def test_dict_digest_is_insertion_order_independent():
    assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})


def test_type_distinctions():
    assert digest(1) != digest(1.0)
    assert digest("1") != digest(1)
    assert digest(b"x") != digest("x")
    assert digest(True) != digest(1)
    assert digest(None) != digest(0)
    assert digest(()) != digest(None)


def test_nested_structures():
    a = {"k": [1, (2, 3)], "m": {"x": None}}
    b = {"m": {"x": None}, "k": [1, (2, 3)]}
    assert digest(a) == digest(b)
    assert digest(a) != digest({"k": [1, (2, 4)], "m": {"x": None}})


def test_tuple_and_list_encode_identically():
    # Wire messages may normalise either way; the digest must agree.
    assert digest((1, 2)) == digest([1, 2])


def test_enum_encodes_as_value():
    assert digest(Region.CALIFORNIA) == digest("CA")


@dataclass(frozen=True)
class Sample:
    x: int
    y: str
    meta: str = field(default="ignored", metadata={"digest": False})


def test_dataclass_digest_excludes_marked_fields():
    assert digest(Sample(1, "a", meta="p")) == digest(Sample(1, "a", meta="q"))
    assert digest(Sample(1, "a")) != digest(Sample(2, "a"))


def test_dataclass_digest_includes_class_name():
    @dataclass(frozen=True)
    class Other:
        x: int
        y: str

    assert digest(Sample(1, "a")) != digest(Other(1, "a"))


def test_digest_memoised_on_instances():
    sample = Sample(3, "z")
    first = digest(sample)
    assert digest(sample) == first


def test_mutable_dataclass_is_never_served_a_stale_digest():
    @dataclass
    class Counter:
        x: int

    counter = Counter(1)
    before = digest(counter)
    counter.x = 2
    assert digest(counter) != before
    assert digest(counter) == digest(Counter(2))
    assert "_repro_digest" not in counter.__dict__


def test_slots_dataclass_encodes_without_a_memo():
    @dataclass(frozen=True, slots=True)
    class Slotted:
        x: int

    assert canonical_bytes(Slotted(1)) == (
        b"o\x00\x00\x00\x07Slotted\x00\x00\x00\x01"
        b"s\x00\x00\x00\x01x" b"i\x00\x00\x00\x011")
    assert digest(Slotted(1)) == digest(Slotted(1))
    assert digest((Slotted(1),)) != digest((Slotted(2),))


def test_unencodable_type_raises():
    with pytest.raises(CryptoError):
        canonical_bytes(object())


def test_digest_hex_roundtrip():
    assert digest_hex("x") == digest("x").hex()


_scalars = st.one_of(st.none(), st.booleans(),
                     st.integers(min_value=-2**63, max_value=2**63),
                     st.text(max_size=20), st.binary(max_size=20))
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=20)


@given(_values)
def test_property_encoding_is_deterministic(value):
    assert canonical_bytes(value) == canonical_bytes(value)


@given(st.dictionaries(st.text(max_size=6), _scalars, max_size=6))
def test_property_dict_order_never_matters(mapping):
    items = list(mapping.items())
    shuffled = dict(reversed(items))
    assert digest(mapping) == digest(shuffled)


@given(_values, _values)
def test_property_distinct_values_rarely_collide(a, b):
    if a != b:
        # For non-equal values the digests must differ (collision would be
        # a SHA-256 break or an encoding ambiguity; the latter is the bug
        # class this test hunts).
        if not (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))
                and list(a) == list(b)):
            assert digest(a) != digest(b)
