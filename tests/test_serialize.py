import gc
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsnorm.core import FiniteTree, FinVector, GroundSet, SetFamily, WeightedSet
from jsnorm.errors import InputFormatError
from jsnorm.reznichenko import system_from_dict
from jsnorm.serialize import (
    canonical_json,
    family_from_dict,
    family_to_dict,
    format_fraction,
    nogc,
    parse_fraction,
    partition_from_dict,
    supports_from_dict,
    tree_from_dict,
    tree_to_dict,
    vector_from_dict,
    vector_to_dict,
    weighted_family_from_dict,
    weighted_to_dict,
)


def test_format_fraction_always_shows_denominator():
    assert format_fraction(Fraction(5)) == "5/1"
    assert format_fraction(Fraction(-2, 3)) == "-2/3"
    assert format_fraction(-7) == "-7/1"
    # past CPython's 4,300-digit limit for str(int): checked against digits
    # read off divmod by 10, which shares no code with the conversion
    n = -(7**6000)
    digits, rest = [], -n
    while rest:
        rest, d = divmod(rest, 10)
        digits.append("0123456789"[d])
    assert format_fraction(Fraction(n, 3)) == "-" + "".join(reversed(digits)) + "/3"


def test_parse_fraction():
    assert parse_fraction("5/1") == 5
    assert parse_fraction("-2/3") == Fraction(-2, 3)
    assert parse_fraction(4) == 4
    with pytest.raises(InputFormatError):
        parse_fraction("bogus")
    with pytest.raises(InputFormatError):
        parse_fraction("1/0")


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}\n'
    # identical payloads give identical bytes
    assert canonical_json(json.loads(s)) == s


def test_family_round_trip():
    g = GroundSet(["a", "b"])
    fam = SetFamily(g, [("a",), ("a", "b")])
    payload = family_to_dict(fam)
    back = family_from_dict(payload)
    assert back.members == fam.members
    assert back.ground.elements == g.elements
    assert back.provenance == fam.provenance


def test_family_from_dict_rejects_garbage():
    with pytest.raises(InputFormatError, match=r"^bad family payload: 'ground'$"):
        family_from_dict({"members": [["a"]]})
    with pytest.raises(InputFormatError):
        family_from_dict({"ground": ["a"], "members": "nope"})


def test_vector_round_trip():
    g = GroundSet(["a", "b"])
    v = FinVector(g, {"a": Fraction(-2, 3)})
    payload = vector_to_dict(v)
    assert payload["entries"]["a"] == "-2/3"
    back = vector_from_dict(payload, g)
    assert back.entries == v.entries


def test_tree_round_trip():
    t = FiniteTree({"a": None, "b": "a"})
    payload = tree_to_dict(t)
    back = tree_from_dict(payload)
    assert back.parent == t.parent
    assert back.forest == t.forest


def test_weighted_family_round_trip():
    g = GroundSet(["a", "b"])
    sets = [WeightedSet(g, {"a": Fraction(1, 2)}), WeightedSet(g, {"b": 1})]
    payload = {"ground": list(g.elements), "weighted": [weighted_to_dict(w)["weights"] for w in sets]}
    back, ground = weighted_family_from_dict(payload)
    assert ground.elements == g.elements
    assert [w.weights for w in back] == [w.weights for w in sets]


def test_partition_from_dict():
    assert partition_from_dict({"blocks": [["a"], ["b"]]}) == [["a"], ["b"]]
    with pytest.raises(InputFormatError):
        partition_from_dict({"blocks": "x"})


def test_supports_from_dict_wrapped_and_bare():
    supports, gamma = supports_from_dict({"d1": ["g1"]})
    assert supports == {"d1": ["g1"]} and gamma is None
    supports, gamma = supports_from_dict(
        {"gamma": ["g1", "g2"], "supports": {"d1": ["g1"]}}
    )
    assert gamma == ["g1", "g2"]


@settings(max_examples=60, deadline=None)
@given(st.fractions())
def test_fraction_round_trip(q):
    assert parse_fraction(format_fraction(q)) == q


atoms = st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=1, max_size=6, unique=True)


@settings(max_examples=60, deadline=None)
@given(atoms, st.data())
def test_family_round_trip_random(ground_atoms, data):
    g = GroundSet(ground_atoms)
    members = data.draw(
        st.lists(
            st.lists(st.sampled_from(ground_atoms), min_size=1, max_size=3),
            max_size=5,
        )
    )
    fam = SetFamily(g, [tuple(m) for m in members])
    assert family_from_dict(family_to_dict(fam)).members == fam.members


@pytest.mark.parametrize("forest", ["false", 0, None])
def test_tree_from_dict_rejects_non_boolean_forest(forest):
    with pytest.raises(InputFormatError):
        tree_from_dict({"parent": {"a": None}, "forest": forest})


def test_tree_from_dict_forest_defaults_to_false():
    assert tree_from_dict({"parent": {"a": None}}).forest is False
    assert tree_from_dict({"parent": {"a": None, "b": None}, "forest": True}).forest is True


@pytest.mark.parametrize("parent", [[["a", None], ["b", "a"]], ["ab"], "ab", None])
def test_tree_from_dict_rejects_non_object_parent(parent):
    # dict() would read a list of pairs, or of two-letter strings, as a tree
    with pytest.raises(InputFormatError, match="'parent' must be an object"):
        tree_from_dict({"parent": parent})


def test_nogc_restores_the_collector_it_found():
    was = gc.isenabled()
    gc.enable()
    try:
        with nogc():
            assert not gc.isenabled()
            with nogc():  # a nested pause does nothing
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
        with pytest.raises(KeyError):
            with nogc():
                raise KeyError("decode failed")
        assert gc.isenabled()
        gc.disable()
        with nogc():
            assert not gc.isenabled()
        with pytest.raises(KeyError):
            with nogc():
                raise KeyError("decode failed")
        assert not gc.isenabled()  # a collector found off stays off
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "decode,payload,message",
    [
        (family_from_dict, {"ground": ["a"]}, "bad family payload: 'members'"),
        (lambda p: vector_from_dict(p, GroundSet(["a"])), {}, "bad vector payload: 'entries'"),
        (tree_from_dict, {"forest": True}, "bad tree payload: 'parent'"),
        (weighted_family_from_dict, {"ground": ["a"]}, "bad weighted family payload: 'weighted'"),
        (partition_from_dict, {}, "bad partition payload: 'blocks'"),
        # every key a supports file may hold is optional: a number is unreadable
        (supports_from_dict, 5, "bad supports payload: argument of type 'int' is not iterable"),
        (system_from_dict, {}, "malformed system payload: 'params'"),
        # a weighted set that is not an object has no .items()
        (
            weighted_family_from_dict,
            {"ground": ["a"], "weighted": [["a"]]},
            "bad weighted family payload: 'list' object has no attribute 'items'",
        ),
    ],
    ids=["family", "vector", "tree", "weighted", "partition", "supports", "system", "weighted-set-not-object"],
)
def test_each_decoder_names_its_payload_when_it_cannot_read_it(decode, payload, message):
    with pytest.raises(InputFormatError) as info:
        decode(payload)
    assert str(info.value) == message
