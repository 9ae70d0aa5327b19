"""SetFamily keeps canonical input as given and canonicalises everything else.

The constructor takes a fast path when its input is already canonical. The
general canonicalisation it had before is kept here as the reference, and
both paths must give the same members and the same errors.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsnorm.core import GroundSet, SetFamily, canonical_member
from jsnorm.serialize import canonical_json, family_from_dict, family_to_dict

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _reference_members(ground: GroundSet, members) -> tuple:
    """The canonicalisation SetFamily ran on every input before the fast path."""
    canon = {canonical_member(m) for m in members}
    if () in canon:
        raise ValueError("the empty set cannot be a family member")
    for m in canon:
        if not ground.covers(m):
            raise ValueError(f"member {m!r} is not a subset of the ground set")
    return tuple(sorted(canon))


names = st.text("abcxyz:0", min_size=1, max_size=3)
grounds = st.lists(names, min_size=1, max_size=7, unique=True)


@st.composite
def families(draw):
    """A ground set and a canonical member list over it."""
    atoms = draw(grounds)
    sets = draw(st.sets(st.frozensets(st.sampled_from(atoms), min_size=1), max_size=12))
    return GroundSet(atoms), sorted(tuple(sorted(s)) for s in sets)


def _variants(members: list, rnd: random.Random) -> dict:
    """The same family spelled six ways. Each of the last four breaks exactly
    one property the fast path checks, wherever the family allows it."""
    shuffled = list(members)
    rnd.shuffle(shuffled)
    return {
        "canonical lists": [list(m) for m in members],
        "canonical tuples": [tuple(m) for m in members],
        "shuffled order": shuffled,
        "duplicated members": [m for m in members for _ in range(2)],
        "unsorted atoms": [m[::-1] for m in members],
        "repeated atoms": [m[:1] + m for m in members],
    }


@settings(max_examples=150, deadline=None)
@given(families(), st.randoms(use_true_random=False))
def test_members_match_reference_on_every_spelling(family, rnd):
    ground, members = family
    for kind, spelled in _variants(members, rnd).items():
        fam = SetFamily(ground, spelled)
        assert fam.members == _reference_members(ground, spelled), kind
        assert fam._member_set == frozenset(fam.members), kind


def _no_canonicalising(atoms):
    raise AssertionError("a canonical family went through the general path")


@settings(max_examples=60, deadline=None)
@given(families(), st.randoms(use_true_random=False))
def test_written_families_decode_on_the_fast_path(family, rnd):
    ground, members = family
    rnd.shuffle(members)
    fam = SetFamily(ground, members, provenance="admissible")
    payload = json.loads(canonical_json(family_to_dict(fam)))
    with mock.patch("jsnorm.core.canonical_member", _no_canonicalising):
        back = family_from_dict(payload)
    assert back.members == fam.members
    assert back.provenance == fam.provenance
    assert back.ground.elements == fam.ground.elements


@pytest.mark.parametrize(
    "members",
    [
        [(), ("a",)],  # canonical order, so the fast path sees it first
        [("a",), ()],
        [(), ("a",), ("a",)],
    ],
)
def test_empty_member_raises_on_both_paths(members):
    ground = GroundSet(["a", "b"])
    with pytest.raises(ValueError, match="empty set"):
        _reference_members(ground, members)
    with pytest.raises(ValueError, match="empty set"):
        SetFamily(ground, members)


@pytest.mark.parametrize(
    "members",
    [
        [("a",), ("a", "z")],  # canonical but off the ground
        [("a", "z"), ("a",)],
        [("z", "a"), ("a",), ("a",)],
    ],
)
def test_off_ground_atom_raises_on_both_paths(members):
    ground = GroundSet(["a", "b"])
    with pytest.raises(ValueError, match="not a subset"):
        _reference_members(ground, members)
    with pytest.raises(ValueError, match=r"member \('a', 'z'\) is not a subset"):
        SetFamily(ground, members)


def test_least_offending_member_is_named():
    ground = GroundSet(["a", "q"])
    members = [("a", "x"), ("q",), ("a", "z"), ("b",), ("c", "q"), ("a", "y")]
    with pytest.raises(ValueError, match=r"member \('a', 'x'\) is not"):
        SetFamily(ground, members)


def test_mixed_atom_types_raise_value_error():
    ground = GroundSet(["a"])
    with pytest.raises(ValueError, match=r"member \(1,\) is not"):
        SetFamily(ground, [("a",), (1,), ("a", "b")])


def test_error_report_does_not_depend_on_hash_seed(tmp_path):
    family = tmp_path / "family.json"
    family.write_text(
        canonical_json(
            {
                "ground": ["a", "q"],
                "members": [["a", "x"], ["q"], ["a", "z"], ["b"], ["c", "q"], ["a", "y"]],
            }
        )
    )
    vector = tmp_path / "vector.json"
    vector.write_text(canonical_json({"entries": {"a": "1/1"}}))
    script = "import sys; from jsnorm import cli; sys.exit(cli.main(sys.argv[1:]))"
    outs = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", script, "norm", "--family", str(family), "--vector", str(vector)],
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert b"member ('a', 'x') is not a subset" in outs[0]
