import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsnorm.core import GroundSet, SetFamily, canonical_member
from jsnorm.errors import (
    EmptySupportError,
    GroundMismatchError,
    InputFormatError,
    InvalidPartitionError,
    MissingStratumError,
    ResourceLimitError,
    UncoveredGammaError,
)
from jsnorm.talagrand import (
    AdmissibilityFailure,
    AdmissibleSet,
    SeqGrid,
    admissible_family,
    eberleinize,
    is_admissible,
    qe_partition_search,
    saturation_partition,
    validate_partition,
)


def test_seqgrid_elements():
    g = SeqGrid(2, 2)
    assert g.elements == ("00", "01", "10", "11")
    assert g.digits("10") == (1, 0)
    wide = SeqGrid(12, 1)
    assert wide.elements[:3] == ("00", "01", "02")
    assert wide.digits("11") == (11,)


@pytest.mark.parametrize("branching, length", [(3.0, 2), (2.5, 2), ("3", 2), (3, 2.0), (3, True)])
def test_seqgrid_rejects_non_integer_shape(branching, length):
    with pytest.raises(InputFormatError, match="must be an integer"):
        SeqGrid(branching, length)


def test_seqgrid_budget():
    with pytest.raises(ResourceLimitError):
        SeqGrid(10, 5, grid_budget=1000)


def test_is_admissible_characteristic_three():
    g = SeqGrid(5, 3)
    res = is_admissible(g, ["123", "124"])
    assert isinstance(res, AdmissibleSet)
    assert res.characteristic == 3


def test_is_admissible_characteristic_two():
    g = SeqGrid(5, 3)
    res = is_admissible(g, ["123", "133", "144"])
    assert isinstance(res, AdmissibleSet)
    assert res.characteristic == 2


def test_is_admissible_failure_reports_both_pairs():
    g = SeqGrid(5, 3)
    res = is_admissible(g, ["123", "124", "133"])
    assert isinstance(res, AdmissibilityFailure)
    assert res.pair_a == ("123", "124") and res.position_a == 3
    assert res.pair_b == ("123", "133") and res.position_b == 2


def test_is_admissible_small_sets():
    g = SeqGrid(3, 2)
    assert isinstance(is_admissible(g, []), AdmissibleSet)
    single = is_admissible(g, ["00"])
    assert isinstance(single, AdmissibleSet) and single.characteristic is None
    with pytest.raises(GroundMismatchError):
        is_admissible(g, ["99"])


def test_admissible_family_b3_l1():
    g = SeqGrid(3, 1)
    fam, strata = admissible_family(g, max_size=2)
    assert fam.members == (("0",), ("0", "1"), ("0", "2"), ("1",), ("1", "2"), ("2",))
    assert set(strata.values()) == {1}
    assert fam.provenance == "admissible"


def test_admissible_family_b2_l1():
    g = SeqGrid(2, 1)
    fam, strata = admissible_family(g, max_size=2)
    assert fam.members == (("0",), ("0", "1"), ("1",))
    assert all(v == 1 for v in strata.values())


def test_admissible_family_b4_l2_count():
    g = SeqGrid(4, 2)
    fam, strata = admissible_family(g, max_size=4)
    assert len(fam) == 668
    assert len(strata) == 668


def test_admissible_family_strata_match_characteristic():
    g = SeqGrid(3, 2)
    fam, strata = admissible_family(g, max_size=3)
    for m in fam.members:
        res = is_admissible(g, m)
        assert isinstance(res, AdmissibleSet)
        if len(m) >= 2:
            assert strata[m] == res.characteristic
        else:
            assert strata[m] == 1


def test_admissible_family_budget():
    g = SeqGrid(4, 3)
    with pytest.raises(ResourceLimitError):
        admissible_family(g, max_size=4, family_budget=100)


@pytest.mark.parametrize("max_size", [True, 2.5, 2.0, "2", None])
def test_admissible_family_rejects_non_integer_max_size(max_size):
    with pytest.raises(InputFormatError, match="max_size must be an integer"):
        admissible_family(SeqGrid(3, 2), max_size)


def test_validate_partition():
    g = GroundSet(["a", "b"])
    blocks = validate_partition(g, [["b"], ["a"]])
    assert blocks == [("b",), ("a",)]
    with pytest.raises(InvalidPartitionError):
        validate_partition(g, [["a"]])
    with pytest.raises(InvalidPartitionError):
        validate_partition(g, [["a", "b"], ["b"]])
    with pytest.raises(InvalidPartitionError):
        validate_partition(g, [["a", "b"], []])
    with pytest.raises(InvalidPartitionError):
        validate_partition(g, [["a", "b", "z"]])


def _reference_validate_partition(ground, blocks, name="partition"):
    """validate_partition as a plain walk over the blocks, atom by atom."""
    canon = [canonical_member(b) for b in blocks]
    seen = {}
    for i, block in enumerate(canon):
        if not block:
            raise InvalidPartitionError(f"{name} block {i} is empty")
        for a in block:
            if a not in ground:
                raise InvalidPartitionError(f"{name} block {i} contains unknown atom {a!r}")
            if a in seen:
                raise InvalidPartitionError(f"{name} blocks {seen[a]} and {i} both contain {a!r}")
            seen[a] = i
    missing = next((a for a in ground.elements if a not in seen), None)
    if missing is not None:
        raise InvalidPartitionError(f"{name} does not cover atom {missing!r}")
    return canon


@st.composite
def _partitions(draw):
    """A partition of a small ground in random block order, then up to two
    faults: an empty block, an unknown atom, a repeated atom, a missing atom."""
    atoms = [f"a{i}" for i in range(draw(st.integers(1, 8)))]
    perm = draw(st.permutations(atoms))
    cuts = sorted(draw(st.sets(st.integers(1, len(atoms)), max_size=len(atoms))) - {len(atoms)})
    blocks = [list(perm[i:j]) for i, j in zip([0, *cuts], [*cuts, len(atoms)])]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["empty", "unknown", "repeat", "missing"]))
        i = draw(st.integers(0, len(blocks) - 1))
        if fault == "empty":
            blocks.insert(i, [])
        elif fault == "unknown":
            blocks[i].append("zz")
        elif fault == "repeat":
            blocks[i].append(draw(st.sampled_from(atoms)))
        elif blocks[i]:
            blocks[i].pop(draw(st.integers(0, len(blocks[i]) - 1)))
    return GroundSet(atoms), blocks


@settings(max_examples=300, deadline=None)
@given(_partitions())
def test_validate_partition_matches_reference(case):
    ground, blocks = case
    try:
        expected = _reference_validate_partition(ground, blocks, name="gamma_d")
    except InvalidPartitionError as exc:
        with pytest.raises(InvalidPartitionError) as got:
            validate_partition(ground, blocks, name="gamma_d")
        assert str(got.value) == str(exc)
        return
    assert validate_partition(ground, blocks, name="gamma_d") == expected


def test_qe_search_finds_witness():
    g = SeqGrid(3, 1)
    fam, _ = admissible_family(g, max_size=3)
    atoms = fam.ground.elements
    witness = qe_partition_search(fam, [[a] for a in atoms], [list(atoms)], 3)
    assert witness is not None
    assert witness.s == ("0", "1", "2")
    assert witness.n0 == 0
    assert all(c == 1 for c in witness.per_d_counts.values())


def test_qe_search_one_block_d_blocks_everything():
    g = SeqGrid(3, 1)
    fam, _ = admissible_family(g, max_size=3)
    atoms = fam.ground.elements
    # every member with >= 2 atoms hits the single d-block twice
    assert qe_partition_search(fam, [list(atoms)], [[a] for a in atoms], 2) is None


def test_qe_search_threshold_above_member_size():
    g = SeqGrid(3, 1)
    fam, _ = admissible_family(g, max_size=2)
    atoms = fam.ground.elements
    assert qe_partition_search(fam, [[a] for a in atoms], [list(atoms)], 4) is None


@pytest.mark.parametrize("threshold", [0, -3])
def test_qe_search_rejects_threshold_below_one(threshold):
    fam, _ = admissible_family(SeqGrid(3, 1), max_size=2)
    atoms = fam.ground.elements
    with pytest.raises(InvalidPartitionError, match="threshold must be at least 1"):
        qe_partition_search(fam, [[a] for a in atoms], [list(atoms)], threshold)


@pytest.mark.parametrize("threshold", [1.5, 2.0, True])
def test_qe_search_rejects_non_integer_threshold(threshold):
    fam, _ = admissible_family(SeqGrid(3, 1), max_size=2)
    atoms = fam.ground.elements
    with pytest.raises(InvalidPartitionError, match="threshold must be an integer"):
        qe_partition_search(fam, [[a] for a in atoms], [list(atoms)], threshold)


def test_eberleinize_rejects_boolean_stratum():
    fam = SetFamily(GroundSet(["a", "b"]), [("a",), ("a", "b")])
    with pytest.raises(MissingStratumError, match="must be a positive integer, got True"):
        eberleinize(fam, {("a",): True, ("a", "b"): True})


def test_eberleinize_rejects_strata_for_non_members():
    fam, strata = admissible_family(SeqGrid(3, 1), max_size=2)
    with pytest.raises(MissingStratumError, match="not a family member"):
        eberleinize(fam, {**strata, ("zz",): 3})


def test_qe_search_picks_least_n0():
    g = SeqGrid(3, 1)
    fam, _ = admissible_family(g, max_size=2)
    atoms = fam.ground.elements
    w = qe_partition_search(fam, [[a] for a in atoms], [["0", "1"], ["2"]], 1)
    assert w is not None and w.n0 == 0


def test_eberleinize_weights():
    g = SeqGrid(5, 3)
    fam, strata = admissible_family(g, max_size=2)
    weighted = eberleinize(fam, strata)
    assert len(weighted) == len(fam)
    for w, m in zip(weighted, fam.members):
        n = strata[m]
        assert all(w.weight(a) * n == 1 for a in m)
    with pytest.raises(MissingStratumError):
        eberleinize(fam, {})


def test_saturation_two_star():
    res = saturation_partition(
        GroundSet(["g1", "g2", "g3"]),
        GroundSet(["d1", "d2"]),
        {"d1": {"g1", "g2"}, "d2": {"g3"}},
    )
    assert res.gamma_blocks == (("g1", "g2"), ("g3",))
    assert res.delta_blocks == (("d1",), ("d2",))
    assert res.block_count() == 2


def test_saturation_chain_merges():
    res = saturation_partition(
        GroundSet(["g1", "g2", "g3"]),
        GroundSet(["d1", "d2"]),
        {"d1": {"g1", "g2"}, "d2": {"g2", "g3"}},
    )
    assert res.block_count() == 1
    assert res.gamma_blocks == (("g1", "g2", "g3"),)
    assert res.delta_blocks == (("d1", "d2"),)


def test_saturation_errors():
    with pytest.raises(EmptySupportError):
        saturation_partition(GroundSet(["g1"]), GroundSet(["d1"]), {"d1": set()})
    with pytest.raises(GroundMismatchError):
        saturation_partition(GroundSet(["g1"]), GroundSet(["d1"]), {"d1": {"gX"}})
    with pytest.raises(GroundMismatchError):
        saturation_partition(
            GroundSet(["g1"]), GroundSet(["d1"]), {"d1": {"g1"}, "dx": {"g1"}}
        )
    with pytest.raises(EmptySupportError):
        saturation_partition(GroundSet(["g1"]), GroundSet(["d1"]), {"dx": {"g1"}})
    with pytest.raises(UncoveredGammaError):
        saturation_partition(
            GroundSet(["g1", "g2"]), GroundSet(["d1"]), {"d1": {"g1"}}
        )


def test_saturation_orthogonality():
    res = saturation_partition(
        GroundSet(["g1", "g2", "g3", "g4"]),
        GroundSet(["d1", "d2", "d3"]),
        {"d1": {"g1"}, "d2": {"g2", "g3"}, "d3": {"g4"}},
    )
    assert res.block_count() == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_admissibility_is_hereditary(seed):
    rnd = random.Random(seed)
    g = SeqGrid(3, 2)
    fam, _ = admissible_family(g, max_size=3)
    m = rnd.choice(fam.members)
    subset = [a for a in m if rnd.random() < 0.5]
    assert isinstance(is_admissible(g, subset), AdmissibleSet)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_admissible_family_members_verify(seed):
    rnd = random.Random(seed)
    g = SeqGrid(4, 2)
    fam, strata = admissible_family(g, max_size=3)
    m = rnd.choice(fam.members)
    res = is_admissible(g, m)
    assert isinstance(res, AdmissibleSet)
    if len(m) >= 2:
        assert res.characteristic == strata[m]
