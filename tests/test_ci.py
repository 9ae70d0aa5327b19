import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsnorm.ci import (
    check_ci,
    check_condition_b,
    check_condition_c,
    disjointify,
    identity_envelope,
    report_to_dict,
)
from jsnorm.core import FiniteTree, GroundSet, SetFamily, dyadic_tree, tree_segments
from jsnorm.errors import DecompositionError, InvalidEnvelopeError, ResourceLimitError


def path_family():
    return tree_segments(FiniteTree({"a": None, "b": "a", "c": "b"}))


def test_condition_b_path_split():
    d = check_condition_b(path_family(), ("a", "b", "c"), ("b",))
    assert d.parts == (("a",), ("c",))
    assert d.union() == {"a", "c"}


def test_condition_b_subset_is_empty_decomposition():
    d = check_condition_b(path_family(), ("a", "b"), ("a", "b"))
    assert d.parts == ()


def test_condition_b_failure_returns_none():
    g = GroundSet(["a", "b", "c"])
    fam = SetFamily(g, [("a", "b"), ("a",), ("c",)])
    assert check_condition_b(fam, ("a", "b"), ("a",)) is None


def test_condition_c_passes_on_segments():
    fam = tree_segments(dyadic_tree(2))
    res = check_condition_c(fam)
    assert res.passed and res.witness is None


def test_check_ci_passes_and_reports():
    g = GroundSet(["a", "b", "c"])
    fam = SetFamily(g, [("a", "b"), ("b", "c"), ("a",), ("b",), ("c",)])
    report = check_ci(fam)
    assert report.passed
    payload = report_to_dict(report)
    assert payload["passed"] is True
    assert payload["envelope"] == "identity"
    assert payload["max_trace_size"] >= 1


def test_check_ci_missing_singleton_fails_condition_a():
    g = GroundSet(["a", "b", "c"])
    fam = SetFamily(g, [("a", "b"), ("b", "c"), ("b",), ("c",)])
    report = check_ci(fam)
    assert not report.passed
    assert not report.condition_a.passed
    assert report.condition_a.witness == {"atom": "a"}


def test_check_ci_deleted_singleton_fails_with_witness():
    # non-singleton deletions cannot break segments: singletons cover any
    # difference, so only a singleton deletion flips the report
    fam = tree_segments(dyadic_tree(2))
    victim = ("1:0",)
    reduced = SetFamily(fam.ground, [m for m in fam.members if m != victim])
    report = check_ci(reduced)
    assert not report.passed
    assert report.condition_a.witness == {"atom": "1:0"}


def test_check_ci_deleted_cover_member_fails_condition_b():
    g = GroundSet(["a", "b", "c"])
    base = SetFamily(g, [("a", "b"), ("b", "c"), ("a",), ("b",), ("c",)])
    assert check_ci(base).passed
    reduced = SetFamily(g, [m for m in base.members if m != ("a",)])
    report = check_ci(reduced)
    assert not report.passed
    assert not report.condition_b.passed
    w = report.condition_b.witness
    assert check_condition_b(reduced, w["s"], w["t"]) is None


def test_check_ci_segments_all_pass():
    for depth in (1, 2, 3):
        assert check_ci(tree_segments(dyadic_tree(depth))).passed


def test_identity_envelope_and_validation():
    g = GroundSet(["a", "b"])
    fam = SetFamily(g, [("a",), ("b",), ("a", "b")])
    env = identity_envelope(fam)
    assert env[("a",)] == ("a",)
    with pytest.raises(InvalidEnvelopeError):
        check_condition_c(fam, envelope={("a",): ("a",)})  # missing members
    with pytest.raises(InvalidEnvelopeError):
        check_condition_c(fam, envelope={m: () for m in fam.members})
    with pytest.raises(InvalidEnvelopeError, match="not a family member"):
        check_condition_c(fam, envelope={**env, ("zz",): ("qq",)})


def test_pair_budget_raises_with_partial_report():
    fam = tree_segments(dyadic_tree(2))
    with pytest.raises(ResourceLimitError) as exc:
        check_ci(fam, pair_budget=3)
    assert exc.value.partial_report is not None


def test_disjointify_golden():
    fam = tree_segments(dyadic_tree(1))
    d = disjointify(fam, [("0:0", "1:0"), ("0:0", "1:1")])
    assert d.parts == (("0:0", "1:0"), ("1:1",))


def test_disjointify_identity_on_disjoint_inputs():
    fam = tree_segments(dyadic_tree(1))
    d = disjointify(fam, [("1:0",), ("1:1",)])
    assert d.parts == (("1:0",), ("1:1",))


def test_disjointify_failure_names_pair():
    g = GroundSet(["a", "b", "c"])
    fam = SetFamily(g, [("a", "b"), ("b", "c")])
    with pytest.raises(DecompositionError) as exc:
        disjointify(fam, [("a", "b"), ("b", "c")])
    assert exc.value.pair is not None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 3), st.integers(1, 5))
def test_disjointify_properties(seed, depth, k):
    rnd = random.Random(seed)
    fam = tree_segments(dyadic_tree(depth))
    inputs = [rnd.choice(fam.members) for _ in range(k)]
    result = disjointify(fam, inputs)
    seen = set()
    for part in result.parts:
        assert part in fam
        for a in part:
            assert a not in seen
            seen.add(a)
        assert any(set(part) <= set(m) for m in inputs)
    assert seen == set().union(*(set(m) for m in inputs))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 3))
def test_condition_b_decomposition_validity(seed, depth):
    rnd = random.Random(seed)
    fam = tree_segments(dyadic_tree(depth))
    s = rnd.choice(fam.members)
    t = rnd.choice(fam.members)
    d = check_condition_b(fam, s, t)
    if d is None:
        return
    target = set(s) - set(t)
    assert d.union() == target
    flat = [a for p in d.parts for a in p]
    assert len(flat) == len(set(flat))
    for p in d.parts:
        assert p in fam
