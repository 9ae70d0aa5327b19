import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsnorm.budgets import Budgets
from jsnorm.ci import (
    CiReport,
    ConditionResult,
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


def _exactly_covered(target, masks):
    """Whether pairwise disjoint masks inside ``target`` cover it exactly."""
    if not target:
        return True
    low = target & -target
    return any(_exactly_covered(target & ~m, masks) for m in masks if m & low and not m & ~target)


def _packings(target, masks, start=0, used=0):
    """Every index set of pairwise disjoint masks inside ``target``, with its union."""
    yield (), used
    for i in range(start, len(masks)):
        m = masks[i]
        if not m & ~target and not m & used:
            for rest, union in _packings(target, masks, i + 1, used | m):
                yield (i,) + rest, union


def _brute_force_report(family, envelope, sample_bound):
    """check_ci's report from its definitions, searching every target:
    condition (b) on each pair s != t in member order; condition (c) on each
    tuple of 1..sample_bound members in lexicographic order, its union taken
    the first time it appears, the witness packing being the largest
    coverage, ties to the packing holding the smallest index in candidate
    order (larger members first, then canonical order)."""
    atoms = sorted(family.ground.elements)
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    mask = {m: sum(bit[a] for a in m) for m in family.members}
    masks = list(mask.values())
    missing = next((a for a in atoms if (a,) not in family), None)
    cond_a = ConditionResult(passed=missing is None, witness=None if missing is None else {"atom": missing})
    cond_b = next(
        (
            ConditionResult(passed=False, witness={"s": s, "t": t})
            for s in family.members
            for t in family.members
            if not _exactly_covered(mask[s] & ~mask[t], masks)
        ),
        ConditionResult(passed=True),
    )
    env = envelope or identity_envelope(family)
    order = sorted(family.members, key=lambda m: (-len(m), m))
    cond_c = ConditionResult(passed=True)
    for s in family.members:
        seen = set()
        for k in range(1, sample_bound + 1):
            for tup in itertools.product(family.members, repeat=k):
                u = functools.reduce(operator.or_, (mask[s] & mask[env[t]] for t in tup))
                target = mask[s] & ~u
                if u in seen or _exactly_covered(target, masks):
                    seen.add(u)
                    continue
                n = len(order)
                picked, covered = min(
                    _packings(target, [mask[m] for m in order]),
                    key=lambda p: (-p[1].bit_count(), [i not in p[0] for i in range(n)]),
                )
                cond_c = ConditionResult(
                    passed=False,
                    witness={
                        "s": s,
                        "tuple": list(tup),
                        "uncovered": tuple(a for a in atoms if bit[a] & target & ~covered),
                        "packing": [list(order[i]) for i in picked],
                        "residual": (target & ~covered).bit_count(),
                    },
                )
                break
            if not cond_c.passed:
                break
        if not cond_c.passed:
            break
    traces = [len({mask[s] & m for m in masks}) for s in family.members]
    return CiReport(cond_a, cond_b, cond_c, max(traces, default=0), envelope is None)


@st.composite
def _small_families(draw):
    atoms = [f"a{i}" for i in range(draw(st.integers(2, 5)))]
    singles = [[a] for a in atoms if draw(st.booleans())]
    members = draw(st.lists(st.lists(st.sampled_from(atoms), min_size=2, unique=True), max_size=7))
    family = SetFamily(GroundSet(atoms), singles + members)
    envelope = None
    if draw(st.booleans()):
        envelope = {t: draw(st.sampled_from([s for s in family.members if set(t) <= set(s)])) for t in family.members}
    return family, envelope


@settings(max_examples=300, deadline=None)
@given(_small_families())
def test_check_ci_matches_brute_force(case):
    # Families of 2-5 atoms, each singleton in or out, with or without an
    # envelope, under the default budgets: a target inside the singletons is
    # never searched, and the report is the one every search would give.
    family, envelope = case
    assert check_ci(family, envelope) == _brute_force_report(family, envelope, Budgets.sample_bound)


def test_reduced_families_keep_their_witnesses():
    # Reports of families with atoms outside the singletons, pinned: leaving
    # targets inside the singletons unsearched must not move a witness.
    atoms = [f"a{i}" for i in range(7)]
    gap = SetFamily(
        GroundSet(atoms),
        [atoms, ["a0", "a4"], ["a0", "a6"], ["a1"], ["a1", "a5"], ["a1", "a5", "a6"], ["a2"], ["a2", "a4"]]
        + [["a3"], ["a4"], ["a5"], ["a6"]],
    )
    assert report_to_dict(check_ci(gap)) == {
        "condition_a": {"passed": False, "witness": {"atom": "a0"}},
        "condition_b": {"passed": False, "witness": {"s": ["a0", "a4"], "t": ["a2", "a4"]}},
        "condition_c": {
            "passed": False,
            "witness": {
                "s": atoms,
                "tuple": [("a1", "a5", "a6"), ("a2", "a4")],
                "uncovered": ["a0"],
                "packing": [["a3"]],
                "residual": 1,
            },
        },
        "envelope": "identity",
        "max_trace_size": 12,
        "passed": False,
    }
    full = tree_segments(dyadic_tree(3))
    reduced = SetFamily(full.ground, [m for m in full.members if m not in {("2:1",), ("1:0", "2:1")}])
    payload = report_to_dict(check_ci(reduced))
    assert payload["condition_b"]["witness"] == {"s": ["0:0", "1:0", "2:1"], "t": ["0:0"]}
    assert payload["condition_c"]["witness"] == {
        "s": ["0:0", "1:0", "2:1"],
        "tuple": [("0:0",)],
        "uncovered": ["2:1"],
        "packing": [["1:0"]],
        "residual": 1,
    }
