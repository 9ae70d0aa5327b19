"""Condition (b)/(c) packings from the shared kernel, against the
include-first coverage search they replaced; check_ci's condition (b) loop
against the pair-by-pair public check, with its state budget and work counts;
condition (c)'s level-by-level unions against the frontier loop they replaced."""

import functools
import operator
import random

import pytest

from jsnorm import ci, core
from jsnorm.budgets import Budgets
from jsnorm.core import GroundSet, SetFamily, dyadic_tree, tree_segments
from jsnorm.errors import DecompositionError, ResourceLimitError
from jsnorm.packing import PackingTable


def _max_coverage_packing(cands, target):
    """Include-first DFS over candidates (subsets of target) in list order,
    pruned on the suffix union; the first maximal packing found wins."""
    n = len(cands)
    full = target.bit_count()
    suffix_union = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_union[j] = suffix_union[j + 1] | cands[j][0]

    best_parts, best_mask, best_count = [], 0, 0
    stack_parts = []

    def rec(start, used, count):
        nonlocal best_parts, best_mask, best_count
        if count > best_count:
            best_count, best_parts, best_mask = count, list(stack_parts), used
            if count == full:
                return True
        for j in range(start, n):
            mask, member = cands[j]
            if count + (suffix_union[j] & ~used).bit_count() <= best_count:
                break
            if mask & used:
                continue
            stack_parts.append(member)
            done = rec(j + 1, used | mask, count + mask.bit_count())
            stack_parts.pop()
            if done:
                return True
        return False

    rec(0, 0, 0)
    return best_parts, best_mask


def _dfs_packing(masks, target, state_budget=None):
    """The old per-call candidate scan feeding the include-first search;
    it has no state count, so ``state_budget`` is not read."""
    cands = [(mask, member) for member, mask in masks.by_member.items() if mask and mask & ~target == 0]
    cands.sort(key=lambda c: (-len(c[1]), c[1]))
    parts, covered = _max_coverage_packing(cands, target)
    return tuple(parts), covered


def _random_family(rnd):
    k = rnd.randint(3, 10)
    atoms = [f"a{i}" for i in range(k)]
    members = [[a] for a in atoms if rnd.random() < 0.6]
    # Many members of equal size over few atoms, so optima tie often.
    for _ in range(rnd.randint(1, 30)):
        members.append(rnd.sample(atoms, rnd.randint(1, min(3, k))))
    return SetFamily(GroundSet(atoms), members)


def test_random_packings_match_coverage_search():
    rnd = random.Random(5)
    for _ in range(400):
        family = _random_family(rnd)
        masks = ci._Masks(family)
        full = (1 << len(masks.atoms)) - 1
        for _ in range(8):
            target = rnd.randint(1, full)
            expected = _dfs_packing(masks, target)
            assert masks.packing(target, Budgets.state_budget) == expected
            assert masks.packing(target, Budgets.state_budget) == expected  # read from the shared table


def test_shared_table_in_random_order_matches_fresh_tables():
    # Targets of one family, repeats included, queried in random order on one
    # table: each answer is the one a fresh table gives and the coverage
    # search's, whatever the table already holds.
    rnd = random.Random(8)
    for _ in range(150):
        family = _random_family(rnd)
        shared = ci._Masks(family)
        full = (1 << len(shared.atoms)) - 1
        targets = [rnd.randint(1, full) for _ in range(10)]
        targets += rnd.sample(targets, 3)
        rnd.shuffle(targets)
        for target in targets:
            answer = shared.packing(target, Budgets.state_budget)
            assert answer == ci._Masks(family).packing(target, Budgets.state_budget)
            assert answer == _dfs_packing(shared, target)


def test_table_after_a_raise_gives_the_fresh_answer():
    # A search over the budget stores nothing: the same table, at the exact
    # count of new entries its search needs, returns what a fresh table
    # returns and ends up holding what a table that never raised holds.
    rnd = random.Random(9)
    raised = 0
    for _ in range(150):
        family = _random_family(rnd)
        masks, twin = ci._Masks(family), ci._Masks(family)
        full = (1 << len(masks.atoms)) - 1
        for target in (rnd.randint(1, full) for _ in range(4)):
            before = len(twin.table.best)
            twin.packing(target, Budgets.state_budget)
            need = len(twin.table.best) - before
            if need:
                held = dict(masks.table.best)
                with pytest.raises(ResourceLimitError):
                    masks.packing(target, need - 1)
                assert masks.table.best == held
                raised += 1
            assert masks.packing(target, need) == ci._Masks(family).packing(target, Budgets.state_budget)
            assert masks.table.best == twin.table.best
    assert raised > 300


def _reports(family, rnd, runs):
    out = []
    for _ in range(runs):
        env = {t: rnd.choice([s for s in family.members if set(t) <= set(s)]) for t in family.members}
        for envelope in (None, env):
            report = ci.check_ci(family, envelope, sample_bound=rnd.choice([1, 2, 3]))
            out.append(ci.report_to_dict(report))
        inputs = rnd.sample(family.members, min(len(family.members), rnd.randint(2, 6)))
        try:
            out.append(ci.disjointify(family, inputs).parts)
        except DecompositionError as exc:
            out.append(("fails", exc.pair))
    return out


def _families():
    rnd = random.Random(11)
    fams = []
    for depth in (3, 4):
        full = tree_segments(dyadic_tree(depth))
        fams.append(full)
        for _ in range(3):
            drop = set(rnd.sample(full.members, rnd.randint(1, 3)))
            fams.append(SetFamily(full.ground, [m for m in full.members if m not in drop]))
    fams.extend(_random_family(rnd) for _ in range(20))
    return fams


def test_reports_match_coverage_search(monkeypatch):
    # Dyadic depth 3/4 segment families, reduced ones, random families, each
    # with the identity and a random envelope.
    families = _families()
    new = [_reports(f, random.Random(i), 1) for i, f in enumerate(families)]
    monkeypatch.setattr(ci._Masks, "packing", _dfs_packing)
    old = [_reports(f, random.Random(i), 1) for i, f in enumerate(families)]
    assert new == old
    assert any(not r["passed"] for rs in new for r in rs if isinstance(r, dict))


def _pairwise_condition_b(family, state_budget=Budgets.state_budget, masks=None):
    """Condition (b) through the public one-pair check: every ordered pair
    s != t in member order, stopping at the first pair that fails."""
    masks = masks or ci._Masks(family)
    for s in family.members:
        for t in family.members:
            if s != t and ci.check_condition_b(family, s, t, state_budget=state_budget, _masks=masks) is None:
                return ci.ConditionResult(passed=False, witness={"s": s, "t": t})
    return ci.ConditionResult(passed=True)


def test_condition_b_matches_pairwise_reference():
    # Dyadic depth 1-4, depth 3/4 with a singleton and up to two more members
    # dropped (so (b) fails), random families; identity and random envelopes.
    rnd = random.Random(3)
    families = [tree_segments(dyadic_tree(depth)) for depth in (1, 2, 3, 4)]
    for full in families[2:4]:
        singletons = [m for m in full.members if len(m) == 1]
        for _ in range(3):
            drop = {rnd.choice(singletons), *rnd.sample(full.members, rnd.randint(0, 2))}
            families.append(SetFamily(full.ground, [m for m in full.members if m not in drop]))
    families.extend(_random_family(rnd) for _ in range(30))
    verdicts = []
    for family in families:
        expected = _pairwise_condition_b(family)
        env = {t: rnd.choice([s for s in family.members if set(t) <= set(s)]) for t in family.members}
        for envelope in (None, env):
            assert ci.check_ci(family, envelope, sample_bound=1).condition_b == expected
        verdicts.append(expected.passed)
    assert True in verdicts and False in verdicts


def test_check_ci_state_budget_raises_at_first_pair_over_it(monkeypatch):
    # On depth 4 the first 14 distinct differences add 10 table entries, at
    # most 3 each. The 15th, {1:0..4:0} from the pair (0:0..4:0, 0:0), adds 4,
    # so a budget of 3 raises there and a budget of 4 lets the check through.
    family = tree_segments(dyadic_tree(4))
    targets = []

    def packing(self, target, state_budget, _packing=ci._Masks.packing):
        targets.append(target)
        return _packing(self, target, state_budget)

    monkeypatch.setattr(ci._Masks, "packing", packing)
    reference = ci._Masks(family)
    with pytest.raises(ResourceLimitError) as expected:
        _pairwise_condition_b(family, state_budget=3, masks=reference)
    expected_targets, targets[:] = targets[:], []
    made = []

    class Recording(ci._Masks):
        def __init__(self, family):
            super().__init__(family)
            made.append(self)

    monkeypatch.setattr(ci, "_Masks", Recording)
    with pytest.raises(ResourceLimitError) as exc:
        ci.check_ci(family, state_budget=3)
    assert str(exc.value) == str(expected.value)
    # the same distinct differences were searched, in the same order, and the
    # table holds the same entries: a raise stores nothing
    assert targets == list(dict.fromkeys(expected_targets))
    assert len(targets) == 15
    assert made[0].unmask(targets[-1]) == ("1:0", "2:0", "3:0", "4:0")
    path = made[0].by_member[("0:0", "1:0", "2:0", "3:0", "4:0")]
    assert targets[-1] == path & ~made[0].by_member[("0:0",)]
    assert made[0].table.best == reference.table.best
    assert len(made[0].table.best) == 1 + 10
    assert ci.check_ci(family, state_budget=4).passed


def test_disjointify_state_budget_raises_the_condition_b_error():
    # {0:0, 2:0} is packed by its two singletons over 2 DP states.
    family = tree_segments(dyadic_tree(2))
    path, middle = ("0:0", "1:0", "2:0"), ("1:0",)
    assert ci.check_condition_b(family, path, middle, state_budget=2) is not None
    with pytest.raises(ResourceLimitError) as expected:
        ci.check_condition_b(family, path, middle, state_budget=1)
    with pytest.raises(ResourceLimitError) as exc:
        ci.disjointify(family, [middle, path], state_budget=1)
    assert str(exc.value) == str(expected.value)


def test_condition_b_work_counts(monkeypatch):
    # Counts calls and table entries, not time: condition (b) in check_ci
    # canonicalises no member per pair, each distinct target runs one table
    # search, over the overlap components of the members inside it, a
    # repeated target is a memo hit that never reaches the table, and no
    # state is counted twice.
    family = tree_segments(dyadic_tree(4))
    calls = {"require": 0, "canonical_member": 0}
    targets = []
    searches = []  # (table, target, components searched, new entries counted)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def packing(self, target, state_budget, _packing=ci._Masks.packing):
        targets.append(target)
        return _packing(self, target, state_budget)

    def solve(self, frees, *budget, _solve=PackingTable.solve):
        searches.append((self, targets[-1], list(frees), _solve(self, frees, *budget)))
        return searches[-1][3]

    monkeypatch.setattr(SetFamily, "require", counted("require", SetFamily.require))
    monkeypatch.setattr(core, "canonical_member", counted("canonical_member", core.canonical_member))
    monkeypatch.setattr(ci, "canonical_member", counted("canonical_member", ci.canonical_member))
    monkeypatch.setattr(ci._Masks, "packing", packing)
    monkeypatch.setattr(PackingTable, "solve", solve)
    assert ci.check_ci(family).passed

    assert calls["require"] == 0
    assert calls["canonical_member"] <= len(family.ground)  # condition (a): one per atom
    table = searches[0][0]
    assert all(t is table for t, _, _, _ in searches)  # one table per check
    assert sum(n for _, _, _, n in searches) == len(table.best) - 1
    assert [target for _, target, _, _ in searches] == list(dict.fromkeys(targets))
    assert len(targets) == len(searches) == 341  # condition (c)'s repeats are memo hits
    assert len(table.best) == 1 + 129  # the 341 distinct targets add 129 entries
    for _, target, comps, _ in searches:
        inside = [m for m in table.masks if m & target == m]
        assert sum(comps) == functools.reduce(operator.or_, comps) == functools.reduce(operator.or_, inside)
        for m in inside:  # each member inside the target lies in one component
            assert [m & c == m for c in comps].count(True) == 1
    assert any(len(comps) > 1 for _, _, comps, _ in searches)
    masks = ci._Masks(family)
    diffs = list(dict.fromkeys(s & ~t for s in masks.member_masks for t in masks.member_masks))
    diffs.remove(0)
    assert targets[: len(diffs)] == diffs  # (b) searches each difference once, in pair order


def test_condition_c_state_budget_on_one_large_member():
    # One 30-atom member over its singletons; at sample_bound 1 its traces
    # leave 29 atoms, which the singletons pack over 29 DP states.
    atoms = [f"a{i:02d}" for i in range(30)]
    family = SetFamily(GroundSet(atoms), [[a] for a in atoms] + [atoms])
    assert ci.check_condition_c(family, sample_bound=1, state_budget=29).passed
    with pytest.raises(ResourceLimitError):
        ci.check_condition_c(family, sample_bound=1, state_budget=28)


def test_interleaved_components_are_searched_apart():
    # k pairs {i, i+k}, all 2k singletons and the whole ground. The pairs
    # interleave in atom order, so one search over a whole difference would
    # need 2^(k+1) - 2 states. Ground∖{a00} holds 17 pairs with their
    # singletons (2 states each) and the lone singleton a18 (1 state).
    k = 18
    atoms = [f"a{i:02d}" for i in range(2 * k)]
    pairs = [(atoms[i], atoms[i + k]) for i in range(k)]
    family = SetFamily(GroundSet(atoms), [[a] for a in atoms] + [list(p) for p in pairs] + [atoms])
    parts = ci.check_condition_b(family, atoms, atoms[:1], state_budget=35)
    assert sorted(parts.parts) == sorted(pairs[1:] + [(atoms[k],)])
    with pytest.raises(ResourceLimitError):
        ci.check_condition_b(family, atoms, atoms[:1], state_budget=34)
    assert ci.check_ci(family, sample_bound=1).passed


def test_tie_weights_are_made_for_reached_members_only(monkeypatch):
    # A family of n members needs n-bit tie weights. The table is built on
    # the first search and makes a weight only for a member some search
    # reaches; check_ci's pair guard runs before any of it.
    n = 1000
    atoms = [f"a{i:04d}" for i in range(n)]
    family = SetFamily(GroundSet(atoms), [[a] for a in atoms] + [atoms[i : i + 2] for i in range(n - 1)])
    masks = ci._Masks(family)
    assert "table" not in vars(masks)
    parts, covered = masks.packing(0b111, Budgets.state_budget)  # a0000..a0002
    assert parts == (("a0000", "a0001"), ("a0002",)) and covered == 0b111
    assert len(masks.table.weights) == 5  # three singletons, two pairs
    monkeypatch.setattr(ci, "_Masks", None)
    with pytest.raises(ResourceLimitError, match="ordered pairs"):
        ci.check_ci(family)


def _frontier_condition_c(family, envelope=None, sample_bound=Budgets.sample_bound):
    """Condition (c) by the frontier loop that enumerated its unions before
    they were built level by level: it re-expands frontier entries already in
    ``unions`` and builds one level past ``sample_bound``, but keeps the same
    unions in the same order with the same first-found tuples."""
    env = envelope or ci.identity_envelope(family)
    masks = ci._Masks(family)
    env_masks = [(t, masks.by_member[core.canonical_member(env[t])]) for t in family.members]
    for s in family.members:
        s_mask = masks.by_member[s]
        traces = {}
        for t, sm in env_masks:
            r = s_mask & sm
            if r not in traces:
                traces[r] = t
        unions = {}
        frontier = {r: (t,) for r, t in traces.items()}
        for _ in range(sample_bound):
            unions_next = {}
            for u, rep in frontier.items():
                if u not in unions:
                    unions[u] = rep
                for r, t in traces.items():
                    nu = u | r
                    if nu not in unions and nu not in unions_next:
                        unions_next[nu] = rep + (t,)
            frontier = unions_next
            if not frontier:
                break
        for u, rep in unions.items():
            target = s_mask & ~u
            if target == 0:
                continue
            parts, covered = masks.packing(target, Budgets.state_budget)
            residual = (target & ~covered).bit_count()
            if residual:
                witness = {
                    "s": s,
                    "tuple": list(rep),
                    "uncovered": masks.unmask(target & ~covered),
                    "packing": [list(p) for p in parts],
                    "residual": residual,
                }
                return ci.ConditionResult(passed=False, witness=witness)
    return ci.ConditionResult(passed=True)


def _gap_family(rnd):
    """Every singleton but {a0}, the whole ground, a few pairs {a0, ai} and
    members off a0: a residual holding a0 fails once the traces of a tuple
    cut every pair's partner, which often takes two or three of them."""
    atoms = [f"a{i}" for i in range(rnd.randint(5, 9))]
    members = [[a] for a in atoms[1:]] + [atoms]
    members += [[atoms[0], a] for a in rnd.sample(atoms[1:], rnd.randint(2, 4))]
    members += [rnd.sample(atoms[1:], rnd.randint(2, 3)) for _ in range(rnd.randint(2, 8))]
    return SetFamily(GroundSet(atoms), members)


def test_condition_c_matches_frontier_reference():
    # Random families, gap families and depth-4 segment families with one
    # singleton and up to two more members dropped; identity and random
    # envelopes, tuples of length 1-4. The witness names the first failing
    # union and its tuple, so any change to the order the unions are built
    # in shows here.
    rnd = random.Random(12)
    full = tree_segments(dyadic_tree(4))
    singletons = [m for m in full.members if len(m) == 1]
    families = [_random_family(rnd) for _ in range(80)] + [_gap_family(rnd) for _ in range(60)]
    for _ in range(6):
        drop = {rnd.choice(singletons), *rnd.sample(full.members, rnd.randint(0, 2))}
        families.append(SetFamily(full.ground, [m for m in full.members if m not in drop]))
    results = []
    for family in families:
        env = {t: rnd.choice([s for s in family.members if set(t) <= set(s)]) for t in family.members}
        for envelope in (None, env):
            sample_bound = rnd.randint(1, 4)
            result = ci.check_condition_c(family, envelope, sample_bound=sample_bound)
            assert result == _frontier_condition_c(family, envelope, sample_bound)
            results.append(result)
    failed = [r.witness for r in results if not r.passed]
    assert len(failed) > 100 and sum(len(w["tuple"]) > 1 for w in failed) > 10
    assert any(len(w["tuple"]) > 2 for w in failed)
    assert all(not ci.check_condition_c(f).passed for f in families[-6:])


def test_max_trace_size_counts_trace_sets():
    # max_trace_size is the largest |L_s| of core.trace_set, whatever the
    # envelope, and 0 on a family with no members.
    rnd = random.Random(13)
    families = [tree_segments(dyadic_tree(depth)) for depth in (1, 2, 3)]
    families.extend(_random_family(rnd) for _ in range(40))
    for family in families:
        expected = max(len(core.trace_set(family, s)) for s in family.members)
        env = {t: rnd.choice([s for s in family.members if set(t) <= set(s)]) for t in family.members}
        for envelope in (None, env):
            assert ci.check_ci(family, envelope, sample_bound=1).max_trace_size == expected
    empty = ci.check_ci(SetFamily(GroundSet(["a"]), []))
    assert empty.max_trace_size == 0 and not empty.condition_a.passed and empty.condition_c.passed
