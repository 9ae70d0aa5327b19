"""Condition (b)/(c) packings from the shared kernel, against the
include-first coverage search they replaced; check_ci's condition (b) loop
against the pair-by-pair public check, with its state budget and work counts;
condition (c)'s level-by-level unions against the frontier loop they replaced."""

import functools
import operator
import random
import sys
import tracemalloc

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


def _pairwise_condition_b(family, state_budget=Budgets.state_budget, masks=None, skip_singles=False):
    """Condition (b) through the public one-pair check: every ordered pair
    s != t in member order, stopping at the first pair that fails. With
    ``skip_singles``, a pair whose difference lies inside the singletons is
    taken as covered without a check, as ``check_ci`` takes it."""
    masks = masks or ci._Masks(family)
    for s in family.members:
        for t in family.members:
            if skip_singles and not masks.by_member[s] & ~masks.by_member[t] & ~masks.singles:
                continue
            if s != t and ci.check_condition_b(family, s, t, state_budget=state_budget, _masks=masks) is None:
                return ci.ConditionResult(passed=False, witness={"s": s, "t": t})
    return ci.ConditionResult(passed=True)


def _split_root(depth):
    """Dyadic segments with the root 0:0 split into atoms 0:0a and 0:0b that
    occur only together. Neither has its singleton, so ``check_ci`` searches
    every difference that holds the root; the family is the intact one with
    one atom doubled, so conditions (b) and (c) pass."""
    full = tree_segments(dyadic_tree(depth))

    def split(atoms):
        return [b for a in atoms for b in ((a + "a", a + "b") if a == "0:0" else (a,))]

    return SetFamily(GroundSet(split(full.ground.elements)), [split(m) for m in full.members])


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
    # On the split depth-4 family only the 155 distinct differences that hold
    # the root are searched. The first 85 add 93 table entries, at most 5
    # each. The 86th, the member {0:0a, 0:0b, 1:1, 2:2, 3:4, 4:8} itself
    # (from a pair with a disjoint t), adds 6, so a budget of 5 raises there
    # and a budget of 6 lets the check through.
    family = _split_root(4)
    targets = []

    def packing(self, target, state_budget, _packing=ci._Masks.packing):
        targets.append(target)
        return _packing(self, target, state_budget)

    monkeypatch.setattr(ci._Masks, "packing", packing)
    reference = ci._Masks(family)
    with pytest.raises(ResourceLimitError) as expected:
        _pairwise_condition_b(family, state_budget=5, masks=reference, skip_singles=True)
    expected_targets, targets[:] = targets[:], []
    made = []

    class Recording(ci._Masks):
        def __init__(self, family):
            super().__init__(family)
            made.append(self)

    monkeypatch.setattr(ci, "_Masks", Recording)
    with pytest.raises(ResourceLimitError) as exc:
        ci.check_ci(family, state_budget=5)
    assert str(exc.value) == str(expected.value)
    # the same distinct differences were searched, in the same order, and the
    # table holds the same entries: a raise stores nothing
    assert targets == list(dict.fromkeys(expected_targets))
    assert len(targets) == 86
    assert all(target & ~made[0].singles for target in targets)
    assert made[0].unmask(targets[-1]) == ("0:0a", "0:0b", "1:1", "2:2", "3:4", "4:8")
    assert made[0].table.best == reference.table.best
    assert len(made[0].table.best) == 1 + 93
    report = ci.check_ci(family, state_budget=6)
    assert report.condition_b.passed and report.condition_c.passed
    assert report.condition_a.witness == {"atom": "0:0a"}


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
    # canonicalises no member per pair, each distinct target that holds an
    # atom without its singleton runs one table search, over the overlap
    # components of the members inside it, a repeated target is a memo hit
    # that never reaches the table, and no state is counted twice.
    family = _split_root(4)
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
    assert ci.check_ci(family).condition_b.passed

    assert calls["require"] == 0
    assert calls["canonical_member"] <= len(family.ground)  # condition (a): one per atom
    table = searches[0][0]
    assert all(t is table for t, _, _, _ in searches)  # one table per check
    assert sum(n for _, _, _, n in searches) == len(table.best) - 1
    assert [target for _, target, _, _ in searches] == list(dict.fromkeys(targets))
    assert len(targets) == len(searches) == 171  # condition (c)'s repeats are memo hits
    assert len(table.best) == 1 + 160  # the 171 distinct targets add 160 entries
    for _, target, comps, _ in searches:
        inside = [m for m in table.masks if m & target == m]
        assert sum(comps) == functools.reduce(operator.or_, comps) == functools.reduce(operator.or_, inside)
        for m in inside:  # each member inside the target lies in one component
            assert [m & c == m for c in comps].count(True) == 1
    assert any(len(comps) > 1 for _, _, comps, _ in searches)
    masks = ci._Masks(family)
    diffs = list(dict.fromkeys(s & ~t for s in masks.member_masks for t in masks.member_masks))
    searched = [d for d in diffs if d & ~masks.singles]  # 155 of the 325 nonzero differences
    assert len(diffs) - 1 == 325 and len(searched) == 155
    assert targets[: len(searched)] == searched  # (b) searches each such difference once, in pair order
    assert all(target & ~masks.singles for target in targets)  # so does (c)


def _big_over_pairs(m):
    """Members {a00, a01}, {a02, a03}, ... and one member of all m atoms, with
    no singletons, so every condition (c) target is searched."""
    atoms = [f"a{i:03d}" for i in range(m)]
    return SetFamily(GroundSet(atoms), [atoms[i : i + 2] for i in range(0, m, 2)] + [atoms])


def test_condition_c_state_budget_on_one_large_member():
    # One 30-atom member over 15 disjoint pairs. At sample_bound 1 its trace
    # by the first pair leaves 28 atoms, which the 14 other pairs pack over
    # 28 DP states, 2 per overlap component; every other search adds at most 2.
    family = _big_over_pairs(30)
    assert ci.check_condition_c(family, sample_bound=1, state_budget=28).passed
    with pytest.raises(ResourceLimitError):
        ci.check_condition_c(family, sample_bound=1, state_budget=27)


def test_condition_c_checks_each_union_as_it_is_made():
    # The big member of 120 atoms over 60 pairs has C(60, <=3) = 36,051
    # distinct unions at sample_bound 3. Checking each one where it is made
    # stops at the 101st check, before most of them exist.
    family = _big_over_pairs(120)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="trace budget 100"):
            ci.check_condition_c(family, trace_budget=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_condition_c_holds_at_most_trace_budget_unions(monkeypatch):
    # At every check, the member being checked holds only the unions made so
    # far, the one being checked included: the loop's ``unions`` of earlier
    # levels plus ``grown`` of this one.
    family = _big_over_pairs(40)
    held = []

    def covered(self, target, state_budget, _covered=ci._Masks.covered):
        loop = sys._getframe(1).f_locals
        held.append(len(loop["unions"]) + len(loop["grown"]))
        return _covered(self, target, state_budget)

    monkeypatch.setattr(ci._Masks, "covered", covered)
    for budget in (5, 50, 500):
        held.clear()
        with pytest.raises(ResourceLimitError):
            ci.check_condition_c(family, trace_budget=budget)
        assert len(held) == budget and max(held) <= budget
    # Each of the 20 pairs checks 2 unions, and the big member 1 + 20 + 190 +
    # 1,140 = 1,351 (itself, then unions of 1-3 pairs): 1,391 checks in all.
    held.clear()
    assert ci.check_condition_c(family, trace_budget=1391).passed
    assert len(held) == 1391 and max(held) == 1351
    with pytest.raises(ResourceLimitError):
        ci.check_condition_c(family, trace_budget=1390)


def test_intact_family_is_never_searched(monkeypatch):
    # Every atom has its singleton, so every (b) and (c) target is covered by
    # singletons: no table is built and no condition (c) union is made.
    family = tree_segments(dyadic_tree(4))
    made = []

    class Recording(ci._Masks):
        def __init__(self, family):
            super().__init__(family)
            made.append(self)

    monkeypatch.setattr(ci, "_Masks", Recording)
    monkeypatch.setattr(PackingTable, "__init__", None)
    env = {t: max((s for s in family.members if set(t) <= set(s)), key=len) for t in family.members}
    for envelope in (None, env):
        report = ci.check_ci(family, envelope, trace_budget=1)
        assert report.passed and "table" not in vars(made[-1])


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
