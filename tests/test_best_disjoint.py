"""The packing kernel behind the norms, against the include-first search it
replaced: every packing keeps the first optimum in candidate index order."""

import math
import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from jsnorm.core import FiniteTree, FinVector, GroundSet, SetFamily, WeightedSet, sort_members, tree_segments
from jsnorm.norm import norm_oracle, norm_weighted, weighted_eval
from jsnorm.packing import pack
from jsnorm.talagrand import SeqGrid, admissible_family, eberleinize


def _include_first_dfs(masks, values):
    """Include-first DFS per overlap component, pruned on suffix square sums;
    keeps the first optimum in index order."""
    n = len(masks)
    comp_of = [-1] * n
    comps = []
    for i in range(n):
        if comp_of[i] >= 0:
            continue
        comp, queue = [i], [i]
        comp_of[i] = len(comps)
        while queue:
            a = queue.pop()
            for b in range(n):
                if comp_of[b] < 0 and masks[a] & masks[b]:
                    comp_of[b] = len(comps)
                    comp.append(b)
                    queue.append(b)
        comps.append(sorted(comp))
    total, chosen = 0, []
    for comp in comps:
        k = len(comp)
        squares = [values[i] * values[i] for i in comp]
        suffix = [0] * (k + 1)
        for j in range(k - 1, -1, -1):
            suffix[j] = suffix[j + 1] + squares[j]
        best, best_pick, pick = 0, [], []

        def rec(start, used, cur):
            nonlocal best, best_pick
            if cur > best:
                best, best_pick = cur, list(pick)
            for j in range(start, k):
                if cur + suffix[j] <= best:
                    return
                m = masks[comp[j]]
                if m & used:
                    continue
                pick.append(comp[j])
                rec(j + 1, used | m, cur + squares[j])
                pick.pop()

        rec(0, 0, 0)
        total += best
        chosen.extend(best_pick)
    return total, sorted(chosen)


def _best_disjoint(masks, values):
    """Max Σ values[i]² over disjoint masks, first optimum in index order."""
    return pack(masks, [v * v for v in values])


def _eberleinized(branching, length, max_size):
    grid = SeqGrid(branching, length)
    family, strata = admissible_family(grid, max_size)
    return grid, eberleinize(family, strata)


def test_random_packings_match_include_first_search():
    rnd = random.Random(31)
    for _ in range(600):
        k = rnd.randint(1, 14)
        n = rnd.randint(0, 24)
        if rnd.random() < 0.5:
            masks = [1 << rnd.randrange(k) | 1 << rnd.randrange(k) for _ in range(n)]
        else:
            masks = [rnd.randint(1, (1 << k) - 1) for _ in range(n)]
        # Small values force ties, so the tie-break order is exercised too.
        values = [rnd.choice([-3, -2, -1, 1, 1, 2, 2, 3, 5]) for _ in range(n)]
        assert _best_disjoint(masks, values) == _include_first_dfs(masks, values)


def test_ties_keep_the_first_optimum_in_index_order():
    # 5² ties 3² + 4²: whichever optimum comes first in index order wins.
    for masks, values, picked in [
        ([0b011, 0b001, 0b010, 0b100], [5, 3, 4, 1], [0, 3]),
        ([0b001, 0b010, 0b011, 0b100], [3, 4, 5, 1], [0, 1, 3]),
    ]:
        assert _best_disjoint(masks, values) == (26, picked)
        assert _include_first_dfs(masks, values) == (26, picked)


def _undominated(supports, values, supp):
    """Indices of the candidates that no other candidate dominates. j
    dominates i when both have the same trace on ``supp``, j's support lies
    inside i's and |value_j| >= |value_i|; of exact equals the earlier one
    dominates."""
    supp = set(supp)

    def dominates(j, i):
        a, b = set(supports[j]), set(supports[i])
        if a & supp != b & supp or not a <= b or abs(values[j]) < abs(values[i]):
            return False
        return a != b or abs(values[j]) != abs(values[i]) or j < i

    n = len(values)
    return [i for i in range(n) if not any(dominates(j, i) for j in range(n) if j != i)]


def _weighted_first_optimum(sets, phi):
    """``norm_weighted``'s value and witness by the include-first search on
    full support masks, over the sets with a nonzero value that no other
    set dominates, in set order."""
    cands = [g for g in sets if weighted_eval(g, phi) != 0]
    values = [weighted_eval(g, phi) for g in cands]
    keep = _undominated([g.support for g in cands], values, phi.support)
    denom = math.lcm(1, *(values[i].denominator for i in keep))
    bit = {a: 1 << i for i, a in enumerate(phi.ground.elements)}
    masks = [sum(bit[a] for a in cands[i].support) for i in keep]
    best, idx = _include_first_dfs(masks, [int(values[i] * denom) for i in keep])
    return Fraction(best, denom * denom), tuple(cands[keep[i]] for i in idx)


def test_norm_weighted_matches_include_first_search():
    grid, sets = _eberleinized(3, 2, 3)
    ground = grid.ground_set()
    rnd = random.Random(4)
    for _ in range(8):
        atoms = rnd.sample(grid.elements, rnd.randint(2, 6))
        phi = FinVector(ground, {a: Fraction(rnd.choice([-4, -2, -1, 1, 3]), rnd.randint(1, 3)) for a in atoms})
        cands = [g for g in sets if weighted_eval(g, phi) != 0]
        values = [weighted_eval(g, phi) for g in cands]
        denom = math.lcm(*(v.denominator for v in values))
        bit = {a: 1 << i for i, a in enumerate(grid.elements)}
        masks = [sum(bit[a] for a in g.support) for g in cands]
        best, _ = _include_first_dfs(masks, [int(v * denom) for v in values])
        res = norm_weighted(sets, phi)
        assert res.norm_sq == Fraction(best, denom * denom)
        assert (res.norm_sq, res.witness) == _weighted_first_optimum(sets, phi)


@st.composite
def _weighted_cases(draw):
    """Up to 8 weighted sets over 6 atoms, drawn from at most 4 supports so
    that supports repeat with different weights, and a vector of small
    signed entries, so that values of zero, ties and dominations are common."""
    ground = GroundSet(list("abcdef"))
    pool = draw(st.lists(st.sets(st.sampled_from(ground.elements), min_size=1, max_size=4), min_size=1, max_size=4))
    weight = st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
    sets = []
    for support in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)):
        sets.append(WeightedSet(ground, {a: draw(weight) for a in sorted(support)}))
    entries = draw(st.dictionaries(st.sampled_from(ground.elements), st.sampled_from([-2, -1, 1, 2]), max_size=6))
    return sets, FinVector(ground, entries)


@settings(max_examples=300, deadline=None)
@given(_weighted_cases())
def test_norm_weighted_matches_exhaustive_packing(case):
    sets, phi = case
    best = 0
    for r in range(len(sets) + 1):
        for picked in combinations(sets, r):
            supports = [set(g.support) for g in picked]
            if sum(map(len, supports)) == len(set().union(*supports)):
                best = max(best, sum(weighted_eval(g, phi) ** 2 for g in picked))
    res = norm_weighted(sets, phi)
    assert res.norm_sq == best
    assert (res.norm_sq, res.witness) == _weighted_first_optimum(sets, phi)


def test_norm_weighted_on_the_eberleinized_3x3_grid():
    # The 1,197 admissible sets of SeqGrid(3, 3), each weighted 1/n on its
    # stratum n. Each set is dominated by its trace, so the DP runs over the
    # support alone; over the full supports it would pass the default state
    # budget from 4 support atoms on. The include-first reference takes
    # seconds up to 12 atoms, and far longer at 16.
    grid, sets = _eberleinized(3, 3, 3)
    assert len(sets) == 1197
    rnd = random.Random(33)
    for k in (4, 6, 9, 12, 16):
        atoms = rnd.sample(grid.elements, k)
        phi = FinVector(grid.ground_set(), {a: rnd.choice([-2, -1, 1, Fraction(1, 2), 3]) for a in atoms})
        res = norm_weighted(sets, phi)
        if k <= 12:
            assert (res.norm_sq, res.witness) == _weighted_first_optimum(sets, phi)
        supports = [set(g.support) for g in res.witness]
        assert sum(map(len, supports)) == len(set().union(*supports))
        assert res.norm_sq == sum(weighted_eval(g, phi) ** 2 for g in res.witness)
        assert res.norm_sq >= max(weighted_eval(g, phi) ** 2 for g in sets)


def test_admissible_norm_matches_include_first_search():
    # Admissible sets of size 2-3 without singletons clash off the support.
    grid = SeqGrid(3, 2)
    family, _ = admissible_family(grid, 3)
    rnd = random.Random(9)
    for _ in range(6):
        atoms = rnd.sample(grid.elements, 5)
        phi = FinVector(family.ground, {a: rnd.choice([-3, -1, 1, 2, 4]) for a in atoms})
        pairs = [m for m in family.members if len(m) > 1 and any(a in phi.entries for a in m)]
        values = [sum(phi.entries.get(a, 0) for a in m) for m in pairs]
        keep = [i for i, v in enumerate(values) if v]
        pairs = [pairs[i] for i in keep]
        values = [int(values[i]) for i in keep]
        bit = {a: 1 << i for i, a in enumerate(grid.elements)}
        masks = [sum(bit[a] for a in m) for m in pairs]
        best, _ = _include_first_dfs(masks, values)
        assert norm_oracle(SetFamily(family.ground, pairs), phi).norm_sq == best


def _first_optimum(family, phi):
    """``norm_oracle``'s value and witness by the include-first search on full
    member masks, over its reduced candidates in member order: the members
    with a nonzero sum, inclusion-minimal among those with the same trace."""
    value = {m: sum(phi.entries.get(a, 0) for a in m) for m in family.members}
    cands = [m for m in family.members if value[m]]
    trace = {m: frozenset(m) & phi.entries.keys() for m in cands}
    reduced = [m for m in cands if not any(trace[o] == trace[m] and set(o) < set(m) for o in cands)]
    bit = {a: 1 << i for i, a in enumerate(family.ground.elements)}
    masks = [sum(bit[a] for a in m) for m in reduced]
    best, idx = _include_first_dfs(masks, [int(value[m]) for m in reduced])
    return best, sort_members(reduced[i] for i in idx)


def _tie_cases(count=400, seed=12):
    """Small segment and admissible families, whole or thinned, with vectors
    of small integers, so that ties between packings are common."""
    rnd = random.Random(seed)
    grid = SeqGrid(3, 2)
    admissible, _ = admissible_family(grid, 3)
    for i in range(count):
        if i % 2:
            family = admissible
        else:
            names = [f"t{j}" for j in range(rnd.randint(3, 7))]
            family = tree_segments(FiniteTree({n: (rnd.choice(names[:j]) if j else None) for j, n in enumerate(names)}))
        ground, members = family.ground, list(family.members)
        if rnd.random() < 0.75:
            members = [m for m in members if rnd.random() < 0.5] or members[:1]
        atoms = rnd.sample(ground.elements, rnd.randint(2, min(6, len(ground.elements))))
        yield SetFamily(ground, members), FinVector(ground, {a: rnd.choice([-2, -1, 1, 2]) for a in atoms})


def test_norm_witness_is_the_first_optimum_in_member_order():
    for family, phi in _tie_cases():
        best, witness = _first_optimum(family, phi)
        res = norm_oracle(family, phi)
        assert (res.norm_sq, res.witness) == (best, witness)


def test_668_set_weighted_family_is_quick_and_exact():
    # The include-first search took 10-20 s on such a vector; the DP's work
    # depends only on the supports.
    grid, sets = _eberleinized(4, 2, 4)
    assert len(sets) == 668
    phi = FinVector(grid.ground_set(), {"00": 3, "13": -2, "21": Fraction(1, 2), "32": 4})
    res = norm_weighted(sets, phi)
    used = set()
    for g in res.witness:
        assert not used & set(g.support)
        used |= set(g.support)
    assert res.norm_sq == sum(weighted_eval(g, phi) ** 2 for g in res.witness)
    assert res.norm_sq >= max(weighted_eval(g, phi) ** 2 for g in sets)
