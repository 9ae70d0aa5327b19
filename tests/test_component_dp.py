"""The packing table's reachable-state DP against the full 2^k table it replaced."""

import random
from fractions import Fraction

import pytest

from jsnorm import packing
from jsnorm.budgets import Budgets
from jsnorm.errors import ResourceLimitError
from jsnorm.core import FiniteTree, FinVector, GroundSet, SetFamily, dyadic_tree, tree_segments
from jsnorm.norm import norm_oracle, norm_tree_dp

# Bound before any test spies on PackingTable.solve.
_solve = packing.PackingTable.solve


def _reachable_dp(masks, weights, free, budget=Budgets.state_budget):
    """A fresh table's (best, picks, count) for ``free``."""
    table = packing.PackingTable(masks, weights)
    count = _solve(table, [free], budget)
    return table.best[free], table.picks(free), count


def _full_table_dp(masks, weights, free):
    """Bottom-up subset DP over every one of the 2^|free| submasks of free."""
    cands_by_low = {}
    for j, m in enumerate(masks):
        if m & free == m:
            cands_by_low.setdefault(m & -m, []).append(j)
    best = {0: 0}
    choice = {}
    sub = 0
    while sub != free:
        sub = (sub - free) & free  # the next submask of free, in increasing order
        low = sub & -sub
        b = best[sub ^ low]
        c = -1
        for j in cands_by_low.get(low, ()):
            m = masks[j]
            if m & sub == m:
                v = weights[j] + best[sub ^ m]
                if v > b:
                    b, c = v, j
        best[sub] = b
        choice[sub] = c
    picked = []
    rest = free
    while rest:
        c = choice[rest]
        if c < 0:
            rest ^= rest & -rest
        else:
            picked.append(c)
            rest ^= masks[c]
    return best[free], picked


@pytest.fixture
def recorded(monkeypatch):
    """Every (masks, weights, free) that norm_oracle hands to a table's solve."""
    calls = []

    def spy(self, frees, *budget):
        calls.extend((list(self.masks), self.weights, free) for free in frees)
        return _solve(self, frees, *budget)

    monkeypatch.setattr(packing.PackingTable, "solve", spy)
    return calls


def test_random_components_match_full_table():
    rnd = random.Random(20)
    for _ in range(300):
        k = rnd.randint(1, 12)
        tmasks = [rnd.randint(1, (1 << k) - 1) for _ in range(rnd.randint(1, 30))]
        # Small squares force ties, so the tie-break order is exercised too.
        squares = [rnd.choice([1, 4, 9, 16, rnd.randint(1, 400)]) for _ in tmasks]
        # the full mask, and a random one that leaves some candidates out
        for free in ((1 << k) - 1, rnd.randint(1, (1 << k) - 1)):
            assert _reachable_dp(tmasks, squares, free)[:2] == _full_table_dp(tmasks, squares, free)


@pytest.mark.parametrize("depth", [3, 4])
def test_dyadic_segment_components_match_full_table(recorded, depth):
    rnd = random.Random(depth)
    family = tree_segments(dyadic_tree(depth))
    atoms = family.ground.elements
    for _ in range(6):
        support = atoms if len(atoms) <= 16 else rnd.sample(atoms, 16)
        entries = {a: Fraction(rnd.choice([-2, -1, 1, 1, 2, 3]), rnd.randint(1, 2)) for a in support}
        norm_oracle(family, FinVector(family.ground, entries))
    assert recorded
    assert max(free.bit_count() for _, _, free in recorded) >= 8
    for masks, squares, free in recorded:
        assert _reachable_dp(masks, squares, free)[:2] == _full_table_dp(masks, squares, free)


def test_full_16_atom_component(recorded):
    names = [f"n{i:02d}" for i in range(16)]
    tree = FiniteTree({n: (names[i - 1] if i else None) for i, n in enumerate(names)})
    family = tree_segments(tree)
    phi = FinVector(family.ground, {n: (-1) ** i * (i % 5 + 1) for i, n in enumerate(names)})
    res = norm_oracle(family, phi)
    assert [free.bit_count() for _, _, free in recorded] == [16]
    masks, squares, free = recorded[0]
    assert _reachable_dp(masks, squares, free)[:2] == _full_table_dp(masks, squares, free)
    assert res.norm_sq == norm_tree_dp(tree, phi).norm_sq


def test_long_component_walks_without_recursion():
    # 2,000 atoms, singletons and adjacent pairs: the walk is 1,000+ states
    # deep, past Python's default recursion limit.
    k = 2000
    tmasks = [1 << i for i in range(k)] + [3 << i for i in range(k - 1)]
    squares = [1] * k + [3] * (k - 1)
    best, picked, _ = _reachable_dp(tmasks, squares, (1 << k) - 1)
    assert best == 3 * (k // 2)
    assert picked == [k + i for i in range(0, k, 2)]


def test_large_support_runs(recorded):
    # A chain peeled from its first atom visits one state per atom, so 1,100
    # support atoms fit the default state budget.
    n = 1100
    names = [f"a{i:04d}" for i in range(n)]
    members = [[a] for a in names] + [[names[i], names[i + 1]] for i in range(n - 1)]
    ground = GroundSet(names)
    family = SetFamily(ground, members)
    phi = FinVector(ground, {a: 1 for a in names})
    res = norm_oracle(family, phi)
    assert [free.bit_count() for _, _, free in recorded] == [n]
    assert res.norm_sq == 4 * (n // 2)


def test_pinned_state_count():
    # Atoms 0-3 form one component, masks 0011, 0101, 1100: from 1111 the DP
    # reaches 1110 (skip atom 0), 1100 and 1010, then 1000 (atoms 1 and 3
    # start no candidate): 5 nonzero states. Atoms 4-5, masks 110000 and
    # 010000, reach 110000 and 100000: 2 more. A pack call counts 7 states.
    masks = [0b0011, 0b0101, 0b1100, 0b110000, 0b010000]
    weights = [4, 4, 4, 4, 1]
    assert packing.pack(masks, weights, state_budget=7) == (12, [0, 2, 3])
    with pytest.raises(ResourceLimitError):
        packing.pack(masks, weights, state_budget=6)
    assert [_reachable_dp(masks, weights, 0b1111)[2], _reachable_dp(masks, weights, 0b110000)[2]] == [5, 2]
