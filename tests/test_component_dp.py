"""The reachable-state component DP against the full 2^k table it replaced."""

import random
from fractions import Fraction

import pytest

from jsnorm import packing
from jsnorm.budgets import Budgets
from jsnorm.errors import ResourceLimitError
from jsnorm.core import FiniteTree, FinVector, GroundSet, SetFamily, dyadic_tree, tree_segments
from jsnorm.norm import norm_oracle, norm_tree_dp

# Bound before any test spies on packing._component_dp.
_component_dp = packing._component_dp


def _reachable_dp(tmasks, squares, k_c, budget=Budgets.state_budget, spent=0):
    return _component_dp(tmasks, squares, k_c, budget, spent)


def _full_table_dp(tmasks, squares, k_c):
    """Bottom-up subset DP over every one of the 2^k_c free-atom states."""
    size = 1 << k_c
    cands_by_atom = [[] for _ in range(k_c)]
    for j, tm in enumerate(tmasks):
        cands_by_atom[(tm & -tm).bit_length() - 1].append(j)
    best = [0] * size
    choice = [-1] * size
    for free in range(1, size):
        low = free & -free
        b = best[free ^ low]
        c = -1
        for j in cands_by_atom[low.bit_length() - 1]:
            tm = tmasks[j]
            if tm & free == tm:
                v = squares[j] + best[free ^ tm]
                if v > b:
                    b, c = v, j
        best[free] = b
        choice[free] = c
    picked = []
    free = size - 1
    while free:
        c = choice[free]
        if c < 0:
            free ^= free & -free
        else:
            picked.append(c)
            free ^= tmasks[c]
    return best[size - 1], picked


@pytest.fixture
def recorded(monkeypatch):
    """Every (tmasks, squares, k_c) that norm_oracle hands to the component DP."""
    calls = []

    def spy(tmasks, squares, k_c, *budget):
        calls.append((list(tmasks), list(squares), k_c))
        return _reachable_dp(tmasks, squares, k_c, *budget)

    monkeypatch.setattr(packing, "_component_dp", spy)
    return calls


def test_random_components_match_full_table():
    rnd = random.Random(20)
    for _ in range(300):
        k = rnd.randint(1, 12)
        tmasks = [rnd.randint(1, (1 << k) - 1) for _ in range(rnd.randint(1, 30))]
        # Small squares force ties, so the tie-break order is exercised too.
        squares = [rnd.choice([1, 4, 9, 16, rnd.randint(1, 400)]) for _ in tmasks]
        assert _reachable_dp(tmasks, squares, k)[:2] == _full_table_dp(tmasks, squares, k)


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
    assert max(k_c for _, _, k_c in recorded) >= 8
    for tmasks, squares, k_c in recorded:
        assert _reachable_dp(tmasks, squares, k_c)[:2] == _full_table_dp(tmasks, squares, k_c)


def test_full_16_atom_component(recorded):
    names = [f"n{i:02d}" for i in range(16)]
    tree = FiniteTree({n: (names[i - 1] if i else None) for i, n in enumerate(names)})
    family = tree_segments(tree)
    phi = FinVector(family.ground, {n: (-1) ** i * (i % 5 + 1) for i, n in enumerate(names)})
    res = norm_oracle(family, phi)
    assert [k_c for _, _, k_c in recorded] == [16]
    tmasks, squares, k_c = recorded[0]
    assert _reachable_dp(tmasks, squares, k_c)[:2] == _full_table_dp(tmasks, squares, k_c)
    assert res.norm_sq == norm_tree_dp(tree, phi).norm_sq


def test_long_component_walks_without_recursion():
    # 2,000 atoms, singletons and adjacent pairs: the walk is 1,000+ states
    # deep, past Python's default recursion limit.
    k = 2000
    tmasks = [1 << i for i in range(k)] + [3 << i for i in range(k - 1)]
    squares = [1] * k + [3] * (k - 1)
    best, picked, _ = _reachable_dp(tmasks, squares, k)
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
    assert [k_c for _, _, k_c in recorded] == [n]
    assert res.norm_sq == 4 * (n // 2)


def test_pinned_state_count():
    # Atoms 0-3 form one component, masks 0011, 0101, 1100: from 1111 the DP
    # reaches 1110 (skip atom 0), 1100 and 1010, then 1000 (atoms 1 and 3
    # start no candidate): 5 nonzero states. Atoms 4-5, masks 11 and 01 in
    # local bits, reach 11 and 10: 2 more. A pack call counts 7 states.
    masks = [0b0011, 0b0101, 0b1100, 0b110000, 0b010000]
    weights = [4, 4, 4, 4, 1]
    assert packing.pack(masks, weights, state_budget=7) == (12, [0, 2, 3])
    with pytest.raises(ResourceLimitError):
        packing.pack(masks, weights, state_budget=6)
    assert [_reachable_dp(masks[:3], weights[:3], 4)[2], _reachable_dp([3, 1], weights[3:], 2)[2]] == [5, 2]
