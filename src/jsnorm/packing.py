"""Maximum-weight packings of pairwise disjoint bitmasks.

This is the one packing search in jsnorm. The norms maximise squared sums
over disjoint members; condition (b) asks whether the members inside s∖t
cover it exactly, and condition (c) how much of a residual they can cover,
both as a packing weighted by popcount. Each overlap component of the masks
is solved by a subset DP over its own atoms, so the work depends on the
masks, not on how the weights rank them. That work is bounded here and
nowhere else, by ``state_budget`` DP states per ``pack`` call.
"""

from __future__ import annotations

from typing import Sequence

from .budgets import Budgets
from .errors import ResourceLimitError


def _components(masks: Sequence[int]) -> list[list[int]]:
    """Indices of the masks grouped by overlap component, each ascending.

    A union-find over atom bits links the atoms of every mask.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in masks:
        first = m & -m
        root = find(parent.setdefault(first, first))
        rest = m ^ first
        while rest:
            low = rest & -rest
            r = find(parent.setdefault(low, low))
            if r != root:
                parent[r] = root
            rest ^= low
    groups: dict[int, list[int]] = {}
    for j, m in enumerate(masks):
        groups.setdefault(find(m & -m), []).append(j)
    return list(groups.values())


def _component_dp(tmasks: list[int], squares: list[int], k_c: int, budget: int, spent: int = 0):
    """Exact max Σ squares over candidates with disjoint masks, by subset DP.

    States are masks of still-free atoms; each state either skips its
    lowest atom or covers it with a candidate. Only the states reachable from
    the full mask by those moves are solved: an explicit stack collects them
    with the candidates that fit each one, then they are solved in increasing
    mask order, so every successor (a proper submask) is solved first.
    Candidates are scanned in canonical order with strict improvement, so
    ties resolve the same way every run.

    A state is a nonzero free-atom mask collected this way. ``spent`` states
    were counted before this component; once ``spent`` plus this component's
    count passes ``budget``, ``ResourceLimitError`` is raised before any
    state is solved. Returns (best, picked, spent plus this count).
    """
    cands_by_atom: list[list[int]] = [[] for _ in range(k_c)]
    for j, tm in enumerate(tmasks):
        cands_by_atom[(tm & -tm).bit_length() - 1].append(j)
    full = (1 << k_c) - 1
    fits: dict[int, list[int]] = {0: []}
    cap = budget - spent + 1  # fits also holds the empty state
    stack = [full]
    while stack:
        free = stack.pop()
        if free in fits:
            continue
        low = free & -free
        here = [j for j in cands_by_atom[low.bit_length() - 1] if tmasks[j] & free == tmasks[j]]
        fits[free] = here
        if len(fits) > cap:
            raise ResourceLimitError(f"packing needs more than state_budget = {budget} DP states")
        stack.append(free ^ low)
        stack.extend(free ^ tmasks[j] for j in here)
    best = {0: 0}
    choice: dict[int, int] = {}
    for free in sorted(fits):
        if not free:
            continue
        low = free & -free
        b = best[free ^ low]
        c = -1
        for j in fits[free]:
            v = squares[j] + best[free ^ tmasks[j]]
            if v > b:
                b, c = v, j
        best[free] = b
        choice[free] = c
    picked: list[int] = []
    free = full
    while free:
        c = choice[free]
        if c < 0:
            free ^= free & -free
        else:
            picked.append(c)
            free ^= tmasks[c]
    return best[full], picked, spent + len(fits) - 1


def pack(
    masks: Sequence[int], weights: Sequence[int], state_budget: int = Budgets.state_budget
) -> tuple[int, list[int]]:
    """Max Σ weights[i] over index sets whose masks are pairwise disjoint.

    Masks must be nonzero. Each overlap component runs the subset DP over its
    atoms in ascending bit order, and ties resolve in the DP's scan order.
    Returns the total and the picked indices in ascending order. Raises
    ``ResourceLimitError`` once the DP states of all components together
    pass ``state_budget``.
    """
    total = spent = 0
    picked: list[int] = []
    for idx in _components(masks):
        atoms = 0
        for j in idx:
            atoms |= masks[j]
        local_bit: dict[int, int] = {}
        while atoms:
            low = atoms & -atoms
            local_bit[low] = 1 << len(local_bit)
            atoms ^= low
        local_masks = []
        for j in idx:
            m, lm = masks[j], 0
            while m:
                low = m & -m
                lm |= local_bit[low]
                m ^= low
            local_masks.append(lm)
        weights_c = [weights[j] for j in idx]
        b, p, spent = _component_dp(local_masks, weights_c, len(local_bit), state_budget, spent)
        total += b
        picked.extend(idx[q] for q in p)
    picked.sort()
    return total, picked


def pack_first(
    masks: Sequence[int], weights: Sequence[int], state_budget: int = Budgets.state_budget
) -> tuple[int, list[int]]:
    """``pack`` where ties go to the first optimal index set in index order.

    Weights must be positive. Each is shifted left by n bits and index i adds
    the bit 2^(n-1-i), so distinct index sets never tie: of two optimal sets,
    the one holding the smallest index where they differ wins, which is the
    set an include-first search in index order finds first.
    """
    n = len(masks)
    tied = [(w << n) | (1 << (n - 1 - i)) for i, w in enumerate(weights)]
    total, picked = pack(masks, tied, state_budget)
    return total >> n, picked
