"""Maximum-weight packings of pairwise disjoint bitmasks.

This is the one packing search in jsnorm. The norms maximise squared sums
over disjoint members; condition (b) asks whether the members inside s∖t
cover it exactly, and condition (c) how much of a residual they can cover,
both as a packing weighted by popcount. A ``PackingTable`` splits the
candidates inside a mask into overlap components, solves the atoms of each
by a subset DP and keeps every solved state, so the work depends on the
masks, not on how the weights rank them, and a state already in the table
costs nothing. Weights are tied as ``TieWeights`` describes, so every
packing keeps the first optimal index set in candidate index order. The
work is bounded here and nowhere else: one search may add at most
``state_budget`` new table entries.
"""

from __future__ import annotations

from typing import Sequence

from .budgets import Budgets
from .errors import ResourceLimitError


def _components(masks: Sequence[int]) -> list[int]:
    """The atom mask of each overlap component of the masks.

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
    atoms: dict[int, int] = {}
    for m in masks:
        r = find(m & -m)
        atoms[r] = atoms.get(r, 0) | m
    return list(atoms.values())


class TieWeights(dict):
    """Weights that never tie, with the first optimal index set winning.

    Weight i is shifted left by n bits and adds the bit 2^(n-1-i), so of two
    index sets with the same weight sum, the one holding the smallest index
    where they differ wins: the set an include-first search in index order
    finds first. Each tied weight is n bits wide and is made on first use,
    so a table over n candidates holds one only for each candidate its
    searches reach.
    """

    def __init__(self, weights: Sequence[int]):
        super().__init__()
        self.weights = weights

    def __missing__(self, i: int) -> int:
        n = len(self.weights)
        tied = self[i] = (self.weights[i] << n) | (1 << (n - 1 - i))
        return tied


class PackingTable:
    """Exact max Σ weights over candidates with disjoint masks, by subset DP.

    States are nonzero masks of still-free atoms; each state either skips
    its lowest atom or covers it with a candidate inside it. ``best`` and
    ``choice`` hold every state solved so far, so searches of overlapping
    masks share their work. Masks must be nonzero.
    """

    def __init__(self, masks: Sequence[int], weights: Sequence[int]):
        self.masks = masks
        self.weights = weights
        self.by_low: dict[int, list[int]] = {}
        for j, m in enumerate(masks):
            self.by_low.setdefault(m & -m, []).append(j)
        self.best: dict[int, int] = {0: 0}
        self.choice: dict[int, int] = {}

    def solve(self, frees: Sequence[int], budget: int = Budgets.state_budget) -> int:
        """Solve the masks ``frees`` and every state they reach that is not yet held.

        An explicit stack collects the new states with the candidates that
        fit each one, then they are solved in increasing mask order, so
        every successor (a proper submask) is solved first. Candidates are
        scanned in index order with strict improvement, so ties resolve the
        same way every run. Once the new states pass ``budget``,
        ``ResourceLimitError`` is raised and nothing is stored. Returns the
        number of new entries.
        """
        masks, best = self.masks, self.best
        fits: dict[int, list[int]] = {}
        stack = list(frees)
        while stack:
            free = stack.pop()
            if free in best or free in fits:
                continue
            low = free & -free
            here = [j for j in self.by_low.get(low, ()) if masks[j] & free == masks[j]]
            fits[free] = here
            if len(fits) > budget:
                raise ResourceLimitError(f"packing needs more than state_budget = {budget} DP states")
            stack.append(free ^ low)
            stack.extend(free ^ masks[j] for j in here)
        weights, choice = self.weights, self.choice
        for free in sorted(fits):
            low = free & -free
            b = best[free ^ low]
            c = -1
            for j in fits[free]:
                v = weights[j] + best[free ^ masks[j]]
                if v > b:
                    b, c = v, j
            best[free] = b
            choice[free] = c
        return len(fits)

    def picks(self, free: int) -> list[int]:
        """The candidates of the solved state ``free``'s optimum, by lowest atom."""
        picked: list[int] = []
        while free:
            c = self.choice[free]
            if c < 0:
                free ^= free & -free
            else:
                picked.append(c)
                free ^= self.masks[c]
        return picked

    def pack(self, free: int, budget: int = Budgets.state_budget) -> list[int]:
        """The candidates of the optimum inside ``free``, ascending.

        The candidates inside ``free`` are split into overlap components and
        one search solves each component's atom mask, so components that
        interleave in atom order do not multiply each other's states.
        Packing ``free`` again adds no entries.
        """
        comps = _components([m for m in self.masks if m & free == m])
        self.solve(comps, budget)
        return sorted(j for atoms in comps for j in self.picks(atoms))


def pack(
    masks: Sequence[int], weights: Sequence[int], state_budget: int = Budgets.state_budget
) -> tuple[int, list[int]]:
    """Max Σ weights[i] over index sets whose masks are pairwise disjoint.

    Masks must be nonzero and weights positive. Tied weights, as in
    ``TieWeights`` but all made up front, make the optimum unique: of the
    optimal index sets, the first in index order. One table search solves
    each overlap component's atom mask. Returns the total and the picked
    indices in ascending order. Raises ``ResourceLimitError`` once the
    states of all components together pass ``state_budget``.
    """
    free = 0
    for m in masks:
        free |= m
    n = len(weights)
    tied = [w << n | 1 << (n - 1 - i) for i, w in enumerate(weights)]
    picked = PackingTable(masks, tied).pack(free, state_budget)
    return sum(weights[j] for j in picked), picked
