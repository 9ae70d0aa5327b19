"""Exact disjoint-packing norms over set families.

The squared norm of a vector is the best value of Σ(Σ_{a∈sᵢ}φ(a))² over
pairwise disjoint subfamilies. Everything is computed on rescaled integers,
so results are exact rationals; square roots appear only at presentation
time through ``decimal``.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .budgets import Budgets
from .core import (
    FinVector,
    FiniteTree,
    Member,
    SetFamily,
    WeightedSet,
    canonical_member,
    sort_members,
)
from .errors import (
    GroundMismatchError,
    InvalidComboError,
    InvalidEpsilonError,
)
from .packing import pack

DEFAULT_PRECISION = 50


def sqrt_decimal(value: Fraction, precision: int = DEFAULT_PRECISION) -> decimal.Decimal:
    """Deterministic decimal √value to ``precision`` significant digits."""
    if value < 0:
        raise ValueError("square root of a negative rational")
    if precision < 1:
        raise ValueError("precision must be positive")
    work = decimal.Context(prec=precision + 10)
    quotient = work.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
    root = work.sqrt(quotient)
    return decimal.Context(prec=precision).plus(root)


@dataclass(frozen=True)
class NormResult:
    norm_sq: Fraction
    witness: tuple
    method: str

    @property
    def norm(self) -> decimal.Decimal:
        return sqrt_decimal(self.norm_sq)

    def norm_decimal(self, precision: int = DEFAULT_PRECISION) -> str:
        return str(sqrt_decimal(self.norm_sq, precision))


def functional_eval(s: Iterable[str], phi: FinVector) -> Fraction:
    """s*(φ) = Σ_{a∈s} φ(a)."""
    atoms = canonical_member(s)
    if not phi.ground.covers(atoms):
        raise GroundMismatchError(f"set {atoms!r} is not contained in the vector's ground set")
    return sum((phi.value(a) for a in atoms), Fraction(0))


def weighted_eval(g: WeightedSet, phi: FinVector) -> Fraction:
    """⟨φ,g⟩ = Σ_a φ(a)·g(a)."""
    if g.ground.elements != phi.ground.elements:
        raise GroundMismatchError("weighted set and vector live on different ground sets")
    return sum((phi.value(a) * g.weight(a) for a in g.support), Fraction(0))


def _scale_to_ints(values: Sequence[Fraction]) -> tuple[list[int], int]:
    denom = math.lcm(*(v.denominator for v in values)) if values else 1
    return [int(v * denom) for v in values], denom


def _min_per_trace(members: list[Member], fmasks: list[int], tmasks: list[int]) -> list[int]:
    """Indices of inclusion-minimal members within each trace class.

    Members with the same trace score identically, and a packing using a
    superset can always swap in a subset, so only minimal ones are needed.
    """
    groups: dict[int, list[int]] = {}
    for idx, tm in enumerate(tmasks):
        groups.setdefault(tm, []).append(idx)
    keep: list[int] = []
    for idxs in groups.values():
        idxs.sort(key=lambda i: (fmasks[i].bit_count(), members[i]))
        kept: list[int] = []
        for i in idxs:
            fm = fmasks[i]
            if not any(fmasks[j] | fm == fm for j in kept):
                kept.append(i)
        keep.extend(kept)
    keep.sort()
    return keep


def _overlap_masks(fmasks: Sequence[int], tmasks: Sequence[int], k: int) -> list[int]:
    """Each candidate's trace mask plus the atoms above the k support bits
    that two trace-disjoint candidates share.

    Two of these masks overlap exactly when the full masks do: candidates
    that meet on the support overlap on their traces, and any other pair
    meets on a kept atom. An outside atom held only by candidates whose
    traces overlap is dropped, so it adds no DP states.
    """
    sharing: dict[int, list[int]] = {}
    for i, fm in enumerate(fmasks):
        rest = fm >> k << k
        while rest:
            low = rest & -rest
            sharing.setdefault(low, []).append(i)
            rest ^= low
    shared = 0
    for atom, idxs in sharing.items():
        if any(not tmasks[i] & tmasks[j] for x, i in enumerate(idxs) for j in idxs[x + 1 :]):
            shared |= atom
    return [tm | fm & shared for fm, tm in zip(fmasks, tmasks)]


def norm_oracle(
    family: SetFamily,
    phi: FinVector,
    state_budget: int = Budgets.state_budget,
) -> NormResult:
    """Exhaustive James-style norm over all pairwise disjoint subfamilies.

    Members not meeting supp φ contribute nothing and are dropped up front;
    among members with equal trace only inclusion-minimal ones can matter.
    One subset DP runs over the support atoms plus the outside atoms that
    two trace-disjoint candidates share (none for the minimal
    representatives of tree segments), so its masks overlap exactly when
    the members do. The witness is the first optimum in member order; the
    DP raises ``ResourceLimitError`` past ``state_budget`` states.
    """
    if not family.ground.covers(phi.support):
        raise GroundMismatchError("vector support is not contained in the family ground set")
    supp = phi.support
    if phi.is_zero():
        return NormResult(Fraction(0), (), "oracle")

    scaled, denom = _scale_to_ints([phi.entries[a] for a in supp])
    weight = dict(zip(supp, scaled))
    k = len(supp)
    bit: dict[str, int] = {a: 1 << i for i, a in enumerate(supp)}

    cand_members: list[Member] = []
    cand_values: list[int] = []
    cand_fmasks: list[int] = []
    cand_tmasks: list[int] = []
    for m in family.members:
        v = 0
        tmask = 0
        for a in m:
            w = weight.get(a)
            if w is not None:
                v += w
                tmask |= bit[a]
        if v == 0:
            continue
        fmask = tmask
        for a in m:
            b = bit.get(a)
            if b is None:
                bit[a] = b = 1 << len(bit)
            fmask |= b
        cand_members.append(m)
        cand_values.append(v)
        cand_fmasks.append(fmask)
        cand_tmasks.append(tmask)

    keep = _min_per_trace(cand_members, cand_fmasks, cand_tmasks)
    members = [cand_members[i] for i in keep]
    values = [cand_values[i] for i in keep]
    fmasks = [cand_fmasks[i] for i in keep]
    tmasks = [cand_tmasks[i] for i in keep]

    squares = [v * v for v in values]
    total, picked = pack(_overlap_masks(fmasks, tmasks, k), squares, state_budget)
    witness = sort_members(members[i] for i in picked)
    return NormResult(Fraction(total, denom * denom), witness, "oracle")


def norm_tree_dp(tree: FiniteTree, phi: FinVector) -> NormResult:
    """Same value as ``norm_oracle`` over the segment family of ``tree``.

    Bottom-up over the tree: each node keeps its best fully-closed packing
    and a frontier of (open-chain sum, closed value) states where the open
    chain may still grow through the node toward its parent. Frontier states
    are keyed on the exact signed chain sum; squaring is convex, so states
    with distinct sums are incomparable and must all be kept.
    """
    if not set(phi.ground.elements) <= set(tree.nodes):
        raise GroundMismatchError("vector ground set is not contained in the tree nodes")

    supp = phi.support
    scaled, denom = _scale_to_ints([phi.entries[a] for a in supp])
    weight = dict(zip(supp, scaled))

    order: list[str] = []
    stack = [(r, False) for r in reversed(tree.roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        stack.append((node, True))
        for c in reversed(tree.children(node)):
            stack.append((c, False))

    # per node: (closed best, closed witness, frontier)
    # frontier: dict sigma -> (value, closed witness, open chain)
    done: dict[str, tuple[int, list[Member], dict[int, tuple[int, list[Member], tuple[str, ...]]]]] = {}
    for v in order:
        phi_v = weight.get(v, 0)
        kids = [done.pop(c) for c in tree.children(v)]
        closed_best = [b for b, _, _ in kids]
        closed_wit = [bw for _, bw, _ in kids]
        sum_closed = sum(closed_best)

        frontier: dict[int, tuple[int, list[Member], tuple[str, ...]]] = {}
        all_closed: list[Member] = [m for w in closed_wit for m in w]
        frontier[phi_v] = (sum_closed, all_closed, (v,))
        for j, (_, _, fr) in enumerate(kids):
            others = [m for i, w in enumerate(closed_wit) if i != j for m in w]
            rest = sum_closed - closed_best[j]
            for sigma, (val, wit, chain) in fr.items():
                ns = phi_v + sigma
                nv = val + rest
                if ns not in frontier or nv > frontier[ns][0]:
                    frontier[ns] = (nv, wit + others, chain + (v,))

        b_v = sum_closed
        bw_v = all_closed
        for sigma, (val, wit, chain) in frontier.items():
            cand = val + sigma * sigma
            if cand > b_v:
                b_v = cand
                bw_v = wit + [canonical_member(chain)]
        done[v] = (b_v, bw_v, frontier)

    total = sum(done[r][0] for r in tree.roots)
    witness = [m for r in tree.roots for m in done[r][1]]
    return NormResult(Fraction(total, denom * denom), sort_members(witness), "tree-dp")


def norm_weighted(
    familyE: Sequence[WeightedSet],
    phi: FinVector,
    state_budget: int = Budgets.state_budget,
) -> NormResult:
    """Max Σ⟨φ,gᵢ⟩² over subfamilies with pairwise disjoint supports; the DP
    runs over the whole supports of the sets with ⟨φ,g⟩ ≠ 0."""
    values = [weighted_eval(g, phi) for g in familyE]
    scaled, denom = _scale_to_ints(values)

    cands: list[WeightedSet] = []
    cand_values: list[int] = []
    for g, v in zip(familyE, scaled):
        if v != 0:
            cands.append(g)
            cand_values.append(v)

    bit: dict[str, int] = {}
    cand_masks = []
    for g in cands:
        mask = 0
        for a in g.support:
            if a not in bit:
                bit[a] = 1 << len(bit)
            mask |= bit[a]
        cand_masks.append(mask)

    best, idx = pack(cand_masks, [v * v for v in cand_values], state_budget)
    return NormResult(Fraction(best, denom * denom), tuple(cands[i] for i in idx), "oracle")


@dataclass(frozen=True)
class DualCombination:
    """Σλᵢsᵢ* with pairwise disjoint sᵢ and Σλᵢ² ≤ 1."""

    terms: tuple[tuple[Fraction, Member], ...]

    def __init__(self, terms: Iterable[tuple[Fraction | int | str, Iterable[str]]]):
        canon = tuple((Fraction(lam), canonical_member(s)) for lam, s in terms)
        seen: set = set()
        for _, s in canon:
            for a in s:
                if a in seen:
                    raise InvalidComboError(f"dual combination members overlap at {a!r}")
                seen.add(a)
        if sum((lam * lam for lam, _ in canon), Fraction(0)) > 1:
            raise InvalidComboError("dual combination has sum of squared coefficients > 1")
        object.__setattr__(self, "terms", canon)


def dual_eval(combo: DualCombination, phi: FinVector) -> Fraction:
    """Σλᵢ·sᵢ*(φ)."""
    return sum((lam * functional_eval(s, phi) for lam, s in combo.terms), Fraction(0))


@dataclass(frozen=True)
class GreedyCertificate:
    epsilon: Fraction
    chosen_sets: tuple[Member, ...]
    surviving_indices: tuple[int, ...]
    k_bound: int


def greedy_bound(epsilon: Fraction) -> int:
    """Smallest n with ε²·n > 1."""
    return int(1 / (epsilon * epsilon)) + 1


def greedy_extract(
    family: SetFamily,
    phis: Sequence[FinVector],
    epsilon: Fraction | int | str,
    state_budget: int = Budgets.state_budget,
    trusted: bool = False,
) -> GreedyCertificate:
    """Iteratively pick disjoint members acting above ε on at least half of
    the survivors.

    Each pick keeps only the indices it certifies, so after k picks every
    survivor has squared norm above ε²k; that caps the number of rounds at
    the first n with ε√n > 1. Vectors are checked against the unit ball via
    the oracle unless ``trusted`` is set.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidEpsilonError("epsilon must be positive")
    if not trusted:
        for i, phi in enumerate(phis):
            if norm_oracle(family, phi, state_budget=state_budget).norm_sq > 1:
                raise InvalidComboError(f"vector {i} lies outside the unit ball")

    k_bound = greedy_bound(epsilon)
    values = {
        m: [sum((phi.value(a) for a in m), Fraction(0)) for phi in phis] for m in family.members
    }
    surviving = list(range(len(phis)))
    chosen: list[Member] = []
    used: set[str] = set()
    while len(chosen) < k_bound and surviving:
        threshold = (len(surviving) + 1) // 2  # at least half, and at least one
        found = None
        for m in family.members:
            if used.intersection(m):
                continue
            hits = [n for n in surviving if values[m][n] > epsilon]
            if len(hits) >= threshold:
                found = (m, hits)
                break
        if found is None:
            break
        m, hits = found
        chosen.append(m)
        used.update(m)
        surviving = hits
    return GreedyCertificate(
        epsilon=epsilon,
        chosen_sets=tuple(chosen),
        surviving_indices=tuple(surviving),
        k_bound=k_bound,
    )
