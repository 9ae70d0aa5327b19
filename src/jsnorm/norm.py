"""Exact disjoint-packing norms over set families.

The squared norm of a vector is the best value of Σ(Σ_{a∈sᵢ}φ(a))² over
pairwise disjoint subfamilies, or of Σ⟨φ,gᵢ⟩² over weighted sets; both
reduce and pack their candidates through ``_pack_candidates``. Everything
is computed on rescaled integers, so results are exact rationals; square
roots appear only at presentation time, correctly rounded, via ``decimal``.
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
    """√value to ``precision`` significant digits, correctly rounded half-even.

    ``decimal`` rounds the quotient, the root and the result, so near a half
    its result can be one unit in the last place off; it then steps to the
    digits that ``math.isqrt`` decides exactly.
    """
    if value < 0:
        raise ValueError("square root of a negative rational")
    if precision < 1:
        raise ValueError("precision must be positive")
    num, den = value.numerator, value.denominator
    work = decimal.Context(prec=precision + 10)
    context = decimal.Context(prec=precision)
    root = context.plus(work.sqrt(work.divide(decimal.Decimal(num), decimal.Decimal(den))))
    for e in (root.adjusted() - precision + 1, root.adjusted() - precision):
        p, q = (num * 100**-e, den) if e < 0 else (num, den * 100**e)  # √value / 10^e = √(p / q)
        low = math.isqrt(p // q)
        if low >= 10 ** (precision - 1):
            break
    above_half = (2 * low + 1) ** 2 * q - 4 * p  # < 0 when √(p / q) > low + 1/2
    exact = low + (above_half < 0 or above_half == 0 and low % 2)
    digits = int(root.scaleb(-e, context))
    if digits != exact:
        root = context.next_plus(root) if digits < exact else context.next_minus(root)
    return root


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


def _pack_candidates(supp: Sequence[str], cands: Sequence[tuple], state_budget: int) -> tuple[int, list]:
    """Max Σ value² over ``(item, atoms, value)`` candidates, value ≠ 0, with
    pairwise disjoint atoms: the total and the picked items in candidate order.

    Bits go to supp φ, then to outside atoms in candidate order. Candidate j
    dominates i when both have the same trace, j's atoms lie inside i's and
    |value_j| ≥ |value_i|, so swapping j in for i loses nothing. Dominated
    candidates are dropped (of exact equals the first is kept), and the rest
    are packed once on their overlap masks.
    """
    trace = (1 << len(supp)) - 1
    bit: dict[str, int] = {a: 1 << i for i, a in enumerate(supp)}
    fmasks: list[int] = []
    magnitudes = [abs(v) for _, _, v in cands]
    groups: dict[int, list[int]] = {}
    for i, (_, atoms, _) in enumerate(cands):
        fmask = 0
        for a in atoms:
            b = bit.get(a)
            if b is None:
                bit[a] = b = 1 << len(bit)
            fmask |= b
        fmasks.append(fmask)
        groups.setdefault(fmask & trace, []).append(i)
    keep: list[int] = []
    for idxs in groups.values():
        kept: list[int] = []  # a dominator sorts before what it dominates
        for i in sorted(idxs, key=lambda i: (fmasks[i].bit_count(), -magnitudes[i])):
            fm, magnitude = fmasks[i], magnitudes[i]
            if not any(fmasks[j] | fm == fm and magnitudes[j] >= magnitude for j in kept):
                kept.append(i)
        keep.extend(kept)
    keep.sort()
    masks = _overlap_masks([fmasks[i] for i in keep], [fmasks[i] & trace for i in keep], len(supp))
    total, picked = pack(masks, [magnitudes[i] ** 2 for i in keep], state_budget)
    return total, [cands[keep[j]][0] for j in picked]


def norm_oracle(family: SetFamily, phi: FinVector, state_budget: int = Budgets.state_budget) -> NormResult:
    """Exhaustive James-style norm over all pairwise disjoint subfamilies.

    The members meeting supp φ with a nonzero sum go through
    ``_pack_candidates``; members of equal trace score equally, so only the
    inclusion-minimal ones are packed. The witness is the first optimum in
    member order over those; the DP raises ``ResourceLimitError`` past
    ``state_budget`` states.
    """
    if not family.ground.covers(phi.support):
        raise GroundMismatchError("vector support is not contained in the family ground set")
    supp = phi.support
    if phi.is_zero():
        return NormResult(Fraction(0), (), "oracle")

    scaled, denom = _scale_to_ints([phi.entries[a] for a in supp])
    weight = dict(zip(supp, scaled))
    cands: list[tuple[Member, Member, int]] = []
    for m in family.members:
        v = 0
        for a in m:
            w = weight.get(a)
            if w is not None:
                v += w
        if v:
            cands.append((m, m, v))
    total, picked = _pack_candidates(supp, cands, state_budget)
    return NormResult(Fraction(total, denom * denom), sort_members(picked), "oracle")


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
    familyE: Sequence[WeightedSet], phi: FinVector, state_budget: int = Budgets.state_budget
) -> NormResult:
    """Max Σ⟨φ,gᵢ⟩² over subfamilies with pairwise disjoint supports.

    ⟨φ,g⟩ is summed over supp φ, and the sets with ⟨φ,g⟩ ≠ 0 are packed as
    ``norm_oracle`` packs members, through ``_pack_candidates``. The witness
    is the first optimum in set order over the undominated sets.
    """
    entries, supp = phi.entries, phi.support
    cands: list[WeightedSet] = []
    values: list[Fraction] = []
    for g in familyE:
        if g.ground.elements != phi.ground.elements:
            raise GroundMismatchError("weighted set and vector live on different ground sets")
        v = 0
        for a in supp:
            w = g.weights.get(a)
            if w is not None:
                v += entries[a] * w
        if v:
            cands.append(g)
            values.append(v)
    scaled, denom = _scale_to_ints(values)
    total, picked = _pack_candidates(supp, [(g, g.support, v) for g, v in zip(cands, scaled)], state_budget)
    return NormResult(Fraction(total, denom * denom), tuple(picked), "oracle")


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
