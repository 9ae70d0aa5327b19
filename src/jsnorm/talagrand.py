"""Admissible families over finite digit grids and their partition machinery.

A set of grid sequences is admissible when all pairs share one first
difference position, its characteristic. Families of admissible sets are
stratified by characteristic, turned into weighted sets by 1/n scaling, and
probed for partition witnesses. The saturation partition splits a bipartite
incidence structure into matched blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .budgets import Budgets
from .core import GroundSet, Member, SetFamily, WeightedSet, canonical_member
from .errors import (
    EmptySupportError,
    GroundMismatchError,
    InputFormatError,
    InvalidPartitionError,
    MissingStratumError,
    ResourceLimitError,
    UncoveredGammaError,
)


class SeqGrid:
    """All length-L sequences over digits 0..B-1, named by digit strings.

    Digits wider than one character (B > 10) are zero padded so atom names
    stay unambiguous.
    """

    __slots__ = ("branching", "length", "elements", "_digits")

    def __init__(self, branching: int, length: int, grid_budget: int = Budgets.grid_budget):
        if type(branching) is not int or branching < 2:
            raise InputFormatError(f"grid branching must be an integer of at least 2, got {branching!r}")
        if type(length) is not int or length < 1:
            raise InputFormatError(f"grid length must be an integer of at least 1, got {length!r}")
        if branching**length > grid_budget:
            raise ResourceLimitError(
                f"grid size {branching}^{length} exceeds budget {grid_budget}"
            )
        width = len(str(branching - 1))
        elements = []
        digits: dict[str, tuple[int, ...]] = {}
        for seq in itertools.product(range(branching), repeat=length):
            atom = "".join(str(d).zfill(width) for d in seq)
            elements.append(atom)
            digits[atom] = seq
        self.branching = branching
        self.length = length
        self.elements = tuple(elements)
        self._digits = digits

    def digits(self, atom: str) -> tuple[int, ...]:
        if atom not in self._digits:
            raise GroundMismatchError(f"{atom!r} is not a grid element")
        return self._digits[atom]

    def ground_set(self) -> GroundSet:
        return GroundSet(self.elements)


@dataclass(frozen=True)
class AdmissibleSet:
    members: Member
    characteristic: Optional[int]  # None means any position works (size <= 1)


@dataclass(frozen=True)
class AdmissibilityFailure:
    pair_a: tuple[str, str]
    position_a: int
    pair_b: tuple[str, str]
    position_b: int


def _first_difference(a: Sequence[int], b: Sequence[int]) -> int:
    """1-based position of the first differing digit."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i + 1
    raise ValueError("sequences are equal")


def is_admissible(
    grid: SeqGrid, members: Iterable[str]
) -> Union[AdmissibleSet, AdmissibilityFailure]:
    """Accept when every pair first differs at one common position."""
    canon = canonical_member(members)
    digits = [grid.digits(a) for a in canon]
    if len(canon) <= 1:
        return AdmissibleSet(members=canon, characteristic=None)
    ref_pos = _first_difference(digits[0], digits[1])
    ref_pair = (canon[0], canon[1])
    for i, j in itertools.combinations(range(len(canon)), 2):
        pos = _first_difference(digits[i], digits[j])
        if pos != ref_pos:
            return AdmissibilityFailure(
                pair_a=ref_pair,
                position_a=ref_pos,
                pair_b=(canon[i], canon[j]),
                position_b=pos,
            )
    return AdmissibleSet(members=canon, characteristic=ref_pos)


def _admissible_count(b: int, l: int, max_size: int) -> int:
    total = b**l
    for n in range(1, l + 1):
        per_prefix = 0
        suffixes = b ** (l - n)
        for k in range(2, min(max_size, b) + 1):
            per_prefix += math.comb(b, k) * suffixes**k
        total += b ** (n - 1) * per_prefix
    return total


def admissible_family(
    grid: SeqGrid,
    max_size: int,
    family_budget: int = Budgets.family_budget,
) -> tuple[SetFamily, dict[Member, int]]:
    """All admissible sets of size <= max_size plus singletons, with strata.

    Strata map each member to its characteristic; singletons sit in stratum 1.
    The family size is computed in closed form first so oversized requests
    fail before any enumeration.
    """
    if type(max_size) is not int or max_size < 1:
        raise InputFormatError(f"max_size must be an integer of at least 1, got {max_size!r}")
    b, l = grid.branching, grid.length
    predicted = _admissible_count(b, l, max_size)
    if predicted > family_budget:
        raise ResourceLimitError(
            f"admissible family would have {predicted} members, over budget {family_budget}"
        )

    members: list[Member] = []
    strata: dict[Member, int] = {}
    for atom in grid.elements:
        m = (atom,)
        members.append(m)
        strata[m] = 1
    width = len(str(b - 1))

    def atom_of(seq: tuple[int, ...]) -> str:
        return "".join(str(d).zfill(width) for d in seq)

    for n in range(1, l + 1):
        suffixes = list(itertools.product(range(b), repeat=l - n))
        for prefix in itertools.product(range(b), repeat=n - 1):
            for k in range(2, min(max_size, b) + 1):
                for digit_set in itertools.combinations(range(b), k):
                    for chosen in itertools.product(suffixes, repeat=k):
                        m = canonical_member(
                            atom_of(prefix + (d,) + suf) for d, suf in zip(digit_set, chosen)
                        )
                        members.append(m)
                        strata[m] = n
    family = SetFamily(grid.ground_set(), members, provenance="admissible")
    return family, strata


def validate_partition(
    ground: GroundSet, blocks: Iterable[Iterable[str]], name: str = "partition"
) -> list[Member]:
    """Blocks must be disjoint and cover the ground set exactly."""
    canon = [canonical_member(b) for b in blocks]
    atoms = list(itertools.chain.from_iterable(canon))
    if all(canon) and len(atoms) == len(ground) == len(set(atoms)) and ground.covers(atoms):
        return canon
    # otherwise walk the blocks to name the first fault
    seen: dict[str, int] = {}
    for i, block in enumerate(canon):
        if not block:
            raise InvalidPartitionError(f"{name} block {i} is empty")
        for a in block:
            if a not in ground:
                raise InvalidPartitionError(f"{name} block {i} contains unknown atom {a!r}")
            if a in seen:
                raise InvalidPartitionError(
                    f"{name} blocks {seen[a]} and {i} both contain {a!r}"
                )
            seen[a] = i
    missing = next(a for a in ground.elements if a not in seen)
    raise InvalidPartitionError(f"{name} does not cover atom {missing!r}")


def check_threshold(threshold: int) -> None:
    """A search threshold is an ``int`` (not a ``bool``) of at least 1."""
    if type(threshold) is not int:
        raise InvalidPartitionError(f"threshold must be an integer, got {threshold!r}")
    if threshold < 1:
        raise InvalidPartitionError("threshold must be at least 1")


@dataclass(frozen=True)
class QePartitionWitness:
    s: Member
    n0: int
    intersection: Member
    per_d_counts: dict[int, int]


def qe_partition_search(
    family: SetFamily,
    gamma_d: Iterable[Iterable[str]],
    gamma_n: Iterable[Iterable[str]],
    threshold: int,
) -> Optional[QePartitionWitness]:
    """First member meeting some gamma_n block in >= threshold atoms while
    meeting every gamma_d block at most once; None after exhausting all."""
    check_threshold(threshold)
    d_blocks = validate_partition(family.ground, gamma_d, name="gamma_d")
    n_blocks = validate_partition(family.ground, gamma_n, name="gamma_n")
    d_of: dict[str, int] = {}
    for i, block in enumerate(d_blocks):
        for a in block:
            d_of[a] = i
    n_of: dict[str, int] = {}
    for i, block in enumerate(n_blocks):
        for a in block:
            n_of[a] = i

    for s in family.members:
        d_counts: dict[int, int] = {}
        ok = True
        for a in s:
            d = d_of[a]
            d_counts[d] = d_counts.get(d, 0) + 1
            if d_counts[d] > 1:
                ok = False
                break
        if not ok:
            continue
        n_counts: dict[int, int] = {}
        for a in s:
            n = n_of[a]
            n_counts[n] = n_counts.get(n, 0) + 1
        hit = next((n for n in sorted(n_counts) if n_counts[n] >= threshold), None)
        if hit is None:
            continue
        intersection = canonical_member(a for a in s if n_of[a] == hit)
        return QePartitionWitness(
            s=s, n0=hit, intersection=intersection, per_d_counts=dict(sorted(d_counts.items()))
        )
    return None


def eberleinize(family: SetFamily, strata: Mapping[Member, int]) -> list[WeightedSet]:
    """Weighted sets (1/n)·χ_s for each member s in stratum n."""
    out: list[WeightedSet] = []
    for m in family.members:
        if m not in strata:
            raise MissingStratumError(f"no stratum for member {m!r}")
        n = strata[m]
        if type(n) is not int or n < 1:
            raise MissingStratumError(f"stratum of {m!r} must be a positive integer, got {n!r}")
        out.append(WeightedSet(family.ground, {a: Fraction(1, n) for a in m}))
    if len(strata) > len(out):
        members = set(family.members)
        stray = next(m for m in strata if m not in members)
        raise MissingStratumError(f"stratum given for {stray!r}, which is not a family member")
    return out


@dataclass(frozen=True)
class SaturationResult:
    gamma_blocks: tuple[Member, ...]
    delta_blocks: tuple[Member, ...]

    def block_count(self) -> int:
        return len(self.gamma_blocks)


def saturation_partition(
    gamma: GroundSet,
    delta: GroundSet,
    supports: Mapping[str, Iterable[str]],
) -> SaturationResult:
    """Matched partitions of both sides into incidence-connected blocks.

    Grown by the alternating closure: take the least unplaced delta, pull in
    the gammas it supports, then every delta meeting those gammas, and so on
    until stable. Cross-block incidences cannot survive this, which is the
    orthogonality the blocks promise.
    """
    supp: dict[str, Member] = {}
    for d in sorted(delta.elements):
        if d not in supports:
            raise EmptySupportError(f"delta {d!r} has no support")
        s = canonical_member(supports[d])
        if not s:
            raise EmptySupportError(f"delta {d!r} has empty support")
        if not gamma.covers(s):
            raise GroundMismatchError(f"support of {d!r} leaves the gamma ground set")
        supp[d] = s
    for d in supports:
        if d not in delta:
            raise GroundMismatchError(f"supports mention unknown delta {d!r}")

    hit_by: dict[str, list[str]] = {g: [] for g in gamma.elements}
    for d in sorted(supp):
        for g in supp[d]:
            hit_by[g].append(d)
    uncovered = next((g for g in sorted(gamma.elements) if not hit_by[g]), None)
    if uncovered is not None:
        raise UncoveredGammaError(f"gamma {uncovered!r} is not in any support")

    placed: set[str] = set()
    gamma_blocks: list[Member] = []
    delta_blocks: list[Member] = []
    for start in sorted(delta.elements):
        if start in placed:
            continue
        block_d: set[str] = set()
        block_g: set[str] = set()
        queue = [start]
        placed.add(start)
        while queue:
            d = queue.pop()
            block_d.add(d)
            for g in supp[d]:
                if g in block_g:
                    continue
                block_g.add(g)
                for d2 in hit_by[g]:
                    if d2 not in placed:
                        placed.add(d2)
                        queue.append(d2)
        gamma_blocks.append(canonical_member(block_g))
        delta_blocks.append(canonical_member(block_d))
    return SaturationResult(gamma_blocks=tuple(gamma_blocks), delta_blocks=tuple(delta_blocks))
