"""Checkers for the countably-intersected family axioms and disjointification.

Condition (b) asks whether the members inside s∖t cover it exactly;
condition (c) asks, for the trace s∖⋃s_ti of every short envelope tuple, how
much of it a pairwise-disjoint packing of members can cover. Both read the
largest-coverage packing of a target from one ``packing.PackingTable`` per
family over bitmasks in canonical atom order, so every target shares the
states that earlier targets solved and reports are deterministic. Any
residual fails the check with a replayable witness.

``_Masks`` computes each member's distinct traces s∩t once and keeps a memo
of the exact covers found, so a target covered before never reaches the
table again; nor does a target whose atoms all have their singletons in the
family, since those singletons cover it. ``check_ci`` reads condition (b)'s
differences s∖t, condition (c)'s unions and ``max_trace_size`` off those
traces. ``check_condition_b`` is the one-pair entry point for callers that
hold atom tuples; every exact cover search goes through
``_Masks.decompose``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .budgets import Budgets
from .core import Member, SetFamily, canonical_member
from .errors import (
    DecompositionError,
    InvalidEnvelopeError,
    ResourceLimitError,
)
from .packing import PackingTable, TieWeights


@dataclass(frozen=True)
class Decomposition:
    """Pairwise disjoint family members covering the target set exactly."""

    parts: tuple[Member, ...]

    def union(self) -> frozenset:
        out: set = set()
        for p in self.parts:
            out.update(p)
        return frozenset(out)


@dataclass(frozen=True)
class ConditionResult:
    passed: bool
    witness: Optional[dict] = None


@dataclass(frozen=True)
class CiReport:
    condition_a: ConditionResult
    condition_b: ConditionResult
    condition_c: ConditionResult
    max_trace_size: int
    envelope_identity: bool = True

    @property
    def passed(self) -> bool:
        return self.condition_a.passed and self.condition_b.passed and self.condition_c.passed


class _Masks:
    """Bitmask view of a family: bit i = i-th ground atom in canonical order."""

    def __init__(self, family: SetFamily):
        atoms = sorted(family.ground.elements)
        self.bit = {a: 1 << i for i, a in enumerate(atoms)}
        self.atoms = atoms
        self.member_masks = [self._mask(m) for m in family.members]
        self.by_member = dict(zip(family.members, self.member_masks))
        self._by_size = sorted(self.by_member, key=lambda m: (-len(m), m))
        self.exact: dict[int, tuple[Member, ...]] = {0: ()}  # exact covers found so far
        self.singles = sum(self.bit[m[0]] for m in family.members if len(m) == 1)

    @cached_property
    def traces(self) -> list[dict[int, Member]]:
        """Each member's distinct traces s∩t, built on first use."""
        return self.trace_table(self.member_masks)

    def trace_table(self, env_masks: Sequence[int]) -> list[dict[int, Member]]:
        """For each member s, in member order, the distinct s ∩ env_masks[j],
        each mapped to the first member j that gives it, in member order."""
        pairs = list(zip(self.by_member, env_masks))
        out: list[dict[int, Member]] = []
        for s in self.member_masks:
            out.append({})
            for t, m in pairs:
                out[-1].setdefault(s & m, t)
        return out

    @cached_property
    def table(self) -> PackingTable:
        """The family's packing table over ``_by_size``, built on first use."""
        size_masks = [self.by_member[m] for m in self._by_size]
        return PackingTable(size_masks, TieWeights([m.bit_count() for m in size_masks]))

    def _mask(self, atoms: Iterable[str]) -> int:
        m = 0
        for a in atoms:
            m |= self.bit[a]
        return m

    def unmask(self, mask: int) -> Member:
        return tuple(a for a in self.atoms if self.bit[a] & mask)

    def packing(self, target: int, state_budget: int) -> tuple[tuple[Member, ...], int]:
        """Largest pairwise-disjoint packing of ``target`` by the members
        inside it, as (parts, covered mask).

        Among packings that cover the most atoms, the first in candidate
        order (larger members first, then canonical order) wins: the
        family's table ranks every member by its popcount with
        ``TieWeights`` in that order, and restricting to one target keeps
        the order. The table solves each overlap component of the members
        inside ``target``; a search that adds more than ``state_budget`` new
        table entries raises ``ResourceLimitError``, and a repeated target
        adds no entries.
        """
        picked = self.table.pack(target, state_budget)
        return tuple(self._by_size[i] for i in picked), sum(self.table.masks[i] for i in picked)

    def decompose(self, diff: int, state_budget: int) -> Optional[tuple[Member, ...]]:
        """Pairwise disjoint members covering ``diff`` exactly, or None.

        A cover found is kept in ``exact``, so a target covered before is
        not searched again. Raises ``ResourceLimitError`` when the packing
        search of ``diff`` adds more than ``state_budget`` table entries,
        whatever its size.
        """
        parts = self.exact.get(diff)
        if parts is None:
            parts, covered = self.packing(diff, state_budget)
            if covered != diff:
                return None
            self.exact[diff] = parts
        return parts

    def covered(self, target: int, state_budget: int) -> bool:
        """Whether disjoint members cover ``target`` exactly. A target inside
        ``singles`` is the disjoint union of its singletons, so only a target
        with an atom outside ``singles`` reaches ``decompose``."""
        return not target & ~self.singles or self.decompose(target, state_budget) is not None


def check_condition_b(
    family: SetFamily,
    s: Iterable[str],
    t: Iterable[str],
    state_budget: int = Budgets.state_budget,
    _masks: Optional[_Masks] = None,
) -> Optional[Decomposition]:
    """Exact cover of s∖t by pairwise disjoint members; None if impossible."""
    s = family.require(s)
    t = family.require(t)
    masks = _masks or _Masks(family)
    parts = masks.decompose(masks.by_member[s] & ~masks.by_member[t], state_budget)
    return None if parts is None else Decomposition(parts=parts)


def identity_envelope(family: SetFamily) -> dict[Member, Member]:
    return {m: m for m in family.members}


def _checked_envelope(family: SetFamily, envelope: Mapping[Member, Member]) -> dict[Member, Member]:
    out: dict[Member, Member] = {}
    for t in family.members:
        if t not in envelope:
            raise InvalidEnvelopeError(f"envelope missing member {t!r}")
        s_t = canonical_member(envelope[t])
        if s_t not in family:
            raise InvalidEnvelopeError(f"envelope target {s_t!r} is not a family member")
        if not set(t) <= set(s_t):
            raise InvalidEnvelopeError(f"envelope target {s_t!r} does not contain {t!r}")
        out[t] = s_t
    stray = next((t for t in envelope if t not in out), None)
    if stray is not None:
        raise InvalidEnvelopeError(f"envelope key {stray!r} is not a family member")
    return out


def check_condition_c(
    family: SetFamily,
    envelope: Optional[Mapping[Member, Member]] = None,
    sample_bound: int = Budgets.sample_bound,
    trace_budget: int = Budgets.trace_budget,
    state_budget: int = Budgets.state_budget,
    _masks: Optional[_Masks] = None,
) -> ConditionResult:
    """For every member s and every envelope tuple of length <= sample_bound,
    the trace s∖⋃s_ti must be covered exactly by disjoint members. Tuples
    are enumerated through their distinct unions, level by level: each level
    extends the last by one trace and keeps the unions not seen before, each
    with the first tuple found. Each union counts against ``trace_budget``
    and is checked as soon as it is made; the first that fails is the
    witness. A member inside the singletons is skipped, unions uncounted."""
    masks = _masks or _Masks(family)
    env = None if envelope is None else _checked_envelope(family, envelope)
    if not any(m & ~masks.singles for m in masks.member_masks):
        return ConditionResult(passed=True)  # every trace lies inside the singletons
    if env is None:
        traces = masks.traces
    else:
        traces = masks.trace_table([masks.by_member[env[t]] for t in family.members])
    checks = 0
    for s, s_mask, s_traces in zip(family.members, masks.member_masks, traces):
        if not s_mask & ~masks.singles:
            continue
        unions: dict[int, tuple[Member, ...]] = {}
        level: dict[int, tuple[Member, ...]] = {0: ()}  # the empty tuple
        for _ in range(sample_bound):
            grown: dict[int, tuple[Member, ...]] = {}
            for u, rep in level.items():
                for r, t in s_traces.items():
                    nu = u | r
                    if nu in unions or nu in grown:
                        continue
                    checks += 1
                    if checks > trace_budget:
                        raise ResourceLimitError(f"condition (c) trace budget {trace_budget} exceeded")
                    grown[nu] = rep + (t,)
                    target = s_mask & ~nu
                    if not masks.covered(target, state_budget):
                        parts, covered = masks.packing(target, state_budget)
                        return ConditionResult(
                            passed=False,
                            witness={
                                "s": s,
                                "tuple": list(grown[nu]),
                                "uncovered": masks.unmask(target & ~covered),
                                "packing": [list(p) for p in parts],
                                "residual": (target & ~covered).bit_count(),
                            },
                        )
            unions.update(grown)
            level = grown
    return ConditionResult(passed=True)


def disjointify(
    family: SetFamily,
    inputs: list,
    state_budget: int = Budgets.state_budget,
) -> Decomposition:
    """Rewrite ⋃inputs as pairwise disjoint members, each inside some input.

    Follows the inductive proof: fold each new input through iterated
    condition-(b) decompositions against the members already kept.
    """
    canon_inputs = [family.require(m) for m in inputs]
    masks = _Masks(family)
    kept: list[Member] = []
    for s in canon_inputs:
        parts = [s]
        for t in kept:
            t_mask = masks.by_member[t]
            next_parts: list[Member] = []
            for p in parts:
                p_mask = masks.by_member[p]
                if p_mask & t_mask == 0:
                    next_parts.append(p)
                    continue
                if p_mask & ~t_mask == 0:
                    continue  # fully swallowed
                split = masks.decompose(p_mask & ~t_mask, state_budget)
                if split is None:
                    raise DecompositionError(
                        f"condition (b) fails for {p!r} \\ {t!r}", pair=(p, t)
                    )
                next_parts.extend(split)
            parts = next_parts
        kept.extend(parts)
    return Decomposition(parts=tuple(kept))


def check_ci(
    family: SetFamily,
    envelope: Optional[Mapping[Member, Member]] = None,
    sample_bound: int = Budgets.sample_bound,
    pair_budget: int = Budgets.pair_budget,
    state_budget: int = Budgets.state_budget,
    trace_budget: int = Budgets.trace_budget,
) -> CiReport:
    """Run all four axioms; failing conditions carry replayable witnesses.

    Condition (b) walks each member s's distinct traces r = s∩t in member
    order, so s∖r runs over the distinct differences of the ordered pairs,
    s outer and t inner, each with the first t that gives it. A difference
    covered exactly before is a memo hit, so only a new difference reaches
    the packing search, and a difference inside the singletons never does.
    The first pair that fails is the witness, as if ``check_condition_b``
    had been called on each pair s != t in turn; the first search that adds
    more than ``state_budget`` table entries raises ``ResourceLimitError``.
    Condition (c) packs its traces under the same ``state_budget``.
    """
    missing = next((a for a in sorted(family.ground.elements) if (a,) not in family), None)
    cond_a = ConditionResult(passed=missing is None, witness=None if missing is None else {"atom": missing})

    n = len(family.members)
    if n * (n - 1) > pair_budget:
        raise ResourceLimitError(
            f"{n * (n - 1)} ordered pairs exceed budget {pair_budget}",
            partial_report={"condition_a": cond_a},
        )
    masks = _Masks(family)
    cond_b = ConditionResult(passed=True)
    for s, s_mask, traces in zip(family.members, masks.member_masks, masks.traces):
        t = next((t for r, t in traces.items() if not masks.covered(s_mask & ~r, state_budget)), None)
        if t is not None:
            cond_b = ConditionResult(passed=False, witness={"s": s, "t": t})
            break

    cond_c = check_condition_c(
        family,
        envelope,
        sample_bound=sample_bound,
        trace_budget=trace_budget,
        state_budget=state_budget,
        _masks=masks,
    )

    return CiReport(
        condition_a=cond_a,
        condition_b=cond_b,
        condition_c=cond_c,
        max_trace_size=max(map(len, masks.traces), default=0),
        envelope_identity=envelope is None,
    )


def report_to_dict(report: CiReport) -> dict:
    def cr(result: ConditionResult) -> dict:
        out: dict = {"passed": result.passed}
        if result.witness is not None:
            out["witness"] = {k: list(v) if isinstance(v, tuple) else v for k, v in result.witness.items()}
        return out

    return {
        "condition_a": cr(report.condition_a),
        "condition_b": cr(report.condition_b),
        "condition_c": cr(report.condition_c),
        "envelope": "identity" if report.envelope_identity else "explicit",
        "max_trace_size": report.max_trace_size,
        "passed": report.passed,
    }
