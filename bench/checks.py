"""Output checks for the benchmark, written apart from jsnorm.

Nothing here imports jsnorm. Each check recomputes the answer from the
benchmark's own inputs, or tests a property every correct answer has, and
returns ``None`` when the output is right or a one-line reason when it is not.
Reports arrive as the parsed JSON the CLI printed.
"""

from __future__ import annotations

import itertools
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Mapping, Optional, Sequence

Member = tuple  # sorted atom tuple


# ---------------------------------------------------------------- packing norms


def max_packing(order: Sequence[str], members: Sequence[Iterable[str]], values: Sequence[Fraction]) -> Fraction:
    """Exact max of Σ values[i]² over pairwise disjoint members.

    Memoized search over the set of still-free atoms of the ground set: the
    first free atom in ``order`` is either left uncovered or covered by a
    member lying inside the free set. No member is dropped or merged first.
    Any order is exact; an order that lists an atom before the members
    through it reach further (leaves first, for tree segments) keeps the memo
    small.
    """
    scale = lcm(*(Fraction(v).denominator for v in values)) if values else 1
    bit = {a: 1 << i for i, a in enumerate(order)}
    by_first: dict[int, list[tuple[int, int]]] = {}
    for m, v in zip(members, values):
        mask = 0
        for a in m:
            mask |= bit[a]
        w = int(v * scale)
        by_first.setdefault(mask & -mask, []).append((mask, w * w))
    memo = {0: 0}

    def best(free: int) -> int:
        got = memo.get(free)
        if got is not None:
            return got
        low = free & -free
        top = best(free ^ low)
        for mask, sq in by_first.get(low, ()):
            if mask & free == mask:
                top = max(top, sq + best(free ^ mask))
        memo[free] = top
        return top

    return Fraction(best((1 << len(order)) - 1), scale * scale)


def sqrt_rounded(value: Fraction, precision: int) -> Fraction:
    """√value rounded half-even to ``precision`` significant digits, via isqrt."""
    if value == 0:
        return Fraction(0)
    e = 0  # 10^(e-1) <= √value < 10^e
    while value >= Fraction(10) ** (2 * e):
        e += 1
    while value < Fraction(10) ** (2 * e - 2):
        e -= 1
    shift = precision - e
    y = value * Fraction(10) ** (2 * shift)
    n = isqrt(y.numerator // y.denominator)  # floor(√y)
    excess = 4 * y - (2 * n + 1) ** 2  # sign of √y - (n + 1/2)
    if excess > 0 or (excess == 0 and n % 2 == 1):
        n += 1
    return n * Fraction(10) ** (-shift)


def _phi_sum(member: Iterable[str], phi: Mapping[str, Fraction]) -> Fraction:
    return sum((phi.get(a, Fraction(0)) for a in member), Fraction(0))


def norm_report_reason(
    report: dict,
    order: Sequence[str],
    members: Sequence[Member],
    phi: Mapping[str, Fraction],
    precision: int,
) -> Optional[str]:
    """``jsnorm norm`` report against the exact packing solver."""
    got = Fraction(report["norm_sq"])
    want = max_packing(order, members, [_phi_sum(m, phi) for m in members])
    if got != want:
        return f"norm_sq {got} differs from the exact packing value {want}"
    family = {frozenset(m) for m in members}
    used: set = set()
    total = Fraction(0)
    for w in report["witness"]:
        s = frozenset(w)
        if s not in family:
            return f"witness member {w} is not in the family"
        if used & s:
            return f"witness member {w} overlaps another witness member"
        used |= s
        total += _phi_sum(s, phi) ** 2
    if total != got:
        return f"witness members give {total}, not norm_sq {got}"
    return decimal_reason(report["norm_decimal"], got, precision)


def weighted_norm_report_reason(
    report: dict,
    order: Sequence[str],
    sets: Sequence[Mapping[str, Fraction]],
    phi: Mapping[str, Fraction],
    precision: int,
) -> Optional[str]:
    """``jsnorm norm-re`` report against the exact packing solver on supports."""

    def pair(g: Mapping[str, Fraction]) -> Fraction:
        return sum((w * phi.get(a, Fraction(0)) for a, w in g.items()), Fraction(0))

    got = Fraction(report["norm_sq"])
    want = max_packing(order, [tuple(g) for g in sets], [pair(g) for g in sets])
    if got != want:
        return f"norm_sq {got} differs from the exact packing value {want}"
    known = {frozenset(g.items()) for g in sets}
    used: set = set()
    total = Fraction(0)
    for w in report["witness"]:
        g = {a: Fraction(v) for a, v in w["weights"].items()}
        if frozenset(g.items()) not in known:
            return f"witness set {w} is not in the weighted family"
        if used & g.keys():
            return f"witness set {w} overlaps another witness set"
        used |= g.keys()
        total += pair(g) ** 2
    if total != got:
        return f"witness sets give {total}, not norm_sq {got}"
    return decimal_reason(report["norm_decimal"], got, precision)


def decimal_reason(text: str, value: Fraction, precision: int) -> Optional[str]:
    want = sqrt_rounded(value, precision)
    if Fraction(Decimal(text)) != want:
        return f"norm_decimal {text} is not sqrt({value}) rounded to {precision} digits"
    return None


# ---------------------------------------------------------------- CI axioms


class Coverage:
    """Largest number of atoms of a target that disjoint members can cover."""

    def __init__(self, atoms: Sequence[str], members: Iterable[Iterable[str]]):
        self.bit = {a: 1 << i for i, a in enumerate(atoms)}
        self.by_first: dict[int, list[int]] = {}
        for m in members:
            mask = self.mask(m)
            self.by_first.setdefault(mask & -mask, []).append(mask)
        self.memo = {0: 0}

    def mask(self, atoms: Iterable[str]) -> int:
        out = 0
        for a in atoms:
            out |= self.bit[a]
        return out

    def best(self, target: int) -> int:
        got = self.memo.get(target)
        if got is not None:
            return got
        low = target & -target
        top = self.best(target ^ low)
        for mask in self.by_first.get(low, ()):
            if mask & target == mask:
                top = max(top, mask.bit_count() + self.best(target ^ mask))
        self.memo[target] = top
        return top

    def exact(self, target: int) -> bool:
        return self.best(target) == target.bit_count()


def ci_truth(atoms: Sequence[str], members: Sequence[Member], envelope: Optional[Mapping] = None, sample_bound: int = 3) -> dict:
    """Conditions (a), (b), (c) and the largest trace count, by brute force.

    (a) every singleton is a member; (b) s∖t is an exact disjoint union of
    members for all s ≠ t; (c) s minus the union of up to ``sample_bound``
    traces s ∩ env(t) is an exact disjoint union of members.
    """
    cov = Coverage(atoms, members)
    family = {frozenset(m) for m in members}
    masks = [cov.mask(m) for m in members]
    env = [cov.mask(envelope[m]) if envelope else masks[i] for i, m in enumerate(members)]
    cond_a = all(frozenset([a]) in family for a in atoms)
    cond_b = all(cov.exact(s & ~t) for s in masks for t in masks if s != t)
    cond_c = True
    for s in masks:
        traces = sorted({s & e for e in env})
        for k in range(1, sample_bound + 1):
            for combo in itertools.combinations(traces, k):
                union = 0
                for r in combo:
                    union |= r
                if not cov.exact(s & ~union):
                    cond_c = False
                    break
            if not cond_c:
                break
        if not cond_c:
            break
    max_trace = max(len({s & t for t in masks}) for s in masks)
    return {"a": cond_a, "b": cond_b, "c": cond_c, "max_trace_size": max_trace, "coverage": cov}


def ci_report_reason(report: dict, atoms: Sequence[str], members: Sequence[Member], envelope: Optional[Mapping] = None, truth: Optional[dict] = None) -> Optional[str]:
    """``jsnorm check-ci`` report against brute force; witnesses are replayed.

    Without ``truth`` the family is an intact tree-segment family, which
    holds every singleton and therefore passes all three conditions.
    """
    if truth is None:
        truth = {"a": True, "b": True, "c": True, "max_trace_size": max(len({frozenset(s) & frozenset(t) for t in members}) for s in members)}
    family = {frozenset(m) for m in members}
    for key in ("a", "b", "c"):
        if report[f"condition_{key}"]["passed"] != truth[key]:
            return f"condition ({key}) reported {report[f'condition_{key}']['passed']}, brute force says {truth[key]}"
    if report["passed"] != (truth["a"] and truth["b"] and truth["c"]):
        return "overall verdict disagrees with the conditions"
    if report["max_trace_size"] != truth["max_trace_size"]:
        return f"max_trace_size {report['max_trace_size']} != {truth['max_trace_size']}"
    if report["envelope"] != ("explicit" if envelope else "identity"):
        return f"envelope tag {report['envelope']!r} is wrong"
    if not truth["a"]:
        atom = report["condition_a"]["witness"]["atom"]
        if frozenset([atom]) in family:
            return f"condition (a) witness {atom!r} is a member"
    if not truth["b"]:
        w = report["condition_b"]["witness"]
        s, t = frozenset(w["s"]), frozenset(w["t"])
        cov = truth["coverage"]
        if s not in family or t not in family or cov.exact(cov.mask(s - t)):
            return f"condition (b) witness {w} does not fail"
    if not truth["c"]:
        return _condition_c_witness_reason(report["condition_c"]["witness"], family, envelope, truth["coverage"])
    return None


def _condition_c_witness_reason(w: dict, family: set, envelope: Optional[Mapping], cov: Coverage) -> Optional[str]:
    s = frozenset(w["s"])
    if s not in family or not 1 <= len(w["tuple"]) <= 3:
        return f"condition (c) witness {w} names a bad member or tuple"
    target = set(s)
    for t in w["tuple"]:
        if frozenset(t) not in family:
            return f"condition (c) witness tuple member {t} is not in the family"
        target -= set(envelope[tuple(t)] if envelope else t)
    covered: set = set()
    for p in w["packing"]:
        p = set(p)
        if frozenset(p) not in family or not p <= target or p & covered:
            return f"condition (c) witness packing part {sorted(p)} is not a disjoint member inside the target"
        covered |= p
    uncovered = target - covered
    if sorted(uncovered) != sorted(w["uncovered"]) or w["residual"] != len(uncovered):
        return "condition (c) witness residual does not match its packing"
    best_residual = len(target) - cov.best(cov.mask(target))
    if w["residual"] != best_residual or best_residual == 0:
        return f"condition (c) witness residual {w['residual']} is not the least residual {best_residual}"
    return None


def disjointify_reason(parts: Sequence[Sequence[str]], inputs: Sequence[Member], members: Sequence[Member]) -> Optional[str]:
    family = {frozenset(m) for m in members}
    union: set = set()
    for p in parts:
        p = frozenset(p)
        if p not in family:
            return f"part {sorted(p)} is not a family member"
        if union & p:
            return f"part {sorted(p)} overlaps another part"
        if not any(p <= set(m) for m in inputs):
            return f"part {sorted(p)} lies inside no input member"
        union |= p
    if union != {a for m in inputs for a in m}:
        return "parts do not cover the union of the inputs"
    return None


# ---------------------------------------------------------------- tree systems


def _node_key(atom: str) -> tuple[int, int]:
    stage, label = atom.split(":")
    return int(stage), int(label)


def _ancestors(parent: Mapping[str, Optional[str]], node: str) -> list[str]:
    chain = []
    cur = parent[node]
    while cur is not None:
        chain.append(cur)
        cur = parent[cur]
    return chain


def system_reason(system: dict, params: tuple[int, int, int, int]) -> Optional[str]:
    """Invariants of a built tree system: roots, stage order, extensions that
    match the log, and chains of different trees sharing at most one atom."""
    n_trees, stages, pool, seed = params
    p = system["params"]
    if (p["n_trees"], p["stages"], p["label_pool"], p["rng_seed"]) != params:
        return f"params {p} differ from the request"
    trees = {int(n): parent for n, parent in system["trees"].items()}
    if sorted(trees) != list(range(1, n_trees + 1)):
        return f"tree indices {sorted(trees)} are not 1..{n_trees}"
    for n, parent in trees.items():
        roots = [v for v, u in parent.items() if u is None]
        if roots != [f"0:{n}"]:
            return f"tree {n} has roots {roots}"
        for v, u in parent.items():
            stage, label = _node_key(v)
            if not (0 <= stage < stages and 0 <= label < pool):
                return f"tree {n} node {v} is out of bounds"
            if u is not None and (u not in parent or _node_key(u)[0] >= stage):
                return f"tree {n} node {v} hangs below {u}, not an earlier stage"
    added: dict[int, set] = {n: set() for n in trees}
    if [rec["stage"] for rec in system["stage_log"]] != list(range(1, stages)):
        return "stage log does not list stages 1..stages-1 in order"
    for rec in system["stage_log"]:
        labels = [sat["label"] for sat in rec["satisfied"]]
        if len(set(labels)) != len(labels) or len(labels) > pool:
            return f"stage {rec['stage']} reuses labels or overflows the pool"
        if not rec["exceeded_pool"] and rec["total_requests"] != len(labels):
            return f"stage {rec['stage']} enumerated {rec['total_requests']} requests but satisfied {len(labels)}"
        for sat in rec["satisfied"]:
            node = f"{rec['stage']}:{sat['label']}"
            seen: set = set()
            if len(sat["trees"]) < 2 or len(sat["trees"]) != len(sat["segments"]):
                return f"request for {node} names {sat['trees']}"
            for n, seg in zip(sat["trees"], sat["segments"]):
                parent = trees.get(n, {})
                if seen & set(seg):
                    return f"segments of the request for {node} overlap"
                seen |= set(seg)
                if node not in parent or set(_ancestors(parent, node)) != set(seg) or parent[node] != max(seg, key=_node_key):
                    return f"tree {n} does not extend segment {seg} by {node}"
                added[n].add(node)
    for n, parent in trees.items():
        if set(parent) - {f"0:{n}"} != added[n]:
            return f"tree {n} nodes differ from the stage log"
    owner: dict[tuple[str, str], int] = {}
    for n, parent in trees.items():
        for v in parent:
            for u in _ancestors(parent, v):
                other = owner.setdefault((u, v), n)
                if other != n:
                    return f"trees {other} and {n} both have chains through {u} and {v}"
    return None


def verify_report_reason(report: dict, system: dict) -> Optional[str]:
    """``verify_system(full=True)`` on a valid system: it must pass and scan
    every satisfied request and every pair of trees."""
    n_trees = system["params"]["n_trees"]
    requests = sum(len(rec["satisfied"]) for rec in system["stage_log"])
    if report["passed"] is not True:
        return f"verify_system rejects a valid system: {report}"
    if report["extensions"]["checked"] != requests:
        return f"verify_system checked {report['extensions']['checked']} of {requests} extensions"
    nd = report["near_disjoint"]
    if nd["mode"] != "exhaustive" or nd["checked"] != n_trees * (n_trees - 1) // 2:
        return f"verify_system near-disjointness scan was {nd['mode']} over {nd['checked']} pairs"
    return None


def partition_witness_reason(witness: dict, trees: Mapping[int, Mapping], d_of: Mapping[str, int], g_of: Optional[Mapping[str, int]], threshold: int) -> Optional[str]:
    parent = trees.get(witness["tree"])
    member = witness["member"]
    if parent is None or not member or not set(member) <= set(parent):
        return f"witness {member} is not inside tree {witness['tree']}"
    deepest = max(member, key=_node_key)
    chain = [deepest] + _ancestors(parent, deepest)[: len(member) - 1]
    if set(chain) != set(member):
        return f"witness {member} is not a segment of tree {witness['tree']}"
    counts = Counter(d_of[a] for a in member)
    if witness["per_block_counts"] != {str(b): c for b, c in counts.items()}:
        return "witness per_block_counts are wrong"
    block = witness["block"]
    if counts[block] < threshold:
        return f"witness meets block {block} {counts[block]} times, below threshold {threshold}"
    if sorted(witness["intersection"]) != sorted(a for a in member if d_of[a] == block):
        return "witness intersection is wrong"
    if g_of is not None and max(Counter(g_of[a] for a in member).values()) > 1:
        return "witness meets a gamma_d block twice"
    return None


def partition_witness_exists(trees: Mapping[int, Mapping], d_of: Mapping[str, int], g_of: Optional[Mapping[str, int]], threshold: int) -> bool:
    """Exhaustive scan of every segment [w, ancestor] of every tree."""
    for parent in trees.values():
        for w in parent:
            counts: dict[int, int] = {}
            g_seen: set = set()
            u = w
            while u is not None:
                if g_of is not None:
                    if g_of[u] in g_seen:
                        break
                    g_seen.add(g_of[u])
                d = d_of[u]
                counts[d] = counts.get(d, 0) + 1
                if counts[d] >= threshold:
                    return True
                u = parent[u]
    return False


# ---------------------------------------------------------------- admissible grids


def grid_atoms(branching: int, length: int) -> dict[str, tuple[int, ...]]:
    """Atom name → digits; digits wider than one character are zero padded."""
    width = len(str(branching - 1))
    return {
        "".join(str(d).zfill(width) for d in digits): digits
        for digits in itertools.product(range(branching), repeat=length)
    }


def stratum(member: Sequence[str], digits: Mapping[str, tuple[int, ...]]) -> Optional[int]:
    """Common 1-based first-difference position of all pairs (1 for a
    singleton), or None when the member is not admissible."""
    if len(member) == 1:
        return 1
    positions = set()
    for a, b in itertools.combinations(member, 2):
        positions.add(next(i for i, (x, y) in enumerate(zip(digits[a], digits[b])) if x != y) + 1)
    return positions.pop() if len(positions) == 1 else None


def admissible_sets(branching: int, length: int, max_size: int) -> dict[Member, int]:
    """Every admissible set of size <= max_size with its stratum.

    Atoms sharing a prefix of n-1 digits are bucketed by their n-th digit; an
    admissible set of stratum n takes one atom from each of k >= 2 buckets.
    """
    digits = grid_atoms(branching, length)
    out: dict[Member, int] = {(a,): 1 for a in digits}
    for n in range(1, length + 1):
        groups: dict[tuple, dict[int, list[str]]] = {}
        for a, d in digits.items():
            groups.setdefault(d[: n - 1], {}).setdefault(d[n - 1], []).append(a)
        for buckets in groups.values():
            columns = [buckets[k] for k in sorted(buckets)]
            for k in range(2, min(max_size, len(columns)) + 1):
                for chosen in itertools.combinations(columns, k):
                    for pick in itertools.product(*chosen):
                        out[tuple(sorted(pick))] = n
    return out


def admissible_family_reason(members: Iterable[Member], strata: Mapping[Member, int], expected: Mapping[Member, int], digits: Mapping[str, tuple[int, ...]]) -> Optional[str]:
    """Library ``admissible_family`` output: the same members as the
    benchmark's enumeration, each with the stratum read off its digits."""
    members = list(members)
    if len(members) != len(expected) or set(members) != set(expected):
        return f"{len(members)} members, expected {len(expected)}"
    wrong = sum(1 for m in members if strata.get(m) != stratum(m, digits))
    if wrong:
        return f"{wrong} of {len(members)} strata differ from the grid digits"
    return None


def eberleinize_reason(report: dict, expected: Mapping[Member, int], digits: Mapping[str, tuple[int, ...]]) -> Optional[str]:
    """Each row must weigh its member by 1/n, n the stratum from grid digits."""
    rows = report["weighted"]
    if sorted(report["ground"]) != sorted(digits):
        return "ground differs from the grid"
    if len(rows) != len(expected) or {tuple(sorted(r)) for r in rows} != set(expected):
        return f"{len(rows)} rows do not match the {len(expected)} family members"
    wrong = 0
    for row in rows:
        n = stratum(tuple(sorted(row)), digits)
        if any(Fraction(w) != Fraction(1, n) for w in row.values()):
            wrong += 1
    if wrong:
        return f"{wrong} of {len(rows)} weight rows disagree with strata from grid digits"
    return None


def qe_witness_reason(witness: dict, family: set, d_of: Mapping[str, int], n_of: Mapping[str, int], threshold: int) -> Optional[str]:
    s = witness["s"]
    if frozenset(s) not in family:
        return f"witness {s} is not a family member"
    d_counts = Counter(d_of[a] for a in s)
    if max(d_counts.values()) > 1 or witness["per_d_counts"] != {str(d): c for d, c in d_counts.items()}:
        return "witness meets a gamma_d block twice or miscounts"
    n0 = witness["n0"]
    inside = sorted(a for a in s if n_of[a] == n0)
    if len(inside) < threshold or inside != sorted(witness["intersection"]):
        return f"witness intersection with gamma_n block {n0} is wrong or below {threshold}"
    return None


def qe_witness_exists(members: Iterable[Member], d_of: Mapping[str, int], n_of: Mapping[str, int], threshold: int) -> bool:
    for s in members:
        if len({d_of[a] for a in s}) == len(s) and max(Counter(n_of[a] for a in s).values()) >= threshold:
            return True
    return False


def saturation_reason(report: dict, supports: Mapping[str, Sequence[str]]) -> Optional[str]:
    """Blocks must be the connected components of the incidence graph."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d, gammas in supports.items():
        for g in gammas:
            parent[find(("g", g))] = find(("d", d))
    comps: dict = {}
    for node in list(parent):
        comps.setdefault(find(node), set()).add(node)
    want = {
        (tuple(sorted(x for k, x in c if k == "g")), tuple(sorted(x for k, x in c if k == "d")))
        for c in comps.values()
    }
    got = {(tuple(sorted(g)), tuple(sorted(d))) for g, d in zip(report["gamma_blocks"], report["delta_blocks"])}
    if len(report["gamma_blocks"]) != len(want) or got != want:
        return f"{len(report['gamma_blocks'])} blocks do not match the {len(want)} incidence components"
    return None
