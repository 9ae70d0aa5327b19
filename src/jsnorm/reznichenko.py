"""Finite staged construction of an entangled system of trees.

Atoms are stage:label pairs. Tree n starts as the single root 0:n; at each
later stage we enumerate extension requests (a set of tree indices plus one
tip node per tree, whose root-anchored chains are pairwise disjoint) and
satisfy up to label_pool of them, adjoining one fresh node per satisfied
request as a child of its tip in every requested tree. When the request
count exceeds the pool, a seeded generator draws which ones survive; the
stage log records exactly what happened so the lossiness stays visible.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Optional

from .budgets import Budgets
from .core import FiniteTree, GroundSet, Member, SetFamily, canonical_member
from .errors import (
    IndexOutOfRangeError,
    InputFormatError,
    MissingStratumError,
    ResourceLimitError,
)
from .serialize import _check_atom_lists, _payload_errors, nogc
from .talagrand import check_threshold, validate_partition

SEGMENT_BUDGET = 200_000
SAMPLE_RETRIES = 64

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MOD = 1 << 64


class Lcg64:
    """64-bit linear congruential generator, constants fixed for replay."""

    def __init__(self, seed: int):
        self.state = seed % LCG_MOD

    def next(self) -> int:
        self.state = (self.state * LCG_MULT + LCG_INC) % LCG_MOD
        return self.state

    def bounded(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next() % n


def node_name(stage: int, label: int) -> str:
    return f"{stage}:{label}"


def node_key(atom: str) -> tuple[int, int]:
    try:
        a, b = atom.split(":")
        return int(a), int(b)
    except ValueError as exc:
        raise InputFormatError(f"node name {atom!r} is not stage:label") from exc


@dataclass(frozen=True)
class ReznParams:
    n_trees: int = 8
    stages: int = 32
    label_pool: int = 64
    rng_seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:
                raise InputFormatError(f"{f.name} must be an integer, got {value!r}")
        if self.n_trees < 2:
            raise InputFormatError("need at least 2 trees")
        if self.stages < 1:
            raise InputFormatError("need at least 1 stage")
        # roots occupy labels 1..n_trees at stage 0, so the pool must exceed them
        if self.label_pool <= self.n_trees:
            raise InputFormatError("label_pool must exceed n_trees")
        if not 0 <= self.rng_seed < LCG_MOD:
            raise InputFormatError("rng_seed must be an unsigned 64-bit integer")


def _disjoint(chains) -> bool:
    """True when the given atom collections are pairwise disjoint."""
    return len(set().union(*chains)) == sum(map(len, chains))


@dataclass(frozen=True)
class ExtensionRequest:
    """Tree indices with one root-anchored chain each, pairwise disjoint; for
    a request ``(trees, tips)`` the chain of ``trees[i]`` ends at ``tips[i]``."""

    trees: tuple[int, ...]
    segments: tuple[Member, ...]

    def __post_init__(self):
        if len(self.trees) != len(self.segments):
            raise InputFormatError("one segment per requested tree")
        if not _disjoint(self.segments):
            raise InputFormatError("request segments must be pairwise disjoint")


@dataclass(frozen=True)
class SatisfiedRequest:
    label: int
    request: ExtensionRequest


@dataclass(frozen=True)
class StageRecord:
    stage: int
    satisfied: tuple[SatisfiedRequest, ...]
    exceeded_pool: bool
    total_requests: Optional[int]  # None when only "more than the pool" is known


def _stage_records(stage_log: list) -> tuple[StageRecord, ...]:
    """The records of a stage-log payload; the first bad request raises."""
    return tuple(
        StageRecord(
            stage=rec["stage"],
            exceeded_pool=rec["exceeded_pool"],
            total_requests=rec["total_requests"],
            satisfied=tuple(
                SatisfiedRequest(
                    label=sat["label"],
                    request=ExtensionRequest(tuple(sat["trees"]), tuple(map(canonical_member, sat["segments"]))),
                )
                for sat in rec["satisfied"]
            ),
        )
        for rec in stage_log
    )


class _DecodedLog(Sequence):
    """A decoded system's stage log, already checked in bulk: its records
    are built on first read, and the raw payload lists dropped then."""

    def __init__(self, stage_log: list):
        self._raw, self._records = stage_log, None

    def _built(self) -> tuple[StageRecord, ...]:
        if self._records is None:
            self._records, self._raw = _stage_records(self._raw), None
        return self._records

    def __getitem__(self, i):
        return self._built()[i]

    def __len__(self) -> int:
        return len(self._built())

    def __eq__(self, other: object) -> bool:
        return self._built() == other


@dataclass(frozen=True)
class ReznSystem:
    params: ReznParams
    gamma: GroundSet
    trees: dict[int, FiniteTree]
    stage_log: Sequence[StageRecord]

    def level_map(self, n: int) -> dict[str, int]:
        tree = self.tree(n)
        return {v: len(tree.ancestors(v)) - 1 for v in tree.nodes}

    def tree(self, n: int) -> FiniteTree:
        if n not in self.trees:
            raise IndexOutOfRangeError(f"no tree {n}; indices run 1..{self.params.n_trees}")
        return self.trees[n]


class _TreeState:
    """Mutable per-tree view during the build: numeric-order node list plus
    precomputed root-anchored chains."""

    def __init__(self, root: str):
        self.parent: dict[str, Optional[str]] = {root: None}
        self.nodes: list[str] = [root]
        self.chain_sets: dict[str, frozenset] = {root: frozenset((root,))}

    def add(self, node: str, parent: str) -> None:
        self.parent[node] = parent
        self.nodes.append(node)
        self.chain_sets[node] = self.chain_sets[parent] | {node}


Request = tuple[tuple[int, ...], tuple[str, ...]]  # (trees, tips)


def _enumerate_requests(
    states: dict[int, _TreeState], snapshot: dict[int, int], n_trees: int, limit: int, enum_budget: int
) -> tuple[list[Request], bool, Optional[int]]:
    """Valid requests ``(trees, tips)`` in canonical order, stopping after
    ``limit`` of them; ``tips[i]`` is the node tree ``trees[i]`` grows from.

    Returns (first requests up to limit, exceeded flag, exact total or None).
    The combo scan itself is budgeted; running past the budget counts as
    exceeding the pool since the exact total is then unknown.
    """
    found: list[Request] = []
    scanned = 0
    for k in range(2, n_trees + 1):
        for trees in itertools.combinations(range(1, n_trees + 1), k):
            for tips in itertools.product(*(states[n].nodes[: snapshot[n]] for n in trees)):
                scanned += 1
                if scanned > enum_budget:
                    return found, True, None
                if _disjoint([states[n].chain_sets[w] for n, w in zip(trees, tips)]):
                    found.append((trees, tips))
                    if len(found) > limit:
                        return found, True, None
    return found, False, len(found)


def _sample_requests(
    states: dict[int, _TreeState], snapshot: dict[int, int], rng: Lcg64, params: ReznParams
) -> Iterator[tuple[int, Request]]:
    """Seeded draws for a stage whose requests overflow the pool: for each
    label, up to SAMPLE_RETRIES draws of a tree set and one tip per tree;
    the first disjoint request not drawn before is yielded with the label."""
    seen: set[Request] = set()
    for label in range(params.label_pool):
        for _ in range(SAMPLE_RETRIES):
            size = 2 + rng.bounded(params.n_trees - 1)
            deck = list(range(1, params.n_trees + 1))
            for i in range(size):
                j = i + rng.bounded(params.n_trees - i)
                deck[i], deck[j] = deck[j], deck[i]
            trees = tuple(sorted(deck[:size]))
            tips = tuple(states[n].nodes[rng.bounded(snapshot[n])] for n in trees)
            if (trees, tips) in seen or not _disjoint([states[n].chain_sets[w] for n, w in zip(trees, tips)]):
                continue
            seen.add((trees, tips))
            yield label, (trees, tips)
            break


def build(params: ReznParams, enum_budget: int = Budgets.enum_budget) -> ReznSystem:
    """Run the staged construction under the given parameters. A stage's
    requests ``(trees, tips)`` are enumerated, or sampled when they overflow
    the pool; each labelled node becomes a child of ``tips[i]`` in ``trees[i]``."""
    states = {n: _TreeState(node_name(0, n)) for n in range(1, params.n_trees + 1)}
    rng = Lcg64(params.rng_seed)
    log: list[StageRecord] = []

    for stage in range(1, params.stages):
        # tips are drawn below the snapshot, so the nodes this stage adds are never tips
        snapshot = {n: len(states[n].nodes) for n in states}
        found, exceeded, total = _enumerate_requests(
            states, snapshot, params.n_trees, params.label_pool, enum_budget
        )
        requests = _sample_requests(states, snapshot, rng, params) if exceeded else enumerate(found)
        satisfied: list[SatisfiedRequest] = []
        for label, (trees, tips) in requests:
            node = node_name(stage, label)
            segments = tuple(canonical_member(states[n].chain_sets[w]) for n, w in zip(trees, tips))
            satisfied.append(SatisfiedRequest(label, ExtensionRequest(trees, segments)))
            for n, w in zip(trees, tips):
                states[n].add(node, w)
        log.append(StageRecord(stage, tuple(satisfied), exceeded_pool=exceeded, total_requests=total))

    gamma = GroundSet(
        node_name(s, t) for s in range(params.stages) for t in range(params.label_pool)
    )
    trees = {n: FiniteTree(states[n].parent) for n in states}
    return ReznSystem(params=params, gamma=gamma, trees=trees, stage_log=tuple(log))


def verify_system(sys: ReznSystem, *, full: bool = True) -> dict:
    """Re-check the construction invariants exhaustively; returns a per-check report.

    Every logged extension and every pair of trees is checked. ``full`` must
    be True; it stays only for callers written when a sampled mode existed.
    """
    if full is not True:
        raise ValueError("verify_system is always exhaustive; full must be True")
    params = sys.params
    log = tuple(sys.stage_log)  # builds a decoded log now, so its payload lists go before the maps below
    trees = {n: sys.tree(n) for n in range(1, params.n_trees + 1)}
    key = {v: node_key(v) for v in set().union(*(t.nodes for t in trees.values()))}
    # proper ancestors of every node, nearest first, for the extension and
    # near-disjointness checks
    above = {n: {v: t.ancestors(v)[1:] for v in t.nodes} for n, t in sys.trees.items()}

    added: dict[int, set[str]] = {n: set() for n in trees}
    ext_failures = []
    ext_checked = 0
    for rec in log:
        for sat in rec.satisfied:
            node = node_name(rec.stage, sat.label)
            ext_checked += 1
            for n, seg in zip(sat.request.trees, sat.request.segments):
                # a tree index or node the trees lack is a failed extension
                up = above[n].get(node) if n in added else None
                if up is not None:
                    added[n].add(node)
                if not up or set(up) != set(seg) or up[0] != max(seg, key=key.__getitem__):
                    ext_failures.append({"tree": n, "node": node, "segment": list(seg)})

    bound_failures = []
    stage_failures = []
    for n, tree in trees.items():
        root = node_name(0, n)
        if set(tree.roots) != {root}:
            bound_failures.append({"tree": n, "roots": list(tree.roots)})
        if set(tree.nodes) - {root} != added[n]:
            stage_failures.append({"tree": n, "log_mismatch": True})
        for v in tree.nodes:
            stage, label = key[v]
            if not (0 <= stage < params.stages and 0 <= label < params.label_pool):
                bound_failures.append({"tree": n, "node": v})
            p = tree.parent[v]
            if p is not None and key[p][0] >= stage:
                stage_failures.append({"tree": n, "node": v, "parent": p})

    # Two root chains of different trees share two points exactly when some
    # pair of nodes is comparable in both trees. A pair's key is built from
    # node ids in name order, so the least key is the least sorted name pair.
    names = sorted({v for t in sys.trees.values() for v in t.nodes})
    width = len(names)
    ids = {v: i for i, v in enumerate(names)}
    first: dict[int, int] = {}  # pair key -> first tree holding the pair
    holders: dict[int, list[int]] = {}  # only for pairs held by several trees
    for n in sorted(sys.trees):
        for v, up in above[n].items():
            i = ids[v]
            for j in map(ids.__getitem__, up):
                k = i * width + j if i < j else j * width + i
                m = first.setdefault(k, n)
                if m != n:
                    holders.setdefault(k, [m]).append(n)
    clashes: dict[tuple[int, int], int] = {}
    for k, ns in holders.items():
        for pair in itertools.combinations(ns, 2):
            clashes[pair] = min(k, clashes.get(pair, k))
    nd_failures = [
        {"trees": list(pair), "nodes": [names[k // width], names[k % width]]}
        for pair, k in sorted(clashes.items())
    ]

    checks = {
        "bounds": {"passed": not bound_failures, "failures": bound_failures[:5]},
        "stage_monotone": {"passed": not stage_failures, "failures": stage_failures[:5]},
        "extensions": {
            "passed": not ext_failures,
            "checked": ext_checked,
            "failures": ext_failures[:5],
        },
        "near_disjoint": {
            "passed": not nd_failures,
            "checked": len(sys.trees) * (len(sys.trees) - 1) // 2,
            "mode": "exhaustive",
            "failures": nd_failures[:5],
        },
    }
    checks["passed"] = all(c["passed"] for c in checks.values())
    return checks


def segment_family(sys: ReznSystem, adjoin_ground: bool = False) -> SetFamily:
    """Every chain of every tree as a set family; optionally all ground
    singletons are adjoined so the family covers unused atoms too."""
    members: set[Member] = set()
    for n in sorted(sys.trees):
        tree = sys.trees[n]
        for w in tree.nodes:
            chain = tree.ancestors(w)
            for i in range(1, len(chain) + 1):
                members.add(canonical_member(chain[:i]))
                if len(members) > SEGMENT_BUDGET:
                    raise ResourceLimitError(f"segment count exceeds budget {SEGMENT_BUDGET}")
    if adjoin_ground:
        for a in sys.gamma.elements:
            members.add((a,))
            if len(members) > SEGMENT_BUDGET:
                raise ResourceLimitError(f"segment count exceeds budget {SEGMENT_BUDGET}")
    return SetFamily(sys.gamma, members, provenance="reznichenko")


def _is_segment_of(tree: FiniteTree, member: Member) -> bool:
    atoms = set(member)
    if not atoms <= set(tree.nodes):
        return False
    deepest = max(member, key=lambda v: len(tree.ancestors(v)))
    chain = tree.ancestors(deepest)
    if not atoms <= set(chain):
        return False
    idx = [chain.index(a) for a in atoms]
    return max(idx) - min(idx) + 1 == len(atoms)


def segment_strata(sys: ReznSystem, family: SetFamily) -> dict[Member, int]:
    """Stratum of a member: the least tree it is a segment of; adjoined
    singletons outside every tree land in stratum 1."""
    strata: dict[Member, int] = {}
    for m in family.members:
        n = next((n for n in sorted(sys.trees) if _is_segment_of(sys.trees[n], m)), None)
        if n is None:
            if len(m) == 1:
                n = 1
            else:
                raise MissingStratumError(f"{m!r} is not a segment of any tree")
        strata[m] = n
    return strata


def levels_partition(sys: ReznSystem, phi: Sequence[int]) -> Member:
    """Union over i of the phi[i]-th level of tree i+1."""
    if not phi:
        raise IndexOutOfRangeError("phi must name at least one level")
    if len(phi) > sys.params.n_trees:
        raise IndexOutOfRangeError(
            f"phi has {len(phi)} entries but there are {sys.params.n_trees} trees"
        )
    atoms: set[str] = set()
    for i, k in enumerate(phi, start=1):
        if type(k) is not int or k < 0:
            raise IndexOutOfRangeError(f"level {k!r} is not a natural number")
        levels = sys.level_map(i)
        picked = [v for v, lv in levels.items() if lv == k]
        if not picked:
            raise IndexOutOfRangeError(f"tree {i} has no level {k}")
        atoms.update(picked)
    return canonical_member(atoms)


@dataclass(frozen=True)
class PartitionWitness:
    member: Member
    tree: int
    block: int
    intersection: Member
    per_block_counts: dict[int, int] = field(hash=False, default_factory=dict)


def partition_search(
    sys: ReznSystem,
    d_partition: Iterable[Iterable[str]],
    gamma_d: Optional[Iterable[Iterable[str]]] = None,
    threshold: int = 1,
) -> Optional[PartitionWitness]:
    """The first segment, in canonical order, that meets one block of
    d_partition at least ``threshold`` times while meeting every block of
    gamma_d (when given) at most once; None when no segment does.

    Trees are taken by index, and within a tree the bottom nodes ``w`` in
    canonical atom order. The walk from ``w`` toward the root stops at the
    first repeated gamma_d block. The witness is the first prefix of that
    walk in which one d_partition block reaches ``threshold``; that block
    is the witness's ``block``. Every segment is some walk's prefix, so the
    scan is exhaustive.
    """
    check_threshold(threshold)
    d_blocks = validate_partition(sys.gamma, d_partition, name="d_partition")
    d_of = {a: i for i, block in enumerate(d_blocks) for a in block}
    g_of = None
    if gamma_d is not None:
        g_blocks = validate_partition(sys.gamma, gamma_d, name="gamma_d")
        g_of = {a: i for i, block in enumerate(g_blocks) for a in block}
    for n in sorted(sys.trees):
        tree = sys.trees[n]
        for w in sorted(tree.nodes):
            chain: list[str] = []
            counts: dict[int, int] = {}
            g_seen: set[int] = set()
            u = w
            while u is not None:
                if g_of is not None:
                    if g_of[u] in g_seen:
                        break
                    g_seen.add(g_of[u])
                chain.append(u)
                d = d_of[u]
                counts[d] = counts.get(d, 0) + 1
                if counts[d] >= threshold:
                    return PartitionWitness(
                        member=canonical_member(chain),
                        tree=n,
                        block=d,
                        intersection=canonical_member(a for a in chain if d_of[a] == d),
                        per_block_counts=dict(sorted(counts.items())),
                    )
                u = tree.parent[u]
    return None


def system_to_dict(sys: ReznSystem) -> dict:
    return {
        "params": {
            "n_trees": sys.params.n_trees,
            "stages": sys.params.stages,
            "label_pool": sys.params.label_pool,
            "rng_seed": sys.params.rng_seed,
        },
        "trees": {
            str(n): {v: sys.trees[n].parent[v] for v in sorted(sys.trees[n].nodes)}
            for n in sorted(sys.trees)
        },
        "stage_log": [
            {
                "stage": rec.stage,
                "exceeded_pool": rec.exceeded_pool,
                "total_requests": rec.total_requests,
                "satisfied": [
                    {
                        "label": sat.label,
                        "trees": list(sat.request.trees),
                        "segments": [list(seg) for seg in sat.request.segments],
                    }
                    for sat in rec.satisfied
                ],
            }
            for rec in sys.stage_log
        ],
    }


def system_from_dict(payload: dict) -> ReznSystem:
    """Decode a system under one collector pause. Its stage log is checked in
    bulk and built from ``payload``'s lists when first read, so they must not
    change before; a failed check builds it at once to name the first fault."""
    with nogc():
        with _payload_errors("malformed system payload"):
            params = ReznParams(
                n_trees=payload["params"]["n_trees"],
                stages=payload["params"]["stages"],
                label_pool=payload["params"]["label_pool"],
                rng_seed=payload["params"]["rng_seed"],
            )
            raw_trees = payload["trees"]
            if type(raw_trees) is not dict or set(raw_trees) != {str(n) for n in range(1, params.n_trees + 1)}:
                raise InputFormatError(f"'trees' must be an object keyed \"1\"..\"{params.n_trees}\"")
            if not all(type(parent_map) is dict for parent_map in raw_trees.values()):
                raise InputFormatError("each tree must be an object mapping node to parent")
            trees = {int(n): FiniteTree(parent_map) for n, parent_map in raw_trees.items()}
            stage_log = payload["stage_log"]
            sats = [sat for rec in stage_log for sat in rec["satisfied"]]
            seg_lists = [sat["segments"] for sat in sats]
            _check_atom_lists(list(itertools.chain.from_iterable(seg_lists)), "stage-log segments")
            tree_lists = [sat["trees"] for sat in sats]
            ints = itertools.chain([rec["stage"] for rec in stage_log], [sat["label"] for sat in sats], *tree_lists)
            flags = {(type(rec["exceeded_pool"]), type(rec["total_requests"])) for rec in stage_log}
            if not (set(map(type, tree_lists)) <= {list} and set(map(type, ints)) <= {int}):
                raise InputFormatError("stage-log stages, labels and tree indices must be integers")
            if not flags <= {(bool, int), (bool, type(None))}:
                raise InputFormatError("stage-log exceeded_pool must be a boolean, total_requests an integer or null")
            # one segment per tree, and each request's union as large as its
            # segments' sizes summed: then its segments are disjoint sets
            counts_match = list(map(len, tree_lists)) == list(map(len, seg_lists))
            unions = sum(map(len, itertools.starmap(set().union, seg_lists)))
            disjoint = unions == sum(map(len, itertools.chain.from_iterable(seg_lists)))
            log = _DecodedLog(stage_log) if counts_match and disjoint else _stage_records(stage_log)
        gamma = GroundSet(
            node_name(s, t) for s in range(params.stages) for t in range(params.label_pool)
        )
        if not all(gamma.covers(tree.nodes) for tree in trees.values()):
            stray = min(v for tree in trees.values() for v in tree.nodes if v not in gamma)
            raise InputFormatError(f"tree node {stray!r} is not a stage:label atom of the system")
        return ReznSystem(params=params, gamma=gamma, trees=trees, stage_log=log)
