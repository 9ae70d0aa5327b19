import collections
import dataclasses
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsnorm import reznichenko
from jsnorm.budgets import Budgets
from jsnorm.core import FiniteTree, GroundSet, SetFamily, canonical_member
from jsnorm.errors import (
    IndexOutOfRangeError,
    InputFormatError,
    InvalidPartitionError,
    MissingStratumError,
    ResourceLimitError,
)
from jsnorm.reznichenko import (
    SAMPLE_RETRIES,
    ExtensionRequest,
    Lcg64,
    ReznParams,
    ReznSystem,
    SatisfiedRequest,
    StageRecord,
    _TreeState,
    _is_segment_of,
    build,
    levels_partition,
    node_key,
    node_name,
    partition_search,
    segment_family,
    segment_strata,
    system_from_dict,
    system_to_dict,
    verify_system,
)


def _comparable_pairs(tree: FiniteTree) -> set[frozenset]:
    """All unordered pairs of distinct comparable nodes."""
    out: set[frozenset] = set()
    for v in tree.nodes:
        chain = tree.ancestors(v)
        for u in chain[1:]:
            out.add(frozenset((u, v)))
    return out


def _reference_verify(sys: ReznSystem) -> dict:
    """Reference for ``verify_system``: chains are walked and keys parsed
    afresh in each check, and near-disjointness intersects the
    comparable-pair sets of every pair of trees."""
    params = sys.params
    checks: dict[str, dict] = {}

    bound_failures = []
    for n in range(1, params.n_trees + 1):
        tree = sys.tree(n)
        if set(tree.roots) != {node_name(0, n)}:
            bound_failures.append({"tree": n, "roots": list(tree.roots)})
        for v in tree.nodes:
            stage, label = node_key(v)
            if not (0 <= stage < params.stages and 0 <= label < params.label_pool):
                bound_failures.append({"tree": n, "node": v})
    checks["bounds"] = {"passed": not bound_failures, "failures": bound_failures[:5]}

    stage_failures = []
    added: dict[int, set[str]] = {n: set() for n in range(1, params.n_trees + 1)}
    for rec in sys.stage_log:
        for sat in rec.satisfied:
            node = node_name(rec.stage, sat.label)
            for n in sat.request.trees:
                added[n].add(node)
    for n in range(1, params.n_trees + 1):
        tree = sys.tree(n)
        non_roots = set(tree.nodes) - {node_name(0, n)}
        if non_roots != added[n]:
            stage_failures.append({"tree": n, "log_mismatch": True})
        for v in tree.nodes:
            p = tree.parent[v]
            if p is not None and node_key(p)[0] >= node_key(v)[0]:
                stage_failures.append({"tree": n, "node": v, "parent": p})
    checks["stage_monotone"] = {"passed": not stage_failures, "failures": stage_failures[:5]}

    ext_failures = []
    ext_checked = 0
    for rec in sys.stage_log:
        for sat in rec.satisfied:
            node = node_name(rec.stage, sat.label)
            ext_checked += 1
            for n, seg in zip(sat.request.trees, sat.request.segments):
                tree = sys.tree(n)
                chain = tree.ancestors(node)
                if set(chain[1:]) != set(seg) or tree.parent[node] != max(seg, key=node_key):
                    ext_failures.append({"tree": n, "node": node, "segment": list(seg)})
    checks["extensions"] = {
        "passed": not ext_failures,
        "checked": ext_checked,
        "failures": ext_failures[:5],
    }

    nd_failures = []
    nd_checked = 0
    pair_sets = {n: _comparable_pairs(sys.tree(n)) for n in sys.trees}
    for n, m in itertools.combinations(sorted(pair_sets), 2):
        nd_checked += 1
        clash = pair_sets[n] & pair_sets[m]
        if clash:
            pair = sorted(sorted(p) for p in clash)[0]
            nd_failures.append({"trees": [n, m], "nodes": pair})
    checks["near_disjoint"] = {
        "passed": not nd_failures,
        "checked": nd_checked,
        "mode": "exhaustive",
        "failures": nd_failures[:5],
    }

    checks["passed"] = all(c["passed"] for c in checks.values())
    return checks


def _reference_enumerate(states, snapshot, n_trees, limit, enum_budget):
    """Requests as segment tuples, each combo tested for disjointness on its
    own: the enumeration ``build`` was checked against."""
    found = []
    scanned = 0
    for k in range(2, n_trees + 1):
        for trees in itertools.combinations(range(1, n_trees + 1), k):
            ranges = [range(snapshot[n]) for n in trees]
            for pick in itertools.product(*ranges):
                scanned += 1
                if scanned > enum_budget:
                    return found, True, None
                chains = [states[n].chain_sets[states[n].nodes[i]] for n, i in zip(trees, pick)]
                if len(frozenset().union(*chains)) != sum(len(c) for c in chains):
                    continue
                found.append(ExtensionRequest(trees=trees, segments=tuple(canonical_member(c) for c in chains)))
                if len(found) > limit:
                    return found, True, None
    return found, False, len(found)


def _reference_build(params: ReznParams, enum_budget: int = Budgets.enum_budget) -> ReznSystem:
    """Reference for ``build``: requests carry segments only, the sampler
    deduplicates on segments, and each node's parent is found again as the
    segment's greatest node by (stage, label)."""
    states = {n: _TreeState(node_name(0, n)) for n in range(1, params.n_trees + 1)}
    rng = Lcg64(params.rng_seed)
    log = []
    for stage in range(1, params.stages):
        snapshot = {n: len(states[n].nodes) for n in states}
        requests, exceeded, total = _reference_enumerate(
            states, snapshot, params.n_trees, params.label_pool, enum_budget
        )
        satisfied = []
        if not exceeded:
            satisfied = [SatisfiedRequest(label=label, request=req) for label, req in enumerate(requests)]
        else:
            seen_keys = set()
            for label in range(params.label_pool):
                for _ in range(SAMPLE_RETRIES):
                    size = 2 + rng.bounded(params.n_trees - 1)
                    deck = list(range(1, params.n_trees + 1))
                    for i in range(size):
                        j = i + rng.bounded(params.n_trees - i)
                        deck[i], deck[j] = deck[j], deck[i]
                    trees = tuple(sorted(deck[:size]))
                    chains = [states[n].chain_sets[states[n].nodes[rng.bounded(snapshot[n])]] for n in trees]
                    if len(frozenset().union(*chains)) != sum(len(c) for c in chains):
                        continue
                    key = (trees, tuple(canonical_member(c) for c in chains))
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                    request = ExtensionRequest(trees=key[0], segments=key[1])
                    satisfied.append(SatisfiedRequest(label=label, request=request))
                    break
        for sat in satisfied:
            node = node_name(stage, sat.label)
            for n, seg in zip(sat.request.trees, sat.request.segments):
                states[n].add(node, max(seg, key=node_key))
        log.append(StageRecord(stage, tuple(satisfied), exceeded_pool=exceeded, total_requests=total))
    gamma = GroundSet(node_name(s, t) for s in range(params.stages) for t in range(params.label_pool))
    trees = {n: FiniteTree(states[n].parent) for n in states}
    return ReznSystem(params=params, gamma=gamma, trees=trees, stage_log=tuple(log))


def small_system(**kw):
    defaults = dict(n_trees=2, stages=4, label_pool=6, rng_seed=0)
    defaults.update(kw)
    return build(ReznParams(**defaults))


def test_params_validation():
    with pytest.raises(InputFormatError):
        ReznParams(n_trees=0)
    with pytest.raises(InputFormatError):
        ReznParams(n_trees=4, label_pool=4)  # pool must exceed tree count
    with pytest.raises(InputFormatError):
        ReznParams(stages=0)


def test_node_naming():
    assert node_name(3, 7) == "3:7"
    assert node_key("3:7") == (3, 7)
    assert node_key("10:2") > node_key("9:99")


def test_lcg_is_deterministic():
    a, b = Lcg64(42), Lcg64(42)
    assert [a.next() for _ in range(5)] == [b.next() for _ in range(5)]
    assert all(0 <= Lcg64(7).bounded(10) < 10 for _ in range(20))


def test_single_stage_build_has_only_roots():
    sys = build(ReznParams(n_trees=2, stages=1, label_pool=4, rng_seed=0))
    assert sys.trees[1].nodes == ("0:1",)
    assert sys.trees[2].nodes == ("0:2",)
    assert sys.stage_log == ()


def test_two_stage_build_adjoins_shared_child():
    sys = build(ReznParams(n_trees=2, stages=2, label_pool=4, rng_seed=0))
    # the only |I| >= 2 request at stage 1 pairs the two roots
    assert sorted(sys.trees[1].nodes) == ["0:1", "1:0"]
    assert sorted(sys.trees[2].nodes) == ["0:2", "1:0"]
    assert sys.trees[1].parent["1:0"] == "0:1"
    assert sys.trees[2].parent["1:0"] == "0:2"
    rec = sys.stage_log[0]
    assert rec.stage == 1 and not rec.exceeded_pool and rec.total_requests == 1
    assert rec.satisfied[0].label == 0


def test_build_is_deterministic_per_seed():
    a, b = small_system(), small_system()
    assert system_to_dict(a) == system_to_dict(b)
    c = small_system(rng_seed=1)
    assert system_to_dict(c) != system_to_dict(a)


def test_gamma_is_full_grid():
    sys = small_system()
    assert len(sys.gamma.elements) == 4 * 6
    assert "0:0" in sys.gamma and "3:5" in sys.gamma


def test_stage_log_reports_pool_exhaustion():
    sys = small_system(stages=3)
    assert any(r.exceeded_pool for r in sys.stage_log) or all(
        len(r.satisfied) == (r.total_requests or 0) for r in sys.stage_log
    )


def test_level_map_and_tree_access():
    sys = small_system()
    levels = sys.level_map(1)
    assert levels["0:1"] == 0
    assert min(levels.values()) == 0


def test_verify_system_passes_on_builds():
    for seed in (0, 3):
        sys = small_system(rng_seed=seed)
        report = verify_system(sys)
        assert report["passed"], report
        assert report["near_disjoint"]["mode"] == "exhaustive"


def test_verify_larger_build_passes():
    sys = build(ReznParams(n_trees=4, stages=8, label_pool=12, rng_seed=5))
    report = verify_system(sys)
    assert report["passed"]


def test_verify_full_must_be_true():
    sys = small_system()
    assert verify_system(sys, full=True) == verify_system(sys)
    with pytest.raises(ValueError):
        verify_system(sys, full=False)


def test_verify_reports_log_node_missing_from_tree():
    payload = system_to_dict(build(ReznParams(2, 3, 4, 7)))
    del payload["trees"]["1"]["2:0"]  # a leaf the stage log still adds to tree 1
    report = verify_system(system_from_dict(payload))
    assert not report["passed"]
    assert report["extensions"]["failures"] == [{"tree": 1, "node": "2:0", "segment": ["0:1"]}]
    assert report["extensions"]["checked"] == 4
    for name in ("bounds", "stage_monotone", "near_disjoint"):
        assert report[name]["passed"], name


def test_verify_reports_log_tree_out_of_range():
    payload = system_to_dict(build(ReznParams(2, 3, 4, 7)))
    payload["stage_log"][0]["satisfied"][0]["trees"] = [1, 3]
    report = verify_system(system_from_dict(payload))
    assert not report["passed"]
    assert report["extensions"]["failures"] == [{"tree": 3, "node": "1:0", "segment": ["0:2"]}]
    # tree 2 gained 1:0, and the log no longer says so
    assert report["stage_monotone"]["failures"] == [{"tree": 2, "log_mismatch": True}]
    assert report.keys() == verify_system(small_system()).keys()


@pytest.mark.parametrize(
    "shape", [(8, 32, 64), (2, 32, 64), (3, 24, 128), (16, 64, 128)], ids=lambda s: "/".join(map(str, s))
)
def test_verify_matches_reference_on_benchmark_shapes(shape):
    n_trees, stages, label_pool = shape
    sys = build(ReznParams(n_trees=n_trees, stages=stages, label_pool=label_pool, rng_seed=1))
    report = verify_system(sys)
    assert report["passed"]
    assert report == _reference_verify(sys)


def _descendants(parent: dict, v: str) -> set[str]:
    kids: dict = {}
    for a, p in parent.items():
        kids.setdefault(p, []).append(a)
    out, stack = set(), [v]
    while stack:
        a = stack.pop()
        out.add(a)
        stack.extend(kids.get(a, ()))
    return out


def _corrupt(sys: ReznSystem, rnd: random.Random) -> tuple[ReznSystem, set[str]]:
    """Apply one to three random edits to the trees, leaving the log alone.

    graft: hang a node under another node of its tree (not a descendant).
    invert: a node and its parent trade places on their edge.
    swap: a node and its parent trade names, so each takes the other's
    children; both of the last two put a later stage above an earlier one.
    """
    trees = dict(sys.trees)
    kinds = set()
    for _ in range(rnd.randint(1, 3)):
        n = rnd.choice(sorted(trees))
        parent = dict(trees[n].parent)
        inner = sorted(v for v, p in parent.items() if p is not None)
        if not inner:
            continue
        v = rnd.choice(inner)
        p = parent[v]
        kind = rnd.choice(["graft", "invert", "swap"])
        if kind == "graft":
            parent[v] = rnd.choice(sorted(set(parent) - _descendants(parent, v)))
        elif parent[p] is None:
            continue
        elif kind == "invert":
            parent[v], parent[p] = parent[p], v
        else:
            swap = {v: p, p: v}
            parent = {swap.get(a, a): swap.get(b, b) for a, b in parent.items()}
        kinds.add(kind)
        trees[n] = FiniteTree(parent)
    return dataclasses.replace(sys, trees=trees), kinds


def test_verify_matches_reference_on_corrupted_systems():
    rnd = random.Random(0)
    failed = {"near_disjoint": 0, "inverted_near_disjoint": 0, "extensions": 0, "stage_monotone": 0}
    cases = 0
    for shape in [(3, 6, 10), (4, 8, 12), (5, 7, 16)]:
        for seed in range(3):
            n_trees, stages, label_pool = shape
            base = build(ReznParams(n_trees=n_trees, stages=stages, label_pool=label_pool, rng_seed=seed))
            for _ in range(15):
                bad, kinds = _corrupt(base, rnd)
                report = verify_system(bad)
                assert report == _reference_verify(bad), kinds
                cases += bool(kinds)
                for check in ("near_disjoint", "extensions", "stage_monotone"):
                    failed[check] += not report[check]["passed"]
                if kinds <= {"invert", "swap"} and not report["near_disjoint"]["passed"]:
                    failed["inverted_near_disjoint"] += 1
    assert cases >= 100
    assert failed["near_disjoint"] >= 20 and failed["inverted_near_disjoint"] >= 5, failed
    assert failed["extensions"] >= 50 and failed["stage_monotone"] >= 20, failed


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**20))
def test_verify_matches_reference_across_seeds(seed):
    sys = build(ReznParams(n_trees=4, stages=6, label_pool=12, rng_seed=seed))
    assert verify_system(sys) == _reference_verify(sys)


def test_near_disjointness_exhaustive_on_small_build():
    sys = small_system()
    for i in sorted(sys.trees):
        for j in sorted(sys.trees):
            if i >= j:
                continue
            shared = _comparable_pairs(sys.trees[i]) & _comparable_pairs(sys.trees[j])
            assert not shared


def test_segment_family_and_strata():
    sys = small_system()
    fam = segment_family(sys)
    assert fam.provenance == "reznichenko"
    strata = segment_strata(sys, fam)
    for m, n in strata.items():
        assert _is_segment_of(sys.trees[n], m)
    fam2 = segment_family(sys, adjoin_ground=True)
    for a in sys.gamma.elements:
        assert (a,) in fam2
    strata2 = segment_strata(sys, fam2)
    assert all(n >= 1 for n in strata2.values())


def test_segment_family_raises_past_its_fixed_guard(monkeypatch):
    # SEGMENT_BUDGET is a module constant, not a Budgets field; both of
    # segment_family's raises are reached by lowering it.
    sys = small_system()
    segments = len(segment_family(sys).members)
    with_ground = len(segment_family(sys, adjoin_ground=True).members)
    assert segments < with_ground
    monkeypatch.setattr(reznichenko, "SEGMENT_BUDGET", segments - 1)
    with pytest.raises(ResourceLimitError, match="segment count exceeds budget"):
        segment_family(sys)
    monkeypatch.setattr(reznichenko, "SEGMENT_BUDGET", segments)
    assert len(segment_family(sys).members) == segments
    with pytest.raises(ResourceLimitError, match="segment count exceeds budget"):
        segment_family(sys, adjoin_ground=True)
    monkeypatch.setattr(reznichenko, "SEGMENT_BUDGET", with_ground)
    assert len(segment_family(sys, adjoin_ground=True).members) == with_ground


def test_segment_strata_rejects_non_segments():
    sys = small_system()
    fam = segment_family(sys, adjoin_ground=True)
    bogus = SetFamily(fam.ground, list(fam.members) + [("0:1", "0:2")], fam.provenance)
    with pytest.raises(MissingStratumError):
        segment_strata(sys, bogus)


def test_levels_partition_goldens():
    sys = small_system()
    assert levels_partition(sys, (0,)) == ("0:1",)
    assert levels_partition(sys, (0, 0)) == ("0:1", "0:2")
    with pytest.raises(IndexOutOfRangeError):
        levels_partition(sys, ())
    with pytest.raises(IndexOutOfRangeError):
        levels_partition(sys, (0, 0, 0))
    with pytest.raises(IndexOutOfRangeError):
        levels_partition(sys, (99,))


@pytest.mark.parametrize("level", [True, False])
def test_levels_partition_rejects_non_integer_level(level):
    # A bool is an int subclass, so an isinstance check read True as level 1.
    with pytest.raises(IndexOutOfRangeError, match="is not a natural number"):
        levels_partition(small_system(), [level])


def test_levels_meet_segments_sparsely():
    sys = small_system()
    fam = segment_family(sys)
    # a level of tree n is an antichain there, so tree-n segments cross it
    # at most once; segments of other trees may hit it more often
    for n in sorted(sys.trees):
        levels = sys.level_map(n)
        by_level: dict[int, set] = {}
        for v, lv in levels.items():
            by_level.setdefault(lv, set()).add(v)
        for m in fam.members:
            if not _is_segment_of(sys.trees[n], m):
                continue
            for block in by_level.values():
                assert len(block.intersection(m)) <= 1


def test_partition_search_finds_root_chain_witness():
    sys = small_system()
    witness = partition_search(sys, [list(sys.gamma.elements)], None, threshold=2)
    assert witness is not None
    assert witness.block == 0
    assert len(witness.intersection) >= 2
    assert _is_segment_of(sys.trees[witness.tree], witness.member)


def test_partition_search_respects_gamma_d():
    sys = small_system()
    atoms = sys.gamma.elements
    # gamma_d = singletons forces |M cap Gamma_d| <= 1 trivially
    witness = partition_search(sys, [list(atoms)], [[a] for a in atoms], threshold=2)
    assert witness is not None
    # one gamma_d block holding everything kills every multi-node segment
    assert partition_search(sys, [list(atoms)], [list(atoms)], threshold=2) is None


def test_partition_search_none_when_infeasible():
    sys = small_system()
    atoms = list(sys.gamma.elements)
    # alternate blocks by raw order; no segment collects `threshold` hits of one block
    blocks = [atoms[0::2], atoms[1::2]]
    w = partition_search(sys, blocks, None, threshold=len(atoms))
    assert w is None


def test_partition_search_validates_inputs():
    sys = small_system()
    with pytest.raises(InvalidPartitionError):
        partition_search(sys, [list(sys.gamma.elements)], None, threshold=0)
    with pytest.raises(InvalidPartitionError):
        partition_search(sys, [["0:1"]], None, threshold=1)


def test_serialization_round_trip():
    sys = small_system()
    payload = system_to_dict(sys)
    back = system_from_dict(payload)
    assert system_to_dict(back) == payload
    with pytest.raises(InputFormatError):
        system_from_dict({"params": {}})


@pytest.mark.parametrize("threshold", [1.5, 2.0, True])
def test_partition_search_rejects_non_integer_threshold(threshold):
    sys = small_system()
    with pytest.raises(InvalidPartitionError, match="threshold must be an integer"):
        partition_search(sys, [list(sys.gamma.elements)], None, threshold=threshold)


# The build shapes of the benchmark's tree-system workload, at fixed seeds.
_BENCH_BUILDS = [(8, 32, 64, 1), (8, 32, 64, 2), (2, 32, 64, 1), (3, 24, 128, 1), (16, 64, 128, 1)]


@pytest.mark.parametrize("shape", _BENCH_BUILDS, ids=lambda s: "/".join(map(str, s)))
def test_decoded_log_equals_built_log(shape):
    sys = build(ReznParams(*shape))
    payload = system_to_dict(sys)
    back = system_from_dict(payload)
    assert back.stage_log == sys.stage_log and sys.stage_log == back.stage_log
    assert tuple(back.stage_log) == sys.stage_log and len(back.stage_log) == len(sys.stage_log)
    assert system_to_dict(back) == payload
    assert verify_system(back) == verify_system(sys)


def test_search_partition_builds_no_stage_record(monkeypatch, tmp_path, capsys):
    from jsnorm import cli
    from jsnorm.serialize import canonical_json

    sys = build(ReznParams(4, 8, 12, 5))
    atoms = list(sys.gamma.elements)
    system, part = tmp_path / "system.json", tmp_path / "part.json"
    system.write_text(canonical_json({"command": "build-reznichenko", "system": system_to_dict(sys)}))
    part.write_text(canonical_json({"blocks": [atoms[i::4] for i in range(4)]}))
    argv = ["search-partition", "--system", str(system), "--partition", str(part), "--threshold", "2"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("search-partition built a stage record")

    monkeypatch.setattr(reznichenko, "ExtensionRequest", refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    assert '"witness":{' in expected


def test_decoded_log_reads_segments_as_sets():
    payload = system_to_dict(build(ReznParams(2, 3, 4, 7)))
    expected = tuple(system_from_dict(payload).stage_log)
    seg = payload["stage_log"][1]["satisfied"][0]["segments"][0]
    seg.extend(reversed(seg))  # every atom twice: the same set
    assert system_from_dict(payload).stage_log == expected


@pytest.mark.parametrize("faults", [("count",), ("overlap",), ("count", "overlap"), ("overlap", "count")])
def test_first_bad_request_names_its_fault(faults):
    payload = system_to_dict(build(ReznParams(3, 4, 6, 2)))
    sats = [sat for rec in payload["stage_log"] for sat in rec["satisfied"] if len(sat["trees"]) == 2]
    for fault, sat in zip(faults, sats):
        if fault == "count":
            sat["trees"] = sat["trees"][:1]
        else:
            sat["segments"][1] = sat["segments"][1] + sat["segments"][0]
    message = {"count": "one segment per requested tree", "overlap": "request segments must be pairwise disjoint"}
    with pytest.raises(InputFormatError, match=f"^{message[faults[0]]}$"):
        system_from_dict(payload)


def test_default_build_contract():
    sys = build(ReznParams())
    assert sys.params.n_trees == 8
    assert sys.params.stages == 32
    assert sys.params.label_pool == 64
    assert len(sys.trees) == 8


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**20))
def test_builds_verify_across_seeds(seed):
    sys = build(ReznParams(n_trees=3, stages=4, label_pool=8, rng_seed=seed))
    report = verify_system(sys)
    assert report["passed"]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**20), st.integers(2, 4))
def test_partition_search_witnesses_replay(seed, threshold):
    rnd = random.Random(seed)
    sys = small_system(rng_seed=seed % 7)
    atoms = list(sys.gamma.elements)
    n_blocks = rnd.randint(1, 4)
    blocks: dict[int, list] = {}
    for a in atoms:
        blocks.setdefault(rnd.randrange(n_blocks), []).append(a)
    parts = [blocks[i] for i in sorted(blocks)]
    w = partition_search(sys, parts, None, threshold=threshold)
    if w is None:
        return
    d_of = {a: i for i, b in enumerate(parts) for a in b}
    hits = [a for a in w.member if d_of[a] == w.block]
    assert len(hits) >= threshold
    assert tuple(sorted(hits)) == w.intersection
    assert _is_segment_of(sys.trees[w.tree], w.member)


@functools.lru_cache(maxsize=None)
def _cached_system(n_trees, stages, label_pool, rng_seed):
    return build(ReznParams(n_trees, stages, label_pool, rng_seed))


def _first_segment(sys, d_of, g_of, threshold):
    """Brute-force reference for ``partition_search``: every (tree, bottom
    node, length) in the documented order, each segment counted afresh."""
    for n in sorted(sys.trees):
        tree = sys.trees[n]
        for w in sorted(tree.nodes):
            chain = tree.ancestors(w)
            for length in range(1, len(chain) + 1):
                seg = chain[:length]
                if g_of is not None and len({g_of[a] for a in seg}) < length:
                    continue
                counts = collections.Counter(d_of[a] for a in seg)
                hits = [d for d, c in counts.items() if c >= threshold]
                if hits:
                    (block,) = hits
                    return reznichenko.PartitionWitness(
                        member=tuple(sorted(seg)),
                        tree=n,
                        block=block,
                        intersection=tuple(sorted(a for a in seg if d_of[a] == block)),
                        per_block_counts=dict(sorted(counts.items())),
                    )
    return None


# In the last two shapes, names such as "10:0" and "2:0" make a tree's node
# order differ from canonical atom order.
@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.sampled_from([(2, 3, 4), (2, 4, 6), (3, 4, 5), (3, 4, 11), (2, 12, 4)]), st.integers(0, 3)),
    st.integers(1, 4),
    st.integers(1, 5),
    st.one_of(st.none(), st.integers(1, 12)),
    st.randoms(use_true_random=False),
)
def test_partition_search_returns_the_first_segment(shape, threshold, d_blocks, g_blocks, rnd):
    sys = _cached_system(*shape[0], shape[1])
    atoms = list(sys.gamma.elements)

    def partition(k):
        label = {a: rnd.randrange(k) for a in atoms}
        parts = [[a for a in atoms if label[a] == i] for i in sorted(set(label.values()))]
        return parts, {a: i for i, block in enumerate(parts) for a in block}

    d_parts, d_of = partition(d_blocks)
    g_parts, g_of = partition(g_blocks) if g_blocks is not None else (None, None)
    witness = partition_search(sys, d_parts, g_parts, threshold=threshold)
    assert witness == _first_segment(sys, d_of, g_of, threshold)


ENUM_BUDGETS = [1, 5, 50, Budgets.enum_budget]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(2, 7),
    st.integers(1, 5),
    st.integers(0, 2**64 - 1),
    st.sampled_from(ENUM_BUDGETS),
)
def test_build_matches_reference(n_trees, stages, spare, seed, enum_budget):
    params = ReznParams(n_trees=n_trees, stages=stages, label_pool=n_trees + spare, rng_seed=seed)
    assert system_to_dict(build(params, enum_budget)) == system_to_dict(_reference_build(params, enum_budget))


@pytest.mark.parametrize("enum_budget", ENUM_BUDGETS)
def test_build_matches_reference_on_enumerated_and_sampled_stages(enum_budget):
    for params in (ReznParams(3, 6, 8, 11), ReznParams(4, 5, 12, 12), ReznParams(2, 32, 64, 1)):
        payload = system_to_dict(build(params, enum_budget))
        assert payload == system_to_dict(_reference_build(params, enum_budget))
        if enum_budget == Budgets.enum_budget:
            # the same build both enumerates and samples
            assert {rec["exceeded_pool"] for rec in payload["stage_log"]} == {False, True}


def test_build_does_not_parse_node_names(monkeypatch):
    def refuse(atom):
        raise AssertionError(f"build parsed the node name {atom!r}")

    # the reference keeps its own binding of node_key
    monkeypatch.setattr(reznichenko, "node_key", refuse)
    for params in (ReznParams(3, 6, 8, 11), ReznParams(2, 32, 64, 1)):
        assert system_to_dict(build(params)) == system_to_dict(_reference_build(params))
