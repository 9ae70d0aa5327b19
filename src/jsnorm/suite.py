"""Acceptance suite: every shipping property re-checked against independent
oracles, runnable from the CLI (``jsnorm suite``) and from the test bed.

Each criterion function draws from its own seeded generator and returns a
dict with a pass flag plus measured values; nothing here mutates library
state, so reruns with the same seed reproduce the same report.
"""

from __future__ import annotations

import decimal
import itertools
import random
import time
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence

from . import ci as ci_mod
from .budgets import Budgets
from .core import (
    FinVector,
    GroundSet,
    Member,
    SetFamily,
    dyadic_tree,
    tree_segments,
    unit_vector,
)
from .norm import (
    DualCombination,
    dual_eval,
    functional_eval,
    greedy_bound,
    greedy_extract,
    norm_oracle,
    norm_tree_dp,
    sqrt_decimal,
)
from .reznichenko import (
    ReznParams,
    _is_segment_of,
    build,
    partition_search,
    verify_system,
)
from .talagrand import (
    AdmissibleSet,
    SeqGrid,
    admissible_family,
    is_admissible,
    qe_partition_search,
    saturation_partition,
)


def _rand_fraction(rnd: random.Random, num_lo=-3, num_hi=3, den_hi=4) -> Fraction:
    return Fraction(rnd.randint(num_lo, num_hi), rnd.randint(1, den_hi))


def _rand_vector(rnd: random.Random, ground: GroundSet, max_support: Optional[int] = None) -> FinVector:
    atoms = ground.elements
    if max_support is None:
        chosen = atoms
    else:
        size = rnd.randint(0, min(max_support, len(atoms)))
        chosen = rnd.sample(atoms, size)
    return FinVector(ground, {a: _rand_fraction(rnd) for a in chosen})


def _int_sqrt_ceil(value: Fraction) -> int:
    """Smallest integer c with c*c >= value."""
    if value <= 0:
        return 0
    c = isqrt(value.numerator // value.denominator)
    while c * c < value:
        c += 1
    return c


def _random_partition(rnd: random.Random, atoms: Sequence[str], max_blocks: int) -> list[list[str]]:
    n = rnd.randint(1, max_blocks)
    blocks: dict[int, list[str]] = {}
    for a in atoms:
        blocks.setdefault(rnd.randrange(n), []).append(a)
    return [blocks[i] for i in sorted(blocks)]


def _pairwise_disjoint(members) -> bool:
    seen: set = set()
    for m in members:
        for a in m:
            if a in seen:
                return False
            seen.add(a)
    return True


def criterion_1_oracle_dp(seed: int, budgets: Budgets) -> dict:
    rnd = random.Random(seed * 1009 + 1)
    t0 = time.perf_counter()
    cases = 0
    mismatches = []
    for depth in range(1, 6):
        tree = dyadic_tree(depth)
        family = tree_segments(tree)
        ground = tree.ground_set()
        for _ in range(500):
            phi = _rand_vector(rnd, ground, max_support=16)
            a = norm_oracle(family, phi, state_budget=budgets.state_budget)
            b = norm_tree_dp(tree, phi)
            cases += 1
            if a.norm_sq != b.norm_sq:
                mismatches.append({"depth": depth, "entries": {k: str(v) for k, v in phi.entries.items()}})
    elapsed = time.perf_counter() - t0
    return {
        "criterion": 1,
        "name": "oracle-dp-equivalence",
        "passed": not mismatches,
        "detail": {"cases": cases, "mismatches": mismatches[:3], "elapsed_s": round(elapsed, 2)},
    }


def criterion_2_norm_axioms(seed: int, budgets: Budgets) -> dict:
    rnd = random.Random(seed * 1009 + 2)
    tree = dyadic_tree(3)
    family = tree_segments(tree)
    ground = tree.ground_set()
    bad = {"homogeneity": 0, "triangle": 0, "l2_bound": 0, "unit_vectors": 0}

    vectors = [_rand_vector(rnd, ground) for _ in range(1000)]
    norms = [norm_oracle(family, phi, state_budget=budgets.state_budget).norm_sq for phi in vectors]
    for phi, nsq in zip(vectors, norms):
        c = Fraction(rnd.choice([-3, -2, -1, 1, 2, 3]), rnd.randint(1, 4))
        if norm_oracle(family, phi.scale(c), state_budget=budgets.state_budget).norm_sq != c * c * nsq:
            bad["homogeneity"] += 1
        if nsq < sum((v * v for v in phi.entries.values()), Fraction(0)):
            bad["l2_bound"] += 1

    tol = decimal.Decimal("1e-9")
    for i in range(0, 1000, 2):
        phi, psi = vectors[i], vectors[i + 1]
        lhs = sqrt_decimal(norm_oracle(family, phi + psi, state_budget=budgets.state_budget).norm_sq)
        rhs = sqrt_decimal(norms[i]) + sqrt_decimal(norms[i + 1])
        if lhs > rhs + tol:
            bad["triangle"] += 1

    for a in ground.elements:
        if norm_oracle(family, unit_vector(ground, a), state_budget=budgets.state_budget).norm_sq != 1:
            bad["unit_vectors"] += 1

    return {
        "criterion": 2,
        "name": "norm-axioms",
        "passed": not any(bad.values()),
        "detail": {"vectors": len(vectors), "violations": bad},
    }


def criterion_3_dual_bounds(seed: int, budgets: Budgets) -> dict:
    rnd = random.Random(seed * 1009 + 3)
    tree = dyadic_tree(3)
    family = tree_segments(tree)
    ground = tree.ground_set()
    bad = {"witness_identity": 0, "witness_validity": 0, "cauchy_schwarz": 0}
    for _ in range(500):
        phi = _rand_vector(rnd, ground)
        res = norm_oracle(family, phi, state_budget=budgets.state_budget)
        recomputed = sum(
            (functional_eval(s, phi) ** 2 for s in res.witness), Fraction(0)
        )
        if recomputed != res.norm_sq:
            bad["witness_identity"] += 1
        if not _pairwise_disjoint(res.witness) or any(s not in family for s in res.witness):
            bad["witness_validity"] += 1

        members = list(family.members)
        rnd.shuffle(members)
        picked: list[Member] = []
        used: set = set()
        for m in members:
            if len(picked) == 4:
                break
            if not used.intersection(m):
                picked.append(m)
                used.update(m)
        raw = [Fraction(rnd.randint(1, 3), rnd.randint(1, 4)) for _ in picked]
        scale = _int_sqrt_ceil(sum((x * x for x in raw), Fraction(0))) or 1
        combo = DualCombination([(x / scale, s) for x, s in zip(raw, picked)])
        sumsq = sum((lam * lam for lam, _ in combo.terms), Fraction(0))
        if dual_eval(combo, phi) ** 2 > sumsq * res.norm_sq:
            bad["cauchy_schwarz"] += 1
    return {
        "criterion": 3,
        "name": "dual-bounds",
        "passed": not any(bad.values()),
        "detail": {"cases": 500, "violations": bad},
    }


def criterion_4_disjointify(seed: int, budgets: Budgets) -> dict:
    rnd = random.Random(seed * 1009 + 4)
    family = tree_segments(dyadic_tree(4))
    bad = {"overlap": 0, "union": 0, "containment": 0, "errors": 0}
    for _ in range(1000):
        k = rnd.randint(1, 6)
        inputs = [rnd.choice(family.members) for _ in range(k)]
        try:
            result = ci_mod.disjointify(family, inputs, state_budget=budgets.state_budget)
        except Exception:
            bad["errors"] += 1
            continue
        if not _pairwise_disjoint(result.parts):
            bad["overlap"] += 1
        target = set().union(*(set(m) for m in inputs))
        if result.union() != target:
            bad["union"] += 1
        input_sets = [set(m) for m in inputs]
        if not all(any(set(p) <= s for s in input_sets) for p in result.parts):
            bad["containment"] += 1
    return {
        "criterion": 4,
        "name": "disjointify",
        "passed": not any(bad.values()),
        "detail": {"cases": 1000, "violations": bad},
    }


def _brute_pack_best(cands: list[set], target: set) -> int:
    """Max atoms of ``target`` covered by disjoint candidates; plain recursion."""

    def rec(i: int, used: set) -> int:
        if i == len(cands):
            return len(used)
        best = rec(i + 1, used)
        if not (cands[i] & used):
            best = max(best, rec(i + 1, used | cands[i]))
        return best

    return rec(0, set())


def _replay_ci_failure(family: SetFamily, report: ci_mod.CiReport, budgets: Budgets) -> bool:
    """Confirm that every failed condition's witness still demonstrates its failure."""
    replays = []
    if not report.condition_a.passed:
        atom = report.condition_a.witness["atom"]
        replays.append((atom,) not in family)
    if not report.condition_b.passed:
        w = report.condition_b.witness
        cover = ci_mod.check_condition_b(family, w["s"], w["t"], state_budget=budgets.state_budget)
        replays.append(cover is None)
    if not report.condition_c.passed:
        w = report.condition_c.witness
        s = set(w["s"])
        union: set = set()
        for t in w["tuple"]:
            union |= s & set(t)
        target = s - union
        cands = [set(m) for m in family.members if set(m) <= target]
        replays.append(bool(target) and _brute_pack_best(cands, target) < len(target))
    return bool(replays) and all(replays)


def criterion_5_ci_suite(seed: int, budgets: Budgets) -> dict:
    rnd = random.Random(seed * 1009 + 5)
    base_failures = []
    for depth in range(1, 5):
        family = tree_segments(dyadic_tree(depth))
        report = ci_mod.check_ci(
            family,
            sample_bound=budgets.sample_bound,
            pair_budget=budgets.pair_budget,
            state_budget=budgets.state_budget,
            trace_budget=budgets.trace_budget,
        )
        if not report.passed:
            base_failures.append(depth)

    family4 = tree_segments(dyadic_tree(4))
    deletions = {"still_pass": 0, "fail_with_replay": 0, "bad": 0}
    for _ in range(20):
        victim = rnd.choice(family4.members)
        reduced = SetFamily(
            family4.ground, (m for m in family4.members if m != victim), provenance="explicit"
        )
        report = ci_mod.check_ci(
            reduced,
            sample_bound=budgets.sample_bound,
            pair_budget=budgets.pair_budget,
            state_budget=budgets.state_budget,
            trace_budget=budgets.trace_budget,
        )
        if report.passed:
            deletions["still_pass"] += 1
        elif _replay_ci_failure(reduced, report, budgets):
            deletions["fail_with_replay"] += 1
        else:
            deletions["bad"] += 1
    return {
        "criterion": 5,
        "name": "ci-suite",
        "passed": not base_failures and deletions["bad"] == 0,
        "detail": {"base_failures": base_failures, "deletions": deletions},
    }


def criterion_6_talagrand(seed: int, budgets: Budgets) -> dict:
    rnd = random.Random(seed * 1009 + 6)
    grid3 = SeqGrid(4, 3, grid_budget=budgets.grid_budget)
    family3, strata3 = admissible_family(grid3, max_size=4, family_budget=budgets.family_budget)

    uniqueness_bad = 0
    for m in family3.members:
        if len(m) < 2:
            continue
        digits = [grid3.digits(a) for a in m]
        positions = set()
        for i, j in itertools.combinations(range(len(m)), 2):
            pos = next(p for p in range(grid3.length) if digits[i][p] != digits[j][p]) + 1
            positions.add(pos)
        res = is_admissible(grid3, m)
        if positions != {strata3[m]} or not isinstance(res, AdmissibleSet) or res.characteristic != strata3[m]:
            uniqueness_bad += 1

    hereditary_bad = 0
    members = family3.members
    for _ in range(1000):
        m = members[rnd.randrange(len(members))]
        subset = [a for a in m if rnd.random() < 0.5]
        if not isinstance(is_admissible(grid3, subset), AdmissibleSet):
            hereditary_bad += 1

    grid2 = SeqGrid(4, 2, grid_budget=budgets.grid_budget)
    family2, _ = admissible_family(grid2, max_size=4, family_budget=budgets.family_budget)
    atoms = family2.ground.elements
    qe_bad = 0
    for _ in range(200):
        gamma_d = _random_partition(rnd, atoms, 16)
        gamma_n = _random_partition(rnd, atoms, 6)
        threshold = rnd.randint(1, 5)
        witness = qe_partition_search(family2, gamma_d, gamma_n, threshold)

        d_of = {a: i for i, b in enumerate(gamma_d) for a in b}
        n_of = {a: i for i, b in enumerate(gamma_n) for a in b}
        feasible = False
        for s in family2.members:
            d_counts: dict[int, int] = {}
            n_counts: dict[int, int] = {}
            for a in s:
                d_counts[d_of[a]] = d_counts.get(d_of[a], 0) + 1
                n_counts[n_of[a]] = n_counts.get(n_of[a], 0) + 1
            if max(d_counts.values()) <= 1 and max(n_counts.values()) >= threshold:
                feasible = True
                break
        if feasible != (witness is not None):
            qe_bad += 1
        elif witness is not None:
            counts = {}
            for a in witness.s:
                counts[d_of[a]] = counts.get(d_of[a], 0) + 1
            hits = sum(1 for a in witness.s if n_of[a] == witness.n0)
            if max(counts.values()) > 1 or hits < threshold:
                qe_bad += 1
    return {
        "criterion": 6,
        "name": "talagrand",
        "passed": uniqueness_bad == 0 and hereditary_bad == 0 and qe_bad == 0,
        "detail": {
            "family_b4l3": len(family3),
            "uniqueness_bad": uniqueness_bad,
            "hereditary_bad": hereditary_bad,
            "qe_mismatches": qe_bad,
        },
    }


def criterion_7_greedy(seed: int, budgets: Budgets) -> dict:
    rnd = random.Random(seed * 1009 + 7)
    family = tree_segments(dyadic_tree(2))
    ground = family.ground
    bound_ok = greedy_bound(Fraction(1, 2)) == 5 and greedy_bound(Fraction(1)) == 2
    epsilons = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(3, 2)]
    bad = 0
    for _ in range(200):
        phis = []
        for _ in range(rnd.randint(2, 5)):
            phi = _rand_vector(rnd, ground)
            nsq = norm_oracle(family, phi, state_budget=budgets.state_budget).norm_sq
            if nsq > 1:
                phi = phi.scale(Fraction(1, _int_sqrt_ceil(nsq)))
            phis.append(phi)
        eps = rnd.choice(epsilons)
        cert = greedy_extract(family, phis, eps, state_budget=budgets.state_budget)
        ok = (
            len(cert.chosen_sets) <= cert.k_bound
            and _pairwise_disjoint(cert.chosen_sets)
            and all(
                sum((phis[n].value(a) for a in s), Fraction(0)) > eps
                for n in cert.surviving_indices
                for s in cert.chosen_sets
            )
        )
        if not ok:
            bad += 1
    return {
        "criterion": 7,
        "name": "greedy-extraction",
        "passed": bound_ok and bad == 0,
        "detail": {"k_bound_formula_ok": bound_ok, "bad_certificates": bad, "cases": 200},
    }


def criterion_8_reznichenko(seed: int, budgets: Budgets) -> dict:
    rnd = random.Random(seed * 1009 + 8)
    params = ReznParams(rng_seed=seed)
    t0 = time.perf_counter()
    system = build(params, enum_budget=budgets.enum_budget)
    build_s = time.perf_counter() - t0
    report = verify_system(system)

    atoms = system.gamma.elements
    search_bad = 0
    for _ in range(100):
        blocks = _random_partition(rnd, atoms, rnd.randint(2, 10))
        threshold = rnd.randint(2, 4)
        witness = partition_search(system, blocks, None, threshold=threshold)

        d_of = {a: i for i, b in enumerate(blocks) for a in b}
        feasible = False
        for n in sorted(system.trees):
            tree = system.trees[n]
            for w in tree.nodes:
                counts: dict[int, int] = {}
                for u in tree.ancestors(w):
                    d = d_of[u]
                    counts[d] = counts.get(d, 0) + 1
                    if counts[d] >= threshold:
                        feasible = True
                        break
                if feasible:
                    break
            if feasible:
                break
        if feasible != (witness is not None):
            search_bad += 1
        elif witness is not None:
            hits = sum(1 for a in witness.member if d_of[a] == witness.block)
            if hits < threshold or not _is_segment_of(system.trees[witness.tree], witness.member):
                search_bad += 1

    passed = (
        build_s < 30.0
        and report["passed"]
        and report["near_disjoint"]["mode"] == "exhaustive"
        and search_bad == 0
    )
    return {
        "criterion": 8,
        "name": "reznichenko-system",
        "passed": passed,
        "detail": {
            "build_s": round(build_s, 2),
            "verify": {k: v["passed"] for k, v in report.items() if isinstance(v, dict)},
            "extension_checks": report["extensions"]["checked"],
            "near_disjoint_checks": report["near_disjoint"]["checked"],
            "search_mismatches": search_bad,
        },
    }


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def criterion_9_saturation(seed: int, budgets: Budgets) -> dict:
    rnd = random.Random(seed * 1009 + 9)
    bad = {"blocks": 0, "orthogonality": 0}
    for _ in range(200):
        n_delta = rnd.randint(1, 40)
        n_gamma = rnd.randint(1, 40)
        gammas = [f"g{i}" for i in range(n_gamma)]
        deltas = [f"d{i}" for i in range(n_delta)]
        supports = {
            d: set(rnd.sample(gammas, rnd.randint(1, min(4, n_gamma)))) for d in deltas
        }
        covered = set().union(*supports.values())
        for g in gammas:
            if g not in covered:
                supports[rnd.choice(deltas)].add(g)
        result = saturation_partition(GroundSet(gammas), GroundSet(deltas), supports)

        uf = _UnionFind()
        for d, supp in supports.items():
            for g in supp:
                uf.union(("d", d), ("g", g))
        comps: dict = {}
        for d in deltas:
            comps.setdefault(uf.find(("d", d)), (set(), set()))[1].add(d)
        for g in gammas:
            comps.setdefault(uf.find(("g", g)), (set(), set()))[0].add(g)
        expected = {
            (frozenset(gs), frozenset(ds)) for gs, ds in comps.values()
        }
        actual = {
            (frozenset(gb), frozenset(db))
            for gb, db in zip(result.gamma_blocks, result.delta_blocks)
        }
        if expected != actual:
            bad["blocks"] += 1
        for gb, db in zip(result.gamma_blocks, result.delta_blocks):
            gset = set(gb)
            if any(not supports[d] <= gset for d in db):
                bad["orthogonality"] += 1
                break
    return {
        "criterion": 9,
        "name": "saturation",
        "passed": not any(bad.values()),
        "detail": {"cases": 200, "violations": bad},
    }


def criterion_10_determinism(seed: int, budgets: Budgets) -> dict:
    import tempfile
    from pathlib import Path

    from . import cli as cli_mod
    from .serialize import canonical_json, family_to_dict, vector_to_dict

    results = {}
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)

        tree = dyadic_tree(1)
        family = tree_segments(tree)
        (root / "family.json").write_text(canonical_json(family_to_dict(family)))
        ones = FinVector(tree.ground_set(), {a: 1 for a in tree.ground_set().elements})
        (root / "vector.json").write_text(canonical_json(vector_to_dict(ones)))
        (root / "members.json").write_text(
            canonical_json({"members": [["0:0", "1:0"], ["0:0", "1:1"]]})
        )
        wground = ["a", "b"]
        (root / "weighted.json").write_text(
            canonical_json(
                {
                    "ground": wground,
                    "weighted": [
                        {"a": "1/1"},
                        {"b": "1/1"},
                        {"a": "1/2", "b": "1/2"},
                    ],
                }
            )
        )
        (root / "wvector.json").write_text(
            canonical_json({"entries": {"a": "1/1", "b": "1/1"}})
        )

        grid = SeqGrid(3, 1)
        adm, _ = admissible_family(grid, max_size=2)
        (root / "adm.json").write_text(canonical_json(family_to_dict(adm)))
        (root / "gd.json").write_text(canonical_json({"blocks": [["0"], ["1"], ["2"]]}))
        (root / "gn.json").write_text(canonical_json({"blocks": [["0", "1", "2"]]}))
        (root / "supports.json").write_text(
            canonical_json(
                {
                    "gamma": ["g1", "g2", "g3"],
                    "supports": {"d1": ["g1", "g2"], "d2": ["g3"]},
                }
            )
        )

        sys_atoms = [f"{s}:{t}" for s in range(3) for t in range(4)]
        (root / "dpart.json").write_text(canonical_json({"blocks": [sys_atoms]}))

        commands = {
            "check-ci": ["check-ci", "--family", str(root / "family.json")],
            "norm": [
                "norm",
                "--family",
                str(root / "family.json"),
                "--vector",
                str(root / "vector.json"),
            ],
            "norm-re": [
                "norm-re",
                "--weighted",
                str(root / "weighted.json"),
                "--vector",
                str(root / "wvector.json"),
            ],
            "disjointify": [
                "disjointify",
                "--family",
                str(root / "family.json"),
                "--members",
                str(root / "members.json"),
            ],
            "build-reznichenko": [
                "build-reznichenko",
                "--trees",
                "2",
                "--stages",
                "3",
                "--pool",
                "4",
                "--seed",
                "7",
            ],
            "search-partition": None,  # filled in after the build runs
            "qe-search": [
                "qe-search",
                "--family",
                str(root / "adm.json"),
                "--gamma-d",
                str(root / "gd.json"),
                "--gamma-n",
                str(root / "gn.json"),
                "--threshold",
                "2",
            ],
            "eberleinize": ["eberleinize", "--family", str(root / "adm.json")],
            "saturate": ["saturate", "--supports", str(root / "supports.json")],
        }

        build_out = str(root / "system.json")
        code = cli_mod.main(commands["build-reznichenko"] + ["--out", build_out])
        commands["search-partition"] = [
            "search-partition",
            "--system",
            build_out,
            "--partition",
            str(root / "dpart.json"),
            "--threshold",
            "2",
        ]

        for name, argv in commands.items():
            out1 = str(root / f"{name}-1.json")
            out2 = str(root / f"{name}-2.json")
            c1 = cli_mod.main(argv + ["--out", out1])
            c2 = cli_mod.main(argv + ["--out", out2])
            identical = Path(out1).read_bytes() == Path(out2).read_bytes()
            results[name] = {"identical": identical, "codes": [c1, c2]}
    passed = all(r["identical"] and r["codes"][0] == r["codes"][1] for r in results.values())
    return {
        "criterion": 10,
        "name": "cli-determinism",
        "passed": passed,
        "detail": results,
    }


CRITERIA = [
    criterion_1_oracle_dp,
    criterion_2_norm_axioms,
    criterion_3_dual_bounds,
    criterion_4_disjointify,
    criterion_5_ci_suite,
    criterion_6_talagrand,
    criterion_7_greedy,
    criterion_8_reznichenko,
    criterion_9_saturation,
    criterion_10_determinism,
]


def run_acceptance_suite(seed: int = 0, budgets: Optional[Budgets] = None) -> dict:
    if budgets is None:
        budgets = Budgets()
    entries = []
    for fn in CRITERIA:
        try:
            entries.append(fn(seed, budgets))
        except Exception as exc:  # a crash is a failure, not a suite abort
            entries.append(
                {
                    "criterion": len(entries) + 1,
                    "name": fn.__name__,
                    "passed": False,
                    "detail": {"error": f"{type(exc).__name__}: {exc}"},
                }
            )
    return {
        "command": "suite",
        "seed": seed,
        "criteria": entries,
        "passed": all(e["passed"] for e in entries),
    }
