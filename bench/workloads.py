"""The benchmark's four workloads: seeded inputs, a fixed op list, and the
check each op's output must pass.

The seed picks values and positions, never sizes, so every seed costs about
the same. In each workload one op class holds well over half of the ops, so
the median op time falls inside that class.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import checks

PRECISION = 50  # the CLI's --precision default


@dataclass
class Op:
    kind: str  # op class
    call: Callable[[Any], Any]  # call(lib) -> raw output; this part is timed
    check: Callable[[Any], Optional[str]]  # check(raw output) -> None or a reason
    known_fault: str = ""  # set on an op that fails at this commit for a known reason


@dataclass
class Plan:
    ops: list[Op]
    warmup: list[str]  # one CLI command run during set-up, outside the list


class Inputs:
    """Writes input files into one work directory."""

    def __init__(self, work: str):
        self.work = work
        os.makedirs(work, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def put(self, name: str, payload: Any) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))  # one-shot dumps uses the C encoder
        return path


def cli_op(kind: str, argv: list[str], check: Callable[[int, Any], Optional[str]], known_fault: str = "") -> Op:
    """An op through ``jsnorm.cli.main``; ``check(exit code, parsed report)``."""

    def verdict(out) -> Optional[str]:
        code, text = out
        report = json.loads(text) if text else None
        if code not in (0, 1):
            return f"exit {code}: {(report or {}).get('error')}"
        return check(code, report)

    return Op(kind, lambda lib: lib.run_cli(argv), verdict, known_fault)


def _expect_ok(check: Callable[[Any], Optional[str]]) -> Callable[[int, Any], Optional[str]]:
    return lambda code, report: f"exit {code}" if code != 0 else check(report)


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _value(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))


def _vector(rng: random.Random, atoms: list[str]) -> dict[str, Fraction]:
    return {a: _value(rng) for a in atoms}


def _vector_payload(phi: dict[str, Fraction]) -> dict:
    return {"entries": {a: _frac(v) for a, v in phi.items()}}


# ---------------------------------------------------------------- trees


def dyadic_parent(depth: int) -> dict[str, Optional[str]]:
    parent: dict[str, Optional[str]] = {"0:0": None}
    for n in range(1, depth + 1):
        for k in range(2**n):
            parent[f"{n}:{k}"] = f"{n - 1}:{k // 2}"
    return parent


def relabel(parent: dict, rng: random.Random) -> dict:
    """The same tree under a seeded permutation of node names."""
    names = [f"v{i:02d}" for i in range(len(parent))]
    rng.shuffle(names)
    new = dict(zip(parent, names))
    return {new[v]: (None if u is None else new[u]) for v, u in parent.items()}


def random_tree(rng: random.Random, widths: list[int]) -> dict:
    """Seeded tree shape with ``widths[k]`` nodes at level k.

    Fixing the level widths fixes the node count, the height and the number
    of segments; the seed only picks which node of the level above each
    node hangs from."""
    parent: dict = {}
    above: list[int] = []
    for width in widths:
        level = list(range(len(parent), len(parent) + width))
        for v in level:
            parent[v] = rng.choice(above) if above else None
        above = level
    return relabel(parent, rng)


def segments(parent: dict) -> list[tuple]:
    """Every chain [v, ancestor] of the tree, as sorted atom tuples."""
    out = set()
    for v in parent:
        chain = [v]
        while True:
            out.add(tuple(sorted(chain)))
            u = parent[chain[-1]]
            if u is None:
                break
            chain.append(u)
    return sorted(out)


def postorder(parent: dict) -> list[str]:
    """Children before parents: the packing solver's atom order for segments."""
    children: dict = {v: [] for v in parent}
    for v, u in parent.items():
        if u is not None:
            children[u].append(v)
    out: list[str] = []
    stack = [(v, False) for v, u in parent.items() if u is None]
    while stack:
        v, done = stack.pop()
        if done:
            out.append(v)
        else:
            stack.append((v, True))
            stack.extend((c, False) for c in children[v])
    return out


def family_payload(members: list[tuple], provenance: str = "explicit") -> dict:
    ground = sorted({a for m in members for a in m})
    return {"ground": ground, "members": [list(m) for m in members], "provenance": provenance}


# ---------------------------------------------------------------- norm-queries


def norm_queries(rng: random.Random, files: Inputs) -> Plan:
    """`norm --family` on the full-support dyadic depth-3 family is the median
    class: its component DP fills all 2^15 states."""
    ops: list[Op] = []

    def norm_op(kind: str, argv: list[str], order: list[str], members: list[tuple], phi: dict) -> Op:
        return cli_op(kind, argv, _expect_ok(lambda r: checks.norm_report_reason(r, order, members, phi, PRECISION)))

    trees = {d: dyadic_parent(d) for d in (3, 4, 5)}
    fams = {d: segments(trees[d]) for d in trees}
    fam_file = {d: files.put(f"family-d{d}.json", family_payload(fams[d], "tree-segments")) for d in trees}
    tree_file = {d: files.put(f"tree-d{d}.json", {"parent": trees[d]}) for d in trees}

    order3 = postorder(trees[3])
    for i in range(350):
        phi = _vector(rng, list(trees[3]))
        vec = files.put(f"vec-d3-{i}.json", _vector_payload(phi))
        ops.append(norm_op("norm-d3-family", ["norm", "--family", fam_file[3], "--vector", vec], order3, fams[3], phi))

    # 16 support atoms with the root among them: one 2^16-state component.
    deep = []
    for d in (4, 5):
        for i in range(12):
            phi = _vector(rng, ["0:0"] + rng.sample(sorted(trees[d])[1:], 15))
            deep.append((d, files.put(f"vec-d{d}-{i}.json", _vector_payload(phi)), phi))
    for d, vec, phi in deep:
        ops.append(norm_op(f"norm-d{d}-family", ["norm", "--family", fam_file[d], "--vector", vec], postorder(trees[d]), fams[d], phi))
    for d, vec, phi in deep:
        ops.append(norm_op(f"norm-d{d}-tree", ["norm", "--tree", tree_file[d], "--vector", vec], postorder(trees[d]), fams[d], phi))

    # Admissible sets of size 2-3 over SeqGrid(3,2), no singletons: members
    # clash off the support, so the oracle takes its branch-and-bound path.
    adm = sorted(m for m in checks.admissible_sets(3, 2, 3) if len(m) > 1)
    adm_file = files.put("family-adm32.json", family_payload(adm, "admissible"))
    adm_atoms = sorted(checks.grid_atoms(3, 2))
    for i in range(24):
        phi = _vector(rng, rng.sample(adm_atoms, 6))
        vec = files.put(f"vec-adm-{i}.json", _vector_payload(phi))
        ops.append(norm_op("norm-admissible", ["norm", "--family", adm_file, "--vector", vec], adm_atoms, adm, phi))

    # Eberleinized admissible family of SeqGrid(4,2): 136 weighted sets.
    grid42 = sorted(checks.grid_atoms(4, 2))
    weighted = [{a: Fraction(1, n) for a in m} for m, n in sorted(checks.admissible_sets(4, 2, 2).items())]
    w_file = files.put("weighted-42.json", {"ground": grid42, "weighted": [{a: _frac(w) for a, w in g.items()} for g in weighted]})
    for i in range(3):
        phi = _vector(rng, rng.sample(grid42, 6))
        vec = files.put(f"vec-re-{i}.json", _vector_payload(phi))
        ops.append(cli_op("norm-re", ["norm-re", "--weighted", w_file, "--vector", vec],
                          _expect_ok(lambda r, phi=phi: checks.weighted_norm_report_reason(r, grid42, weighted, phi, PRECISION))))

    warm = files.put("vec-warmup.json", _vector_payload(_vector(rng, list(trees[3])[:7])))
    rng.shuffle(ops)
    return Plan(ops, ["norm", "--tree", tree_file[3], "--vector", warm])


# ---------------------------------------------------------------- ci-check


def _envelope(rng: random.Random, members: list[tuple]) -> dict:
    """Each member t mapped to a seeded member containing it."""
    return {t: rng.choice([s for s in members if set(t) <= set(s)]) for t in members}


def ci_check(rng: random.Random, files: Inputs) -> Plan:
    """`check-ci` on intact 31-node, height-4 segment families is the median
    class: condition (b) alone tests ~16,000 ordered pairs per family."""
    ops: list[Op] = []
    shapes = [relabel(dyadic_parent(4), rng) for _ in range(21)] + [random_tree(rng, [1, 2, 4, 8, 16]) for _ in range(21)]
    fams = [segments(p) for p in shapes]
    for i, (parent, members) in enumerate(zip(shapes, fams)):
        path = files.put(f"family-{i}.json", family_payload(members, "tree-segments"))
        argv = ["check-ci", "--family", path]
        envelope = None
        if i % 2:
            envelope = _envelope(rng, members)
            argv += ["--envelope", files.put(f"envelope-{i}.json", {"envelope": [[list(t), list(s)] for t, s in envelope.items()]})]
        atoms = sorted(parent)
        ops.append(cli_op("check-ci-intact", argv,
                          _expect_ok(lambda r, a=atoms, m=members, e=envelope: checks.ci_report_reason(r, a, m, e))))

    for i in list(range(4)) + list(range(21, 25)):  # 4 dyadic, 4 random shapes
        atoms = sorted(shapes[i])
        gone = (rng.choice(atoms),)
        members = [m for m in fams[i] if m != gone]
        path = files.put(f"reduced-{i}.json", {"ground": atoms, "members": [list(m) for m in members], "provenance": "tree-segments"})

        def reduced_check(code, report, atoms=atoms, members=members):
            truth = checks.ci_truth(atoms, members)
            if code != (0 if report["passed"] else 1):
                return f"exit {code} does not match the verdict"
            return checks.ci_report_reason(report, atoms, members, None, truth)

        ops.append(cli_op("check-ci-reduced", ["check-ci", "--family", path], reduced_check))

    for i in range(8):
        j = rng.randrange(len(fams))
        family_path = files.path(f"family-{j}.json")
        inputs = rng.sample(fams[j], 4)
        path = files.put(f"members-{i}.json", {"members": [list(m) for m in inputs]})
        ops.append(cli_op("disjointify", ["disjointify", "--family", family_path, "--members", path],
                          _expect_ok(lambda r, inputs=inputs, m=fams[j]: checks.disjointify_reason(r["parts"], inputs, m))))

    warm = files.put("family-warmup.json", family_payload(segments(dyadic_parent(1)), "tree-segments"))
    rng.shuffle(ops)
    return Plan(ops, ["check-ci", "--family", warm])


# ---------------------------------------------------------------- tree-system

# (trees, stages, pool, build seed or None for a seeded one). The small-tree
# builds enumerate every request at some stages; the others sample. The last
# is the large system the searches read; its build seed is fixed so that
# every run searches a system of the same size.
BUILDS = [(8, 32, 64, None), (8, 32, 64, None), (2, 32, 64, None), (3, 24, 128, None), (16, 64, 128, 1)]
# (blocks, threshold) of the searches in the median class: few enough blocks
# that the greedy chain growth meets one block `threshold` times within the
# first trees, so the op costs the read of the system and nothing that hangs
# on the seed; each also carries a --gamma-d partition. A few more searches,
# without --gamma-d, ask for more atoms in one block than any segment has (a
# segment holds at most one node per stage): they run the exhaustive scan
# over every segment, a fixed count of them on every seed.
SEARCH_KINDS = [(4, 3), (8, 2), (16, 2), (4, 2)]
SEARCH_OPS = 20
SCAN_OPS = 4
SCAN_BLOCKS = 256


def _random_partition(rng: random.Random, atoms: list[str], blocks: int) -> list[list[str]]:
    shuffled = list(atoms)
    rng.shuffle(shuffled)
    return [shuffled[i::blocks] for i in range(blocks)]


def _block_of(path: str) -> dict[str, int]:
    """Atom → block index of a partition file."""
    with open(path, encoding="utf-8") as fh:
        return {a: b for b, block in enumerate(json.load(fh)["blocks"]) for a in block}


def tree_system(rng: random.Random, files: Inputs) -> Plan:
    """`search-partition` on one large built system is the median class; each
    call reads the ~3 MB system back in and finds a witness early."""
    ops: list[Op] = []
    systems: dict[str, dict] = {}  # build output file → parsed system, filled by the checks

    def load_system(path: str) -> dict:
        if path not in systems:
            with open(path, encoding="utf-8") as fh:
                systems[path] = json.load(fh)["system"]
        return systems[path]

    built = []
    for i, (trees, stages, pool, seed) in enumerate(BUILDS):
        if seed is None:
            seed = rng.randrange(2**32)
        out = files.path(f"system-{i}.json")
        params = (trees, stages, pool, seed)
        built.append(out)
        argv = ["build-reznichenko", "--trees", str(trees), "--stages", str(stages), "--pool", str(pool), "--seed", str(seed), "--out", out]
        ops.append(cli_op("build", argv, _expect_ok(lambda r, out=out, params=params: checks.system_reason(load_system(out), params))))

    def verify(lib, path):
        system = lib.jsnorm.system_from_dict(lib.serialize.load_json(path)["system"])
        return lib.jsnorm.verify_system(system, full=True)

    for out in built:
        ops.append(Op("verify", lambda lib, out=out: verify(lib, out), lambda report, out=out: checks.verify_report_reason(report, load_system(out))))

    large = built[-1]
    trees, stages, pool, _ = BUILDS[-1]
    gamma = [f"{s}:{t}" for s in range(stages) for t in range(pool)]
    for i in range(SEARCH_OPS + SCAN_OPS):
        blocks, threshold = SEARCH_KINDS[i % len(SEARCH_KINDS)] if i < SEARCH_OPS else (SCAN_BLOCKS, stages + 1)
        d_path = files.put(f"partition-{i}.json", {"blocks": _random_partition(rng, gamma, blocks)})
        argv = ["search-partition", "--system", large, "--partition", d_path, "--threshold", str(threshold)]
        g_path = None
        if i < SEARCH_OPS:
            g_path = files.put(f"gamma-d-{i}.json", {"blocks": _random_partition(rng, gamma, 2048)})
            argv += ["--gamma-d", g_path]

        def search_check(report, d_path=d_path, g_path=g_path, threshold=threshold):
            # Partitions are read back from their files, so the timed phase does not hold them.
            tree_maps = {int(n): p for n, p in load_system(large)["trees"].items()}
            d_of = _block_of(d_path)
            g_of = None if g_path is None else _block_of(g_path)
            if report["witness"] is None:
                if checks.partition_witness_exists(tree_maps, d_of, g_of, threshold):
                    return "no witness reported, but an exhaustive scan finds one"
                return None
            return checks.partition_witness_reason(report["witness"], tree_maps, d_of, g_of, threshold)

        ops.append(cli_op("search-partition" if i < SEARCH_OPS else "search-partition-scan", argv, _expect_ok(search_check)))

    tail = ops[len(BUILDS):]  # every build runs before the ops that read its output
    rng.shuffle(tail)
    return Plan(ops[: len(BUILDS)] + tail, ["build-reznichenko", "--trees", "2", "--stages", "2", "--pool", "3", "--out", files.path("system-warmup.json")])


# ---------------------------------------------------------------- admissible-grid

STRATA_FAULT = ("cli._character_strata reads the stratum off the character index of "
                "zero-padded atom names, which is wrong once the grid branching exceeds 10")


# qe-search thresholds. With 2 or 3 a witness turns up within the first few
# members, so the op costs the decode of the family file and nothing that
# hangs on the seed; these ops are the median class. Members have at most 4
# atoms, so threshold 5 never finds a witness: a few ops scan the whole
# family, a fixed count of them on every seed.
QE_THRESHOLDS = [2, 3]
QE_OPS = 16
QE_SCAN_OPS = 2
QE_SCAN_THRESHOLD = 5


def _supports(rng: random.Random, deltas: int, gammas: int) -> dict[str, list[str]]:
    """Seeded bipartite incidence; every gamma lies in some support."""
    names = [f"g{i:04d}" for i in range(gammas)]
    supports = {f"d{i:04d}": rng.sample(names, rng.randint(1, 2)) for i in range(deltas)}
    covered = {g for s in supports.values() for g in s}
    keys = sorted(supports)
    for g in names:
        if g not in covered:
            supports[rng.choice(keys)].append(g)
    return supports


def admissible_grid(rng: random.Random, files: Inputs) -> Plan:
    """`qe-search` on the 86,128-member SeqGrid(4,3) family is the median
    class; each call decodes the ~2 MB family file and finds a witness early.

    The checks' reference data is rebuilt after timing, so that the timed
    phase neither holds it in memory nor makes jsnorm's garbage collections
    scan it."""
    ops: list[Op] = []
    digits43 = checks.grid_atoms(4, 3)
    digits112 = checks.grid_atoms(11, 2)
    path43 = files.put("family-43.json", {"ground": list(digits43), "provenance": "admissible",
                                          "members": [list(m) for m in sorted(checks.admissible_sets(4, 3, 4))]})
    path112 = files.put("family-112.json", {"ground": list(digits112), "provenance": "admissible",
                                            "members": [list(m) for m in sorted(checks.admissible_sets(11, 2, 2))]})
    ref: dict = {}

    def reference() -> dict:
        if not ref:
            ref["43"] = checks.admissible_sets(4, 3, 4)
            ref["112"] = checks.admissible_sets(11, 2, 2)
            ref["set43"] = {frozenset(m) for m in ref["43"]}
        return ref

    def admissible(lib):
        return lib.jsnorm.admissible_family(lib.jsnorm.SeqGrid(4, 3), 4)

    ops.append(Op("admissible_family", admissible,
                  lambda out: checks.admissible_family_reason(out[0].members, out[1], reference()["43"], digits43)))
    ops.append(cli_op("eberleinize", ["eberleinize", "--family", path43],
                      _expect_ok(lambda r: checks.eberleinize_reason(r, reference()["43"], digits43))))
    ops.append(cli_op("eberleinize-b11", ["eberleinize", "--family", path112],
                      _expect_ok(lambda r: checks.eberleinize_reason(r, reference()["112"], digits112)), known_fault=STRATA_FAULT))

    atoms = list(digits43)
    for i in range(QE_OPS + QE_SCAN_OPS):
        d_blocks = _random_partition(rng, atoms, 16)
        n_blocks = _random_partition(rng, atoms, 4)
        threshold = QE_THRESHOLDS[i % len(QE_THRESHOLDS)] if i < QE_OPS else QE_SCAN_THRESHOLD
        argv = ["qe-search", "--family", path43,
                "--gamma-d", files.put(f"gamma-d-{i}.json", {"blocks": d_blocks}),
                "--gamma-n", files.put(f"gamma-n-{i}.json", {"blocks": n_blocks}),
                "--threshold", str(threshold)]

        def qe_check(report, d_blocks=d_blocks, n_blocks=n_blocks, threshold=threshold):
            d_of = {a: b for b, block in enumerate(d_blocks) for a in block}
            n_of = {a: b for b, block in enumerate(n_blocks) for a in block}
            if report["witness"] is None:
                if checks.qe_witness_exists(reference()["43"], d_of, n_of, threshold):
                    return "no witness reported, but an exhaustive scan finds one"
                return None
            return checks.qe_witness_reason(report["witness"], reference()["set43"], d_of, n_of, threshold)

        ops.append(cli_op("qe-search" if i < QE_OPS else "qe-search-scan", argv, _expect_ok(qe_check)))

    for i in range(3):
        path = files.put(f"supports-{i}.json", {"supports": _supports(rng, 3000, 4000)})

        def saturate_check(report, path=path):
            with open(path, encoding="utf-8") as fh:
                return checks.saturation_reason(report, json.load(fh)["supports"])

        ops.append(cli_op("saturate", ["saturate", "--supports", path], _expect_ok(saturate_check)))

    warm = files.put("supports-warmup.json", {"supports": {"d0": ["g0"], "d1": ["g0", "g1"]}})
    tail = ops[3:]  # the three one-off ops keep their places, so peak memory does not hang on the order
    rng.shuffle(tail)
    return Plan(ops[:3] + tail, ["saturate", "--supports", warm])


WORKLOADS = {
    "norm-queries": norm_queries,
    "ci-check": ci_check,
    "tree-system": tree_system,
    "admissible-grid": admissible_grid,
}
