"""The benchmark's output checks accept true reports and reject corrupted ones.

    python3 -m pytest bench/test_checks.py -q

True reports come from jsnorm itself on small inputs; each test then
corrupts one field the way a wrong answer would.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jsnorm import SeqGrid, admissible_family, cli, system_from_dict, verify_system  # noqa: E402


@pytest.fixture
def put(tmp_path):
    def put(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return put


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue()) if buf.getvalue() else None


TREE = workloads.dyadic_parent(2)
SEGMENTS = workloads.segments(TREE)
ORDER = workloads.postorder(TREE)
PHI = {"0:0": Fraction(1), "1:0": Fraction(1), "2:0": Fraction(1), "1:1": Fraction(-2)}


def phi_file(put, phi):
    return put("vector.json", {"entries": {a: str(v) for a, v in phi.items()}})


def test_max_packing_and_sqrt_rounding():
    values = [sum((PHI.get(a, 0) for a in m), Fraction(0)) for m in SEGMENTS]
    assert checks.max_packing(ORDER, SEGMENTS, values) == 13
    assert checks.sqrt_rounded(Fraction(13), 9) == Fraction("3.60555128")
    assert checks.sqrt_rounded(Fraction(9, 4), 1) == 2  # 1.5 rounds to even
    assert checks.sqrt_rounded(Fraction(25, 4), 1) == 2  # 2.5 rounds to even
    assert checks.sqrt_rounded(Fraction(1, 10**6), 3) == Fraction(1, 1000)


@pytest.mark.parametrize("source", ["--family", "--tree"])
def test_norm_check(put, source):
    path = put("in.json", workloads.family_payload(SEGMENTS) if source == "--family" else {"parent": TREE})
    code, report = run(["norm", source, path, "--vector", phi_file(put, PHI)])
    assert code == 0
    assert checks.norm_report_reason(report, ORDER, SEGMENTS, PHI, 50) is None

    changed = dict(report, norm_sq="14/1")
    assert "exact packing value" in checks.norm_report_reason(changed, ORDER, SEGMENTS, PHI, 50)
    overlapping = dict(report, witness=report["witness"] + [["1:0"]])
    assert "overlaps" in checks.norm_report_reason(overlapping, ORDER, SEGMENTS, PHI, 50)
    digits = report["norm_decimal"]
    misrounded = dict(report, norm_decimal=digits[:-1] + str((int(digits[-1]) + 1) % 10))
    assert "rounded" in checks.norm_report_reason(misrounded, ORDER, SEGMENTS, PHI, 50)


def test_weighted_norm_check(put):
    grid = sorted(checks.grid_atoms(4, 2))
    sets = [{a: Fraction(1, n) for a in m} for m, n in sorted(checks.admissible_sets(4, 2, 2).items())]
    path = put("weighted.json", {"ground": grid, "weighted": [{a: str(w) for a, w in g.items()} for g in sets]})
    phi = {"00": Fraction(3), "01": Fraction(-1, 2), "12": Fraction(2), "33": Fraction(1)}
    code, report = run(["norm-re", "--weighted", path, "--vector", phi_file(put, phi)])
    assert code == 0
    assert checks.weighted_norm_report_reason(report, grid, sets, phi, 50) is None

    changed = dict(report, norm_sq=str(Fraction(report["norm_sq"]) + 1))
    assert "exact packing value" in checks.weighted_norm_report_reason(changed, grid, sets, phi, 50)
    overlapping = dict(report, witness=report["witness"] + report["witness"][:1])
    assert "overlaps" in checks.weighted_norm_report_reason(overlapping, grid, sets, phi, 50)


def test_ci_check_rejects_flipped_verdicts(put):
    atoms = sorted(TREE)
    code, intact = run(["check-ci", "--family", put("intact.json", workloads.family_payload(SEGMENTS))])
    assert code == 0
    assert checks.ci_report_reason(intact, atoms, SEGMENTS) is None
    flipped = copy.deepcopy(intact)
    flipped["condition_b"]["passed"] = False
    assert "condition (b)" in checks.ci_report_reason(flipped, atoms, SEGMENTS)

    reduced = [m for m in SEGMENTS if m != ("1:0",)]
    code, report = run(["check-ci", "--family", put("reduced.json", {"ground": atoms, "members": [list(m) for m in reduced]})])
    truth = checks.ci_truth(atoms, reduced)
    assert code == 1 and not (truth["a"] or truth["b"] or truth["c"])
    assert checks.ci_report_reason(report, atoms, reduced, None, truth) is None
    for key in ("a", "b", "c"):
        flipped = copy.deepcopy(report)
        flipped[f"condition_{key}"]["passed"] = True
        assert f"condition ({key})" in checks.ci_report_reason(flipped, atoms, reduced, None, truth)
    bad_residual = copy.deepcopy(report)
    bad_residual["condition_c"]["witness"]["residual"] += 1
    assert "condition (c) witness" in checks.ci_report_reason(bad_residual, atoms, reduced, None, truth)


def test_disjointify_check(put):
    inputs = [("0:0", "1:0", "2:0"), ("0:0", "1:0", "2:1")]
    code, report = run(["disjointify", "--family", put("f.json", workloads.family_payload(SEGMENTS)),
                        "--members", put("m.json", {"members": [list(m) for m in inputs]})])
    assert code == 0
    assert checks.disjointify_reason(report["parts"], inputs, SEGMENTS) is None
    assert "overlaps" in checks.disjointify_reason(report["parts"] + [["2:0"]], inputs, SEGMENTS)


def test_admissible_and_eberleinize_checks_reject_a_wrong_stratum(put):
    digits = checks.grid_atoms(3, 2)
    expected = checks.admissible_sets(3, 2, 3)
    family, strata = admissible_family(SeqGrid(3, 2), 3)
    assert checks.admissible_family_reason(family.members, strata, expected, digits) is None
    member = next(m for m in family.members if len(m) > 1)
    wrong = dict(strata)
    wrong[member] += 1
    assert "1 of" in checks.admissible_family_reason(family.members, wrong, expected, digits)

    path = put("adm.json", {"ground": list(digits), "members": [list(m) for m in sorted(expected)], "provenance": "admissible"})
    code, report = run(["eberleinize", "--family", path])
    assert code == 0
    assert checks.eberleinize_reason(report, expected, digits) is None
    row = next(r for r in report["weighted"] if len(r) > 1)
    for atom in row:
        row[atom] = "1/7"
    assert "1 of" in checks.eberleinize_reason(report, expected, digits)


def test_system_checks(put, tmp_path):
    out = str(tmp_path / "system.json")
    params = (3, 6, 8, 5)
    code, _ = run(["build-reznichenko", "--trees", "3", "--stages", "6", "--pool", "8", "--seed", "5", "--out", out])
    assert code == 0
    with open(out) as fh:
        system = json.load(fh)["system"]
    assert checks.system_reason(system, params) is None
    moved = copy.deepcopy(system)
    tree = moved["trees"]["1"]
    node = max((v for v in tree if tree[v] not in (None, "0:1")), key=lambda v: int(v.split(":")[0]))
    tree[node] = "0:1"
    assert checks.system_reason(moved, params) is not None

    report = verify_system(system_from_dict(system), full=True)
    assert checks.verify_report_reason(report, system) is None
    assert "rejects" in checks.verify_report_reason(dict(report, passed=False), system)


def test_partition_search_checks(put, tmp_path):
    out = str(tmp_path / "system.json")
    run(["build-reznichenko", "--trees", "3", "--stages", "8", "--pool", "8", "--seed", "2", "--out", out])
    with open(out) as fh:
        system = json.load(fh)["system"]
    trees = {int(n): p for n, p in system["trees"].items()}
    gamma = [f"{s}:{t}" for s in range(8) for t in range(8)]
    blocks = [gamma[i::4] for i in range(4)]
    d_of = {a: b for b, block in enumerate(blocks) for a in block}
    code, report = run(["search-partition", "--system", out, "--partition", put("p.json", {"blocks": blocks}), "--threshold", "2"])
    assert code == 0 and report["witness"] is not None
    assert checks.partition_witness_reason(report["witness"], trees, d_of, None, 2) is None
    assert "below threshold" in checks.partition_witness_reason(report["witness"], trees, d_of, None, 99)
    assert checks.partition_witness_exists(trees, d_of, None, 2)
    assert not checks.partition_witness_exists(trees, d_of, None, 99)


def test_qe_check(put):
    digits = checks.grid_atoms(3, 2)
    members = sorted(checks.admissible_sets(3, 2, 3))
    atoms = list(digits)
    d_blocks, n_blocks = [[a] for a in atoms], [atoms[:5], atoms[5:]]
    d_of = {a: i for i, b in enumerate(d_blocks) for a in b}
    n_of = {a: i for i, b in enumerate(n_blocks) for a in b}
    fam = put("f.json", {"ground": atoms, "members": [list(m) for m in members]})
    code, report = run(["qe-search", "--family", fam, "--gamma-d", put("d.json", {"blocks": d_blocks}),
                        "--gamma-n", put("n.json", {"blocks": n_blocks}), "--threshold", "3"])
    family = {frozenset(m) for m in members}
    assert code == 0 and report["witness"] is not None
    assert checks.qe_witness_reason(report["witness"], family, d_of, n_of, 3) is None
    assert checks.qe_witness_reason(dict(report["witness"], n0=1 - report["witness"]["n0"]), family, d_of, n_of, 3)
    assert checks.qe_witness_exists(members, d_of, n_of, 3)
    assert not checks.qe_witness_exists(members, d_of, n_of, 4)


def test_saturation_check(put):
    supports = {"d0": ["g0", "g1"], "d1": ["g1"], "d2": ["g2"], "d3": ["g3", "g4"]}
    code, report = run(["saturate", "--supports", put("s.json", {"supports": supports})])
    assert code == 0
    assert checks.saturation_reason(report, supports) is None
    merged = {"gamma_blocks": [sum(report["gamma_blocks"], [])], "delta_blocks": [sum(report["delta_blocks"], [])]}
    assert checks.saturation_reason(merged, supports) is not None


def test_tracer_spans_nest_and_restore(put):
    path = put("f.json", workloads.family_payload(SEGMENTS))
    original = cli.main
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        tracer.op = 0
        span = tracer.begin("op:norm")
        code, _ = run(["norm", "--family", path, "--vector", phi_file(put, PHI)])
        tracer.end(span)
    finally:
        restore()
    assert code == 0 and cli.main is original
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["norm.norm_oracle.calls"][0] == 1
    assert metrics["norm.norm_oracle.support_atoms"][0] == 4
    assert metrics["serialize.load_json.calls"][0] == 2
    assert metrics["serialize.load_json.bytes"][1] == "bytes"
    assert metrics["norm.sqrt_decimal.calls"][0] >= 1
    assert 0 <= metrics["cli.main.self_s"][0] <= metrics["cli.main.busy_s"][0]
    assert tracing.op_coverage(tracer.spans) > 0.5
