"""Acceptance gate: each criterion from the suite runs at its stated
tolerance and prints one pass/fail line."""

import json

import pytest

from jsnorm import suite
from jsnorm.budgets import Budgets

SEED = 0


def _run(fn):
    result = fn(SEED, Budgets())
    status = "PASS" if result["passed"] else "FAIL"
    print(f"criterion {result['criterion']} ({result['name']}): {status}")
    if not result["passed"]:
        pytest.fail(json.dumps(result["detail"], default=str)[:2000])
    return result


def test_criterion_01_oracle_dp_equivalence():
    result = _run(suite.criterion_1_oracle_dp)
    assert result["detail"]["cases"] == 2500
    assert result["detail"]["elapsed_s"] < 60


def test_criterion_02_norm_axioms():
    result = _run(suite.criterion_2_norm_axioms)
    assert result["detail"]["vectors"] == 1000


def test_criterion_03_dual_bounds():
    result = _run(suite.criterion_3_dual_bounds)
    assert result["detail"]["cases"] == 500


def test_criterion_04_disjointify():
    result = _run(suite.criterion_4_disjointify)
    assert result["detail"]["cases"] == 1000


def test_criterion_05_ci_suite():
    result = _run(suite.criterion_5_ci_suite)
    assert sum(result["detail"]["deletions"].values()) == 20


def test_criterion_06_talagrand():
    result = _run(suite.criterion_6_talagrand)
    assert result["detail"]["family_b4l3"] > 0


def test_criterion_07_greedy_extraction():
    result = _run(suite.criterion_7_greedy)
    assert result["detail"]["k_bound_formula_ok"]


def test_criterion_08_reznichenko_system():
    result = _run(suite.criterion_8_reznichenko)
    assert result["detail"]["build_s"] < 30


def test_criterion_09_saturation():
    result = _run(suite.criterion_9_saturation)
    assert result["detail"]["cases"] == 200


def test_criterion_10_cli_determinism():
    result = _run(suite.criterion_10_determinism)
    assert len(result["detail"]) == 9
