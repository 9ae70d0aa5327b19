"""The acceptance-suite runner and criterion 5's replay of failed conditions."""

import dataclasses
import json

import pytest

from jsnorm import cli, suite
from jsnorm.budgets import Budgets
from jsnorm.ci import ConditionResult, check_ci
from jsnorm.core import SetFamily, dyadic_tree, tree_segments


@pytest.fixture
def singleton_deleted():
    """A segment family missing one singleton: conditions (a), (b) and (c) all fail."""
    fam = tree_segments(dyadic_tree(2))
    reduced = SetFamily(fam.ground, [m for m in fam.members if m != ("1:0",)])
    report = check_ci(reduced)
    assert not (report.condition_a.passed or report.condition_b.passed or report.condition_c.passed)
    return reduced, report


def test_replay_confirms_every_failed_condition(singleton_deleted):
    family, report = singleton_deleted
    assert suite._replay_ci_failure(family, report, Budgets())


def test_replay_rejects_a_bad_condition_b_witness(singleton_deleted):
    family, report = singleton_deleted
    # s minus s is empty, which the empty cover decomposes
    bogus = ConditionResult(False, {"s": ["0:0"], "t": ["0:0"]})
    assert not suite._replay_ci_failure(family, dataclasses.replace(report, condition_b=bogus), Budgets())


def test_replay_rejects_a_bad_condition_c_witness(singleton_deleted):
    family, report = singleton_deleted
    # the tuple's traces cover s, so nothing is left to fail packing
    bogus = ConditionResult(False, {"s": ["0:0"], "tuple": [["0:0"]]})
    assert not suite._replay_ci_failure(family, dataclasses.replace(report, condition_c=bogus), Budgets())


def _passing(seed, budgets):
    return {"criterion": 1, "name": "stub", "passed": True, "detail": {"seed": seed}}


def _crashing(seed, budgets):
    raise RuntimeError("stub crashed")


def test_suite_runner_reports_a_crash_as_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(suite, "CRITERIA", [_passing, _crashing])
    report = suite.run_acceptance_suite(seed=3)
    assert report == {
        "command": "suite",
        "seed": 3,
        "criteria": [
            _passing(3, None),
            {
                "criterion": 2,
                "name": "_crashing",
                "passed": False,
                "detail": {"error": "RuntimeError: stub crashed"},
            },
        ],
        "passed": False,
    }
    assert cli.main(["suite", "--seed", "3"]) == 1
    assert json.loads(capsys.readouterr().out) == report


def test_suite_command_exits_0_when_every_criterion_passes(monkeypatch, capsys):
    monkeypatch.setattr(suite, "CRITERIA", [_passing])
    assert cli.main(["suite"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
