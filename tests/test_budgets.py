import ast
import inspect
from pathlib import Path

import pytest

import jsnorm
from jsnorm import Budgets, InputFormatError, admissible_family, build, check_ci, disjointify, norm_oracle
from jsnorm.ci import check_condition_b, check_condition_c
from jsnorm.norm import greedy_extract, norm_weighted
from jsnorm.packing import pack
from jsnorm.talagrand import SeqGrid


def test_defaults():
    assert Budgets() == Budgets(
        state_budget=1 << 18,
        sample_bound=3,
        pair_budget=200_000,
        trace_budget=200_000,
        grid_budget=4096,
        family_budget=1_000_000,
        enum_budget=100_000,
    )


@pytest.mark.parametrize("value", [0, -1, True, False, 16.0, "16", None])
def test_each_field_must_be_a_positive_int(value):
    for name in Budgets.__dataclass_fields__:
        with pytest.raises(InputFormatError, match=f"budget {name} must be a positive integer"):
            Budgets(**{name: value})


def test_unknown_budget_is_rejected():
    with pytest.raises(TypeError):
        Budgets(bogus=1)


def test_library_defaults_come_from_the_table():
    defaults = Budgets()
    for fn in (
        norm_oracle,
        norm_weighted,
        greedy_extract,
        check_condition_b,
        check_condition_c,
        check_ci,
        disjointify,
        pack,
        admissible_family,
        build,
        SeqGrid,
    ):
        for name, param in inspect.signature(fn).parameters.items():
            if name in Budgets.__dataclass_fields__:
                assert param.default == getattr(defaults, name), (fn.__name__, name)


def test_every_budget_is_read_outside_its_table():
    # A field that no module reads by name is a knob that bounds nothing.
    src = Path(jsnorm.__file__).parent
    read = set()
    for path in src.glob("*.py"):
        if path.name != "budgets.py":
            read.update(n.attr for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Attribute))
    assert sorted(set(Budgets.__dataclass_fields__) - read) == []
