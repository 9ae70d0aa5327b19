import inspect

import pytest

from jsnorm import Budgets, InputFormatError, admissible_family, build, check_ci, disjointify, norm_oracle
from jsnorm.talagrand import SeqGrid


def test_defaults():
    assert Budgets() == Budgets(
        oracle_limit=16,
        cover_limit=24,
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
    for fn in (norm_oracle, check_ci, disjointify, admissible_family, build, SeqGrid):
        for name, param in inspect.signature(fn).parameters.items():
            if name in Budgets.__dataclass_fields__:
                assert param.default == getattr(defaults, name), (fn.__name__, name)
