"""The search budgets: one table of defaults, validated once.

Running past a budget raises ``ResourceLimitError`` (exit 3) instead of
truncating a result, except ``enum_budget``: past it, ``build`` samples a
stage's requests instead of enumerating them. Library functions read their
keyword defaults from this table; the CLI and the suite pass a ``Budgets``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import InputFormatError


@dataclass(frozen=True)
class Budgets:
    state_budget: int = 1 << 18  # new PackingTable entries one packing search adds
    sample_bound: int = 3  # envelope tuple length in condition (c)
    pair_budget: int = 200_000  # ordered member pairs in check_ci
    trace_budget: int = 200_000  # union traces packed by condition (c)
    grid_budget: int = 4096  # atoms of a SeqGrid
    family_budget: int = 10**6  # members of an admissible family
    enum_budget: int = 100_000  # request combinations a build stage scans

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value <= 0:
                raise InputFormatError(f"budget {f.name} must be a positive integer, got {value!r}")

