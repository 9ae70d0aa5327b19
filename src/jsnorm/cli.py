"""Command line front end.

Every command reads JSON inputs, runs one library operation, and writes a
single canonical JSON report with a ``command`` discriminator. Exit codes:
0 success, 1 domain failure (report carries the witness), 2 usage or parse
error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Optional

from . import ci, norm, reznichenko, talagrand
from .budgets import Budgets
from .core import GroundSet
from .errors import InputFormatError, JsnormError
from .serialize import (
    canonical_json,
    envelope_from_dict,
    family_from_dict,
    format_fraction,
    load_json,
    members_from_dict,
    partition_from_dict,
    nogc,
    strata_from_dict,
    supports_from_dict,
    tree_from_dict,
    vector_from_dict,
    weighted_family_from_dict,
    weighted_to_dict,
)

ENV_BUDGET_VAR = "JSNORM_BUDGET_OVERRIDE"


def _resolve_budgets() -> Budgets:
    """The defaults, with the JSON object in ``JSNORM_BUDGET_OVERRIDE`` over them."""
    raw = os.environ.get(ENV_BUDGET_VAR)
    if not raw:
        return Budgets()
    try:
        overrides = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON, an integer past the digit limit, deep nesting
        raise InputFormatError(f"{ENV_BUDGET_VAR} is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise InputFormatError(f"{ENV_BUDGET_VAR} must be a JSON object")
    known = {f.name for f in dataclasses.fields(Budgets)}
    for key in overrides:
        if key not in known:
            raise InputFormatError(f"unknown budget {key!r} in {ENV_BUDGET_VAR}")
    return Budgets(**overrides)


def _precision(args) -> int:
    if not 10 <= args.precision <= 200:
        raise InputFormatError("precision must be in [10, 200]")
    return args.precision


def _member_list(members) -> list[list[str]]:
    return [list(m) for m in members]


def _cmd_check_ci(args, budgets: Budgets) -> tuple[dict, int]:
    family = family_from_dict(load_json(args.family))
    envelope = None if args.envelope is None else envelope_from_dict(load_json(args.envelope))
    report = ci.check_ci(
        family,
        envelope,
        sample_bound=budgets.sample_bound,
        pair_budget=budgets.pair_budget,
        state_budget=budgets.state_budget,
        trace_budget=budgets.trace_budget,
    )
    payload = {"command": "check-ci", **ci.report_to_dict(report)}
    return payload, 0 if report.passed else 1


def _cmd_norm(args, budgets: Budgets) -> tuple[dict, int]:
    precision = _precision(args)
    if (args.family is None) == (args.tree is None):
        raise InputFormatError("norm needs exactly one of --family or --tree")
    if args.family is not None:
        family = family_from_dict(load_json(args.family))
        phi = vector_from_dict(load_json(args.vector), family.ground)
        result = norm.norm_oracle(family, phi, state_budget=budgets.state_budget)
    else:
        tree = tree_from_dict(load_json(args.tree))
        phi = vector_from_dict(load_json(args.vector), tree.ground_set())
        result = norm.norm_tree_dp(tree, phi)
    payload = {
        "command": "norm",
        "norm_sq": format_fraction(result.norm_sq),
        "norm_decimal": result.norm_decimal(precision),
        "witness": _member_list(result.witness),
        "method": result.method,
    }
    return payload, 0


def _cmd_norm_re(args, budgets: Budgets) -> tuple[dict, int]:
    precision = _precision(args)
    sets, ground = weighted_family_from_dict(load_json(args.weighted))
    phi = vector_from_dict(load_json(args.vector), ground)
    result = norm.norm_weighted(sets, phi, state_budget=budgets.state_budget)
    payload = {
        "command": "norm-re",
        "norm_sq": format_fraction(result.norm_sq),
        "norm_decimal": result.norm_decimal(precision),
        "witness": [weighted_to_dict(g) for g in result.witness],
        "method": result.method,
    }
    return payload, 0


def _cmd_disjointify(args, budgets: Budgets) -> tuple[dict, int]:
    family = family_from_dict(load_json(args.family))
    members = members_from_dict(load_json(args.members))
    result = ci.disjointify(family, members, state_budget=budgets.state_budget)
    return {"command": "disjointify", "parts": _member_list(result.parts)}, 0


def _cmd_build_reznichenko(args, budgets: Budgets) -> tuple[dict, int]:
    params = reznichenko.ReznParams(
        n_trees=args.trees,
        stages=args.stages,
        label_pool=args.pool,
        rng_seed=args.seed,
    )
    sys_ = reznichenko.build(params, enum_budget=budgets.enum_budget)
    return {"command": "build-reznichenko", "system": reznichenko.system_to_dict(sys_)}, 0


def _witness_dict(w: Optional[reznichenko.PartitionWitness]):
    if w is None:
        return None
    return {
        "member": list(w.member),
        "tree": w.tree,
        "block": w.block,
        "intersection": list(w.intersection),
        "per_block_counts": {str(k): v for k, v in w.per_block_counts.items()},
    }


def _system_from_dict(payload) -> reznichenko.ReznSystem:
    if isinstance(payload, dict) and "system" in payload:
        payload = payload["system"]  # accept a build report directly
    return reznichenko.system_from_dict(payload)


def _cmd_search_partition(args, budgets: Budgets) -> tuple[dict, int]:
    sys_ = _system_from_dict(load_json(args.system))
    blocks = partition_from_dict(load_json(args.partition))
    gamma_d = None
    if args.gamma_d is not None:
        gamma_d = partition_from_dict(load_json(args.gamma_d))
    witness = reznichenko.partition_search(sys_, blocks, gamma_d, threshold=args.threshold)
    return {"command": "search-partition", "witness": _witness_dict(witness)}, 0


def _cmd_qe_search(args, budgets: Budgets) -> tuple[dict, int]:
    family = family_from_dict(load_json(args.family))
    gamma_d = partition_from_dict(load_json(args.gamma_d))
    gamma_n = partition_from_dict(load_json(args.gamma_n))
    witness = talagrand.qe_partition_search(family, gamma_d, gamma_n, threshold=args.threshold)
    if witness is None:
        return {"command": "qe-search", "witness": None}, 0
    payload = {
        "command": "qe-search",
        "witness": {
            "s": list(witness.s),
            "n0": witness.n0,
            "intersection": list(witness.intersection),
            "per_d_counts": {str(k): v for k, v in witness.per_d_counts.items()},
        },
    }
    return payload, 0


def _grid_strata(family) -> dict:
    """Strata of an admissible family over a digit grid ``SeqGrid(B, L)``.

    The ground must be the grid's B^L atoms of L*w characters, w =
    len(str(B - 1)); a member's stratum is its first differing digit,
    (first differing character) // w + 1, and singletons sit in stratum 1.
    Where two grids name the same atoms ("00".."99" is SeqGrid(10, 2) and
    SeqGrid(100, 1)) the file cannot tell their strata apart, so the
    command exits 2 and asks for ``--strata``.
    """
    atoms = family.ground.elements
    chars = len(atoms[0])
    fits = {w: _grid_branching(atoms, w, chars // w) for w in range(1, chars + 1) if not chars % w}
    grids = {w: f"SeqGrid({b}, {chars // w})" for w, b in fits.items() if b is not None}
    if not grids:
        raise InputFormatError("the ground of an admissible family must be a digit grid SeqGrid(B, L)")
    if len(grids) > 1:
        names = " and ".join(grids.values())
        raise InputFormatError(f"the ground fits {names}; give its strata with --strata")
    (width,) = grids
    strata = {}
    for m in family.members:
        if len(m) == 1:
            strata[m] = 1
            continue
        pos = next(i for i, (x, y) in enumerate(zip(m[0], m[1])) if x != y)
        strata[m] = pos // width + 1
    return strata


def _grid_branching(atoms, width: int, length: int) -> Optional[int]:
    """B when ``atoms`` are exactly the atoms of SeqGrid(B, length) with
    digits of ``width`` characters, else None."""
    b = round(len(atoms) ** (1 / length))
    if b < 2 or b**length != len(atoms) or len(str(b - 1)) != width:
        return None
    grid = talagrand.SeqGrid(b, length, grid_budget=len(atoms))
    return b if set(atoms) == set(grid.elements) else None


def _cmd_eberleinize(args, budgets: Budgets) -> tuple[dict, int]:
    family = family_from_dict(load_json(args.family))
    if args.strata is not None:
        strata = strata_from_dict(load_json(args.strata))
    elif family.provenance == "admissible":
        strata = _grid_strata(family)
    else:
        strata = {m: 1 for m in family.members}
    sets = talagrand.eberleinize(family, strata)
    payload = {
        "command": "eberleinize",
        "ground": list(family.ground.elements),
        "weighted": [weighted_to_dict(g)["weights"] for g in sets],
    }
    return payload, 0


def _cmd_saturate(args, budgets: Budgets) -> tuple[dict, int]:
    supports, gamma_atoms = supports_from_dict(load_json(args.supports))
    delta = GroundSet(sorted(supports))
    if gamma_atoms is None:
        atoms = sorted({g for atoms in supports.values() for g in atoms})
        if not atoms:
            raise InputFormatError("supports file names no gamma atoms")
        gamma = GroundSet(atoms)
    else:
        gamma = GroundSet(gamma_atoms)
    result = talagrand.saturation_partition(gamma, delta, supports)
    payload = {
        "command": "saturate",
        "gamma_blocks": _member_list(result.gamma_blocks),
        "delta_blocks": _member_list(result.delta_blocks),
    }
    return payload, 0


def _cmd_suite(args, budgets: Budgets) -> tuple[dict, int]:
    from . import suite

    report = suite.run_acceptance_suite(seed=args.seed, budgets=budgets)
    return report, 0 if report["passed"] else 1


HANDLERS = {
    "check-ci": _cmd_check_ci,
    "norm": _cmd_norm,
    "norm-re": _cmd_norm_re,
    "disjointify": _cmd_disjointify,
    "build-reznichenko": _cmd_build_reznichenko,
    "search-partition": _cmd_search_partition,
    "qe-search": _cmd_qe_search,
    "eberleinize": _cmd_eberleinize,
    "saturate": _cmd_saturate,
    "suite": _cmd_suite,
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each parse returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="jsnorm",
        description="Set-family norms, axiom checkers, and tree-system searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, precision: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        if precision:
            p.add_argument(
                "--precision",
                type=int,
                default=norm.DEFAULT_PRECISION,
                help="decimal digits for square roots, in [10, 200]",
            )
        return p

    p = add("check-ci")
    p.add_argument("--family", required=True)
    p.add_argument("--envelope", default=None)

    p = add("norm", precision=True)
    p.add_argument("--family", default=None)
    p.add_argument("--tree", default=None)
    p.add_argument("--vector", required=True)

    p = add("norm-re", precision=True)
    p.add_argument("--weighted", required=True)
    p.add_argument("--vector", required=True)

    p = add("disjointify")
    p.add_argument("--family", required=True)
    p.add_argument("--members", required=True)

    p = add("build-reznichenko")
    p.add_argument("--trees", type=int, default=8)
    p.add_argument("--stages", type=int, default=32)
    p.add_argument("--pool", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)

    p = add("search-partition")
    p.add_argument("--system", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--gamma-d", default=None, dest="gamma_d")
    p.add_argument("--threshold", type=int, default=1)

    p = add("qe-search")
    p.add_argument("--family", required=True)
    p.add_argument("--gamma-d", required=True, dest="gamma_d")
    p.add_argument("--gamma-n", required=True, dest="gamma_n")
    p.add_argument("--threshold", type=int, default=1)

    p = add("eberleinize")
    p.add_argument("--family", required=True)
    p.add_argument("--strata", default=None)

    p = add("saturate")
    p.add_argument("--supports", required=True)

    p = add("suite")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _emit(payload: dict, out_path: Optional[str], command: str, code: int) -> int:
    """Write the report and return the exit code; an unwritable --out exits 2
    with the error report on stdout."""
    text = canonical_json(payload)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            error = {"code": "input-format", "message": str(exc)}
            sys.stdout.write(canonical_json({"command": command, "error": error}))
            return 2
    else:
        sys.stdout.write(text)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    command = args.command
    try:
        budgets = _resolve_budgets()
        with nogc():  # one pause per command: its decoded inputs are large and acyclic
            payload, code = HANDLERS[command](args, budgets)
    except JsnormError as exc:
        error = {"code": exc.code, "message": str(exc)}
        pair = getattr(exc, "pair", None)
        if pair is not None:
            error["witness"] = {"s": list(pair[0]), "t": list(pair[1])}
        payload, code = {"command": command, "error": error}, exc.exit_code
    except OSError as exc:
        payload, code = {
            "command": command,
            "error": {"code": "input-format", "message": str(exc)},
        }, 2
    return _emit(payload, args.out, command, code)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
