"""JSON file formats and canonical report rendering.

All rationals travel as exact "p/q" strings. Canonical JSON output is sorted
by key with fixed separators so equal inputs yield byte-identical files.
"""

from __future__ import annotations

import contextlib
import decimal
import gc
import itertools
import json
from fractions import Fraction
from typing import Any, Iterator, Mapping, Optional

from .core import FinVector, FiniteTree, GroundSet, Member, SetFamily, WeightedSet, canonical_member
from .errors import InputFormatError


def format_fraction(value: Fraction | int) -> str:
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # past sys.get_int_max_str_digits(), which Decimal does not check
        return f"{decimal.Decimal(value.numerator):f}/{decimal.Decimal(value.denominator):f}"


def parse_fraction(text: Any) -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise InputFormatError(f"expected a rational 'p/q' string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"bad rational {text!r}: {exc}") from exc


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def family_to_dict(family: SetFamily) -> dict:
    return {
        "ground": list(family.ground.elements),
        "members": [list(m) for m in family.members],
        "provenance": family.provenance,
    }


def _check_atom_lists(lists: Any, what: str) -> None:
    """Reject anything but a JSON list of lists of strings, so no string is
    read as a set of characters and no object as the set of its keys."""
    if type(lists) is not list or not set(map(type, lists)) <= {list}:
        raise InputFormatError(f"bad {what}: expected lists of atoms")
    if not set(map(type, itertools.chain.from_iterable(lists))) <= {str}:
        raise InputFormatError(f"bad {what}: atoms must be strings")


@contextlib.contextmanager
def _payload_errors(prefix: str) -> Iterator[None]:
    """Report a payload that a decoder cannot read as ``InputFormatError``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputFormatError(f"{prefix}: {exc}") from exc


def family_from_dict(payload: Mapping) -> SetFamily:
    with _payload_errors("bad family payload"):
        _check_atom_lists([payload["ground"]], "'ground'")
        ground = GroundSet(payload["ground"])
        members = payload["members"]
        _check_atom_lists(members, "'members'")
        return SetFamily(ground, members, provenance=payload.get("provenance", "explicit"))


def vector_to_dict(vector: FinVector) -> dict:
    return {"entries": {a: format_fraction(v) for a, v in vector.entries.items()}}


def vector_from_dict(payload: Mapping, ground: GroundSet) -> FinVector:
    with _payload_errors("bad vector payload"):
        entries = payload["entries"]
        if not isinstance(entries, Mapping):
            raise InputFormatError("'entries' must be an object")
        return FinVector(ground, {a: parse_fraction(v) for a, v in entries.items()})


def tree_to_dict(tree: FiniteTree) -> dict:
    return {
        "forest": tree.forest,
        "parent": {node: tree.parent[node] for node in sorted(tree.nodes)},
    }


def tree_from_dict(payload: Mapping) -> FiniteTree:
    with _payload_errors("bad tree payload"):
        parent = payload["parent"]
        if not isinstance(parent, Mapping):
            raise InputFormatError("'parent' must be an object")
        forest = payload.get("forest", False)
        if not isinstance(forest, bool):
            raise InputFormatError(f"'forest' must be true or false, got {forest!r}")
        return FiniteTree(parent, forest=forest)


def weighted_to_dict(wset: WeightedSet) -> dict:
    return {"weights": {a: format_fraction(v) for a, v in wset.weights.items()}}


def weighted_family_from_dict(payload: Mapping) -> tuple[list[WeightedSet], GroundSet]:
    with _payload_errors("bad weighted family payload"):
        _check_atom_lists([payload["ground"]], "'ground'")
        ground = GroundSet(payload["ground"])
        sets = [
            WeightedSet(ground, {a: parse_fraction(v) for a, v in w.items()})
            for w in payload["weighted"]
        ]
        return sets, ground


def partition_from_dict(payload: Mapping) -> list[list[str]]:
    with _payload_errors("bad partition payload"):
        blocks = payload["blocks"]
        _check_atom_lists(blocks, "'blocks'")
        return blocks


def supports_from_dict(payload: Mapping) -> tuple[dict[str, list[str]], Optional[list[str]]]:
    """Supports file: either a bare {delta: [gammas]} map or a
    {"gamma": [...], "supports": {...}} wrapper naming the full ground set."""
    with _payload_errors("bad supports payload"):
        if "supports" in payload:
            gamma = None
            if "gamma" in payload:
                gamma = payload["gamma"]
                _check_atom_lists([gamma], "'gamma'")
                if not gamma or len(set(gamma)) != len(gamma):
                    raise InputFormatError("'gamma' must list distinct atoms, at least one")
            raw = payload["supports"]
        else:
            gamma, raw = None, payload
        if not isinstance(raw, Mapping):
            raise InputFormatError("supports must be an object mapping delta ids to atom lists")
        if not raw:
            raise InputFormatError("supports must name at least one delta")
        _check_atom_lists(list(raw.values()), "supports")
        return {str(d): atoms for d, atoms in raw.items()}, gamma


def _side_list(payload: Any, key: str, shape: str, pairs: bool = False) -> list:
    """The list a side file holds, bare or under ``key``; with ``pairs`` each
    row must be a two-item list."""
    rows = payload.get(key) if isinstance(payload, dict) else payload
    if type(rows) is not list or pairs and not all(type(r) is list and len(r) == 2 for r in rows):
        raise InputFormatError(f"{key} file must hold a list of {shape}")
    return rows


def _by_member(rows: list, what: str) -> dict[Member, Any]:
    """[member, value] rows keyed by canonical member; a member listed twice,
    in any spelling, is an error rather than a silent overwrite."""
    out: dict[Member, Any] = {}
    for m, value in rows:
        key = canonical_member(m)
        if key in out:
            raise InputFormatError(f"bad {what}: member {list(key)!r} is listed twice")
        out[key] = value
    return out


def envelope_from_dict(payload: Any) -> dict[Member, Member]:
    """Envelope file: [t, s_t] member pairs, bare or under "envelope", one
    for each member t."""
    pairs = _side_list(payload, "envelope", "[t, s_t] pairs", pairs=True)
    _check_atom_lists(list(itertools.chain.from_iterable(pairs)), "envelope pair")
    return {t: canonical_member(s) for t, s in _by_member(pairs, "envelope").items()}


def members_from_dict(payload: Any) -> list[list[str]]:
    """Members file for ``disjointify``: a list of members, bare or under "members"."""
    members = _side_list(payload, "members", "members")
    _check_atom_lists(members, "'members'")
    return members


def strata_from_dict(payload: Any) -> dict[Member, int]:
    """Strata file: [member, n] rows, bare or under "strata", one for each
    member; each n is a JSON integer, not a boolean or a float."""
    rows = _side_list(payload, "strata", "[member, n] pairs", pairs=True)
    _check_atom_lists([m for m, _ in rows], "strata member")
    if not {type(n) for _, n in rows} <= {int}:
        raise InputFormatError("bad strata: a stratum must be a JSON integer")
    return _by_member(rows, "strata")


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an integer past the digit limit, deep nesting
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


@contextlib.contextmanager
def nogc() -> Iterator[None]:
    """Pause the cyclic collector while large acyclic containers are built
    (``cli.main`` runs each command inside one pause); the state found is
    restored, also on error, and a nested use does nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()

