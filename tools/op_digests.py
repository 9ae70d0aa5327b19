"""Digest every op of one benchmark workload, so two checkouts compare by ``diff``.

    python3 tools/op_digests.py --workload norm-queries --seed 1 > digests.json

Builds the op list of ``bench/workloads.py`` for the workload and seed, as
``bench/run.py`` does, runs each op once in this checkout and prints one
JSON document: per op its kind, exit code, the SHA-256 of its report and of
every file it wrote, and per op kind the ``PackingTable.pack`` calls its
searches made and the new table entries they added. Nothing is timed and
no output is checked; the benchmark does both. The work directory's path is
replaced by ``<work>`` before hashing, so the digests do not depend on where
it was made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from collections import Counter

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(work: str) -> dict[str, tuple[int, int]]:
    """Each file under ``work`` with its (mtime, size)."""
    out = {}
    for root, _, names in os.walk(work):
        for name in names:
            st = os.stat(os.path.join(root, name))
            out[os.path.relpath(os.path.join(root, name), work)] = (st.st_mtime_ns, st.st_size)
    return out


def _plain(lib, value):
    """A library op's output as JSON-ready data: families as their file form."""
    if isinstance(value, lib.jsnorm.SetFamily):
        return lib.serialize.family_to_dict(value)
    if isinstance(value, dict):
        return sorted([_plain(lib, k), _plain(lib, v)] for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_plain(lib, v) for v in value]
    return value if value is None or isinstance(value, (bool, int, float, str)) else repr(value)


def digests(workload: str, seed: int, work: str) -> dict:
    lib, ops, _ = run.set_up(workload, seed, 1, work)
    table = lib.jsnorm.packing.PackingTable
    entries = Counter(dict.fromkeys((op.kind for op in ops), 0))  # a kind that never packs shows 0
    calls = Counter(entries)
    kind = ""

    def counting_solve(self, frees, *budget, _solve=table.solve):
        added = _solve(self, frees, *budget)
        entries[kind] += added
        return added

    def counting_pack(self, free, *budget, _pack=table.pack):
        calls[kind] += 1
        return _pack(self, free, *budget)

    table.solve = counting_solve
    table.pack = counting_pack
    rows = []
    for op in ops:
        kind = op.kind
        before = _snapshot(work)
        try:
            out = op.call(lib)
        except Exception as exc:  # a raising op is recorded, not fatal
            out = (None, f"{type(exc).__name__}: {exc}")
        if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
            code, text = out  # a CLI op: (exit code, stdout)
        else:
            code, text = None, json.dumps(_plain(lib, out), sort_keys=True)
        after = _snapshot(work)
        written = {}
        for name in sorted(n for n in after if before.get(n) != after[n]):
            with open(os.path.join(work, name), "rb") as fh:
                written[name] = _sha(fh.read().replace(work.encode(), b"<work>"))
        rows.append({"kind": kind, "exit": code, "report": _sha(text.replace(work, "<work>").encode()), "files": written})
    return {
        "workload": workload,
        "seed": seed,
        "ops": rows,
        "packing_calls": dict(sorted(calls.items())),
        "packing_entries": dict(sorted(entries.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="op-digests-")
    try:
        result = digests(args.workload, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
