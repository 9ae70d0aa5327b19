"""Paired, in-process timing of one benchmark workload on two checkouts.

    python3 tools/ab.py --base ../parent --head . --workload tree-system --seed 1

Builds the op list of ``bench/workloads.py`` as ``bench/run.py`` does,
imports jsnorm from ``src/`` of both checkouts into this process, and runs
every op on both sides, alternating which goes first (``--rounds N`` runs
the list N times, each round flipping the order). Before each run the heap
is collected and frozen, as in the benchmark, and that side's ``jsnorm.*``
modules are swapped into ``sys.modules``. Per op class it prints each side's
median op time, the median head/base ratio with its quartiles, and the
number of runs whose exit code or report differ. Both sides share one work
directory: an op that reads a file an earlier op wrote reads the last side's.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict

from op_digests import _plain, run  # op_digests puts bench/ on sys.path


def _jsnorm_names() -> list[str]:
    return [n for n in sys.modules if n == "jsnorm" or n.startswith("jsnorm.")]


def load(checkout: str) -> tuple[run.Lib, dict]:
    """jsnorm imported from ``checkout``'s src, and the modules of that import."""
    src = os.path.join(os.path.abspath(checkout), "src")
    for name in _jsnorm_names():
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        lib = object.__new__(run.Lib)
        lib.jsnorm = importlib.import_module("jsnorm")
        lib.cli = importlib.import_module("jsnorm.cli")
        lib.serialize = importlib.import_module("jsnorm.serialize")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(lib.jsnorm.__file__).startswith(src + os.sep):
        raise ImportError(f"jsnorm was imported from {lib.jsnorm.__file__}, not from {src}")
    return lib, {n: sys.modules[n] for n in _jsnorm_names()}


def timed(op, lib, modules: dict) -> tuple[float, str]:
    """One run of ``op`` on one side: (seconds, its output as comparable text)."""
    gc.collect()
    gc.freeze()
    for name in _jsnorm_names():
        del sys.modules[name]
    sys.modules.update(modules)
    t0 = time.perf_counter()
    try:
        out = op.call(lib)
    except Exception as exc:  # a raising op is compared by its error
        out = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    modules.update({n: sys.modules[n] for n in _jsnorm_names()})  # keep lazy imports on their side
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
        return seconds, f"exit {out[0]}\n{out[1]}"  # a CLI op: (exit code, stdout)
    return seconds, json.dumps(_plain(lib, out), sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="checkout to compare against")
    parser.add_argument("--head", required=True, help="checkout under test")
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1, help="runs of the op list; each flips the order")
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="ab-")
    try:
        _, ops, _ = run.set_up(args.workload, args.seed, 1, work)
        sides = {"base": load(args.base), "head": load(args.head)}
        rows = defaultdict(list)  # kind -> [(base s, head s, differs)]
        for r in range(args.rounds):
            for i, op in enumerate(ops):
                order = ("base", "head") if (i + r) % 2 == 0 else ("head", "base")
                result = {side: timed(op, *sides[side]) for side in order}
                rows[op.kind].append((result["base"][0], result["head"][0], result["base"][1] != result["head"][1]))
        gc.unfreeze()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  rounds {args.rounds}")
    print(f"{'op class':24} {'n':>4} {'base ms':>9} {'head ms':>9}  head/base [q1-q3]  differ")
    for kind, runs in rows.items():
        base, head, differ = zip(*runs)
        ratios = [h / b for b, h in zip(base, head)]
        q1, q2, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
        ms = f"{1000 * statistics.median(base):9.2f} {1000 * statistics.median(head):9.2f}"
        print(f"{kind:24} {len(runs):4} {ms}  {q2:.3f} [{q1:.3f}-{q3:.3f}]  {sum(differ)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
