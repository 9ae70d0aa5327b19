"""jsnorm benchmark: one closed-loop caller, one process, one thread.

    python3 bench/run.py --workload norm-queries --seed 1 --seconds 20 --trace 0

Each run builds a seeded list of distinct operations and runs it to the end,
back to back, through ``jsnorm.cli.main`` in process (stdout captured) or,
where no command exists, through the public library function. Outputs are
checked after timing against computations made apart from jsnorm (see
checks.py). With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` the same list runs once untraced and once traced,
and the last line holds the per-layer metrics read back from the trace file.
jsnorm is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

ROUND_SECONDS = 22  # one round of a workload's op list takes about this long
SETUP_REPEATS = 5
TAIL_MIN_BEYOND = 10  # a tail percentile needs this many samples beyond it


class Lib:
    """A fresh import of jsnorm from this checkout's ``src``."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "jsnorm" or n.startswith("jsnorm.")]:
            del sys.modules[name]
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        self.jsnorm = importlib.import_module("jsnorm")
        if not os.path.abspath(self.jsnorm.__file__).startswith(SRC + os.sep):
            raise ImportError(f"jsnorm was imported from {self.jsnorm.__file__}, not from {SRC}")
        self.cli = importlib.import_module("jsnorm.cli")
        self.serialize = importlib.import_module("jsnorm.serialize")

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()


def set_up(workload: str, seed: int, rounds: int, work: str):
    """Import jsnorm, write the inputs and run the warm-up op; timed as setup_s."""
    start = time.perf_counter()
    lib = Lib()
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for r in range(rounds):
        plan = WORKLOADS[workload](rng, Inputs(os.path.join(work, f"round-{r}")))
        ops.extend(plan.ops)
    code, _ = lib.run_cli(plan.warmup)
    if code != 0:
        raise RuntimeError(f"warm-up command {plan.warmup} exited {code}")
    return lib, ops, time.perf_counter() - start


def run_ops(lib: Lib, ops, tracer=None):
    """Run the op list back to back; returns (outputs, per-op seconds, busy).

    Before each op the heap is collected and frozen, untimed, so every op
    starts from the garbage-collector state of a fresh CLI process: the
    collector never scans the outputs the benchmark keeps for its checks,
    and where its full collections fall does not hang on the ops before.
    ``busy`` is the sum of the op times."""
    outputs, times = [], []
    for i, op in enumerate(ops):
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.op = i
            span = tracer.begin(f"op:{op.kind}")
        t0 = time.perf_counter()
        try:
            out = op.call(lib)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            out = exc
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(span)
        outputs.append(out)
    gc.unfreeze()
    return outputs, times, sum(times)


def check_ops(ops, outputs) -> list[tuple[int, str, str]]:
    """(op index, kind, reason) for every failed op."""
    failures = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            try:
                reason = op.check(out)
            except Exception as exc:  # malformed output that the check cannot read
                reason = f"output unreadable: {type(exc).__name__}: {exc}"
        if reason:
            failures.append((i, op.kind, reason))
    return failures


def tail(times: list[float]):
    """Highest of p99/p95/p90/p75 with enough samples beyond it, or None."""
    n = len(times)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            return p, statistics.quantiles(times, n=100, method="inclusive")[p - 1]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=ROUND_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    rounds = max(1, round(args.seconds / ROUND_SECONDS))

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            lib, ops, seconds = set_up(args.workload, args.seed, rounds, work)
            setups.append(seconds)
        outputs, times, busy = run_ops(lib, ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra_lines = []
        if args.trace:
            tracer = tracing.Tracer()
            restore = tracer.install()
            try:
                traced_outputs, _, traced_busy = run_ops(lib, ops, tracer)
            finally:
                restore()
            trace_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.trace.json.gz")
            tracer.write(trace_path)
            spans = tracing.read_spans(trace_path)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracing.layer_metrics(spans).items()}
            metrics["trace.overhead_ratio"] = {"value": traced_busy / busy, "unit": "ratio"}
            extra_lines += [
                f"trace file {os.path.relpath(trace_path, ROOT)}: {len(spans)} spans",
                f"traced spans cover {100 * tracing.op_coverage(spans):.2f}% of op time",
                f"traced pass: {len(check_ops(ops, traced_outputs))} failed ops",
            ]
        else:
            metrics = {
                "ops_per_s": {"value": len(ops) / busy, "unit": "1/s"},
                "op_p50_ms": {"value": 1000 * statistics.median(times), "unit": "ms"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            ref = tail(times)
            if ref:
                extra_lines.append(f"op_p{ref[0]}_ms {1000 * ref[1]:.3f} ms (reference only, n={len(times)})")
        checked = time.perf_counter()
        failures = check_ops(ops, outputs)
        extra_lines.append(f"output checks took {time.perf_counter() - checked:.1f} s (untimed)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unexpected = [f for f in failures if not ops[f[0]].known_fault]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {rounds}")
    print(f"ops attempted {len(ops)}  failed {len(failures)}")
    for i, kind, reason in failures:
        known = ops[i].known_fault
        print(f"  failed op {i} ({kind}): {reason}" + (f" [known fault: {known}]" if known else ""))
    print(f"setup runs (s): {', '.join(f'{s:.3f}' for s in setups)}")
    for line in extra_lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not unexpected, "attempted": len(ops), "failed": len(failures), "metrics": metrics}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "failures": failures, "setups_s": setups}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
