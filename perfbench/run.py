"""sitcalc benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload progress --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):
  progress  parse, progress through legal moves and render; no oracle call
  decide    entails / equivalent / satisfiable / project / executable
  separate  check_inseparable and verify_forgetting

The package is imported from src/ next to this directory, never from an
installed copy.  Set-up (import, input generation, parsing and preparing
what the operations read) is repeated three to seven times and its median
reported.  The measured loop then runs whole passes over the operations,
in a fixed seeded order, until --seconds have passed; every result is
checked after its timing has stopped.

--trace 0 prints the end-to-end metrics; --trace 1 runs each operation
untraced and then traced, and prints the per-layer metrics with the
tracing overhead.  Per-operation records and, when tracing, the spans are
written under perfbench/out/.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import gen
import ops
import ref
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up runs at least SETUP_MIN times and up to SETUP_MAX times while the
# repetitions so far took under SETUP_BUDGET_S; its median is reported.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 3.0
# p90 needs at least ten samples beyond it.
MIN_OPS = 100
# The loop finishes its pass and may outrun --seconds to reach MIN_OPS,
# but starts no pass after this.
HARD_STOP_S = 120.0


def _import_sitcalc():
    """A fresh import of sitcalc from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "sitcalc" / "__init__.py").is_file():
        raise SystemExit(f"error: no sitcalc package under {src}; run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "sitcalc" or n.startswith("sitcalc.")]:
        del sys.modules[name]
    sc = importlib.import_module("sitcalc")
    if Path(sc.__file__).resolve().parent != (src / "sitcalc").resolve():
        raise SystemExit(f"error: imported sitcalc from {sc.__file__}, not from {src}")
    return sc


def setup(workload: str, seed: int):
    sc = _import_sitcalc()
    return sc, [ops.prepare(sc, workload, s) for s in gen.GENERATORS[workload](seed)]


def _call(op):
    """Run one operation; (result, error, CPU seconds of this thread).

    Times are CPU time of this thread, for set-up too: the work is
    single-threaded and compute-bound, and CPU time does not count the
    time other processes hold the cores."""
    t0 = time.thread_time()
    try:
        result, err = op.run(), None
    except Exception as e:  # a failed operation is counted, not fatal
        result, err = None, e
    return result, err, time.thread_time() - t0


def _judge(op, result, err) -> tuple[bool, str, str]:
    if err is not None:
        return False, type(err).__name__, "".join(traceback.format_exception_only(err)).strip()
    try:
        ok, verdict = op.check(result)
    except Exception as e:  # a result the checker cannot read is a wrong answer
        return False, "unreadable", "".join(traceback.format_exception_only(e)).strip()
    return ok, verdict, ""


def _keep_going(started: float, seconds: float, n: int, pool: int, least: int) -> bool:
    """Stop at the end of a pass, so every run does the same mix of operations."""
    if n % pool:
        return True
    elapsed = time.perf_counter() - started
    return elapsed < HARD_STOP_S and (elapsed < seconds or n < least)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    tracer = spans.Tracer() if trace else None
    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN or (
        len(setup_times) < SETUP_MAX and sum(setup_times) < SETUP_BUDGET_S
    ):
        t0 = time.thread_time()
        sc, pool = setup(workload, seed)
        setup_times.append(time.thread_time() - t0)

    records, durations = [], []
    first_pass_nodes = 0
    untraced_s = traced_s = 0.0
    failed = 0
    started = time.perf_counter()
    n = 0
    # Untraced, at least enough operations for p90.
    least = 1 if tracer is not None else MIN_OPS
    while _keep_going(started, seconds, n, len(pool), least):
        op = pool[n % len(pool)]
        if tracer is not None:
            untraced_s += _call(op)[2]
            tracer.op_id = n
            tracer.install()
            try:
                result, err, dt = _call(op)
            finally:
                tracer.uninstall()
            traced_s += dt
        else:
            result, err, dt = _call(op)
        ok, verdict, detail = _judge(op, result, err)
        failed += not ok
        durations.append(dt)
        size = op.size
        if workload == "progress" and result is not None:
            b0, final = result[0], result[1]
            size = {"axioms": len(b0.init.axioms), "nodes": ref.nodes(b0.init),
                    "constants": len(b0.sig.objects), "max_extra": None, "una": None}
            if n < len(pool):
                first_pass_nodes += ref.nodes(final)
        records.append({
            "workload": workload, "seed": seed, "trace": int(trace), "i": n, "kind": op.kind,
            "expect": op.expect, "verdict": verdict, "ok": ok, "error": detail,
            "duration_ms": dt * 1000, **size,
        })
        n += 1

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-s{seed}-t{int(trace)}"
    with open(OUT / f"ops-{stem}.jsonl", "w") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")

    if tracer is not None:
        metrics = spans.layer_metrics(tracer, n, traced_s, untraced_s)
        tracer.write(OUT / f"spans-{stem}.jsonl.gz")
        units = {k: u for k, (u, _) in spans.PER_LAYER.items()}
    else:
        deciles = statistics.quantiles(durations, n=10)
        produced = first_pass_nodes if workload == "progress" else sum(op.produced_nodes for op in pool)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": n / sum(durations),
            "op_p50_ms": statistics.median(durations) * 1000,
            "op_p90_ms": deciles[8] * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "result_nodes": produced,
        }
        units = UNITS
        beyond = sum(d > deciles[8] for d in durations)
        print(f"{workload} seed {seed}: {n} ops, {failed} failed (failed_ratio {failed / n:.4f}); "
              f"p50 and p90 over {n} samples, {beyond} beyond p90", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:52s} {value:14.4f} {units[name]}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "result_nodes": "count",
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("progress", "decide", "separate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
