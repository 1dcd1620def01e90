"""The eplan benchmark: one workload per invocation, run in a child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: offices-policy, offices-seq,
random-batch and documents (see BENCHMARK.json for why each exists). Each
runs in one single-threaded child process, started only after the last
one ended. The seed orders the workload's inputs; the same seed gives the
same inputs. Every operation's output is compared with the outputs
recorded in ``expected.json``; a mismatch, an exception or a failed
self-validation counts as a failed operation.

With ``--trace 0`` the end-to-end metrics are printed: throughput,
90th-percentile latency, peak RSS of the child and set-up time (median
over several child starts of the time from spawning to ``import eplan``
returning). There is no median latency: on a shared 2-vCPU virtual
machine, identical operations ran 10-30% faster during bursts lasting
tens of seconds, and a run's median latency swung with the share of the
run such a burst covered, while throughput and the 90th percentile stayed
steadier. With ``--trace 1`` the public functions of the eplan layers are
wrapped from outside and the per-layer metrics are printed.
The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offices-policy", "offices-seq", "random-batch", "documents")
END_TO_END = ("ops_per_s", "op_p90_ms", "peak_rss_mb", "setup_s")
TIME_LIMIT_S = 170.0
REQUIRED = ("src/eplan/__init__.py", "tasks/ask_private.eplan", "perfbench/expected.json")


def spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run the worker with ``args``; return its start time and its result."""
    env = {k: v for k, v in os.environ.items() if k != "EPLAN_LOG"}
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return started, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not an eplan checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    try:
        started, result = spawn(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            TIME_LIMIT_S,
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace == "0":
        setups = result["probe_setups"] + [result["imported_at"] - started]
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics = {name: metrics[name] for name in END_TO_END}
    for error in result["errors"]:
        print(f"failure: {error}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations")
    print(f"  fail_ratio = {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
