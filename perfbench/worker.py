"""One benchmark child process: import eplan, run one workload, print JSON.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --record

``--probe`` only imports eplan and prints the time at which the import
returned (CLOCK_MONOTONIC, comparable with the parent's clock). A workload
run prints one JSON object as its last line. ``--record`` rewrites
``expected.json`` from the checkout's current program; run it only on a
commit whose outputs are known good.

The package is always imported from ``src/`` of the checkout that holds
this file, never from an installed copy.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
import eplan  # noqa: E402

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

import eplan.cli  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

EXPECTED_PATH = os.path.join(ROOT, "perfbench", "expected.json")
SETUP_PROBES = 10


def cli_request(argv: list[str]) -> tuple[int, bytes]:
    """One in-process CLI request: exit code and the bytes it wrote to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = eplan.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a request this way
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def digest(code: int, out: bytes) -> str:
    return f"{code} {len(out)} {hashlib.sha256(out).hexdigest()}"


def policy_digest(policy) -> str:
    rows = sorted(f"{key.hex()} {action}" for key, action in policy.entries.items())
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# Workloads. Each has ``size`` inputs per pass and three steps per
# operation: ``prepare`` (untimed) builds the input, ``call`` (timed) is
# the program's work, ``check`` (untimed) returns an error or None.


class Offices:
    size = 1
    n = W.OFFICES_N

    def __init__(self, mode: str, expected: dict):
        self.mode = mode
        self.expected = expected[f"offices-{mode}"]
        path = os.path.join("perfbench", ".work", f"offices-{self.n}.eplan")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(W.offices_document(self.n))
        self.argv = ["solve", path, "--mode", mode, "--max-depth", str(W.offices_cap(self.n))]

    def setup_errors(self) -> list[str]:
        """The generator must reproduce the planner tests' pinned results."""
        errors = []
        two = eplan.parse_task(W.offices_document(2)).task
        plan = eplan.solve_sequential(two, 8)
        if plan is None or plan.steps != W.TWO_OFFICE_PLAN:
            errors.append(f"N=2 plan {plan} differs from the worked example")
        three = eplan.parse_task(W.offices_document(3)).task
        plan = eplan.solve_sequential(three, 9)
        if plan is None or plan.steps != W.THREE_OFFICE_PLAN:
            errors.append(f"N=3 plan {plan} differs from the pinned plan")
        policy = eplan.solve_policy(three, 9)
        report = policy and eplan.validate_policy(three, policy)
        if not report or not report.ok or report.execution_lengths != W.THREE_OFFICE_LENGTHS:
            errors.append(f"N=3 policy report {report} differs from the pinned lengths")
        return errors

    def prepare(self, k):
        return self.argv

    def call(self, argv):
        return cli_request(argv)

    def check(self, k, result) -> str | None:
        code, out = result
        if digest(code, out) != self.expected:
            return f"offices-{self.mode}: output differs (exit {code})"
        lines = out.decode("utf-8").splitlines()
        n = self.n
        if self.mode == "seq":
            if tuple(lines) != W.offices_plan(n):
                return f"offices-seq: plan is not the {2 * n + 2}-step office tour"
            return None
        lengths = ",".join(str(2 * i + 2) for i in range(1, n + 1))
        if lines[0] != f"policy owner=Father entries={3 * n + 1}" or (
            lines[-1] != f"executions: count={n} lengths={{{lengths}}}"
        ):
            return "offices-policy: entries or execution lengths off the analytic values"
        return None


class RandomBatch:
    size = W.RANDOM_POOL

    def __init__(self, expected: dict):
        self.expected = expected["random-batch"]

    def setup_errors(self) -> list[str]:
        return []

    def prepare(self, k):
        return W.random_task(k)

    def call(self, task):
        plan = eplan.solve_sequential(task, W.RANDOM_SEQ_CAP)
        plan_ok = plan is None or eplan.validate_plan(task, plan).ok
        owned = eplan.localize(task, task.vocab.agents[0])
        policy = eplan.solve_policy(owned, W.RANDOM_POLICY_CAP)
        policy_ok = policy is None or eplan.validate_policy(owned, policy).ok
        steps = None if plan is None else " ".join(plan.steps)
        pdigest = None if policy is None else policy_digest(policy)
        return [steps, pdigest], plan_ok and policy_ok

    def check(self, k, result) -> str | None:
        outputs, valid = result
        if not valid:
            return f"random task {k}: plan or policy failed validation"
        if outputs != self.expected[k]:
            return f"random task {k}: {outputs} differs from {self.expected[k]}"
        return None


class Documents:
    size = len(W.DOCUMENT_PASS)

    def __init__(self, expected: dict):
        self.expected = expected["documents"]
        self.policy_file = expected["documents-policy-file"]

    def setup_errors(self) -> list[str]:
        code, out = cli_request(W.POLICY_SETUP)
        with open(W.POLICY_FILE, "rb") as fh:
            written = fh.read()
        if code != 0 or out or digest(code, written) != self.policy_file:
            return ["documents: the policy file differs from the recorded one"]
        return []

    def prepare(self, k):
        return W.DOCUMENT_PASS[k]

    def call(self, argv):
        return cli_request(argv)

    def check(self, k, result) -> str | None:
        key = " ".join(W.DOCUMENT_PASS[k])
        if digest(*result) != self.expected[key]:
            return f"documents: output of `{key[:60]}` differs (exit {result[0]})"
        return None


def make_workload(name: str, expected: dict):
    if name == "offices-policy":
        return Offices("policy", expected)
    if name == "offices-seq":
        return Offices("seq", expected)
    if name == "random-batch":
        return RandomBatch(expected)
    if name == "documents":
        return Documents(expected)
    raise SystemExit(f"unknown workload: {name}")


# --------------------------------------------------------------------------
# Running


class Run:
    """Operations in pass order, with latencies and failures."""

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.tracer: Tracer | None = None

    def run_pass(self, p: int) -> float:
        """Run every input once, in the order of pass ``p``; return the
        operations' total time."""
        before = len(self.latencies)
        for k in W.pass_order(self.seed, p, self.workload.size):
            self.op(k)
        return sum(self.latencies[before:])

    def op(self, k: int) -> None:
        wl = self.workload
        x = wl.prepare(k)
        if self.tracer:
            self.tracer.begin_op()
        t0 = perf_counter()
        try:
            result = wl.call(x)
            error = None
        except Exception as exc:  # a failing operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        self.latencies.append(perf_counter() - t0)
        if error is None:
            error = wl.check(k, result)
        if error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def probe() -> float:
    """Seconds from spawning a child until its ``import eplan`` returned."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)["imported_at"] - started


def measure(run: Run, seconds: float) -> tuple[dict, list[float]]:
    """Whole passes until ``seconds`` of operation time have passed, so
    every run has the same mix of inputs. Set-up probes run between passes,
    about every tenth of the run, so that their samples see the same spread
    of host speed as the operations; their time is not operation time."""
    spent, next_probe, p = 0.0, 0.0, 0
    setups = []
    while spent < seconds:
        if spent >= next_probe:
            setups.append(probe())
            next_probe += seconds / SETUP_PROBES
        spent += run.run_pass(p)
        p += 1
    lat = run.latencies
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return metrics, setups


def measure_traced(run: Run, seconds: float) -> dict:
    """Whole passes, each run once untraced and once traced, until
    ``seconds`` have passed. Which of the two goes first alternates, so
    neither side gets all the warm-up or all the drift in host speed."""
    tracer = Tracer()
    untraced = traced = 0.0
    p = 0
    while p == 0 or untraced + traced < seconds:
        for tracing in (p % 2 == 1, p % 2 == 0):
            if tracing:
                tracer.install()
                run.tracer = tracer
                traced += run.run_pass(p)
                tracer.uninstall()
                run.tracer = None
            else:
                untraced += run.run_pass(p)
        p += 1
    metrics = tracer.metrics(p)
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return metrics


def record() -> None:
    expected = {}
    for mode in ("policy", "seq"):
        wl = Offices(mode, {f"offices-{mode}": None})
        expected[f"offices-{mode}"] = digest(*wl.call(wl.argv))
    code, out = cli_request(W.POLICY_SETUP)
    with open(W.POLICY_FILE, "rb") as fh:
        expected["documents-policy-file"] = digest(code, fh.read())
    expected["documents"] = {" ".join(a): digest(*cli_request(a)) for a in W.DOCUMENT_PASS}
    pool = []
    batch = RandomBatch({"random-batch": None})
    for k in range(W.RANDOM_POOL):
        outputs, valid = batch.call(W.random_task(k))
        if not valid:
            raise SystemExit(f"random task {k} fails validation; not recording")
        pool.append(outputs)
    expected["random-batch"] = pool
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    if not os.path.dirname(eplan.__file__).startswith(SRC):
        print(f"eplan imported from {eplan.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if argv == ["--probe"]:
        print(json.dumps({"imported_at": IMPORTED_AT}))
        return 0
    os.makedirs(os.path.join("perfbench", ".work"), exist_ok=True)
    if argv == ["--record"]:
        record()
        return 0
    opts = dict(zip(argv[::2], argv[1::2]))
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    workload = make_workload(opts["--workload"], expected)
    errors = workload.setup_errors()
    run = Run(workload, int(opts["--seed"]))
    seconds = float(opts["--seconds"])
    setups = []
    if opts["--trace"] == "1":
        metrics = measure_traced(run, seconds)
    else:
        metrics, setups = measure(run, seconds)
    print(json.dumps({
        "imported_at": IMPORTED_AT,
        "probe_setups": setups,
        "attempted": len(run.latencies),
        "failed": run.failed,
        "errors": errors + run.errors,
        "correct": not errors and run.failed == 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
