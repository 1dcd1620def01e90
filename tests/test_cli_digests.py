"""Byte pins of the CLI on every bundled task: the exit code and the
sha256 of stdout and stderr of each request, in text and JSON.

The requests are built from ``tasks/*.eplan`` at test time and run in
process through ``cli.main``:

- ``check`` of ``top`` and ``contract`` of the initial state;
- ``dot`` of the initial state, of each named state and of each action;
- ``apply`` of each action, with and without ``--contract``;
- ``apply`` of k = 2..8 ``AskWhetherPO1`` on ``ask_private``;
- ``solve`` seq and policy at ``--max-depth 8``;
- ``validate`` and ``execute`` of the solved policy.

The requests are also replayed in reverse order in one process, and
after a usage error, so that no request depends on what an earlier one
left behind in the process.

An intended output change re-records the pins with

    PYTHONPATH=src python tests/test_cli_digests.py --record

and names the requests whose digests moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from eplan import parse_task
from eplan.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden" / "cli_digests.json"
MAX_DEPTH = "8"


def requests(policy_dir: str) -> list[list[str]]:
    """Every request, as argv with the task path relative to the checkout.
    Each task's policy file is its own, in ``policy_dir``."""
    out: list[list[str]] = []
    for path in sorted((ROOT / "tasks").glob("*.eplan")):
        task = f"tasks/{path.name}"
        policy_file = str(Path(policy_dir) / f"{path.stem}.json")
        doc = parse_task(path.read_bytes())
        actions = [a.name for a in doc.task.actions]
        batch = [["check", task, "top"], ["contract", task], ["dot", task]]
        batch += [["dot", task, "--state", name] for name in doc.states]
        batch += [["dot", task, "--action", name] for name in actions]
        for name in actions:
            batch += [["apply", task, "--actions", name, *tail] for tail in ([], ["--contract"])]
        if path.name == "ask_private.eplan":
            batch += [["apply", task, "--actions", *["AskWhetherPO1"] * k] for k in range(2, 9)]
        for mode in ("seq", "policy"):
            batch.append(["solve", task, "--mode", mode, "--max-depth", MAX_DEPTH])
        if doc.task.owner is not None:
            # Written as JSON only, for validate and execute to read.
            batch.append(
                ["solve", task, "--mode", "policy", "--max-depth", MAX_DEPTH, "-o", policy_file]
            )
            for command in ("validate", "execute"):
                batch.append([command, task, "--policy", policy_file])
        for argv in batch:
            if "-o" in argv:
                argv += ["--format", "json"]
                out.append(argv)
            else:
                out += [argv, argv + ["--format", "json"]]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` in process, a task path relative to the checkout:
    (exit code, stdout, stderr). An argparse exit gives its code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    real = [str(ROOT / a) if a.startswith("tasks/") else a for a in argv]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(real)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def run_requests(reverse: bool = False) -> dict[str, list]:
    """Request (argv joined by spaces, a policy file written ``POLICY``)
    -> [exit code, sha256 of stdout, sha256 of stderr]. In ``reverse``
    order, ``validate`` and ``execute`` come before the ``solve -o`` that
    writes their policy file, so those solves also run once beforehand."""
    digests: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as tmp:
        batch = requests(tmp)
        if reverse:
            for argv in batch:
                if "-o" in argv:
                    call(argv)
            batch.reverse()
        for argv in batch:
            code, out, err = call(argv)
            key = " ".join("POLICY" if a.startswith(tmp) else a for a in argv)
            digests[key] = [code, _sha(out), _sha(err)]
    return digests


def check_digests(monkeypatch, reverse: bool) -> None:
    monkeypatch.delenv("EPLAN_LOG", raising=False)
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = run_requests(reverse)
    assert sorted(actual) == sorted(expected)
    moved = [key for key in expected if actual[key] != expected[key]]
    assert moved == []


def test_cli_digests(monkeypatch):
    check_digests(monkeypatch, reverse=False)


def test_cli_digests_reversed(monkeypatch):
    check_digests(monkeypatch, reverse=True)


def test_request_after_usage_error(monkeypatch):
    """argparse exits 2 on a usage error and prints the usage; the same
    error again prints the same bytes, and a valid request after it prints
    its recorded bytes."""
    monkeypatch.delenv("EPLAN_LOG", raising=False)
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    task = "tasks/two_post_offices.eplan"
    code, out, err = call(["solve", task, "--max-depth", MAX_DEPTH])
    assert (code, out) == (2, "")
    assert err.startswith("usage: eplan solve") and "Traceback" not in err
    assert call(["solve", task, "--max-depth", MAX_DEPTH]) == (code, out, err)
    for argv in (
        ["solve", task, "--mode", "seq", "--max-depth", MAX_DEPTH],
        ["apply", task, "--actions", "Go(Father,Home,PostOffice1)", "--format", "json"],
    ):
        code, out, err = call(argv)
        assert [code, _sha(out), _sha(err)] == expected[" ".join(argv)]


def record() -> None:
    digests = run_requests()
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(digests.items())]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(digests)} requests in {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    os.environ.pop("EPLAN_LOG", None)
    record()
