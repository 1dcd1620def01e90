"""CLI behavior: subcommands, exit codes, and the JSON output schema."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN_DIR, SRC_DIR, TASKS_DIR, chain_document, load_doc
from eplan import Policy, localize, parse_task, product_update, solve_policy
from eplan.cli import main
from eplan.dsl import export_dot, serialize_task
from eplan.logic import render_formula
from eplan.planner import PlanReport, PolicyReport, Violation

PO2 = str(TASKS_DIR / "two_post_offices.eplan")
SINGLE = str(TASKS_DIR / "birthday_single.eplan")
WRAP = str(TASKS_DIR / "wrap_copresence.eplan")
PRIVATE = str(TASKS_DIR / "ask_private.eplan")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_top_is_true(self, capsys):
        code, out, _ = run(capsys, "check", PO2, "top")
        assert code == 0 and out == "true\n"

    def test_false_formula_exits_three(self, capsys):
        code, out, _ = run(capsys, "check", PO2, "At(Present,PostOffice1)")
        assert code == 3 and out == "false\n"

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "check", PO2, "--format", "json", "top")
        payload = json.loads(out)
        assert payload == {
            "eplan": 1,
            "command": "check",
            "formula": "top",
            "value": True,
        }

    def test_bad_formula_exits_two(self, capsys):
        code, _, err = run(capsys, "check", PO2, "At(Nowhere,Else)")
        assert code == 2 and "unknown atom" in err


class TestApply:
    def test_fold_and_check(self, capsys):
        code, out, _ = run(
            capsys,
            "apply", PO2,
            "--actions", "Go(Father,Home,PostOffice1)",
            "TryPickUp(Father,Present,PostOffice1)",
            "--check",
            "K[Father] Has(Father,Present) | K[Father] !Has(Father,Present)",
        )
        assert code == 0
        assert "edge Father" not in out  # the link was cut
        assert out.strip().endswith("true")

    def test_inapplicable_exits_three(self, capsys):
        code, _, err = run(capsys, "apply", PO2, "--actions", "Wrap(Father,Present)")
        assert code == 3 and "not applicable" in err

    def test_unknown_action_exits_two(self, capsys):
        code, _, err = run(capsys, "apply", PO2, "--actions", "Fly(Father)")
        assert code == 2 and "unknown action" in err

    @pytest.mark.parametrize(
        "tail, length, digest",
        [
            (
                ["--check", "C (K[Employee] At(Present,PostOffice1)"
                 " | K[Employee] !At(Present,PostOffice1))"],
                1_695_135,
                "76fa2c4399ce87aa71884cdb057bae471f94da320d90ce602924127d5174bc25",
            ),
            (
                ["--contract"],
                831,
                "3da01e68938fb9db81ad49079d91f73f84a2f3e66a2387110f99bb1b6a84a73c",
            ),
        ],
        ids=["common-knowledge-check", "contract"],
    )
    def test_eight_private_asks_pinned(self, capsys, tail, length, digest):
        # Eight private asks build a 512-world model: product update, C
        # evaluation, contraction and rendering on a large model.
        code, out, _ = run(capsys, "apply", PRIVATE, "--actions", *["AskWhetherPO1"] * 8, *tail)
        data = out.encode("utf-8")
        assert code == 0
        assert len(data) == length
        assert hashlib.sha256(data).hexdigest() == digest

    def test_check_json_payload(self, capsys):
        code, out, err = run(capsys, "apply", PO2, "--check", "bot | top", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "eplan": 1,
            "command": "apply",
            "actions": [],
            "contracted": False,
            "state": {
                "worlds": [
                    {"name": "w1", "designated": True,
                     "atoms": ["At(Father,Home)", "At(Present,PostOffice1)"]},
                    {"name": "w2", "designated": True,
                     "atoms": ["At(Father,Home)", "At(Present,PostOffice2)"]},
                ],
                "edges": [
                    {"agent": "Father", "source": "w1", "target": "w2"},
                    {"agent": "Father", "source": "w2", "target": "w1"},
                ],
            },
            "check": {"formula": "bot | top", "value": True},
        }

    def test_contract_flag(self, capsys):
        code, out, _ = run(capsys, "apply", PO2, "--contract", "--format", "json")
        payload = json.loads(out)
        assert payload["contracted"] is True
        assert len(payload["state"]["worlds"]) == 2


class TestSolveSeq:
    def test_plan_text_output(self, capsys):
        code, out, _ = run(capsys, "solve", PO2, "--mode", "seq", "--max-depth", "8")
        assert code == 0
        assert out.splitlines() == [
            "Go(Father,Home,PostOffice1)",
            "TryPickUp(Father,Present,PostOffice1)",
            "Go(Father,PostOffice1,PostOffice2)",
            "TryPickUp(Father,Present,PostOffice2)",
            "Go(Father,PostOffice2,Home)",
            "Wrap(Father,Present)",
        ]

    def test_no_solution_exits_one(self, capsys):
        code, out, _ = run(capsys, "solve", PO2, "--mode", "seq", "--max-depth", "3")
        assert code == 1 and "no solution" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "solve", PO2, "--mode", "seq", "--max-depth", "8",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["eplan"] == 1
        assert payload["found"] is True
        assert payload["length"] == 6
        assert isinstance(payload["plan"], list)

    def test_max_depth_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", PO2, "--mode", "seq"])
        assert exc.value.code == 2


class TestSolvePolicy:
    def test_policy_with_tree_and_lengths(self, capsys):
        code, out, _ = run(capsys, "solve", PO2, "--mode", "policy", "--max-depth", "8")
        assert code == 0
        assert "policy owner=Father entries=7" in out
        assert "lengths={4,6}" in out
        assert "tree:" in out

    @pytest.mark.parametrize(
        "task, depth, golden",
        [
            (PO2, "8", "two_post_offices_policy.txt"),
            (WRAP, "5", "wrap_copresence_policy.txt"),
        ],
    )
    def test_text_output_golden(self, capsys, task, depth, golden):
        code, out, _ = run(capsys, "solve", task, "--mode", "policy", "--max-depth", depth)
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")

    def test_policy_round_trip_through_file(self, capsys, tmp_path):
        policy_file = tmp_path / "policy.json"
        code, _, _ = run(
            capsys, "solve", PO2, "--mode", "policy", "--max-depth", "8",
            "--format", "json", "--output", str(policy_file),
        )
        assert code == 0
        payload = json.loads(policy_file.read_text())
        assert payload["owner"] == "Father"
        assert len(payload["entries"]) == 7

        code, out, _ = run(capsys, "validate", PO2, "--policy", str(policy_file))
        assert code == 0 and "valid" in out

        code, out, _ = run(
            capsys, "execute", PO2, "--policy", str(policy_file),
            "--seed", "1", "--start", "w2",
        )
        assert code == 0
        assert "outcome: success" in out
        first = out

        code, out, _ = run(
            capsys, "execute", PO2, "--policy", str(policy_file),
            "--seed", "1", "--start", "w2",
        )
        assert out == first  # same seed, same trace

    def test_huge_depth_cap_gives_the_closed_policy(self, capsys):
        # The policy graph closes below cap 8, so labelling stops once a
        # round readies no node instead of running one round per unit of
        # the cap.
        code, expected, _ = run(capsys, "solve", PO2, "--mode", "policy", "--max-depth", "8")
        assert code == 0
        argv = ["-m", "eplan", "solve", PO2, "--mode", "policy", "--max-depth", "1000000000000"]
        proc = _run_python(*argv, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    def test_policy_needs_owner(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "solve", PRIVATE, "--mode", "policy", "--max-depth", "4"
        )
        assert code == 2 and "owner" in err

    def test_long_policy_solves_and_renders(self, capsys, tmp_path):
        # 1,100 steps: deeper than Python's default recursion limit, so the
        # validation walks and the tree rendering must not recurse.
        doc = tmp_path / "chain.eplan"
        doc.write_text(chain_document(1100))
        code, out, err = run(capsys, "solve", str(doc), "--mode", "policy", "--max-depth", "1200")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "policy owner=A entries=1100"
        tree = lines[lines.index("tree:") + 1 : -1]
        assert len(tree) == 1101  # 1,100 steps, one level each, then the goal
        assert tree[-1].startswith("  " * 1101 + "[") and tree[-1].endswith("] (goal)")
        assert lines[-1] == "executions: count=1 lengths={1100}"


class TestSolveOutcomes:
    """The exact bytes and exit codes that both solve modes share in
    shape: no solution within the cap, and a solution that fails the
    solver's own validation."""

    @pytest.mark.parametrize(
        "mode, fmt, expected",
        [
            ("seq", "text", "no solution within depth 0\n"),
            ("seq", "json",
             '{"eplan": 1, "command": "solve", "mode": "seq", "max_depth": 0, "found": false}\n'),
            ("policy", "text", "no strong policy within depth 0\n"),
            ("policy", "json",
             '{"eplan": 1, "command": "solve", "mode": "policy", "max_depth": 0, "found": false}\n'),
        ],
        ids=["seq-text", "seq-json", "policy-text", "policy-json"],
    )
    def test_not_found_exits_one(self, capsys, mode, fmt, expected):
        argv = ["solve", PO2, "--mode", mode, "--max-depth", "0", "--format", fmt]
        assert run(capsys, *argv) == (1, expected, "")

    @pytest.mark.parametrize(
        "mode, target, report, expected",
        [
            (
                "seq",
                "validate_plan",
                PlanReport(False, "goal not satisfied after 6 steps"),
                "internal error: produced plan failed validation:"
                " goal not satisfied after 6 steps\n",
            ),
            (
                "policy",
                "validate_policy",
                PolicyReport(
                    False,
                    (Violation("coverage", "no entry for a state"),
                     Violation("cycle", "a state repeats", ("Go(a)", "Go(b)"))),
                    (),
                ),
                "internal error: produced policy failed validation:\n"
                "  coverage: no entry for a state\n"
                "  cycle: a state repeats [after Go(a); Go(b)]\n",
            ),
        ],
        ids=["seq", "policy"],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failed_self_validation_exits_three(
        self, capsys, monkeypatch, mode, target, report, expected, fmt
    ):
        monkeypatch.setattr(f"eplan.cli.{target}", lambda task, solution: report)
        argv = ["solve", PO2, "--mode", mode, "--max-depth", "8", "--format", fmt]
        assert run(capsys, *argv) == (3, "", expected)


class TestValidate:
    def test_plan_file_ok(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text(
            "# the worked six-step plan\n"
            "Go(Father,Home,PostOffice1)\n"
            "TryPickUp(Father,Present,PostOffice1)\n"
            "Go(Father,PostOffice1,PostOffice2)\n"
            "TryPickUp(Father,Present,PostOffice2)\n"
            "Go(Father,PostOffice2,Home)\n"
            "Wrap(Father,Present)\n"
        )
        code, out, _ = run(capsys, "validate", PO2, "--plan", str(plan))
        assert code == 0 and "valid" in out

    def test_plan_file_invalid_exits_three(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("Wrap(Father,Present)\n")
        code, out, _ = run(capsys, "validate", PO2, "--plan", str(plan))
        assert code == 3 and "not applicable" in out

    def test_failing_policy_file(self, capsys, tmp_path):
        # Build the wrap-at-home policy by hand and write it in the wire
        # format; validation must reject it.
        doc = parse_task(Path(WRAP).read_bytes())
        task = doc.task
        after_go = product_update(
            task.initial, task.action_named("Go(Father,PostOffice,Home)")
        )
        policy = Policy.from_assignments(
            task.owner,
            [
                (task.initial, "Go(Father,PostOffice,Home)"),
                (after_go, "Wrap(Father,Present,Home)"),
            ],
        )
        payload = {
            "eplan": 1,
            "owner": task.owner.name,
            "entries": [
                {"key": key.hex(), "action": action}
                for key, action in policy.entries.items()
            ],
        }
        policy_file = tmp_path / "wrap_home.json"
        policy_file.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "validate", WRAP, "--policy", str(policy_file))
        assert code == 3
        assert "violation" in out

    @pytest.mark.parametrize(
        "task, assignments, expected",
        [
            (
                WRAP,
                [(None, "Go(Father,PostOffice,Home)"),
                 ("Go(Father,PostOffice,Home)", "Wrap(Father,Present,Home)")],
                "invalid: 1 violations\n"
                "violation unsuccessful: execution fails: policy undefined"
                " [after Go(Father,PostOffice,Home); Wrap(Father,Present,Home)]\n",
            ),
            (
                PO2,
                [(None, "Go(Father,Home,Home)")],
                "invalid: 2 violations\n"
                + "violation cycle: execution does not terminate (cycle)"
                " [after Go(Father,Home,Home)]\n" * 2,
            ),
            (
                PO2,
                [],
                "invalid: 4 violations\n"
                + "violation coverage: initial global state is neither covered"
                " nor a goal state\n" * 2
                + "violation unsuccessful: execution fails: policy undefined\n" * 2,
            ),
        ],
        ids=["wrap-at-home", "loop", "empty"],
    )
    def test_invalid_policy_text_pinned(self, capsys, tmp_path, task, assignments, expected):
        # Each assignment is (the action taken from the initial state to
        # reach it, or None for the initial state; the action prescribed).
        parsed = parse_task(Path(task).read_bytes()).task
        pairs = []
        for before, action in assignments:
            state = parsed.initial
            if before is not None:
                state = product_update(state, parsed.action_named(before))
            pairs.append((state, action))
        policy = Policy.from_assignments(parsed.owner, pairs)
        payload = {
            "eplan": 1,
            "owner": parsed.owner.name,
            "entries": [{"key": k.hex(), "action": a} for k, a in policy.entries.items()],
        }
        policy_file = tmp_path / "policy.json"
        policy_file.write_text(json.dumps(payload))
        code, out, err = run(capsys, "validate", task, "--policy", str(policy_file))
        assert (code, out, err) == (3, expected, "")

    def test_non_utf8_plan_file_exits_two(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_bytes(b"\xff\xfe\n")
        code, out, err = run(capsys, "validate", PO2, "--plan", str(plan))
        assert (code, out) == (2, "")
        assert err == (
            f"error: not a plan file: {plan} ('utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte)\n"
        )

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "validate", PO2)
        assert code == 2

    def test_garbage_policy_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", PO2, "--policy", str(bad))
        assert code == 2 and "not a policy file" in err

    @pytest.mark.parametrize("action", [["x"], {"a": 1}], ids=["list", "object"])
    @pytest.mark.parametrize("command", ["validate", "execute"])
    def test_non_string_action_in_policy_file_exits_two(self, capsys, tmp_path, command, action):
        # Exit 1 is kept for "no solution"; a malformed entry is an input error.
        policy_file = tmp_path / "policy.json"
        run(capsys, "solve", PO2, "--mode", "policy", "--max-depth", "8",
            "--format", "json", "--output", str(policy_file))
        payload = json.loads(policy_file.read_text())
        payload["entries"][0]["action"] = action
        policy_file.write_text(json.dumps(payload))
        code, out, err = run(capsys, command, PO2, "--policy", str(policy_file))
        assert (code, out) == (2, "")
        assert err == f"error: not a policy file: {policy_file} (an entry's action is not a string)\n"

    @pytest.mark.parametrize("command", ["validate", "execute"])
    def test_unknown_action_in_policy_file_exits_two(self, capsys, tmp_path, command):
        policy_file = tmp_path / "policy.json"
        code, _, _ = run(
            capsys, "solve", PO2, "--mode", "policy", "--max-depth", "8",
            "--format", "json", "--output", str(policy_file),
        )
        assert code == 0
        payload = json.loads(policy_file.read_text())
        payload["entries"][0]["action"] = "Bogus"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run(capsys, command, PO2, "--policy", str(bad))
        assert code == 2
        assert err.splitlines() == ["error: unknown action name: Bogus"]
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "name, owner", [("two_post_offices_ask", "owner Father"), ("ask_private", "no owner")]
    )
    @pytest.mark.parametrize("command", ["validate", "execute"])
    def test_another_agents_policy_file_exits_two(self, capsys, tmp_path, command, name, owner):
        # The Employee's own policy maps Father's one initial class to two
        # actions, so it is an input error, as solve --mode policy on a
        # task without an owner is.
        task = load_doc(name).task
        policy = solve_policy(localize(task, task.vocab.agent("Employee")), 10)
        entries = [{"key": key.hex(), "action": a} for key, a in policy.entries.items()]
        policy_file = tmp_path / "employee.json"
        policy_file.write_text(json.dumps({"eplan": 1, "owner": "Employee", "entries": entries}))
        path = str(TASKS_DIR / f"{name}.eplan")
        code, out, err = run(capsys, command, path, "--policy", str(policy_file))
        assert (code, out) == (2, "")
        assert err == f"error: a policy of Employee for a task with {owner}\n"


class TestExecute:
    def test_looping_policy_ends_at_the_first_repeat(self, capsys, tmp_path):
        # Staying at home forever: the run stops as a cycle after one step,
        # not after --max-steps, and exits 3 like any unsuccessful run (1
        # is kept for "no solution within the cap").
        task = parse_task(Path(PO2).read_bytes()).task
        policy = Policy.from_assignments(task.owner, [(task.initial, "Go(Father,Home,Home)")])
        entries = [{"key": key.hex(), "action": a} for key, a in policy.entries.items()]
        policy_file = tmp_path / "loop.json"
        policy_file.write_text(json.dumps({"eplan": 1, "owner": "Father", "entries": entries}))
        code, out, err = run(capsys, "execute", PO2, "--policy", str(policy_file))
        assert (code, err) == (3, "")
        assert out.endswith("\noutcome: cutoff (cycle)\n")
        assert len(out.encode()) < 1024
        assert "((w" not in out  # trace states are contracted representatives

    def test_step_bound_exits_three(self, capsys, tmp_path):
        policy_file = tmp_path / "policy.json"
        run(capsys, "solve", PO2, "--mode", "policy", "--max-depth", "8",
            "--format", "json", "--output", str(policy_file))
        code, out, _ = run(capsys, "execute", PO2, "--policy", str(policy_file),
                           "--max-steps", "2")
        assert code == 3 and out.endswith("\noutcome: cutoff (step bound)\n")

    def test_negative_step_bound_exits_two(self, capsys, tmp_path):
        # Rejected with a diagnostic, as a negative --max-depth is, before
        # any state is printed.
        policy_file = tmp_path / "policy.json"
        run(capsys, "solve", PO2, "--mode", "policy", "--max-depth", "8",
            "--format", "json", "--output", str(policy_file))
        code, out, err = run(capsys, "execute", PO2, "--policy", str(policy_file),
                             "--max-steps", "-5")
        assert (code, out) == (2, "")
        assert err == "error: step bound must be non-negative\n"


class TestDot:
    def test_initial_state_dot(self, capsys):
        doc = parse_task(Path(PO2).read_bytes())
        code, out, _ = run(capsys, "dot", PO2)
        assert code == 0 and out == export_dot(doc.task.initial)

    def test_action_dot(self, capsys):
        code, out, _ = run(capsys, "dot", PRIVATE, "--action", "AskWhetherPO1")
        assert code == 0 and out.startswith("digraph action")

    def test_json_carries_the_dot_text(self, capsys):
        doc = parse_task(Path(PRIVATE).read_bytes())
        code, out, _ = run(
            capsys, "dot", PRIVATE, "--action", "AskWhetherPO1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "eplan": 1,
            "command": "dot",
            "dot": export_dot(doc.task.action_named("AskWhetherPO1")),
        }

    def test_unknown_state_exits_two(self, capsys):
        code, _, err = run(capsys, "dot", PO2, "--state", "nope")
        assert code == 2

    def test_named_state_export(self, capsys):
        code, out, _ = run(capsys, "dot", PO2, "--state", "s0")
        assert code == 0 and out.startswith("digraph state")

    def test_output_file_in_text_mode(self, capsys, tmp_path):
        target = tmp_path / "plan.txt"
        code, out, _ = run(
            capsys, "solve", PO2, "--mode", "seq", "--max-depth", "8",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == "Go(Father,Home,PostOffice1)"


class TestJsonHeader:
    @pytest.fixture
    def policy_file(self, capsys, tmp_path):
        path = tmp_path / "policy.json"
        run(capsys, "solve", PO2, "--mode", "policy", "--max-depth", "8",
            "--format", "json", "--output", str(path))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", PO2, "top"],
            ["apply", PO2, "--actions", "Go(Father,Home,PostOffice1)"],
            ["contract", PO2],
            ["solve", PO2, "--mode", "seq", "--max-depth", "8"],
            ["solve", PO2, "--mode", "policy", "--max-depth", "8"],
            ["validate", PO2, "--policy", "POLICY"],
            ["execute", PO2, "--policy", "POLICY", "--start", "w2"],
            ["dot", PO2],
        ],
        ids=["check", "apply", "contract", "solve-seq", "solve-policy", "validate", "execute", "dot"],
    )
    def test_every_payload_starts_with_the_header(self, capsys, policy_file, argv):
        argv = [policy_file if arg == "POLICY" else arg for arg in argv]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload)[:2] == ["eplan", "command"]
        assert payload["eplan"] == 1 and payload["command"] == argv[0]


class TestErrors:
    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.eplan"
        bad.write_text("task { initial: s0 }")
        code, _, err = run(capsys, "check", str(bad), "top")
        assert code == 2 and "error:" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.eplan", "top")
        assert code == 2

    @pytest.mark.parametrize(
        "formula",
        ["!" * 2000 + "top", "(" * 2000 + "top" + ")" * 2000],
        ids=["negations", "parentheses"],
    )
    def test_too_deep_formula_exits_two(self, capsys, formula):
        code, _, err = run(capsys, "check", PO2, formula)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("op", [" & ", " | "], ids=["conjunction-chain", "disjunction-chain"])
    def test_long_flat_chain_evaluates(self, capsys, tmp_path, op):
        # A flat chain is not nested, so its length has no bound: a goal of
        # 3,000 operands parses, renders back to its text and solves, and a
        # 3,000-operand formula checks.
        goal = op.join(["Wrapped(Present)"] * 3000)
        text = re.sub(r"goal \{[^}]*\}", f"goal {{ {goal} }}", Path(SINGLE).read_text())
        doc = parse_task(text.encode())
        assert render_formula(doc.task.goal) == goal
        assert f"goal {{ {goal} }}" in serialize_task(doc.task)
        chain = tmp_path / "chain.eplan"
        chain.write_text(text)
        code, out, err = run(capsys, "solve", str(chain), "--mode", "seq", "--max-depth", "8")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "Go(Father,Home,PostOffice)", "PickUp(Father,Present,PostOffice)", "Wrap(Father,Present)",
        ]
        assert run(capsys, "check", PO2, op.join(["top"] * 3000)) == (0, "true\n", "")

    def test_long_guard_pair_is_drawn_once(self, capsys, tmp_path):
        # An edge pair whose equal guards are 3,000-conjunct chains is one
        # two-way edge in DOT and in the written document.
        guard = " & ".join(["p"] * 3000)
        text = (
            "agents { A }\natoms { p }\naction X {\n"
            "  event e1 { pre: top; post: top; }\n  event e2 { pre: top; post: top; }\n"
            f"  edge A: e1 -> e2 if {guard};\n  edge A: e2 -> e1 if {guard};\n"
            "  designated e1;\n}\nstate s0 { world w { p } designated w; }\n"
            "goal { p }\ntask { initial: s0; actions: X; owner: A; }\n"
        )
        document = tmp_path / "guard.eplan"
        document.write_text(text)
        code, out, err = run(capsys, "dot", str(document), "--action", "X")
        assert (code, err) == (0, "")
        edges = [line for line in out.splitlines() if " -> " in line]
        assert len(edges) == 1 and edges[0].endswith(", dir=none];")
        written = serialize_task(parse_task(text.encode()).task)
        assert written.count(" -- ") == 1 and " -> " not in written
        assert f"  edge A: e1 -- e2 if {guard};\n" in written

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", PRIVATE, "--mode", "policy", "--max-depth", "4"],
             "policy mode requires a task with an owner"),
            (["validate", PO2], "validate needs exactly one of --plan or --policy"),
            (["validate", PO2, "--plan", "PLAN", "--policy", "POLICY"],
             "validate needs exactly one of --plan or --policy"),
            (["execute", PRIVATE, "--policy", "POLICY", "--start", "w1"],
             "world w1 is not designated"),
            (["dot", PO2, "--action", "A", "--state", "s0"], "choose one of --action or --state"),
            (["dot", PO2, "--state", "nope"], "unknown state nope"),
        ],
        ids=["policy-without-owner", "validate-neither", "validate-both",
             "execute-undesignated-start", "dot-action-and-state", "dot-unknown-state"],
    )
    def test_usage_error_exits_two(self, capsys, tmp_path, argv, message):
        # ask_private's initial state designates w2 only; an empty policy
        # for Father loads, so the start check is what fails.
        policy_file = tmp_path / "policy.json"
        policy_file.write_text(json.dumps({"eplan": 1, "owner": "Father", "entries": []}))
        argv = [str(policy_file) if arg in ("PLAN", "POLICY") else arg for arg in argv]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_help_repeats(self, capsys):
        # Each help exits 0 on stdout, and asking again in the same process,
        # after other requests, prints the same bytes.
        commands = ["check", "apply", "contract", "solve", "validate", "execute", "dot"]
        helps = []
        for _ in range(2):
            for argv in (["--help"], *([command, "--help"] for command in commands)):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                captured = capsys.readouterr()
                assert exc.value.code == 0 and captured.err == ""
                assert captured.out.startswith(f"usage: {' '.join(['eplan', *argv[:-1]])} ")
                helps.append(captured.out)
            assert run(capsys, "check", PO2, "top") == (0, "true\n", "")
        assert helps[:8] == helps[8:]

    @pytest.mark.parametrize(
        "argv",
        [["validate", "BROKEN"], ["dot", "BROKEN", "--action", "X", "--state", "Y"]],
        ids=["validate-neither", "dot-action-and-state"],
    )
    def test_parse_error_comes_before_usage_error(self, capsys, tmp_path, argv):
        broken = tmp_path / "broken.eplan"
        broken.write_text("task {")
        argv = [str(broken) if arg == "BROKEN" else arg for arg in argv]
        assert run(capsys, *argv) == (2, "", "error: 1:7: expected '}', found ''\n")

    @pytest.mark.parametrize("mode", ["seq", "policy"])
    def test_negative_depth_cap_exits_two(self, capsys, mode):
        assert run(capsys, "solve", PO2, "--mode", mode, "--max-depth", "-1") == (
            2, "", "error: depth cap must be non-negative\n"
        )

    def test_unknown_log_level_is_not_a_traceback(self):
        proc = _run_python("-m", "eplan", "check", PO2, "top", EPLAN_LOG="basic_format")
        assert proc.returncode == 0 and proc.stdout == "true\n"
        assert "Traceback" not in proc.stderr

    def test_debug_log_lines(self):
        proc = _run_python(
            "-m", "eplan", "solve", WRAP, "--mode", "policy", "--max-depth", "5",
            EPLAN_LOG="debug",
        )
        assert proc.returncode == 0
        assert proc.stderr == "".join(
            f"DEBUG:eplan.actions:action Wrap(Father,Present,{place}): event closure"
            " for Father ignores non-trivial guards\n"
            for place in ("Home", "PostOffice")
        )

    def test_import_leaves_logging_out(self):
        # The library needs none of these; the CLI needs argparse and json.
        script = (
            "import sys; names = ('argparse', 'json', 'hashlib', 'logging'); import eplan; "
            "print([n for n in names if n in sys.modules]); import eplan.cli; "
            "print([n for n in names if n in sys.modules])"
        )
        proc = _run_python("-c", script, EPLAN_LOG="")
        assert proc.returncode == 0 and proc.stdout == "[]\n['argparse', 'json']\n"

    def test_unexpected_exception_exits_four(self, capsys, monkeypatch):
        def broken(task, max_depth):
            raise RuntimeError("boom")

        monkeypatch.setattr("eplan.cli.solve_policy", broken)
        code, out, err = run(capsys, "solve", PO2, "--mode", "policy", "--max-depth", "8")
        assert (code, out, err) == (4, "", "internal error: RuntimeError: boom\n")


def _run_python(*argv, timeout=None, **env):
    """Run a Python subprocess on the package under test, with ``env``
    added to its environment, for at most ``timeout`` seconds."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))]
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout
    )
