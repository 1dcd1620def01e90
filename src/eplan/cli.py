"""Command-line interface over ``.eplan`` task files.

Exit codes: 0 success or solution found; 1 no solution within the depth
cap; 2 usage, parse, or resolution errors, including input nested too
deeply to evaluate; 3 a validation or check failure, or an execution that
does not succeed (failure or cutoff); 4 any other exception (a library
bug, an exhausted resource): one ``internal error:`` line, no traceback.
``solve`` always validates its own output before printing, so an internal
soundness bug surfaces as exit 3, never as a silently wrong plan.
Identical invocations produce byte-identical output; set EPLAN_LOG=debug
for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .actions import product_update
from .dsl import (
    ParsedDocument,
    export_dot,
    parse_formula,
    parse_task,
    render_state,
    render_state_line,
)
from .errors import EplanError, NotApplicableError, TaskParseError
from .logic import eval_state, render_formula
from .models import EpistemicState, bisim_contract
from .planner import (
    EpistemicTask,
    Policy,
    PolicyReport,
    SequentialPlan,
    execute,
    solve_policy,
    solve_sequential,
    validate_plan,
    validate_policy,
)

JSON_VERSION = 1
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one request and return its exit code. The argument parser is built
    once per process, by the first call; ``EPLAN_LOG`` is read on every call."""
    global _parser
    name = os.environ.get("EPLAN_LOG", "").upper()
    if name:
        import logging
        # Only registered level names count; anything else means WARNING.
        level = logging.getLevelName(name)
        logging.basicConfig(
            level=level if isinstance(level, int) else logging.WARNING, stream=sys.stderr
        )
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        # Every subcommand reads the task first, so a parse error comes
        # before any usage error.
        parsed = parse_task(Path(args.task).read_bytes())
        return args.func(args, parsed)
    except TaskParseError as exc:
        errors = exc.diagnostics
    except (EplanError, OSError) as exc:
        errors = [exc]
    except RecursionError:
        errors = ["input is nested too deeply"]
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eplan", description="Model check, update, and plan over epistemic tasks."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("task", help="path to a .eplan task file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", "-o", help="write output to a file instead of stdout")

    p = sub.add_parser("check", help="evaluate a formula in the task's initial state")
    common(p)
    p.add_argument("formula", help="formula in the task syntax")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("apply", help="fold product updates and print the result")
    common(p)
    p.add_argument("--actions", nargs="*", default=(), metavar="NAME")
    p.add_argument("--contract", action="store_true", help="contract the result")
    p.add_argument("--check", help="also evaluate a formula in the resulting state")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("contract", help="print the bisimulation-contracted initial state")
    common(p)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("solve", help="search for a sequential plan or a strong policy")
    common(p)
    p.add_argument("--mode", choices=("seq", "policy"), required=True)
    p.add_argument("--max-depth", type=int, required=True,
                   help="mandatory search depth cap (plan existence is undecidable)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="validate a plan or policy file against the task")
    common(p)
    p.add_argument("--plan", help="plan file: one action name per line")
    p.add_argument("--policy", help="policy file: JSON as produced by solve --mode policy")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("execute", help="simulate a policy from a global initial state")
    common(p)
    p.add_argument("--policy", required=True, help="policy file (JSON)")
    p.add_argument("--seed", type=int, default=0, help="seed for the outcome chooser")
    p.add_argument("--start", help="designated world to start from (default: first)")
    p.add_argument("--max-steps", type=int, default=100)
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("dot", help="export a state or action model to Graphviz DOT")
    common(p)
    p.add_argument("--action", help="export this action model instead of the initial state")
    p.add_argument("--state", help="export this named state block")
    p.set_defaults(func=cmd_dot)

    return parser


def _emit(args, text: str | None, payload: dict | None) -> None:
    """Write ``payload`` as JSON or ``text`` as text, as ``--format`` asks;
    the other one is not read. Every JSON payload starts with the same
    header: the format version and the subcommand."""
    if args.format == "json":
        payload = {"eplan": JSON_VERSION, "command": args.command, **payload}
        out = json.dumps(payload, ensure_ascii=False) + "\n"
    else:
        out = text if text.endswith("\n") else text + "\n"
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)


def _digest(key: bytes) -> str:
    import hashlib  # only policy output needs it

    return hashlib.sha256(key).hexdigest()[:12]


def _state_payload(state: EpistemicState) -> dict:
    model = state.model
    worlds = [
        {
            "name": model.world_names[w],
            "designated": w in state.designated,
            "atoms": sorted((a.name for a in model.labels[w])),
        }
        for w in range(model.n)
    ]
    # Per agent in (source, target) order: the successor rows are sorted.
    edges = [
        {"agent": agent.name, "source": model.world_names[u], "target": model.world_names[v]}
        for agent in model.vocab.agents
        for u in range(model.n)
        for v in model.successors(agent, u)
        if v != u
    ]
    return {"worlds": worlds, "edges": edges}


# --------------------------------------------------------------------------
# Subcommands


def cmd_check(args, parsed: ParsedDocument) -> int:
    task = parsed.task
    phi = parse_formula(args.formula, task.vocab)
    value = eval_state(task.initial, phi)
    _emit(args, "true" if value else "false", {"formula": render_formula(phi), "value": value})
    return 0 if value else 3


def cmd_apply(args, parsed: ParsedDocument) -> int:
    task = parsed.task
    state = task.initial
    for name in args.actions:
        action = task.action_named(name)
        try:
            state = product_update(state, action)
        except NotApplicableError:
            print(f"not applicable: action {name} is not applicable at this point",
                  file=sys.stderr)
            return 3
    if args.contract:
        state = bisim_contract(state)
    check = None
    if args.check:
        phi = parse_formula(args.check, task.vocab)
        check = {"formula": render_formula(phi), "value": eval_state(state, phi)}
    # Only the requested format is built: on the 512-world state of eight
    # private asks, the text costs about as much and the JSON about six
    # times as much as the eight updates that made it.
    if args.format == "json":
        payload = {
            "actions": list(args.actions),
            "contracted": bool(args.contract),
            "state": _state_payload(state),
        }
        if check is not None:
            payload["check"] = check
        _emit(args, None, payload)
    else:
        lines = [render_state(state)]
        if check is not None:
            lines.append(f"check {check['formula']}: {'true' if check['value'] else 'false'}")
        _emit(args, "\n".join(lines), None)
    return 3 if check is not None and not check["value"] else 0


def cmd_contract(args, parsed: ParsedDocument) -> int:
    state = bisim_contract(parsed.task.initial)
    if args.format == "json":
        _emit(args, None, {"state": _state_payload(state)})
    else:
        _emit(args, render_state(state), None)
    return 0


def cmd_solve(args, parsed: ParsedDocument) -> int:
    task = parsed.task
    seq = args.mode == "seq"
    if not seq and task.owner is None:
        raise EplanError("policy mode requires a task with an owner")
    solution = (solve_sequential if seq else solve_policy)(task, args.max_depth)
    head = {"mode": args.mode, "max_depth": args.max_depth, "found": solution is not None}
    if solution is None:
        wanted = "solution" if seq else "strong policy"
        _emit(args, f"no {wanted} within depth {args.max_depth}", head)
        return 1
    report = (validate_plan if seq else validate_policy)(task, solution)
    if not report.ok:
        # A plan's report is one line; a policy's lists its violations.
        detail = f" {report}" if seq else "".join(f"\n  {v}" for v in report.violations)
        print(f"internal error: produced {'plan' if seq else 'policy'} failed validation:{detail}",
              file=sys.stderr)
        return 3
    if seq:
        payload = {**head, "plan": list(solution.steps), "length": len(solution)}
        _emit(args, "\n".join(solution.steps), payload)
        return 0
    lengths = ",".join(str(n) for n in report.execution_lengths)
    rows = _policy_rows(solution)
    lines = [f"policy owner={solution.owner.name} entries={len(solution)}"]
    for i, row in enumerate(rows):
        lines.append(f"{i}: digest={row['digest']} action={row['action']}")
        lines.append(f"   state: {row['state']}")
    lines.extend(_policy_tree(solution))
    lines.append(f"executions: count={len(report.executions)} lengths={{{lengths}}}")
    payload = {
        **head,
        "owner": solution.owner.name,
        "entries": rows,
        "executions": _executions(report),
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def _policy_rows(policy: Policy) -> list[dict]:
    rows = []
    for key, action in policy.entries.items():
        rows.append(
            {
                "digest": _digest(key),
                "key": key.hex(),
                "state": render_state_line(policy.states[key]),
                "action": action,
            }
        )
    return rows


def _policy_tree(policy: Policy) -> list[str]:
    """The policy graph unfolded as a tree, depth-first, without recursion."""
    lines = ["tree:"]
    # (key, indent); children are pushed reversed so they pop in order.
    stack = [(key, 1) for key in reversed(policy.roots)]
    while stack:
        key, indent = stack.pop()
        pad = "  " * indent
        action = policy.entries.get(key)
        if action is None:
            lines.append(f"{pad}[{_digest(key)}] (goal)")
        else:
            lines.append(f"{pad}[{_digest(key)}] {action}")
            stack.extend((child, indent + 1) for child in reversed(policy.children[key]))
    return lines


def _executions(report: PolicyReport) -> dict:
    """The JSON summary of a policy's executions."""
    return {"count": len(report.executions), "lengths": list(report.execution_lengths)}


def _load_policy_file(path: str, task: EpistemicTask) -> Policy:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        owner = task.vocab.agent(doc["owner"])
        entries = {bytes.fromhex(row["key"]): row["action"] for row in doc["entries"]}
        if not all(isinstance(action, str) for action in entries.values()):
            raise TypeError("an entry's action is not a string")
    except (ValueError, KeyError, TypeError) as exc:
        raise EplanError(f"not a policy file: {path} ({exc})") from None
    return Policy(owner, entries)


def cmd_validate(args, parsed: ParsedDocument) -> int:
    task = parsed.task
    if bool(args.plan) == bool(args.policy):
        raise EplanError("validate needs exactly one of --plan or --policy")
    if args.plan:
        try:
            lines = Path(args.plan).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise EplanError(f"not a plan file: {args.plan} ({exc})") from None
        steps = [
            line.strip()
            for line in lines
            if line.strip() and not line.strip().startswith("#")
        ]
        report = validate_plan(task, SequentialPlan(tuple(steps)))
        text = report.message
        payload = {
            "kind": "plan",
            "ok": report.ok,
            "message": report.message,
            "failed_step": report.failed_step,
        }
    else:
        report = validate_policy(task, _load_policy_file(args.policy, task))
        text = "\n".join([str(report), *(f"violation {v}" for v in report.violations)])
        payload = {
            "kind": "policy",
            "ok": report.ok,
            "violations": [str(v) for v in report.violations],
            "executions": _executions(report),
        }
    _emit(args, text, payload)
    return 0 if report.ok else 3


def cmd_execute(args, parsed: ParsedDocument) -> int:
    task = parsed.task
    policy = _load_policy_file(args.policy, task)
    initial = task.initial
    if args.start is None:
        index = min(initial.designated)
    else:
        index = initial.model.world_index(args.start)
        if index not in initial.designated:
            raise EplanError(f"world {args.start} is not designated")
    start = EpistemicState(initial.model, {index})
    result = execute(task, policy, start, seed=args.seed, max_steps=args.max_steps)
    lines = [f"start: {render_state_line(result.states[0])}"]
    for i, name in enumerate(result.actions):
        lines.append(f"{i + 1}: {name} -> {render_state_line(result.states[i + 1])}")
    lines.append(f"outcome: {result.outcome}" + (f" ({result.reason})" if result.reason else ""))
    payload = {
        "seed": args.seed,
        "trace": {
            "states": [render_state_line(s) for s in result.states],
            "actions": list(result.actions),
        },
        "outcome": result.outcome,
        "reason": result.reason,
    }
    _emit(args, "\n".join(lines), payload)
    return 0 if result.outcome == "success" else 3


def cmd_dot(args, parsed: ParsedDocument) -> int:
    if args.action and args.state:
        raise EplanError("choose one of --action or --state")
    if args.action:
        value = parsed.task.action_named(args.action)
    elif args.state:
        if args.state not in parsed.states:
            raise EplanError(f"unknown state {args.state}")
        value = parsed.states[args.state]
    else:
        value = parsed.task.initial
    text = export_dot(value)
    _emit(args, text, {"dot": text})
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
