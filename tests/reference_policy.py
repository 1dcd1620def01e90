"""The strong-policy solver as it stood before solved-labelling: full
min-max passes repeated until no height changes, a by-name pick pass and
a by-name collect walk, with every action tested for applicability at
every node. ``_owner_classes`` is the observation-class split as it stood
before owner closures were computed as world sets: one global state and
one agent-local state per designated world, each closure contracted.
``_step``, ``enumerate_executions`` and ``validate_policy`` are the policy
walks as they stood before the step table: a recursive depth-first walk
that steps every state again on every path, a 1,000-step bound, and a
breadth-first check that steps the reachable states once more. Kept
unchanged as the reference that ``tests/test_planner.py`` compares
``solve_policy``, ``planner._owner_classes``, ``enumerate_executions`` and
``validate_policy`` against. ``solve_sequential`` is the breadth-first
search as it stood before successor shapes were remembered and the product
update decided applicability: it tests, contracts and keys every
successor. ``execute`` is the seeded single-path walk as it stood before
it became the step table's single-branch walk: its own loop, no cycle
test (a looping policy runs to ``max_steps``), and trace states taken
straight from each step."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from eplan.actions import applicable, product_update
from eplan.classical import breadth_first
from eplan.errors import ModelError
from eplan.logic import Agent, eval_state
from eplan.models import EpistemicState, bisim_contract, canonical_key, globals_of
from eplan.planner import (
    EpistemicTask,
    Execution,
    Policy,
    PolicyReport,
    SequentialPlan,
    Violation,
)
from reference_update import applicable_actions, local_state


def solve_sequential(task: EpistemicTask, depth_cap: int) -> SequentialPlan | None:
    """Shortest action sequence reaching the goal, or None within the cap.

    Breadth-first over product updates, contracting at every expansion and
    deduplicating by canonical key, so bisimilar states are explored once.
    """

    def expand(state: EpistemicState):
        for action in applicable_actions(state, task.actions):
            yield action.name, bisim_contract(product_update(state, action))

    steps = breadth_first(
        bisim_contract(task.initial),
        canonical_key,
        expand,
        lambda state: eval_state(state, task.goal),
        depth_cap,
    )
    return None if steps is None else SequentialPlan(steps)


def _owner_classes(
    state: EpistemicState, owner: Agent
) -> list[tuple[bytes, EpistemicState]]:
    """Partition the globals of ``state`` into the owner's run-time
    observation classes: globals sharing a bisimilar owner-local view.

    Returns (key, contracted local state) per class, sorted by key. Globals
    with one owner closure share one view, so each closure is contracted
    once."""
    classes: dict[bytes, EpistemicState] = {}
    closures: set[frozenset[int]] = set()
    for g in globals_of(state):
        closure = local_state(g, owner)
        if closure.designated in closures:
            continue
        closures.add(closure.designated)
        view = bisim_contract(closure)
        key = canonical_key(view)
        if key not in classes:
            classes[key] = view
    return sorted(classes.items(), key=lambda kv: kv[0])


@dataclass
class _Node:
    state: EpistemicState
    depth: int
    goal: bool
    # One entry per applicable action: (order, action name, child keys).
    edges: list[tuple[int, str, tuple[bytes, ...]]] = field(default_factory=list)
    expanded: bool = False


def solve_policy(task: EpistemicTask, depth_cap: int) -> Policy | None:
    """Strong acyclic policy via AND-OR search over owner-local states.

    OR-choice: an action applicable in the owner's local state. AND-branch:
    the owner-local classes of the updated state's globals (what the owner
    may observe at run time). The reachable node graph is explored to the
    depth cap, then heights are computed by min-max backward induction:
    goal nodes have height 0, an action's cost is one plus its worst child,
    and each node takes the best action (first declared wins ties). A
    policy exists iff every initial class gets a finite height within the
    cap; following strictly decreasing heights makes the result acyclic.
    """
    if task.owner is None:
        raise ModelError("policy synthesis needs a task with an owner")
    if depth_cap < 0:
        raise ModelError("depth cap must be non-negative")
    owner = task.owner

    nodes: dict[bytes, _Node] = {}
    order: list[bytes] = []

    def intern(key: bytes, state: EpistemicState, depth: int) -> _Node:
        node = nodes.get(key)
        if node is None:
            node = _Node(state, depth, eval_state(state, task.goal))
            nodes[key] = node
            order.append(key)
        return node

    roots = _owner_classes(task.initial, owner)
    queue: deque[bytes] = deque()
    for key, state in roots:
        intern(key, state, 0)
        queue.append(key)

    while queue:
        key = queue.popleft()
        node = nodes[key]
        if node.expanded or node.goal or node.depth >= depth_cap:
            continue
        node.expanded = True
        for rank, action in enumerate(task.actions):
            if not applicable(node.state, action):
                continue
            succ = bisim_contract(product_update(node.state, action))
            child_keys = []
            for child_key, child_state in _owner_classes(succ, owner):
                child_keys.append(child_key)
                if child_key not in nodes:
                    intern(child_key, child_state, node.depth + 1)
                    queue.append(child_key)
            node.edges.append((rank, action.name, tuple(child_keys)))

    heights: dict[bytes, int] = {k: 0 for k in order if nodes[k].goal}
    changed = True
    while changed:
        changed = False
        for key in order:
            node = nodes[key]
            if node.goal:
                continue
            best: int | None = None
            for _, _, children in node.edges:
                if any(c not in heights for c in children):
                    continue
                h = 1 + max(heights[c] for c in children)
                if best is None or h < best:
                    best = h
            if best is not None and (key not in heights or best < heights[key]):
                heights[key] = best
                changed = True

    if any(key not in heights or heights[key] > depth_cap for key, _ in roots):
        return None

    # Pick, per node, the first declared action achieving the minimal height.
    chosen: dict[bytes, str] = {}
    for key in order:
        node = nodes[key]
        if node.goal or key not in heights:
            continue
        for _, name, children in node.edges:
            if all(c in heights for c in children):
                if 1 + max(heights[c] for c in children) == heights[key]:
                    chosen[key] = name
                    break

    # Collect only the nodes the chosen actions can actually reach.
    root_keys = tuple(key for key, _ in roots)
    entries: dict[bytes, str] = {}
    states: dict[bytes, EpistemicState] = {}
    chosen_children: dict[bytes, tuple[bytes, ...]] = {}
    walk: deque[bytes] = deque(root_keys)
    seen: set[bytes] = set(walk)
    while walk:
        key = walk.popleft()
        node = nodes[key]
        if node.goal:
            continue
        entries[key] = chosen[key]
        states[key] = node.state
        for _, name, children in node.edges:
            if name == chosen[key]:
                chosen_children[key] = children
                for child in children:
                    if child not in seen:
                        seen.add(child)
                        walk.append(child)
                break
    return Policy(owner, entries, states, root_keys, chosen_children)


def _step(
    task: EpistemicTask, state: EpistemicState, name: str
) -> list[EpistemicState] | None:
    """One policy step: the contracted successor globals of taking the
    action ``name`` in ``state``, or None when it is not applicable.
    Unknown action names raise."""
    action = task.action_named(name)
    if not applicable(state, action):
        return None
    return [bisim_contract(g) for g in globals_of(product_update(state, action))]


def enumerate_executions(
    task: EpistemicTask,
    policy: Policy,
    start: EpistemicState,
    max_steps: int = 1000,
) -> list[Execution]:
    """All executions of the policy from a global state, depth-first with
    branches explored in world order. Revisiting a state already on the
    current path is reported as a cutoff (the policy loops)."""
    if not start.is_global:
        raise ModelError("execution starts from a global state")
    out: list[Execution] = []

    def walk(state: EpistemicState, trace_states, trace_actions, path_keys):
        name = policy.action_for(state)
        if name is None:
            outcome = "success" if eval_state(state, task.goal) else "failure"
            reason = None if outcome == "success" else "policy undefined"
            out.append(Execution(tuple(trace_states), tuple(trace_actions), outcome, reason))
            return
        key = canonical_key(state)
        if key in path_keys:
            out.append(
                Execution(tuple(trace_states), tuple(trace_actions), "cutoff", "cycle")
            )
            return
        if len(trace_actions) >= max_steps:
            out.append(
                Execution(tuple(trace_states), tuple(trace_actions), "cutoff", "step bound")
            )
            return
        successors = _step(task, state, name)
        if successors is None:
            out.append(
                Execution(
                    tuple(trace_states),
                    tuple(trace_actions),
                    "failure",
                    f"{name} not applicable",
                )
            )
            return
        for succ in successors:
            walk(
                succ,
                trace_states + [succ],
                trace_actions + [name],
                path_keys | {key},
            )

    first = bisim_contract(start)
    walk(first, [first], [], frozenset())
    return out


def validate_policy(task: EpistemicTask, policy) -> PolicyReport:
    """Check a policy against the strong-solution definition.

    (a) every prescribed action is applicable in the owner's local state;
    (b) uniformity: states with bisimilar owner-local views get one action;
    (c) the initial state's globals are covered (or already satisfy the
    goal); (d) every execution, enumerated exhaustively, succeeds, and the
    reachable policy graph is acyclic. The policy only needs ``owner`` and
    ``action_for``; violations carry a witness trace. Unknown action names
    raise."""
    owner = policy.owner
    violations: list[Violation] = []
    executions: list[Execution] = []

    by_view: dict[bytes, str] = {}

    def check_state(state: EpistemicState, trace: tuple[str, ...]) -> str | None:
        name = policy.action_for(state)
        if name is None:
            return None
        view = bisim_contract(local_state(state, owner))
        view_key = canonical_key(view)
        if view_key in by_view and by_view[view_key] != name:
            violations.append(
                Violation(
                    "uniformity",
                    f"bisimilar local states map to {by_view[view_key]} and {name}",
                    trace,
                )
            )
        by_view.setdefault(view_key, name)
        if not applicable(view, task.action_named(name)):
            violations.append(
                Violation(
                    "inapplicable",
                    f"{name} is not applicable in the owner-local state",
                    trace,
                )
            )
            return None
        return name

    initial = [bisim_contract(g) for g in globals_of(task.initial)]
    for g in initial:
        if policy.action_for(g) is None and not eval_state(g, task.goal):
            violations.append(
                Violation(
                    "coverage",
                    "initial global state is neither covered nor a goal state",
                )
            )

    # Walk the reachable policy graph, checking (a)/(b) once per state key.
    frontier: deque[tuple[EpistemicState, tuple[str, ...]]] = deque((g, ()) for g in initial)
    walked: set[bytes] = set()
    while frontier:
        state, trace = frontier.popleft()
        key = canonical_key(state)
        if key in walked:
            continue
        walked.add(key)
        name = check_state(state, trace)
        if name is None:
            continue
        for succ in _step(task, state, name) or ():
            frontier.append((succ, trace + (name,)))

    for g in initial:
        for execution in enumerate_executions(task, policy, g):
            executions.append(execution)
            if execution.outcome == "cutoff":
                violations.append(
                    Violation(
                        "cycle" if execution.reason == "cycle" else "unsuccessful",
                        f"execution does not terminate ({execution.reason})",
                        execution.actions,
                    )
                )
            elif execution.outcome != "success":
                violations.append(
                    Violation(
                        "unsuccessful",
                        f"execution fails: {execution.reason}",
                        execution.actions,
                    )
                )

    return PolicyReport(not violations, tuple(violations), tuple(executions))


def execute(
    task: EpistemicTask,
    policy: Policy,
    start: EpistemicState,
    seed: int = 0,
    max_steps: int = 100,
    chooser: Callable[[list[EpistemicState]], int] | None = None,
) -> Execution:
    """Follow the policy from a global state, resolving nondeterministic
    outcomes with the chooser (default: seeded RNG). Stops with success
    when the policy is undefined and the goal holds, with failure when it
    is undefined otherwise or a step misfires, and with cutoff after
    ``max_steps`` (a guard against non-solution policies)."""
    if not start.is_global:
        raise ModelError("execution starts from a global state")
    if chooser is None:
        rng = random.Random(seed)
        chooser = lambda options: rng.randrange(len(options))  # noqa: E731
    states = [bisim_contract(start)]
    actions: list[str] = []
    while True:
        current = states[-1]
        name = policy.action_for(current)
        if name is None:
            if eval_state(current, task.goal):
                return Execution(tuple(states), tuple(actions), "success")
            return Execution(
                tuple(states), tuple(actions), "failure", "policy undefined"
            )
        if len(actions) >= max_steps:
            return Execution(tuple(states), tuple(actions), "cutoff", "step bound")
        options = _step(task, current, name)
        if options is None:
            return Execution(
                tuple(states), tuple(actions), "failure", f"{name} not applicable"
            )
        pick = chooser(options)
        actions.append(name)
        states.append(options[pick])
