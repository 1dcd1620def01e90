"""Epistemic planning tasks, sequential search, strong-policy synthesis,
and plan/policy validation.

Search nodes are bisimulation-contracted states keyed by canonical bytes,
so revisits are detected up to bisimilarity. Depth caps are mandatory:
plan existence is undecidable in general, so there is no unbounded mode.
All tie-breaking is fixed (actions in declaration order, worlds by index,
node classes by key), which makes every search result reproducible.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .actions import (
    EpistemicAction,
    _materialize,
    applicable,
    applicable_updates,
    local_action,
    product_update,
)
from .classical import breadth_first
from .errors import ModelError, NotApplicableError, VocabularyMismatchError
from .logic import Agent, Formula, Vocabulary, _eval, validate_over
from .models import (
    EpistemicState,
    bisim_contract,
    canonical_key,
    globals_of,
    is_local_for,
    local_state,
)


@dataclass(frozen=True, slots=True, repr=False)
class EpistemicTask:
    """An action repertoire, an initial state, and a goal formula.

    When ``owner`` is set the task is that agent's own planning task: the
    initial state and every action must be local for the owner (checked).
    """

    vocab: Vocabulary
    actions: tuple[EpistemicAction, ...]
    initial: EpistemicState
    goal: Formula
    owner: Agent | None = None
    _by_name: dict[str, EpistemicAction] = field(init=False, compare=False)

    def __post_init__(self):
        vocab, owner = self.vocab, self.owner
        actions = tuple(self.actions)
        if self.initial.model.vocab != vocab:
            raise VocabularyMismatchError("initial state uses a different vocabulary")
        for action in actions:
            if action.vocab != vocab:
                raise VocabularyMismatchError(
                    f"action {action.name} uses a different vocabulary"
                )
        validate_over(vocab, self.goal)
        by_name: dict[str, EpistemicAction] = {}
        for action in actions:
            if action.name in by_name:
                raise ModelError(f"duplicate action name: {action.name}")
            by_name[action.name] = action
        if owner is not None:
            if owner not in vocab.agents:
                raise VocabularyMismatchError(f"owner {owner.name} not in vocabulary")
            if not is_local_for(self.initial, owner):
                raise ModelError(
                    f"initial state is not local for owner {owner.name}"
                )
            for action in actions:
                if not action.is_local_for(owner):
                    raise ModelError(
                        f"action {action.name} is not local for owner {owner.name}"
                    )
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "_by_name", by_name)

    def action_named(self, name: str) -> EpistemicAction:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown action name: {name}") from None

    def __repr__(self) -> str:
        owner = self.owner.name if self.owner else None
        return f"EpistemicTask({len(self.actions)} actions, owner={owner})"


def _goal_holds(task: EpistemicTask, state: EpistemicState) -> bool:
    """The task's goal at every designated world of ``state``, evaluated
    unchecked: the task validated it over its vocabulary, which every state
    that the planner reaches from its initial state or a checked start uses."""
    return all(_eval(state.model, w, task.goal) for w in state.designated)


@dataclass(frozen=True)
class SequentialPlan:
    steps: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def localize(task: EpistemicTask, agent: Agent) -> EpistemicTask:
    """The agent's local planning task: localized initial state and
    actions, with the agent installed as owner."""
    return EpistemicTask(
        task.vocab,
        tuple(local_action(a, agent) for a in task.actions),
        local_state(task.initial, agent),
        task.goal,
        owner=agent,
    )


# --------------------------------------------------------------------------
# Sequential planning


def solve_sequential(task: EpistemicTask, depth_cap: int) -> SequentialPlan | None:
    """Shortest action sequence reaching the goal, or None within the cap.

    Breadth-first over product updates, contracting at every expansion and
    deduplicating by canonical key, so bisimilar states are explored once.
    A successor whose shape was yielded before is dropped unbuilt: the
    search has already seen its key.
    """
    shapes: set[tuple] = set()

    def expand(state: EpistemicState):
        for action, shape, pairs in applicable_updates(state, task.actions):
            if shape not in shapes:
                shapes.add(shape)
                yield action.name, bisim_contract(_materialize(state, action, shape, pairs))

    steps = breadth_first(
        bisim_contract(task.initial),
        canonical_key,
        expand,
        lambda state: _goal_holds(task, state),
        depth_cap,
    )
    return None if steps is None else SequentialPlan(steps)


@dataclass
class PlanReport:
    """Result of replaying a plan step by step."""

    ok: bool
    message: str
    failed_step: int | None = None
    final_state: EpistemicState | None = None

    def __str__(self) -> str:
        return self.message


def validate_plan(task: EpistemicTask, plan: SequentialPlan | Sequence[str]) -> PlanReport:
    """Replay product updates; report the first inapplicable step or the
    final goal verdict. Unknown action names raise."""
    steps = list(plan)
    state = bisim_contract(task.initial)
    for i, name in enumerate(steps):
        action = task.action_named(name)
        try:
            state = bisim_contract(product_update(state, action))
        except NotApplicableError:
            return PlanReport(
                ok=False,
                message=f"step {i + 1} ({name}) is not applicable",
                failed_step=i,
                final_state=state,
            )
    if _goal_holds(task, state):
        return PlanReport(ok=True, message=f"valid: {len(steps)} steps reach the goal",
                          final_state=state)
    return PlanReport(
        ok=False,
        message="goal does not hold in the final state",
        failed_step=None,
        final_state=state,
    )


# --------------------------------------------------------------------------
# Policies


class Policy:
    """A uniform mapping from global states to action names.

    Entries are keyed by the canonical key of the owner's local view of a
    global state, which enforces the uniformity condition by construction:
    two global states the owner cannot tell apart share a key, hence an
    action. ``states`` keeps a representative node state per key for
    rendering. ``roots`` (the initial classes' keys) and ``children`` (per
    entry, the class keys its action leads to) are the chosen policy graph
    as the solver built it. File-loaded policies leave all three empty.
    """

    __slots__ = ("owner", "entries", "states", "roots", "children")

    def __init__(
        self,
        owner: Agent,
        entries: dict[bytes, str] | None = None,
        states: dict[bytes, EpistemicState] | None = None,
        roots: Sequence[bytes] = (),
        children: dict[bytes, tuple[bytes, ...]] | None = None,
    ):
        self.owner = owner
        self.entries = dict(entries or {})
        self.states = dict(states or {})
        self.roots = tuple(roots)
        self.children = dict(children or {})

    @classmethod
    def from_assignments(
        cls, owner: Agent, pairs: Iterable[tuple[EpistemicState, str]]
    ) -> "Policy":
        """Build a policy from (state, action name) pairs; states are taken
        from the owner's perspective. Conflicting assignments to the same
        local view are rejected."""
        policy = cls(owner)
        for state, name in pairs:
            view, key = _owner_view(state, owner)
            if key in policy.entries and policy.entries[key] != name:
                raise ModelError(
                    f"conflicting assignments for one local state:"
                    f" {policy.entries[key]} vs {name}"
                )
            policy.entries[key] = name
            policy.states[key] = view
        return policy

    def action_for(self, state: EpistemicState) -> str | None:
        return self.entries.get(_owner_view(state, self.owner)[1])

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Policy(owner={self.owner.name}, {len(self.entries)} entries)"


def _owner_view(state: EpistemicState, owner: Agent) -> tuple[EpistemicState, bytes]:
    """The owner's contracted local view of ``state`` and its canonical
    key, the key a :class:`Policy` entry is looked up by."""
    view = bisim_contract(local_state(state, owner))
    return view, canonical_key(view)


def _owner_classes(
    state: EpistemicState, owner: Agent
) -> list[tuple[bytes, EpistemicState]]:
    """Partition the globals of ``state`` into the owner's run-time
    observation classes: globals sharing a bisimilar owner-local view.

    Returns (key, contracted local state) per class, sorted by key. Globals
    with one owner closure share one view, so each closure is contracted
    once. A closure that is the whole designated set of a contracted state
    has that state itself as its view: the same model and designated set,
    which contraction would return unchanged."""
    model = state.model
    classes: dict[bytes, EpistemicState] = {}
    closures: set[frozenset[int]] = set()
    for w in sorted(state.designated):
        closure = frozenset(model.closure((w,), (owner,)))
        if closure in closures:
            continue
        closures.add(closure)
        if state._contracted and closure == state.designated:
            view = state
        else:
            view = bisim_contract(EpistemicState._trusted(model, closure))
        key = canonical_key(view)
        if key not in classes:
            classes[key] = view
    return sorted(classes.items())


@dataclass
class _Node:
    state: EpistemicState
    depth: int
    goal: bool
    # One entry per applicable action, in declaration order: (name, child keys).
    edges: list[tuple[str, tuple[bytes, ...]]] = field(default_factory=list)


def solve_policy(task: EpistemicTask, depth_cap: int) -> Policy | None:
    """Strong acyclic policy via AND-OR search over owner-local states.

    OR-choice: an action applicable in the owner's local state. AND-branch:
    the owner-local classes of the updated state's globals (what the owner
    may observe at run time). The reachable node graph is explored to the
    depth cap, then labelled solved in height order (min-max backward
    induction): goal nodes are solved at height 0, and an unsolved node is
    solved at h + 1 by the first declared of its edges whose last unsolved
    child was solved at h. A policy exists iff every initial class is
    solved within the cap; following strictly decreasing heights makes the
    result acyclic.
    """
    if task.owner is None:
        raise ModelError("policy synthesis needs a task with an owner")
    if depth_cap < 0:
        raise ModelError("depth cap must be non-negative")
    owner = task.owner

    # Roots are distinct and a child is queued only when new, so each node
    # is expanded at most once. A successor shape seen before has all its
    # child keys among the nodes already, so it reuses them unbuilt.
    roots = _owner_classes(task.initial, owner)
    nodes = {key: _Node(state, 0, _goal_holds(task, state)) for key, state in roots}
    queue: deque[bytes] = deque(nodes)
    children: dict[tuple, tuple[bytes, ...]] = {}  # successor shape -> child keys
    while queue:
        node = nodes[queue.popleft()]
        if node.goal or node.depth >= depth_cap:
            continue
        for action, shape, pairs in applicable_updates(node.state, task.actions):
            keys = children.get(shape)
            if keys is None:
                update = _materialize(node.state, action, shape, pairs)
                classes = _owner_classes(bisim_contract(update), owner)
                keys = children[shape] = tuple(key for key, _ in classes)
                for child_key, child_state in classes:
                    if child_key not in nodes:
                        goal = _goal_holds(task, child_state)
                        nodes[child_key] = _Node(child_state, node.depth + 1, goal)
                        queue.append(child_key)
            node.edges.append((action.name, keys))

    # Per edge, the number of its children not yet solved; per node, the
    # edges (parent key, edge index) it is a child of.
    pending: dict[bytes, list[int]] = {}
    parents: dict[bytes, list[tuple[bytes, int]]] = {key: [] for key in nodes}
    for key, node in nodes.items():
        pending[key] = [len(children) for _, children in node.edges]
        for index, (_, children) in enumerate(node.edges):
            for child in children:
                parents[child].append((key, index))
    chosen: dict[bytes, int] = {}  # solved non-goal node -> chosen edge index
    layer = [key for key, node in nodes.items() if node.goal]
    for _ in range(depth_cap):
        ready: dict[bytes, int] = {}
        for child in layer:
            for key, index in parents[child]:
                pending[key][index] -= 1
                if pending[key][index] == 0 and key not in chosen:
                    ready[key] = min(index, ready.get(key, index))
        chosen.update(ready)
        layer = list(ready)

    root_keys = tuple(key for key, _ in roots)
    if any(key not in chosen and not nodes[key].goal for key in root_keys):
        return None

    # Collect only the nodes the chosen edges can actually reach.
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
        entries[key], chosen_children[key] = node.edges[chosen[key]]
        states[key] = node.state
        for child in chosen_children[key]:
            if child not in seen:
                seen.add(child)
                walk.append(child)
    return Policy(owner, entries, states, root_keys, chosen_children)


# --------------------------------------------------------------------------
# Execution


@dataclass
class Execution:
    """An alternating trace of global states and actions."""

    states: tuple[EpistemicState, ...]
    actions: tuple[str, ...]
    outcome: str  # "success" | "failure" | "cutoff"
    reason: str | None = None

    @property
    def length(self) -> int:
        return len(self.actions)

    def __repr__(self) -> str:
        return f"Execution({self.length} steps, {self.outcome})"


class _Graph:
    """The step table that every policy walk reads, keyed by the canonical
    key of a contracted global state: the state (the trace representative),
    its owner view, the policy's action there (looked up once, by the view's
    key) and its successor keys (stepped at most once, when a walk first
    needs them). Successors keep world order and repeats, since each one is
    a separate execution; None means the action is not applicable. The
    policy must be the task owner's (checked)."""

    def __init__(self, task: EpistemicTask, policy: Policy):
        if policy.owner != task.owner:
            owner = f"owner {task.owner.name}" if task.owner else "no owner"
            raise ModelError(f"a policy of {policy.owner.name} for a task with {owner}")
        self.task = task
        self.policy = policy
        self.states: dict[bytes, EpistemicState] = {}
        self.actions: dict[bytes, str | None] = {}
        self.successors: dict[bytes, tuple[bytes, ...] | None] = {}
        self.views: dict[bytes, EpistemicState] = {}

    def add(self, state: EpistemicState) -> bytes:
        key = canonical_key(state)
        if key not in self.states:
            self.states[key] = state
            self.views[key], view_key = _owner_view(state, self.policy.owner)
            self.actions[key] = self.policy.entries.get(view_key)
        return key

    def step(self, key: bytes) -> tuple[bytes, ...] | None:
        """The keys of the contracted successor globals of the policy's
        action at ``key``, or None when it is not applicable. Unknown
        action names raise."""
        if key not in self.successors:
            action = self.task.action_named(self.actions[key])
            try:
                update = globals_of(product_update(self.states[key], action))
            except NotApplicableError:
                self.successors[key] = None
            else:
                self.successors[key] = tuple(self.add(bisim_contract(g)) for g in update)
        return self.successors[key]

    def executions(self, first: bytes, max_steps: int | None, choose=None) -> list[Execution]:
        """All executions from ``first``, depth-first with branches in
        world order, without recursion. A state whose key is already on
        the current path is a cycle cutoff; ``max_steps=None`` sets no
        step bound. With ``choose``, each step follows only the successor
        it picks from the successor states (world order, repeats kept),
        so there is exactly one execution."""
        out: list[Execution] = []
        path: dict[bytes, None] = {}  # the current state's ancestors, in order
        branches = [iter((first,))]  # per open state: successor keys left
        while branches:
            key = next(branches[-1], None)
            if key is None:
                branches.pop()
                if path:
                    path.popitem()
                continue
            name = self.actions[key]
            if name is None:
                goal = _goal_holds(self.task, self.states[key])
                outcome, reason = ("success", None) if goal else ("failure", "policy undefined")
            elif key in path:
                outcome, reason = "cutoff", "cycle"
            elif max_steps is not None and len(path) >= max_steps:
                outcome, reason = "cutoff", "step bound"
            elif (succ := self.step(key)) is None:
                outcome, reason = "failure", f"{name} not applicable"
            else:
                path[key] = None
                if choose is not None:
                    succ = (succ[choose([self.states[k] for k in succ])],)
                branches.append(iter(succ))
                continue
            states = tuple(self.states[k] for k in path) + (self.states[key],)
            actions = tuple(self.actions[k] for k in path)
            out.append(Execution(states, actions, outcome, reason))
        return out


def execute(
    task: EpistemicTask,
    policy: Policy,
    start: EpistemicState,
    seed: int = 0,
    max_steps: int = 100,
    chooser: Callable[[list[EpistemicState]], int] | None = None,
) -> Execution:
    """Follow the policy from a global state, resolving nondeterministic
    outcomes with the chooser (default: seeded RNG): the step table's
    single-branch walk. Stops with success when the policy is undefined and
    the goal holds, with failure when it is undefined otherwise or a step
    misfires, and with cutoff when a state repeats or after ``max_steps``."""
    if chooser is None:
        rng = random.Random(seed)
        chooser = lambda options: rng.randrange(len(options))  # noqa: E731
    (run,) = _executions(task, policy, start, max_steps, chooser)
    return run


def enumerate_executions(
    task: EpistemicTask,
    policy: Policy,
    start: EpistemicState,
    max_steps: int = 1000,
) -> list[Execution]:
    """All executions of the policy from a global state, depth-first with
    branches explored in world order. Revisiting a state already on the
    current path is reported as a cutoff (the policy loops)."""
    return _executions(task, policy, start, max_steps)


def _executions(
    task: EpistemicTask, policy: Policy, start: EpistemicState, max_steps: int, choose=None
) -> list[Execution]:
    """The step table's walk from ``start``, which must be a global state
    over the task's vocabulary, under a non-negative step bound."""
    if not start.is_global:
        raise ModelError("execution starts from a global state")
    if start.model.vocab != task.vocab:
        raise VocabularyMismatchError("start state uses a different vocabulary")
    if max_steps < 0:
        raise ModelError("step bound must be non-negative")
    graph = _Graph(task, policy)
    return graph.executions(graph.add(bisim_contract(start)), max_steps, choose)


# --------------------------------------------------------------------------
# Policy validation


@dataclass(frozen=True)
class Violation:
    kind: str  # coverage | inapplicable | cycle | unsuccessful; uniformity holds by construction
    message: str
    trace: tuple[str, ...] = ()

    def __str__(self) -> str:
        text = f"{self.kind}: {self.message}"
        if self.trace:
            text += " [after " + "; ".join(self.trace) + "]"
        return text


@dataclass
class PolicyReport:
    ok: bool
    violations: tuple[Violation, ...]
    executions: tuple[Execution, ...]

    @property
    def execution_lengths(self) -> tuple[int, ...]:
        return tuple(sorted({e.length for e in self.executions}))

    def __str__(self) -> str:
        if self.ok:
            lengths = ",".join(str(n) for n in self.execution_lengths)
            return (
                f"valid: {len(self.executions)} executions enumerated,"
                f" lengths {{{lengths}}}"
            )
        return f"invalid: {len(self.violations)} violations"


def validate_policy(task: EpistemicTask, policy: Policy) -> PolicyReport:
    """Check a policy of the task's owner against the strong-solution definition.

    (a) every prescribed action is applicable in the owner's local state;
    (b) uniformity (states with bisimilar owner-local views get one action)
    holds by construction, since entries are keyed by the owner view's key;
    (c) the initial state's globals are covered (or already satisfy the
    goal); (d) every execution, enumerated exhaustively, succeeds, and the
    reachable policy graph is acyclic. Violations carry a witness trace.
    Unknown action names and another agent's policy raise. One step table
    serves every walk, so each reachable global state is keyed, looked up
    and stepped once, and its owner view keyed once."""
    violations: list[Violation] = []

    def violate(kind: str, message: str, trace: tuple[str, ...] = ()) -> None:
        violations.append(Violation(kind, message, trace))

    graph = _Graph(task, policy)
    initial = [graph.add(bisim_contract(g)) for g in globals_of(task.initial)]
    for key in initial:
        if graph.actions[key] is None and not _goal_holds(task, graph.states[key]):
            violate("coverage", "initial global state is neither covered nor a goal state")

    # Walk the reachable policy graph breadth-first, checking (a) once per
    # state key; a view-inapplicable state is not stepped.
    frontier: deque[tuple[bytes, tuple[str, ...]]] = deque((key, ()) for key in initial)
    walked: set[bytes] = set()
    while frontier:
        key, trace = frontier.popleft()
        name = graph.actions[key]
        if key in walked or name is None:
            continue
        walked.add(key)
        if not applicable(graph.views[key], task.action_named(name)):
            violate("inapplicable", f"{name} is not applicable in the owner-local state", trace)
            continue
        frontier.extend((succ, trace + (name,)) for succ in graph.step(key) or ())

    # No step bound: only finitely many global keys carry an action (each
    # contracts into one of the policy's finitely many owner views), and a
    # key already on the path ends it as a cycle.
    executions = [e for key in initial for e in graph.executions(key, None)]
    for execution in executions:
        if execution.outcome == "cutoff":
            violate("cycle", "execution does not terminate (cycle)", execution.actions)
        elif execution.outcome != "success":
            violate("unsuccessful", f"execution fails: {execution.reason}", execution.actions)
    return PolicyReport(not violations, tuple(violations), tuple(executions))
