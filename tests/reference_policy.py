"""The strong-policy solver as it stood before solved-labelling: full
min-max passes repeated until no height changes, a by-name pick pass and
a by-name collect walk, with every action tested for applicability at
every node. ``_owner_classes`` is the observation-class split as it stood
before owner closures were computed as world sets: one global state and
one agent-local state per designated world, each closure contracted. Kept
unchanged as the reference that ``tests/test_planner.py`` compares
``solve_policy`` and ``planner._owner_classes`` against."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from eplan.actions import applicable, product_update
from eplan.errors import ModelError
from eplan.logic import Agent, eval_state
from eplan.models import EpistemicState, bisim_contract, canonical_key, globals_of
from eplan.planner import EpistemicTask, Policy
from reference_update import local_state


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
