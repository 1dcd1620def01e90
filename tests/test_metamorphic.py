"""Metamorphic relations on the bundled task files: properties that relate
two runs of the planner, so they need no reference implementation.

Numbering the initial worlds in reverse, or adding a bisimilar copy of an
initial world, changes no plan or policy (and the copy not the key).
Raising the depth cap never changes a sequential plan once one is found,
and a policy found at one cap is found, and validates, at every larger cap.
Contracting a state before a product update does not change the key of the
update, nor whether the action is applicable."""

from dataclasses import replace

import pytest

from conftest import TASK_FILES, load_doc
from eplan import (
    EpistemicModel,
    EpistemicState,
    applicable,
    bisim_contract,
    canonical_key,
    product_update,
    solve_policy,
    solve_sequential,
    validate_policy,
)

CAPS = range(10)


def _solutions(task):
    """The seq plans and the policy graphs (entries, roots, children) at caps
    4 and 8; no policies for a task without an owner."""
    out = []
    for cap in (4, 8):
        out.append(solve_sequential(task, cap))
        policy = task.owner and solve_policy(task, cap)
        out.append(policy and (policy.entries, policy.roots, policy.children))
    return out


def _reversed(state):
    """The same state with its worlds numbered in reverse."""
    m = state.model
    last = m.n - 1
    edges = {agent: [(last - u, last - v) for u, v in pairs] for agent, pairs in m.edges.items()}
    model = EpistemicModel(m.vocab, m.world_names[::-1], m.labels[::-1], edges)
    return EpistemicState(model, {last - w for w in state.designated})


def _with_copy(state, w):
    """The state plus a copy of world ``w``: its label and designation, its
    edges both ways, and every agent's edge from the copy to ``w``."""
    m = state.model
    c = m.n
    edges = {
        agent: pairs
        | {(c, v) for u, v in pairs if u == w}
        | {(u, c) for u, v in pairs if v == w}
        | {(c, w)}
        for agent, pairs in m.edges.items()
    }
    model = EpistemicModel(
        m.vocab, m.world_names + (f"{m.world_names[w]}_copy",), m.labels + (m.labels[w],), edges
    )
    return EpistemicState(model, state.designated | ({c} if w in state.designated else set()))


@pytest.mark.parametrize("name", TASK_FILES)
def test_reversing_the_initial_worlds_keeps_plans_and_policies(name):
    task = load_doc(name).task
    assert _solutions(replace(task, initial=_reversed(task.initial))) == _solutions(task)


@pytest.mark.parametrize("name", TASK_FILES)
def test_a_bisimilar_copy_of_an_initial_world_keeps_key_plans_and_policies(name):
    task = load_doc(name).task
    expected = _solutions(task)
    for w in range(task.initial.model.n):
        initial = _with_copy(task.initial, w)
        assert canonical_key(initial) == canonical_key(task.initial)
        assert _solutions(replace(task, initial=initial)) == expected


@pytest.mark.parametrize("name", TASK_FILES)
def test_raising_the_cap_keeps_plans_and_policies(name):
    task = load_doc(name).task
    plans = [solve_sequential(task, cap) for cap in CAPS]
    first = next((cap for cap, plan in enumerate(plans) if plan is not None), None)
    assert first is not None
    assert all(plan is None for plan in plans[:first])
    assert all(plan == plans[first] for plan in plans[first:])
    if task.owner is None:
        return
    found = [cap for cap in CAPS if solve_policy(task, cap) is not None]
    assert found and found == list(range(found[0], len(CAPS)))
    for cap in found:
        assert validate_policy(task, solve_policy(task, cap)).ok


def test_contracting_first_keeps_the_update_key():
    updates = 0
    for name in TASK_FILES:
        task = load_doc(name).task
        level = [task.initial]
        for _ in range(2):
            nxt = []
            for state in level:
                contracted = bisim_contract(state)
                for action in task.actions:
                    assert applicable(contracted, action) == applicable(state, action)
                    if not applicable(state, action):
                        continue
                    updated = product_update(state, action)
                    key = canonical_key(product_update(contracted, action))
                    assert key == canonical_key(updated)
                    nxt.append(updated)
            updates += len(nxt)
            level = nxt
    assert updates == 56
