"""Metamorphic relations on the bundled task files: properties that relate
two runs of the planner, so they need no reference implementation.

Raising the depth cap never changes a sequential plan once one is found,
and a policy found at one cap is found, and validates, at every larger cap.
Contracting a state before a product update does not change the key of the
update, nor whether the action is applicable."""

import pytest

from conftest import TASK_FILES, load_doc
from eplan import (
    applicable,
    bisim_contract,
    canonical_key,
    product_update,
    solve_policy,
    solve_sequential,
    validate_policy,
)

CAPS = range(10)


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
