"""Bounded-exhaustive oracles: every small state, checked against
``tests/reference_update.py``. Small corners that a random draw rarely hits
(an agent with no edges, an empty label, a designated set that is not
closed) are all among them.

Two scopes: 2 atoms and 2 agents with at most 2 worlds (772 states), and
1 atom and 1 agent with at most 3 worlds (3,634 states). In the first, two
worlds with one label are always bisimilar, so no refinement round can
split a block and every contracted state has pairwise distinct labels; the
second reaches both refinement loops (``bisim_contract``'s and the key's
``_ranks``).

A third scope, 1 atom and 2 agents with at most 3 worlds (229,570 states),
is the smallest with two agents whose refinement can split a block, so a
refinement signature that drops an agent fails only there. It takes about
half a minute, so it runs as a script and not in the test suite:

    PYTHONPATH=src python tests/test_exhaustive.py
"""

from itertools import combinations

import pytest

import reference_update as reference
from conftest import all_states
from eplan import Common, Vocabulary, canonical_key, eval_world, parse_formula

TWO_BY_TWO = Vocabulary(["p", "q"], ["a", "b"])


@pytest.fixture(scope="module")
def two_by_two():
    return list(all_states(TWO_BY_TWO, 2))


@pytest.mark.parametrize(
    "atoms, agents, max_worlds, n_states, n_keys",
    [(["p", "q"], ["a", "b"], 2, 772, 244), (["p"], ["a"], 3, 3634, 178)],
    ids=["2-atoms-2-agents-2-worlds", "1-atom-1-agent-3-worlds"],
)
def test_key_equality_is_bisimilarity(atoms, agents, max_worlds, n_states, n_keys):
    groups: dict[bytes, list] = {}
    states = list(all_states(Vocabulary(atoms, agents), max_worlds))
    for state in states:
        groups.setdefault(canonical_key(state), []).append(state)
    assert (len(states), len(groups)) == (n_states, n_keys)
    for first, *rest in groups.values():
        for t in rest:
            assert reference.bisimilar(first, t), (first, t)
    for s, t in combinations([group[0] for group in groups.values()], 2):
        assert not reference.bisimilar(s, t), (s, t)


@pytest.mark.parametrize("text", ["p", "!q", "p | K[a] q", "K[b] !p"])
def test_common_knowledge_is_truth_on_the_union_reach(two_by_two, text):
    phi = parse_formula(text, TWO_BY_TWO)
    seen = []
    for state in two_by_two:
        model = state.model
        for w in range(model.n):
            expected = all(eval_world(model, v, phi) for v in reference.union_reach(model, w))
            assert eval_world(model, w, Common(phi)) == expected, (state, w)
            seen.append((eval_world(model, w, phi), expected))
    # Somewhere phi holds at w but not on all of its union reach.
    assert len(seen) == 4 + 768 * 2 and (True, False) in seen


def _invariant(state) -> tuple:
    """A bisimulation invariant: contractions of bisimilar states are
    isomorphic, so they have the same multiset of (label, designated flag,
    per-agent row length) over their worlds."""
    contracted = reference.bisim_contract(state)
    model = contracted.model
    return tuple(sorted(
        (
            tuple(sorted(a.index for a in model.labels[w])),
            w in contracted.designated,
            tuple(len(model.successors(agent, w)) for agent in model.vocab.agents),
        )
        for w in range(model.n)
    ))


def check_scope(vocab: Vocabulary, max_worlds: int) -> tuple[int, int, int, int]:
    """Key equality is bisimilarity on every state of the scope, streamed
    so that only the first state of each key is kept: every state is
    bisimilar to its key's first state, and the first states are pairwise
    not bisimilar. Two states with different invariants cannot be
    bisimilar, so only the pairs within one invariant bucket are checked.
    Returns the numbers of states, keys, buckets and checked pairs."""
    first: dict[bytes, object] = {}
    n_states = 0
    for state in all_states(vocab, max_worlds):
        n_states += 1
        kept = first.setdefault(canonical_key(state), state)
        assert kept is state or reference.bisimilar(kept, state), (kept, state)
    buckets: dict[tuple, list] = {}
    for state in first.values():
        buckets.setdefault(_invariant(state), []).append(state)
    pairs = 0
    for bucket in buckets.values():
        for s, t in combinations(bucket, 2):
            assert not reference.bisimilar(s, t), (s, t)
            pairs += 1
    return n_states, len(first), len(buckets), pairs


if __name__ == "__main__":
    counts = check_scope(Vocabulary(["p"], ["a", "b"]), 3)
    assert counts == (229570, 20010, 4770, 70816), counts
    print("1 atom, 2 agents, at most 3 worlds: %d states, %d keys, %d buckets, %d pairs" % counts)
