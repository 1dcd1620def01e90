"""Shared fixtures: the bundled task corpus and random generators for the
property suites."""

from __future__ import annotations

import random
from itertools import chain, combinations, product
from pathlib import Path

import pytest

from eplan import (
    And,
    BeliefState,
    Common,
    EdgeGuard,
    EpistemicAction,
    EpistemicModel,
    EpistemicState,
    EpistemicTask,
    Event,
    Formula,
    Knows,
    LiteralConjunction,
    Not,
    Or,
    Prop,
    TOP,
    Vocabulary,
    parse_task,
)

TASKS_DIR = Path(__file__).resolve().parent.parent / "tasks"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

TASK_FILES = [
    "birthday_single",
    "two_post_offices",
    "two_post_offices_ask",
    "ask_private",
    "wrap_copresence",
]


def load_doc(name: str):
    return parse_task((TASKS_DIR / f"{name}.eplan").read_bytes())


def chain_document(n: int) -> str:
    """A one-world task whose only plan and policy take ``n`` steps: action
    ``s<i>`` needs ``p<i>`` and moves it to ``p<i+1>``; the goal is ``p<n>``."""
    lines = [
        "agents { A }",
        "atoms { " + " ".join(f"p{i};" for i in range(n + 1)) + " }",
        "state s0 { world w { p0 } designated w; }",
    ]
    for i in range(n):
        lines.append(
            f"action s{i} {{ event e {{ pre: p{i}; post: p{i + 1} & !p{i}; }} designated e; }}"
        )
    actions = ", ".join(f"s{i}" for i in range(n))
    lines.append(f"goal {{ p{n} }}")
    lines.append(f"task {{ initial: s0; actions: {actions}; owner: A; }}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def birthday_single():
    return load_doc("birthday_single").task


@pytest.fixture(scope="session")
def po2():
    return load_doc("two_post_offices").task


@pytest.fixture(scope="session")
def po2_ask():
    return load_doc("two_post_offices_ask").task


@pytest.fixture(scope="session")
def ask_private():
    return load_doc("ask_private").task


@pytest.fixture(scope="session")
def wrap_copresence():
    return load_doc("wrap_copresence").task


TWO_OFFICE_PLAN = (
    "Go(Father,Home,PostOffice1)",
    "TryPickUp(Father,Present,PostOffice1)",
    "Go(Father,PostOffice1,PostOffice2)",
    "TryPickUp(Father,Present,PostOffice2)",
    "Go(Father,PostOffice2,Home)",
    "Wrap(Father,Present)",
)


# --------------------------------------------------------------------------
# Random generation for property suites


def gen_vocab(rng: random.Random, max_atoms: int = 3, max_agents: int = 2) -> Vocabulary:
    n_atoms = rng.randint(1, max_atoms)
    n_agents = rng.randint(1, max_agents)
    return Vocabulary(
        [f"p{i}" for i in range(n_atoms)], [f"a{i}" for i in range(n_agents)]
    )


def gen_state(
    rng: random.Random,
    vocab: Vocabulary,
    max_worlds: int = 4,
    symmetric: bool | None = None,
) -> EpistemicState:
    n = rng.randint(1, max_worlds)
    labels = [
        [a for a in vocab.atoms if rng.random() < 0.5] for _ in range(n)
    ]
    edges = {}
    for agent in vocab.agents:
        pairs = set()
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    pairs.add((u, v))
        sym = symmetric if symmetric is not None else rng.random() < 0.5
        if sym:
            pairs |= {(v, u) for (u, v) in pairs}
        edges[agent] = pairs
    model = EpistemicModel(vocab, [f"w{i}" for i in range(n)], labels, edges)
    k = rng.randint(1, n)
    designated = rng.sample(range(n), k)
    return EpistemicState(model, designated)


def gen_equivalence_state(rng: random.Random, vocab: Vocabulary, max_worlds: int = 4):
    """A state whose relations are equivalence relations (random partitions)."""
    n = rng.randint(1, max_worlds)
    labels = [[a for a in vocab.atoms if rng.random() < 0.5] for _ in range(n)]
    edges = {}
    for agent in vocab.agents:
        assignment = [rng.randrange(1 + n // 2) for _ in range(n)]
        pairs = {
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and assignment[u] == assignment[v]
        }
        edges[agent] = pairs
    model = EpistemicModel(vocab, [f"w{i}" for i in range(n)], labels, edges)
    return EpistemicState(model, rng.sample(range(n), rng.randint(1, n)))


def gen_formula(rng: random.Random, vocab: Vocabulary, depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.8:
            return Prop(rng.choice(vocab.atoms))
        return TOP if roll < 0.9 else Not(TOP)
    kind = rng.randrange(5)
    if kind == 0:
        return Not(gen_formula(rng, vocab, depth - 1))
    if kind == 1:
        return And(gen_formula(rng, vocab, depth - 1), gen_formula(rng, vocab, depth - 1))
    if kind == 2:
        return Or(gen_formula(rng, vocab, depth - 1), gen_formula(rng, vocab, depth - 1))
    if kind == 3:
        return Knows(rng.choice(vocab.agents), gen_formula(rng, vocab, depth - 1))
    return Common(gen_formula(rng, vocab, depth - 1))


def gen_litconj(rng: random.Random, vocab: Vocabulary) -> LiteralConjunction:
    pos, neg = set(), set()
    for atom in vocab.atoms:
        roll = rng.random()
        if roll < 0.3:
            pos.add(atom)
        elif roll < 0.5:
            neg.add(atom)
    return LiteralConjunction(frozenset(pos), frozenset(neg))


def gen_action(
    rng: random.Random,
    vocab: Vocabulary,
    index: int,
    max_events: int = 2,
    epistemic_pre: bool = True,
) -> EpistemicAction:
    n = rng.randint(1, max_events)
    events = []
    for i in range(n):
        pre: Formula = gen_litconj(rng, vocab).to_formula()
        if epistemic_pre and rng.random() < 0.2:
            pre = Knows(rng.choice(vocab.agents), pre)
        events.append(Event(f"e{i}", pre, gen_litconj(rng, vocab)))
    edges = []
    for agent in vocab.agents:
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    edges.append(EdgeGuard(agent, u, v))
    designated = rng.sample(range(n), rng.randint(1, n))
    return EpistemicAction(f"act{index}", vocab, events, designated, edges)


def gen_task(
    rng: random.Random,
    max_atoms: int = 3,
    max_agents: int = 2,
    max_actions: int = 3,
    max_worlds: int = 2,
    goal_depth: int = 2,
) -> EpistemicTask:
    vocab = gen_vocab(rng, max_atoms, max_agents)
    initial = gen_state(rng, vocab, max_worlds)
    actions = [
        gen_action(rng, vocab, i) for i in range(rng.randint(1, max_actions))
    ]
    goal = gen_formula(rng, vocab, goal_depth)
    return EpistemicTask(vocab, actions, initial, goal)


def gen_belief(rng: random.Random, vocab: Vocabulary, max_vals: int = 3) -> BeliefState:
    vals = set()
    for _ in range(rng.randint(1, max_vals)):
        vals.add(frozenset(a for a in vocab.atoms if rng.random() < 0.5))
    return BeliefState(vals)


# --------------------------------------------------------------------------
# Exhaustive enumeration for bounded oracles


def _subsets(items) -> list[tuple]:
    return list(chain.from_iterable(combinations(items, k) for k in range(len(items) + 1)))


def all_states(vocab: Vocabulary, max_worlds: int):
    """Every state over ``vocab`` with at most ``max_worlds`` worlds: each
    label tuple, each subset of non-reflexive edges per agent and each
    non-empty designated set, in a fixed order. The states of one label
    tuple and edge choice share their model."""
    labels = [frozenset(atoms) for atoms in _subsets(vocab.atoms)]
    for n in range(1, max_worlds + 1):
        names = [f"w{i}" for i in range(n)]
        edge_sets = _subsets([(u, v) for u in range(n) for v in range(n) if u != v])
        designated_sets = _subsets(range(n))[1:]
        for label_tuple in product(labels, repeat=n):
            for edges in product(edge_sets, repeat=len(vocab.agents)):
                model = EpistemicModel(vocab, names, label_tuple, dict(zip(vocab.agents, edges)))
                for designated in designated_sets:
                    yield EpistemicState(model, designated)
