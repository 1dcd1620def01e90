"""Inputs of the four benchmark workloads.

Everything here is generated from integers: the N-office document from N,
random tasks from a pool index, and the order in which a run visits its
inputs from the run's seed. Nothing is imported from the repository's
tests; the generators below reproduce the distributions the tests use.
"""

from __future__ import annotations

import random

from eplan import (
    TOP, And, Common, EdgeGuard, EpistemicAction, EpistemicModel, EpistemicState,
    EpistemicTask, Event, Knows, LiteralConjunction, Not, Or, Prop, Vocabulary,
)

# --------------------------------------------------------------------------
# The N-office family: the father's present sits at one of N post offices.

# N=5 keeps a solve under a second here, so a run holds a few dozen
# solves and its median is steady; each extra office costs about 4x.
OFFICES_N = 5

# Pinned by the planner tests for N=2 (the worked example) and N=3.
TWO_OFFICE_PLAN = (
    "Go(Father,Home,PostOffice1)",
    "TryPickUp(Father,Present,PostOffice1)",
    "Go(Father,PostOffice1,PostOffice2)",
    "TryPickUp(Father,Present,PostOffice2)",
    "Go(Father,PostOffice2,Home)",
    "Wrap(Father,Present)",
)
THREE_OFFICE_PLAN = (
    "Go(Father,Home,PostOffice1)",
    "TryPickUp(Father,Present,PostOffice1)",
    "Go(Father,PostOffice1,PostOffice2)",
    "TryPickUp(Father,Present,PostOffice2)",
    "Go(Father,PostOffice2,PostOffice3)",
    "TryPickUp(Father,Present,PostOffice3)",
    "Go(Father,PostOffice3,Home)",
    "Wrap(Father,Present)",
)
THREE_OFFICE_LENGTHS = (4, 6, 8)


def offices_plan(n: int) -> tuple[str, ...]:
    """The shortest plan for N offices: try each office in turn, go home
    and wrap; 2N+2 steps."""
    stops = ["Home"] + [f"PostOffice{i}" for i in range(1, n + 1)]
    steps = []
    for here, there in zip(stops, stops[1:]):
        steps += [f"Go(Father,{here},{there})", f"TryPickUp(Father,Present,{there})"]
    return tuple(steps) + (f"Go(Father,{stops[-1]},Home)", "Wrap(Father,Present)")


def offices_document(n: int) -> str:
    """The ``.eplan`` text of the N-office task; at N=3 it is the planner
    tests' THREE_OFFICES document."""
    offices = [f"PostOffice{i}" for i in range(1, n + 1)]
    lines = [
        "",
        "agents { Father }",
        "sorts { location; agent; object; mover }",
        "objects {",
        f"  location: Home, {', '.join(offices)};",
        "  agent: Father;",
        "  object: Present;",
        "  mover: Father, Present;",
        "}",
        "atoms { At(mover, location); Has(agent, object); Wrapped(object); }",
        "schema Go(agt: agent, from: location, to: location) {",
        "  pre: At(agt, from);",
        "  effect: At(agt, to) & !At(agt, from);",
        "}",
        "schema Wrap(agt: agent, obj: object) {",
        "  pre: Has(agt, obj) & !Wrapped(obj);",
        "  effect: Wrapped(obj);",
        "}",
    ]
    for po in offices:
        lines += [
            f"action TryPickUp(Father,Present,{po}) {{",
            "  event take {",
            f"    pre: At(Father,{po}) & At(Present,{po}) & !Has(Father,Present);",
            f"    post: Has(Father,Present) & !At(Present,{po});",
            "  }",
            f"  event miss {{ pre: At(Father,{po}) & !At(Present,{po}); post: top; }}",
            "  designated take, miss;",
            "}",
        ]
    lines.append("state s0 {")
    for i, po in enumerate(offices, 1):
        lines.append(f"  world w{i} {{ At(Father,Home), At(Present,{po}) }}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lines.append(f"  edge Father: w{i} -- w{j};")
    lines += [
        f"  designated {', '.join(f'w{i}' for i in range(1, n + 1))};",
        "}",
        "goal { At(Father,Home) & Has(Father,Present) & Wrapped(Present) }",
        "task {",
        "  initial: s0;",
        "  actions: Go, "
        + ",\n           ".join(f"TryPickUp(Father,Present,{po})" for po in offices)
        + ", Wrap;",
        "  owner: Father;",
        "}",
        "",
    ]
    return "\n".join(lines)


def offices_cap(n: int) -> int:
    return 2 * n + 3


# --------------------------------------------------------------------------
# Random tasks: the distribution of the property suites' task generator
# with 3 atoms, 2 agents, 3 actions and 3 worlds. The draws are made in
# the same order, so a given ``random.Random`` yields the same task.

RANDOM_POOL = 1024
RANDOM_SEQ_CAP = 5
RANDOM_POLICY_CAP = 4


def random_task(index: int):
    """Pool task ``index``: a fixed function of the index."""
    return gen_task(random.Random(index))


def gen_task(rng, max_atoms=3, max_agents=2, max_actions=3, max_worlds=3, goal_depth=2):
    vocab = Vocabulary(
        [f"p{i}" for i in range(rng.randint(1, max_atoms))],
        [f"a{i}" for i in range(rng.randint(1, max_agents))],
    )
    initial = _gen_state(rng, vocab, max_worlds)
    actions = [_gen_action(rng, vocab, i) for i in range(rng.randint(1, max_actions))]
    goal = _gen_formula(rng, vocab, goal_depth)
    return EpistemicTask(vocab, actions, initial, goal)


def _gen_state(rng, vocab, max_worlds):
    n = rng.randint(1, max_worlds)
    labels = [[a for a in vocab.atoms if rng.random() < 0.5] for _ in range(n)]
    edges = {}
    for agent in vocab.agents:
        pairs = set()
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    pairs.add((u, v))
        if rng.random() < 0.5:
            pairs |= {(v, u) for (u, v) in pairs}
        edges[agent] = pairs
    model = EpistemicModel(vocab, [f"w{i}" for i in range(n)], labels, edges)
    return EpistemicState(model, rng.sample(range(n), rng.randint(1, n)))


def _gen_formula(rng, vocab, depth):
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.8:
            return Prop(rng.choice(vocab.atoms))
        return TOP if roll < 0.9 else Not(TOP)
    kind = rng.randrange(5)
    if kind == 0:
        return Not(_gen_formula(rng, vocab, depth - 1))
    if kind == 1:
        return And(_gen_formula(rng, vocab, depth - 1), _gen_formula(rng, vocab, depth - 1))
    if kind == 2:
        return Or(_gen_formula(rng, vocab, depth - 1), _gen_formula(rng, vocab, depth - 1))
    if kind == 3:
        return Knows(rng.choice(vocab.agents), _gen_formula(rng, vocab, depth - 1))
    return Common(_gen_formula(rng, vocab, depth - 1))


def _gen_litconj(rng, vocab):
    pos, neg = set(), set()
    for atom in vocab.atoms:
        roll = rng.random()
        if roll < 0.3:
            pos.add(atom)
        elif roll < 0.5:
            neg.add(atom)
    return LiteralConjunction(frozenset(pos), frozenset(neg))


def _gen_action(rng, vocab, index, max_events=2):
    n = rng.randint(1, max_events)
    events = []
    for i in range(n):
        pre = _gen_litconj(rng, vocab).to_formula()
        if rng.random() < 0.2:
            pre = Knows(rng.choice(vocab.agents), pre)
        events.append(Event(f"e{i}", pre, _gen_litconj(rng, vocab)))
    edges = []
    for agent in vocab.agents:
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    edges.append(EdgeGuard(agent, u, v))
    designated = rng.sample(range(n), rng.randint(1, n))
    return EpistemicAction(f"act{index}", vocab, events, designated, edges)


# --------------------------------------------------------------------------
# Documents: CLI requests over the bundled tasks. Paths are relative to the
# checkout root; POLICY_FILE is written by POLICY_SETUP before timing.

POLICY_FILE = "perfbench/.work/policy.json"
POLICY_SETUP = [
    "solve", "tasks/two_post_offices.eplan", "--mode", "policy", "--max-depth", "8",
    "--format", "json", "--output", POLICY_FILE,
]

_PO2 = "tasks/two_post_offices.eplan"
_ASK = "tasks/two_post_offices_ask.eplan"
_PRIVATE = "tasks/ask_private.eplan"
_SINGLE = "tasks/birthday_single.eplan"
_WRAP = "tasks/wrap_copresence.eplan"

# The CLI determinism scenarios of acceptance criterion 10.
SMALL_REQUESTS = [
    ["solve", _SINGLE, "--mode", "seq", "--max-depth", "6"],
    ["solve", _PO2, "--mode", "seq", "--max-depth", "8"],
    ["solve", _PO2, "--mode", "seq", "--max-depth", "8", "--format", "json"],
    ["solve", _PO2, "--mode", "policy", "--max-depth", "8"],
    ["solve", _ASK, "--mode", "policy", "--max-depth", "8"],
    ["solve", _WRAP, "--mode", "policy", "--max-depth", "5"],
    ["apply", _PO2, "--actions", "Go(Father,Home,PostOffice1)",
     "TryPickUp(Father,Present,PostOffice1)", "--check",
     "K[Father] Has(Father,Present) | K[Father] !Has(Father,Present)"],
    ["apply", _ASK, "--actions", "AskWhetherPO1", "--check",
     "K[Father] At(Present,PostOffice1) | K[Father] At(Present,PostOffice2)"],
    ["apply", _PRIVATE, "--actions", "AskWhetherPO1", "--check",
     "K[Father] At(Present,PostOffice2) & !K[Employee2] K[Father] At(Present,PostOffice2)"],
    ["contract", _PO2, "--format", "json"],
    ["check", _PO2, "top"],
    ["validate", _PO2, "--policy", POLICY_FILE],
    ["execute", _PO2, "--policy", POLICY_FILE, "--seed", "1", "--start", "w2"],
    ["dot", _PO2],
    ["dot", _PRIVATE, "--action", "AskWhetherPO1"],
]

# Eight private asks give a 256-world model: the large-model regime that no
# search workload reaches.
_EIGHT_ASKS = ["apply", _PRIVATE, "--actions"] + ["AskWhetherPO1"] * 8
LARGE_REQUESTS = [
    _EIGHT_ASKS + ["--check",
                   "C (K[Employee] At(Present,PostOffice1) | K[Employee] !At(Present,PostOffice1))"],
    _EIGHT_ASKS + ["--contract"],
]

# One pass: every small request once and every large one three times, so
# two requests in seven are large. The C check renders 256 worlds and is the
# slowest request; its three copies are the top seventh of a pass, so
# op_p90_ms falls inside that group, not at a group boundary.
DOCUMENT_PASS = SMALL_REQUESTS + LARGE_REQUESTS * 3


def pass_order(seed: int, index: int, size: int) -> list[int]:
    """The order of one pass over ``size`` inputs: a shuffle that depends
    on the run's seed and the pass number."""
    order = list(range(size))
    random.Random(f"{seed}:{index}").shuffle(order)
    return order
