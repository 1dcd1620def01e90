"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-8 pin the worked birthday-errand scenarios exactly; criterion 9
runs five randomized property suites at 500 fixed-seed cases each;
criterion 10 checks byte-identical CLI output across repeated runs (under
different hash seeds, so no output may depend on set iteration order).
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from conftest import SRC_DIR, TWO_OFFICE_PLAN, TASKS_DIR, gen_belief, gen_formula, gen_litconj, gen_state, gen_task, gen_vocab
from eplan import (
    BeliefState,
    ConditionalAction,
    EdgeGuard,
    EpistemicAction,
    Event,
    GroundAction,
    Knows,
    LiteralConjunction,
    ModelError,
    Not,
    Or,
    Policy,
    Prop,
    applicable,
    apply_belief,
    bisim_contract,
    canonical_key,
    eval_state,
    from_belief_state,
    localize,
    product_update,
    solve_classical,
    solve_policy,
    solve_sequential,
    validate_plan,
    validate_policy,
)
from test_classical import belief_actions, birthday_task, po_vocab
from reference_update import bisimilar


def report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def elapsed_under(t0: float, bound: float) -> bool:
    return time.monotonic() - t0 < bound


def test_criterion_01_classical_layer():
    t0 = time.monotonic()
    task = birthday_task()
    plan = solve_classical(task, 8)
    assert plan == [
        "Go(Father,Home,PostOffice)",
        "PickUp(Father,Present,PostOffice)",
        "Go(Father,PostOffice,Home)",
        "Wrap(Father,Present)",
    ]
    from eplan import reachable_system

    states, edges = reachable_system(task.actions, task.initial)
    assert len(states) == 6
    # Structure matches the induced system up to relabeling: out-degrees
    # and the action multiset per state pin the edge structure.
    by_source = {}
    for (src, name, dst) in edges:
        by_source.setdefault(src, []).append((name.split("(")[0], src == dst))
    degree_profile = sorted(
        (sorted(v) for v in by_source.values()), key=lambda v: (len(v), v)
    )
    assert degree_profile == [
        [("Go", False), ("Go", True)],
        [("Go", False), ("Go", True)],
        [("Go", False), ("Go", True)],
        [("Go", False), ("Go", True), ("PickUp", False)],
        [("Go", False), ("Go", True), ("Wrap", False)],
        [("Go", False), ("Go", True), ("Wrap", False)],
    ]
    assert len(edges) == 15
    assert elapsed_under(t0, 1.0)
    report(1, "4-step classical plan; 6-state reachable system matches the figure")


def test_criterion_02_belief_state_layer():
    t0 = time.monotonic()
    vocab = po_vocab()
    go, tpu, wrap = belief_actions(vocab)

    def v(*names):
        return frozenset(vocab.atom(n) for n in names)

    belief = BeliefState(
        [
            v("At(Father,Home)", "At(Present,PostOffice1)"),
            v("At(Father,Home)", "At(Present,PostOffice2)"),
        ]
    )
    sequence = [
        go("Home", "PostOffice1"),
        tpu("PostOffice1"),
        go("PostOffice1", "PostOffice2"),
        tpu("PostOffice2"),
        go("PostOffice2", "Home"),
        wrap,
    ]
    cardinalities = []
    for action in sequence:
        belief = apply_belief(belief, action)
        cardinalities.append(len(belief))
    assert cardinalities == [2, 2, 2, 1, 1, 1]  # the drop happens at s4
    assert belief.valuations == frozenset(
        {v("At(Father,Home)", "Has(Father,Present)", "Wrapped(Present)")}
    )
    assert elapsed_under(t0, 1.0)
    report(2, "6-action replay reproduces the belief sequence; cardinality 2 -> 1 at s4")


def test_criterion_03_sequential_epistemic_plan(po2):
    t0 = time.monotonic()
    plan = solve_sequential(po2, 8)
    assert plan is not None and plan.steps == TWO_OFFICE_PLAN
    state = po2.initial
    for name in plan.steps:
        state = product_update(state, po2.action_named(name))
    final = bisim_contract(state)
    assert final.model.n == 1
    assert eval_state(final, po2.goal)
    assert elapsed_under(t0, 5.0)
    report(3, "planner returns the worked 6-step sequence; contracted final state is one goal world")


def test_criterion_04_link_cutting(po2):
    t0 = time.monotonic()
    father = po2.vocab.agent("Father")
    s1 = product_update(po2.initial, po2.action_named("Go(Father,Home,PostOffice1)"))
    s2 = product_update(s1, po2.action_named("TryPickUp(Father,Present,PostOffice1)"))
    assert len(s2.designated) == 2
    assert s2.model.edges[father] == frozenset()

    has = Prop(po2.vocab.atom("Has(Father,Present)"))
    assert eval_state(s2, Or(Knows(father, has), Knows(father, Not(has))))
    # The contrast with s1 shows in knowing-whether the present is at PO2:
    # false before the attempt, true after (in s1 the father trivially
    # knows he does not hold the present yet, so the Has-variant is not
    # the discriminating formula).
    at2 = Prop(po2.vocab.atom("At(Present,PostOffice2)"))
    knows_whether = Or(Knows(father, at2), Knows(father, Not(at2)))
    assert not eval_state(s1, knows_whether)
    assert eval_state(s2, knows_whether)
    assert elapsed_under(t0, 1.0)
    report(4, "pickup attempt cuts the link: structural check and knows-whether flip")


def test_criterion_05_strong_policy(po2):
    t0 = time.monotonic()
    policy = solve_policy(po2, 8)
    assert policy is not None
    result = validate_policy(po2, policy)
    assert result.ok and not result.violations
    assert sorted(e.length for e in result.executions) == [4, 6]
    assert elapsed_under(t0, 10.0)
    report(5, "strong policy found; exhaustive executions have lengths {4, 6}; zero violations")


def test_criterion_06_public_ask(po2_ask):
    t0 = time.monotonic()
    vocab = po2_ask.vocab
    father = vocab.agent("Father")
    updated = product_update(po2_ask.initial, po2_ask.action_named("AskWhetherPO1"))
    phi = Or(
        Knows(father, Prop(vocab.atom("At(Present,PostOffice1)"))),
        Knows(father, Prop(vocab.atom("At(Present,PostOffice2)"))),
    )
    assert eval_state(updated, phi)
    assert elapsed_under(t0, 1.0)
    report(6, "public ask: the father then knows which post office holds the present")


def test_criterion_07_private_ask(ask_private):
    t0 = time.monotonic()
    vocab = ask_private.vocab
    father = vocab.agent("Father")
    other = vocab.agent("Employee2")
    updated = product_update(
        ask_private.initial, ask_private.action_named("AskWhetherPO1")
    )
    p2 = Prop(vocab.atom("At(Present,PostOffice2)"))
    assert eval_state(updated, Knows(father, p2))
    assert eval_state(updated, Not(Knows(other, Knows(father, p2))))
    assert elapsed_under(t0, 1.0)
    report(7, "private ask: the father learns the location, the bystander does not notice")


def test_criterion_08_edge_conditioned_wrap(wrap_copresence):
    t0 = time.monotonic()
    task = wrap_copresence
    wrap_po = Policy.from_assignments(
        task.owner, [(task.initial, "Wrap(Father,Present,PostOffice)")]
    )
    ok = validate_policy(task, wrap_po)
    assert ok.ok and not ok.violations

    after_go = product_update(
        task.initial, task.action_named("Go(Father,PostOffice,Home)")
    )
    wrap_home = Policy.from_assignments(
        task.owner,
        [
            (task.initial, "Go(Father,PostOffice,Home)"),
            (after_go, "Wrap(Father,Present,Home)"),
        ],
    )
    bad = validate_policy(task, wrap_home)
    assert not bad.ok and bad.violations

    planned = solve_policy(task, 5)
    assert planned is not None
    assert list(planned.entries.values()) == ["Wrap(Father,Present,PostOffice)"]
    assert elapsed_under(t0, 5.0)
    report(8, "with the daughter at home, only wrapping at the post office keeps the secret")


# ---------------------------------------------------------------------------
# Criterion 9: randomized property suites, 500 fixed-seed cases each.


def test_criterion_09a_bisimulation_truth_invariance():
    t0 = time.monotonic()
    rng = random.Random(1009)
    for _ in range(500):
        vocab = gen_vocab(rng)
        state = gen_state(rng, vocab)
        phi = gen_formula(rng, vocab, 4)
        assert eval_state(state, phi) == eval_state(bisim_contract(state), phi)
    assert elapsed_under(t0, 60.0)
    report(9, "truth invariance under contraction: 500 cases, zero failures")


def test_criterion_09b_contraction_idempotence():
    t0 = time.monotonic()
    rng = random.Random(2003)
    for _ in range(500):
        vocab = gen_vocab(rng)
        state = gen_state(rng, vocab, max_worlds=5)
        once = bisim_contract(state)
        assert canonical_key(once) == canonical_key(state)
        twice = bisim_contract(once)
        assert twice.model.n == once.model.n
        assert canonical_key(twice) == canonical_key(once)
    assert elapsed_under(t0, 60.0)
    report(9, "contraction idempotence and key stability: 500 cases, zero failures")


def test_criterion_09c_belief_product_commutation():
    t0 = time.monotonic()
    rng = random.Random(3001)
    for _ in range(500):
        vocab = gen_vocab(rng)
        belief = gen_belief(rng, vocab)
        n = rng.randint(1, 3)
        events = []
        for j in range(n):
            pre = (
                gen_litconj(rng, vocab)
                if (j < n - 1 or rng.random() < 0.5)
                else LiteralConjunction()
            )
            events.append(GroundAction(f"e{j}", pre, gen_litconj(rng, vocab)))
        conditional = ConditionalAction("c", events)
        embedded = from_belief_state(vocab, belief)
        # The epistemic counterpart keeps every event indistinguishable
        # from every other (the belief level forgets which event fired).
        action = EpistemicAction(
            "c",
            vocab,
            [Event(g.name, g.pre.to_formula(), g.post) for g in events],
            range(n),
            [
                EdgeGuard(agent, u, v)
                for agent in vocab.agents
                for u in range(n)
                for v in range(n)
                if u != v
            ],
        )
        try:
            via_belief = apply_belief(belief, conditional)
            belief_ok = True
        except ModelError:
            belief_ok = False
        assert belief_ok == applicable(embedded, action)
        if belief_ok:
            assert bisimilar(
                from_belief_state(vocab, via_belief),
                product_update(embedded, action),
            )
    # The worked single-agent sequence commutes as well.
    vocab = po_vocab()
    go, tpu, wrap = belief_actions(vocab)
    belief = BeliefState(
        [
            {vocab.atom("At(Father,Home)"), vocab.atom("At(Present,PostOffice1)")},
            {vocab.atom("At(Father,Home)"), vocab.atom("At(Present,PostOffice2)")},
        ]
    )
    state = from_belief_state(vocab, belief)
    for conditional in (
        go("Home", "PostOffice1"),
        tpu("PostOffice1"),
        go("PostOffice1", "PostOffice2"),
        tpu("PostOffice2"),
        go("PostOffice2", "Home"),
        wrap,
    ):
        n = len(conditional.events)
        action = EpistemicAction(
            conditional.name,
            vocab,
            [Event(g.name, g.pre.to_formula(), g.post) for g in conditional.events],
            range(n),
            [
                EdgeGuard(agent, u, v)
                for agent in vocab.agents
                for u in range(n)
                for v in range(n)
                if u != v
            ],
        )
        belief = apply_belief(belief, conditional)
        state = product_update(state, action)
        assert bisimilar(state, from_belief_state(vocab, belief))
    assert elapsed_under(t0, 60.0)
    report(9, "belief-state/product-update commutation: 500 cases + worked sequence")


def test_criterion_09d_planner_soundness():
    t0 = time.monotonic()
    rng = random.Random(4001)
    plans = policies = 0
    for _ in range(500):
        task = gen_task(rng, max_actions=3, max_worlds=2)
        plan = solve_sequential(task, 4)
        if plan is not None:
            assert validate_plan(task, plan).ok
            plans += 1
        owned = localize(task, task.vocab.agents[0])
        policy = solve_policy(owned, 3)
        if policy is not None:
            assert validate_policy(owned, policy).ok
            policies += 1
    assert plans > 100 and policies > 100  # the suite must exercise real solutions
    assert elapsed_under(t0, 60.0)
    report(9, f"planner soundness via self-validation: 500 cases ({plans} plans, {policies} policies)")


def test_criterion_09e_planner_completeness_vs_oracle():
    t0 = time.monotonic()
    rng = random.Random(5003)

    def oracle(task, cap):
        # Independent check: enumerate all applicable action sequences
        # level by level, no deduplication, no contraction.
        if eval_state(task.initial, task.goal):
            return 0
        level = [task.initial]
        for depth in range(1, cap + 1):
            nxt = []
            for state in level:
                for action in task.actions:
                    if not applicable(state, action):
                        continue
                    succ = product_update(state, action)
                    if eval_state(succ, task.goal):
                        return depth
                    nxt.append(succ)
            if not nxt:
                return None
            level = nxt
        return None

    found = 0
    for _ in range(500):
        task = gen_task(rng, max_atoms=3, max_agents=2, max_actions=3, max_worlds=2)
        expected = oracle(task, 5)
        plan = solve_sequential(task, 5)
        assert (plan is None) == (expected is None)
        if plan is not None:
            assert len(plan) == expected
            found += 1
    assert found > 100
    assert elapsed_under(t0, 60.0)
    report(9, f"planner completeness vs exhaustive oracle at depth 5: 500 cases ({found} solutions)")


# ---------------------------------------------------------------------------
# Criterion 10: CLI determinism.


def _run_cli(args, hash_seed: str, cwd: Path) -> tuple[int, bytes, str]:
    """Run ``python -m eplan.cli`` in a child process started in ``cwd``.

    The repo's ``src/`` goes first on the child's ``PYTHONPATH`` as an
    absolute path, so the child imports this checkout's ``eplan`` whatever
    its working directory and whether or not the package is installed.
    Returns the exit code, the raw stdout and the decoded stderr.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "eplan.cli", *args],
        capture_output=True,
        env=env,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def test_criterion_10_cli_determinism(tmp_path):
    po2 = str(TASKS_DIR / "two_post_offices.eplan")
    ask = str(TASKS_DIR / "two_post_offices_ask.eplan")
    private = str(TASKS_DIR / "ask_private.eplan")
    single = str(TASKS_DIR / "birthday_single.eplan")
    wrap = str(TASKS_DIR / "wrap_copresence.eplan")

    # A policy file produced by each hash seed must itself be identical.
    produced = {}
    for seed in ("0", "1"):
        out = tmp_path / f"policy_{seed}.json"
        code, _, err = _run_cli(
            ["solve", po2, "--mode", "policy", "--max-depth", "8",
             "--format", "json", "--output", str(out)],
            seed,
            tmp_path,
        )
        assert code == 0, f"exit {code}, stderr:\n{err}"
        produced[seed] = out.read_bytes()
    assert produced["0"] == produced["1"]
    policy_file = tmp_path / "policy_0.json"

    scenarios = [
        ["solve", single, "--mode", "seq", "--max-depth", "6"],
        ["solve", po2, "--mode", "seq", "--max-depth", "8"],
        ["solve", po2, "--mode", "seq", "--max-depth", "8", "--format", "json"],
        ["solve", po2, "--mode", "policy", "--max-depth", "8"],
        ["solve", ask, "--mode", "policy", "--max-depth", "8"],
        ["solve", wrap, "--mode", "policy", "--max-depth", "5"],
        ["apply", po2, "--actions", "Go(Father,Home,PostOffice1)",
         "TryPickUp(Father,Present,PostOffice1)", "--check",
         "K[Father] Has(Father,Present) | K[Father] !Has(Father,Present)"],
        ["apply", ask, "--actions", "AskWhetherPO1", "--check",
         "K[Father] At(Present,PostOffice1) | K[Father] At(Present,PostOffice2)"],
        ["apply", private, "--actions", "AskWhetherPO1", "--check",
         "K[Father] At(Present,PostOffice2) & !K[Employee2] K[Father] At(Present,PostOffice2)"],
        ["contract", po2, "--format", "json"],
        ["check", po2, "top"],
        ["validate", po2, "--policy", str(policy_file)],
        ["execute", po2, "--policy", str(policy_file), "--seed", "1", "--start", "w2"],
        ["dot", po2],
        ["dot", private, "--action", "AskWhetherPO1"],
    ]
    for args in scenarios:
        code_a, out_a, err_a = _run_cli(args, "0", tmp_path)
        code_b, out_b, err_b = _run_cli(args, "1", tmp_path)
        assert code_a == code_b == 0, (
            f"{args}: exit {code_a} (seed 0) and {code_b} (seed 1)\n"
            f"stderr (seed 0):\n{err_a}\nstderr (seed 1):\n{err_b}"
        )
        assert out_a == out_b, args
        assert out_a  # every scenario produces output
    report(10, f"{len(scenarios)} CLI scenarios byte-identical across runs and hash seeds")
