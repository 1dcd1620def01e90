"""STRIPS grounding, propositional transitions, and belief-state planning."""

import random

import pytest

from eplan import (
    TOP,
    ActionSchema,
    BeliefState,
    ConditionalAction,
    GroundAction,
    Knows,
    LiteralConjunction,
    ModelError,
    Or,
    Prop,
    PropositionalTask,
    SchemaAtom,
    SchemaLiterals,
    Vocabulary,
    and_all,
    apply_belief,
    apply_ground,
    ground,
    reachable_system,
    solve_classical,
)
from eplan.classical import eval_prop


def birthday_vocab(extra_present=False):
    presents = ["Present", "Present2"] if extra_present else ["Present"]
    atoms = []
    for mover in ["Father"] + presents:
        for loc in ("Home", "PostOffice"):
            atoms.append(f"At({mover},{loc})")
    for p in presents:
        atoms.append(f"Has(Father,{p})")
        atoms.append(f"Wrapped({p})")
    return Vocabulary(atoms, ["Father"]), presents


def birthday_schemas():
    go = ActionSchema(
        "Go",
        [("agt", "agent"), ("from", "location"), ("to", "location")],
        SchemaLiterals([SchemaAtom("At", ["agt", "from"])]),
        SchemaLiterals(
            [SchemaAtom("At", ["agt", "to"])], [SchemaAtom("At", ["agt", "from"])]
        ),
    )
    pick = ActionSchema(
        "PickUp",
        [("agt", "agent"), ("obj", "object"), ("from", "location")],
        SchemaLiterals(
            [SchemaAtom("At", ["agt", "from"]), SchemaAtom("At", ["obj", "from"])],
            [SchemaAtom("Has", ["agt", "obj"])],
        ),
        SchemaLiterals(
            [SchemaAtom("Has", ["agt", "obj"])], [SchemaAtom("At", ["obj", "from"])]
        ),
    )
    wrap = ActionSchema(
        "Wrap",
        [("agt", "agent"), ("obj", "object")],
        SchemaLiterals(
            [SchemaAtom("Has", ["agt", "obj"])], [SchemaAtom("Wrapped", ["obj"])]
        ),
        SchemaLiterals([SchemaAtom("Wrapped", ["obj"])]),
    )
    return [go, pick, wrap]


def birthday_task(extra_present=False):
    vocab, presents = birthday_vocab(extra_present)
    objects = {
        "agent": ["Father"],
        "location": ["Home", "PostOffice"],
        "object": presents,
    }
    actions = ground(birthday_schemas(), objects, vocab)
    initial = {vocab.atom("At(Father,Home)")}
    goal_atoms = [Prop(vocab.atom("At(Father,Home)"))]
    for p in presents:
        initial.add(vocab.atom(f"At({p},PostOffice)"))
        goal_atoms.append(Prop(vocab.atom(f"Has(Father,{p})")))
        goal_atoms.append(Prop(vocab.atom(f"Wrapped({p})")))
    return PropositionalTask(vocab, actions, initial, and_all(goal_atoms))


class TestGround:
    def test_go_instances_include_self_moves(self):
        vocab, _ = birthday_vocab()
        actions = ground(
            [birthday_schemas()[0]],
            {"agent": ["Father"], "location": ["Home", "PostOffice"]},
            vocab,
        )
        names = [a.name for a in actions]
        assert names == [
            "Go(Father,Home,Home)",
            "Go(Father,Home,PostOffice)",
            "Go(Father,PostOffice,Home)",
            "Go(Father,PostOffice,PostOffice)",
        ]
        # The self-move nets to a no-op under delete-then-add.
        noop = actions[0]
        at_home = frozenset({vocab.atom("At(Father,Home)")})
        assert apply_ground(at_home, noop) == at_home

    def test_wrap_two_by_two(self):
        vocab = Vocabulary(
            [
                "Has(A,X)", "Has(A,Y)", "Has(B,X)", "Has(B,Y)",
                "Wrapped(X)", "Wrapped(Y)",
            ],
            ["A", "B"],
        )
        wrap = birthday_schemas()[2]
        actions = ground([wrap], {"agent": ["A", "B"], "object": ["X", "Y"]}, vocab)
        assert [a.name for a in actions] == [
            "Wrap(A,X)", "Wrap(A,Y)", "Wrap(B,X)", "Wrap(B,Y)",
        ]

    def test_empty_sort_rejected(self):
        vocab, _ = birthday_vocab()
        with pytest.raises(ModelError):
            ground([birthday_schemas()[0]], {"agent": [], "location": ["Home"]}, vocab)

    def test_reachable_system_matches_figure(self):
        task = birthday_task()
        vocab = task.vocab
        states, edges = reachable_system(task.actions, task.initial)
        assert len(states) == 6

        def v(*names):
            return frozenset(vocab.atom(n) for n in names)

        s1 = v("At(Father,Home)", "At(Present,PostOffice)")
        s2 = v("At(Father,PostOffice)", "At(Present,PostOffice)")
        s3 = v("At(Father,PostOffice)", "Has(Father,Present)")
        s4 = v("At(Father,Home)", "Has(Father,Present)")
        s5 = v("At(Father,Home)", "Has(Father,Present)", "Wrapped(Present)")
        s6 = v("At(Father,PostOffice)", "Has(Father,Present)", "Wrapped(Present)")
        assert set(states) == {s1, s2, s3, s4, s5, s6}
        expected = {
            (s1, "Go(Father,Home,Home)", s1),
            (s1, "Go(Father,Home,PostOffice)", s2),
            (s2, "Go(Father,PostOffice,Home)", s1),
            (s2, "Go(Father,PostOffice,PostOffice)", s2),
            (s2, "PickUp(Father,Present,PostOffice)", s3),
            (s3, "Go(Father,PostOffice,PostOffice)", s3),
            (s3, "Go(Father,PostOffice,Home)", s4),
            (s3, "Wrap(Father,Present)", s6),
            (s4, "Go(Father,Home,Home)", s4),
            (s4, "Go(Father,Home,PostOffice)", s3),
            (s4, "Wrap(Father,Present)", s5),
            (s5, "Go(Father,Home,Home)", s5),
            (s5, "Go(Father,Home,PostOffice)", s6),
            (s6, "Go(Father,PostOffice,PostOffice)", s6),
            (s6, "Go(Father,PostOffice,Home)", s5),
        }
        assert edges == expected


class TestApplyGround:
    def test_go_moves_the_father(self):
        task = birthday_task()
        vocab = task.vocab
        go = next(a for a in task.actions if a.name == "Go(Father,Home,PostOffice)")
        result = apply_ground(task.initial, go)
        assert result == {
            vocab.atom("At(Father,PostOffice)"),
            vocab.atom("At(Present,PostOffice)"),
        }

    def test_trivial_action_is_identity(self):
        vocab = Vocabulary(["p"], ["a"])
        noop = GroundAction("noop", LiteralConjunction(), LiteralConjunction())
        v = frozenset({vocab.atom("p")})
        assert apply_ground(v, noop) == v

    def test_inapplicable_returns_none(self):
        task = birthday_task()
        wrap = next(a for a in task.actions if a.name == "Wrap(Father,Present)")
        assert apply_ground(task.initial, wrap) is None

    def test_four_step_plan_reaches_goal(self):
        task = birthday_task()
        state = task.initial
        for name in (
            "Go(Father,Home,PostOffice)",
            "PickUp(Father,Present,PostOffice)",
            "Go(Father,PostOffice,Home)",
            "Wrap(Father,Present)",
        ):
            action = next(a for a in task.actions if a.name == name)
            state = apply_ground(state, action)
            assert state is not None
        assert eval_prop(state, task.goal)


def po_vocab():
    atoms = [
        "At(Father,Home)", "At(Father,PostOffice1)", "At(Father,PostOffice2)",
        "At(Present,PostOffice1)", "At(Present,PostOffice2)",
        "Has(Father,Present)", "Wrapped(Present)",
    ]
    return Vocabulary(atoms, ["Father"])


def belief_actions(vocab):
    def lc(pos=(), neg=()):
        return LiteralConjunction(
            frozenset(vocab.atom(n) for n in pos),
            frozenset(vocab.atom(n) for n in neg),
        )

    def go(frm, to):
        return ConditionalAction(
            f"Go({frm},{to})",
            [GroundAction("e", lc([f"At(Father,{frm})"]),
                          lc([f"At(Father,{to})"], [f"At(Father,{frm})"]))],
        )

    def tpu(po):
        return ConditionalAction(
            f"TryPickUp({po})",
            [
                GroundAction(
                    "take",
                    lc([f"At(Father,{po})", f"At(Present,{po})"], ["Has(Father,Present)"]),
                    lc(["Has(Father,Present)"], [f"At(Present,{po})"]),
                ),
                GroundAction(
                    "miss", lc([f"At(Father,{po})"], [f"At(Present,{po})"]), lc()
                ),
            ],
        )

    wrap = ConditionalAction(
        "Wrap",
        [GroundAction("e", lc(["Has(Father,Present)"], ["Wrapped(Present)"]),
                      lc(["Wrapped(Present)"]))],
    )
    return go, tpu, wrap


class TestApplyBelief:
    def test_worked_sequence_with_cardinality_drop(self):
        vocab = po_vocab()
        go, tpu, wrap = belief_actions(vocab)

        def v(*names):
            return frozenset(vocab.atom(n) for n in names)

        b = BeliefState(
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
        expected = [
            {v("At(Father,PostOffice1)", "At(Present,PostOffice1)"),
             v("At(Father,PostOffice1)", "At(Present,PostOffice2)")},
            {v("At(Father,PostOffice1)", "Has(Father,Present)"),
             v("At(Father,PostOffice1)", "At(Present,PostOffice2)")},
            {v("At(Father,PostOffice2)", "Has(Father,Present)"),
             v("At(Father,PostOffice2)", "At(Present,PostOffice2)")},
            {v("At(Father,PostOffice2)", "Has(Father,Present)")},
            {v("At(Father,Home)", "Has(Father,Present)")},
            {v("At(Father,Home)", "Has(Father,Present)", "Wrapped(Present)")},
        ]
        for action, want in zip(sequence, expected):
            b = apply_belief(b, action)
            assert b.valuations == frozenset(want)

    def test_skip_is_identity(self):
        vocab = po_vocab()
        skip = ConditionalAction(
            "skip", [GroundAction("e", LiteralConjunction(), LiteralConjunction())]
        )
        b = BeliefState([{vocab.atom("At(Father,Home)")}, set()])
        assert apply_belief(b, skip) == b

    def test_strong_applicability_enforced(self):
        vocab = po_vocab()
        go, _, _ = belief_actions(vocab)
        b = BeliefState([{vocab.atom("At(Father,PostOffice1)")}])
        with pytest.raises(ModelError):
            apply_belief(b, go("Home", "PostOffice1"))

    def test_single_event_matches_apply_ground_map(self):
        rng = random.Random(43)
        from conftest import gen_litconj

        vocab = Vocabulary(["p", "q", "r"], ["a"])
        for _ in range(80):
            pre, post = gen_litconj(rng, vocab), gen_litconj(rng, vocab)
            action = GroundAction("g", pre, post)
            vals = [
                frozenset(a for a in vocab.atoms if rng.random() < 0.5)
                for _ in range(rng.randint(1, 3))
            ]
            applicable_everywhere = all(pre.holds_in(v) for v in vals)
            if not applicable_everywhere:
                continue
            b = BeliefState(vals)
            got = apply_belief(b, ConditionalAction("c", [action]))
            assert got.valuations == frozenset(
                apply_ground(v, action) for v in vals
            )


def exhaustive_min_plan(task, cap):
    """Independent oracle: iterative deepening without a visited set."""

    def dfs(valuation, limit):
        if eval_prop(valuation, task.goal):
            return 0
        if limit == 0:
            return None
        best = None
        for action in task.actions:
            result = apply_ground(valuation, action)
            if result is None:
                continue
            sub = dfs(result, limit - 1)
            if sub is not None and (best is None or sub + 1 < best):
                best = sub + 1
        return best

    for limit in range(cap + 1):
        length = dfs(task.initial, limit)
        if length is not None:
            return length
    return None


class TestSolveClassical:
    def test_birthday_plan(self):
        task = birthday_task()
        assert solve_classical(task, 8) == [
            "Go(Father,Home,PostOffice)",
            "PickUp(Father,Present,PostOffice)",
            "Go(Father,PostOffice,Home)",
            "Wrap(Father,Present)",
        ]

    def test_goal_in_initial_state_gives_empty_plan(self):
        vocab = Vocabulary(["p"], ["a"])
        task = PropositionalTask(
            vocab,
            [GroundAction("g", LiteralConjunction(), LiteralConjunction())],
            {vocab.atom("p")},
            Prop(vocab.atom("p")),
        )
        assert solve_classical(task, 3) == []

    def test_two_presents_one_trip(self):
        task = birthday_task(extra_present=True)
        plan = solve_classical(task, 10)
        # BFS is its own oracle here: replay the plan it returns and also
        # cross-check the length against exhaustive iterative deepening.
        assert plan is not None
        state = task.initial
        for name in plan:
            action = next(a for a in task.actions if a.name == name)
            state = apply_ground(state, action)
            assert state is not None
        assert eval_prop(state, task.goal)
        assert len(plan) == exhaustive_min_plan(task, 7) == 6

    def test_plans_are_minimal_length(self):
        rng = random.Random(47)
        from conftest import gen_litconj

        for _ in range(40):
            vocab = Vocabulary([f"p{i}" for i in range(rng.randint(2, 4))], ["a"])
            actions = [
                GroundAction(f"g{i}", gen_litconj(rng, vocab), gen_litconj(rng, vocab))
                for i in range(rng.randint(1, 3))
            ]
            initial = frozenset(a for a in vocab.atoms if rng.random() < 0.5)
            from conftest import gen_formula

            goal = gen_formula(rng, vocab, 2)
            from eplan.logic import is_propositional

            if not is_propositional(goal):
                continue
            task = PropositionalTask(vocab, actions, initial, goal)
            plan = solve_classical(task, 5)
            oracle = exhaustive_min_plan(task, 5)
            assert (plan is None) == (oracle is None)
            if plan is not None:
                assert len(plan) == oracle

    def test_depth_cap_limits_search(self):
        task = birthday_task()
        assert solve_classical(task, 3) is None

    def test_modal_goal_rejected(self):
        vocab = Vocabulary(["p"], ["a"])
        from eplan import Knows

        with pytest.raises(ModelError):
            PropositionalTask(vocab, [], set(), Knows(vocab.agent("a"), Prop(vocab.atom("p"))))


class TestEvalProp:
    """``eval_prop`` is the epistemic truth definition at one world."""

    def test_long_conjunction_does_not_recurse(self):
        # 3,000 conjuncts nest deeper than the default recursion limit.
        vocab = Vocabulary(["p"], ["a"])
        p = vocab.atom("p")
        goal = and_all([Prop(p)] * 3000)
        assert eval_prop(frozenset({p}), goal)
        assert not eval_prop(frozenset(), goal)
        action = GroundAction("make", LiteralConjunction(), LiteralConjunction(frozenset([p])))
        task = PropositionalTask(vocab, [action], set(), goal)
        assert solve_classical(task, 2) == ["make"]

    def test_modality_rejected_before_evaluation(self):
        # `top | K[a] p` is decided by its first operand, yet K is rejected.
        vocab = Vocabulary(["p"], ["a"])
        phi = Or(TOP, Knows(vocab.agent("a"), Prop(vocab.atom("p"))))
        with pytest.raises(ModelError, match="propositional evaluation reached a modality"):
            eval_prop(frozenset(), phi)
