"""Action models, applicability, product update, and the Ask family."""

import logging
import random

import pytest

import eplan.actions as actions_module
import reference_update as reference
from conftest import (
    TASK_FILES,
    gen_action,
    gen_equivalence_state,
    gen_formula,
    gen_litconj,
    gen_state,
    gen_task,
    gen_vocab,
    load_doc,
)
from eplan import (
    And,
    Common,
    EdgeGuard,
    EpistemicAction,
    EplanError,
    EpistemicState,
    Event,
    Knows,
    LiteralConjunction,
    ModelError,
    Not,
    NotApplicableError,
    Or,
    Prop,
    TOP,
    Vocabulary,
    VocabularyError,
    VocabularyMismatchError,
    applicable,
    bisim_contract,
    canonical_key,
    eval_state,
    globals_of,
    induced_action,
    is_local_for,
    local_action,
    local_state,
    make_ask,
    product_update,
)
from eplan.actions import _materialize, applicable_updates
from eplan.logic import _eval, _nodes, is_propositional
from reference_update import applicable_actions, bisimilar


@pytest.fixture
def s1(po2):
    return product_update(po2.initial, po2.action_named("Go(Father,Home,PostOffice1)"))


@pytest.fixture
def s2(po2, s1):
    return product_update(s1, po2.action_named("TryPickUp(Father,Present,PostOffice1)"))


class TestApplicable:
    def test_trypickup_applicable_at_po1(self, po2, s1):
        assert applicable(s1, po2.action_named("TryPickUp(Father,Present,PostOffice1)"))

    def test_wrap_needs_the_present(self, po2):
        # No designated world satisfies Has(Father,Present) initially.
        assert not applicable(po2.initial, po2.action_named("Wrap(Father,Present)"))

    def test_skip_always_applicable(self, po2):
        assert applicable(po2.initial, induced_action("skip", po2.vocab, TOP, LiteralConjunction()))

    def test_update_rejects_inapplicable_with_witness(self, po2):
        wrap = po2.action_named("Wrap(Father,Present)")
        with pytest.raises(NotApplicableError) as exc:
            product_update(po2.initial, wrap)
        assert exc.value.witness in po2.initial.designated

    def test_designated_worlds_are_paired_first(self, monkeypatch):
        # The designated worlds' preconditions are evaluated first, in index
        # order, so an inapplicable action stops at its witness after two
        # evaluations (both events at world 1), where pairing every world
        # with every event first took eight. An action memoizes outcomes by
        # label and a-neighbourhood, so reused it skips world 1 the second
        # time; a fresh action evaluates every world.
        vocab = Vocabulary(["p", "q"], ["a"])
        p, q, a = vocab.atom("p"), vocab.atom("q"), vocab.agent("a")
        model = _model(vocab, [{p}, set(), {p}, {p, q}], {a: [(0, 1), (1, 0), (2, 3), (3, 2)]})
        bare = LiteralConjunction()

        def fresh():
            return EpistemicAction(
                "modal", vocab,
                [Event("yes", Knows(a, Prop(p)), bare), Event("no", Knows(a, Not(Prop(p))), bare)],
                {0, 1},
            )

        action = fresh()
        evaluated = []
        original = actions_module._eval

        def counted(model, w, phi):
            evaluated.append(w)
            return original(model, w, phi)

        monkeypatch.setattr(actions_module, "_eval", counted)
        with pytest.raises(NotApplicableError) as exc:
            product_update(EpistemicState(model, {1, 2}), action)
        assert exc.value.witness == 1 and evaluated == [1, 1]
        evaluated.clear()
        assert product_update(EpistemicState(model, {2, 3}), fresh()).model.n == 2
        assert evaluated == [2, 2, 3, 3, 0, 0, 1, 1]
        evaluated.clear()
        assert product_update(EpistemicState(model, {2, 3}), action).model.n == 2
        assert evaluated == [2, 2, 3, 3, 0, 0]

    @pytest.mark.parametrize("pre", ["p", "q"])
    @pytest.mark.parametrize(
        "check", [applicable, product_update],
        ids=lambda f: f.__name__,
    )
    def test_mismatched_vocabularies_rejected(self, check, pre):
        # Preconditions are evaluated unchecked, so the shared-vocabulary
        # check is all that stops a foreign state, whether or not the
        # precondition names an atom the state lacks.
        state = EpistemicState(_model(Vocabulary(["p"], ["a"]), [set()]), {0})
        vocab = Vocabulary(["p", "q"], ["a"])
        action = EpistemicAction(
            "A", vocab, [Event("e", Prop(vocab.atom(pre)), LiteralConjunction())], {0}
        )
        with pytest.raises(VocabularyMismatchError):
            check(state, action)


class TestProductUpdate:
    def test_go_keeps_link(self, po2, s1):
        father = po2.vocab.agent("Father")
        assert s1.model.n == 2
        assert s1.designated == {0, 1}
        assert len(s1.model.edges[father]) == 2  # symmetric pair
        at_po1 = Prop(po2.vocab.atom("At(Father,PostOffice1)"))
        assert eval_state(s1, at_po1)

    def test_trypickup_cuts_link(self, po2, s2):
        father = po2.vocab.agent("Father")
        assert len(s2.designated) == 2
        assert s2.model.edges[father] == frozenset()
        has = Prop(po2.vocab.atom("Has(Father,Present)"))
        knows_whether = Or_(Knows(father, has), Knows(father, Not(has)))
        assert eval_state(s2, knows_whether)

    def test_skip_is_identity_up_to_bisimilarity(self, po2):
        skip = induced_action("skip", po2.vocab, TOP, LiteralConjunction())
        updated = product_update(po2.initial, skip)
        assert bisimilar(updated, po2.initial)

    def test_composite_world_names(self, po2, s1):
        assert s1.model.world_names[0] == "(w1,e)"

    def test_empty_product_reported(self):
        vocab = Vocabulary(["p"], ["a"])
        p = vocab.atom("p")
        state = EpistemicState(
            _model(vocab, [set()]), {0}
        )
        # The single event requires p, which holds nowhere, so even the
        # non-designated part of the product is empty.
        action = EpistemicAction(
            "impossible", vocab, [Event("e", Prop(p), LiteralConjunction())], {0}
        )
        with pytest.raises(NotApplicableError):
            product_update(state, action)

    def test_designated_projection(self):
        rng = random.Random(23)
        for _ in range(60):
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab)
            action = gen_action(rng, vocab, 0)
            if not applicable(state, action):
                continue
            product = product_update(state, action)
            for w in product.designated:
                name = product.model.world_names[w]
                src_world, src_event = name[1:-1].rsplit(",", 1)
                assert src_world in [
                    state.model.world_names[d] for d in state.designated
                ]
                assert src_event in [
                    action.events[e].name for e in action.designated
                ]

    def test_equivalence_preserved_without_guards(self):
        rng = random.Random(27)
        checked = 0
        while checked < 50:
            vocab = gen_vocab(rng)
            state = gen_equivalence_state(rng, vocab)
            action = _equivalence_action(rng, vocab)
            if not applicable(state, action):
                continue
            product = product_update(state, action)
            for agent in vocab.agents:
                # S5 on the successor rows: every world in u's row has u's row.
                rows = [product.model.successors(agent, w) for w in range(product.model.n)]
                assert all(rows[v] == rows[u] for u in range(len(rows)) for v in rows[u])
            checked += 1

    def test_locality_preserved(self):
        rng = random.Random(33)
        checked = 0
        while checked < 50:
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab)
            action = gen_action(rng, vocab, 0)
            agent = rng.choice(vocab.agents)
            state = local_state(state, agent)
            action = local_action(action, agent)
            if not applicable(state, action):
                continue
            product = product_update(state, action)
            assert is_local_for(product, agent)
            checked += 1

    def test_pure_announcements_preserve_labels(self):
        rng = random.Random(39)
        checked = 0
        while checked < 50:
            vocab = gen_vocab(rng)
            state = gen_state(rng, vocab)
            action = gen_action(rng, vocab, 0)
            # Strip the postconditions: a pure announcement.
            action = EpistemicAction(
                action.name,
                vocab,
                [Event(e.name, e.pre, LiteralConjunction()) for e in action.events],
                action.designated,
                action.edges,
            )
            if not applicable(state, action):
                continue
            product = product_update(state, action)
            assert product.model.n <= state.model.n * len(action.events)
            for w in range(product.model.n):
                name = product.model.world_names[w]
                src_world = name[1:-1].rsplit(",", 1)[0]
                src = state.model.world_names.index(src_world)
                assert product.model.labels[w] == state.model.labels[src]
            checked += 1


def Or_(left, right):
    from eplan import Or

    return Or(left, right)


def _model(vocab, labels, edges=None):
    from eplan import EpistemicModel

    names = [f"w{i}" for i in range(len(labels))]
    return EpistemicModel(vocab, names, labels, edges or {})


def _equivalence_action(rng, vocab):
    n = rng.randint(1, 2)
    events = []
    from conftest import gen_litconj

    for i in range(n):
        events.append(Event(f"e{i}", gen_litconj(rng, vocab).to_formula(), gen_litconj(rng, vocab)))
    edges = []
    if n == 2 and rng.random() < 0.5:
        for agent in vocab.agents:
            if rng.random() < 0.5:
                edges.append(EdgeGuard(agent, 0, 1))
                edges.append(EdgeGuard(agent, 1, 0))
    designated = rng.sample(range(n), rng.randint(1, n))
    return EpistemicAction("eq", vocab, events, designated, edges)


class TestLocalAction:
    def test_trypickup_already_local(self, po2):
        father = po2.vocab.agent("Father")
        tpu = po2.action_named("TryPickUp(Father,Present,PostOffice1)")
        assert local_action(tpu, father) == tpu

    def test_identity_relation_unchanged(self, po2):
        father = po2.vocab.agent("Father")
        go = po2.action_named("Go(Father,Home,PostOffice1)")
        assert local_action(go, father) == go

    def test_public_ask_events_distinguishable(self, po2_ask):
        father = po2_ask.vocab.agent("Father")
        ask = po2_ask.action_named("AskWhetherPO1")
        narrowed = EpistemicAction(ask.name, ask.vocab, ask.events, {0}, ask.edges)
        assert ask.events[0].name == "yes"
        assert local_action(narrowed, father).designated == {0}

    def test_closure_follows_event_edges(self):
        vocab = Vocabulary(["p"], ["a", "b"])
        a = vocab.agent("a")
        events = [Event("x", TOP, LiteralConjunction()), Event("y", TOP, LiteralConjunction())]
        action = EpistemicAction("m", vocab, events, {0}, [EdgeGuard(a, 0, 1)])
        assert local_action(action, a).designated == {0, 1}
        assert local_action(action, vocab.agent("b")).designated == {0}

    def test_closure_ignores_guarded_edges(self, caplog):
        vocab = Vocabulary(["p"], ["a", "b"])
        a, b = vocab.agents
        events = [Event(n, TOP, LiteralConjunction()) for n in ("x", "y", "z", "g")]
        edges = [
            EdgeGuard(a, 0, 1),
            EdgeGuard(a, 1, 2),
            EdgeGuard(a, 0, 3, Prop(vocab.atom("p"))),
        ]
        action = EpistemicAction("m", vocab, events, {0}, edges)
        with caplog.at_level(logging.DEBUG, logger="eplan.actions"):
            assert local_action(action, a).designated == {0, 1, 2}
            assert action.is_local_for(a) == (local_action(action, a) is action)
        assert "event closure for a ignores non-trivial guards" in caplog.text
        assert action.is_local_for(b) and local_action(action, b) is action
        stranger = Vocabulary([], ["z"]).agents[0]  # same index as a, other name
        for call in (action.is_local_for, action.guards, lambda x: local_action(action, x)):
            with pytest.raises(VocabularyError):
                call(stranger)

    def test_is_local_for_agrees_with_local_action(self):
        actions = [a for name in TASK_FILES for a in load_doc(name).task.actions]
        rng = random.Random(17)
        for index in range(200):
            vocab = gen_vocab(rng)
            actions.append(gen_action(rng, vocab, index, max_events=3))
        seen = set()
        for action in actions:
            for agent in action.vocab.agents:
                local = action.is_local_for(agent)
                assert local == (local_action(action, agent) is action)
                seen.add(local)
        assert seen == {True, False}


class TestInducedAction:
    def test_go_from_pre_post(self, po2):
        vocab = po2.vocab
        pre = LiteralConjunction(frozenset({vocab.atom("At(Father,Home)")}), frozenset())
        post = LiteralConjunction(
            frozenset({vocab.atom("At(Father,PostOffice1)")}),
            frozenset({vocab.atom("At(Father,Home)")}),
        )
        action = induced_action("Go", vocab, pre, post)
        assert len(action.events) == 1
        assert action.designated == {0}
        assert action.edges == ()
        assert action.events[0].pre == pre.to_formula()

    def test_skip_shape(self, po2):
        action = induced_action("skip", po2.vocab, TOP, LiteralConjunction())
        assert len(action.events) == 1
        assert action.events[0].pre == TOP
        assert action.events[0].post == LiteralConjunction()

    def test_matches_dsl_grounded_action(self, po2):
        vocab = po2.vocab
        pre = LiteralConjunction(frozenset({vocab.atom("Has(Father,Present)")}),
                                 frozenset({vocab.atom("Wrapped(Present)")}))
        post = LiteralConjunction(frozenset({vocab.atom("Wrapped(Present)")}), frozenset())
        built = induced_action("Wrap(Father,Present)", vocab, pre, post)
        assert built == po2.action_named("Wrap(Father,Present)")


class TestMakeAsk:
    def test_public_shape(self, po2_ask):
        vocab = po2_ask.vocab
        ask = make_ask(
            vocab,
            vocab.agent("Father"),
            vocab.agent("Employee"),
            Prop(vocab.atom("At(Present,PostOffice1)")),
        )
        assert len(ask.events) == 3
        assert ask.designated == {0, 1, 2}
        assert ask.edges == ()

    def test_public_ask_cuts_link(self, po2_ask):
        vocab = po2_ask.vocab
        father = vocab.agent("Father")
        ask = make_ask(
            vocab, father, vocab.agent("Employee"),
            Prop(vocab.atom("At(Present,PostOffice1)")),
        )
        updated = product_update(po2_ask.initial, ask)
        p1 = Prop(vocab.atom("At(Present,PostOffice1)"))
        p2 = Prop(vocab.atom("At(Present,PostOffice2)"))
        assert eval_state(updated, Or_(Knows(father, p1), Knows(father, p2)))

    def test_private_without_bystanders_matches_public(self, po2_ask):
        vocab = po2_ask.vocab
        phi = Prop(vocab.atom("At(Present,PostOffice1)"))
        father, employee = vocab.agent("Father"), vocab.agent("Employee")
        public = make_ask(vocab, father, employee, phi, mode="public")
        private = make_ask(vocab, father, employee, phi, mode="private")
        a = product_update(po2_ask.initial, public)
        b = product_update(po2_ask.initial, private)
        assert bisimilar(bisim_contract(a), bisim_contract(b))

    def test_private_hides_the_call(self, ask_private):
        vocab = ask_private.vocab
        phi = Prop(vocab.atom("At(Present,PostOffice1)"))
        ask = make_ask(
            vocab, vocab.agent("Father"), vocab.agent("Employee"), phi, mode="private"
        )
        assert len(ask.events) == 4
        assert ask.designated == {0, 1, 2}
        # Only Employee2 is a bystander; each answer points it to skip.
        assert len(ask.edges) == 3
        assert all(g.agent.name == "Employee2" and g.target == 3 for g in ask.edges)
        updated = product_update(ask_private.initial, ask)
        father = vocab.agent("Father")
        p2 = Prop(vocab.atom("At(Present,PostOffice2)"))
        e2 = vocab.agent("Employee2")
        assert eval_state(updated, Knows(father, p2))
        assert eval_state(updated, Not(Knows(e2, Knows(father, p2))))

    def test_private_matches_dsl_action(self, ask_private):
        vocab = ask_private.vocab
        phi = Prop(vocab.atom("At(Present,PostOffice1)"))
        ask = make_ask(
            vocab, vocab.agent("Father"), vocab.agent("Employee"), phi, mode="private"
        )
        a = product_update(ask_private.initial, ask)
        b = product_update(ask_private.initial, ask_private.action_named("AskWhetherPO1"))
        assert bisimilar(a, b)

    def test_overheard_links_answers(self, ask_private):
        vocab = ask_private.vocab
        phi = Prop(vocab.atom("At(Present,PostOffice1)"))
        e2 = vocab.agent("Employee2")
        ask = make_ask(
            vocab,
            vocab.agent("Father"),
            vocab.agent("Employee"),
            phi,
            mode="overheard",
            overhearers={e2},
        )
        # Employee2 hears the question: links among the three answers, and
        # no outsiders remain to point at skip.
        pairs = {(g.source, g.target) for g in ask.edges if g.agent == e2}
        assert pairs == {(a, b) for a in range(3) for b in range(3) if a != b}
        updated = product_update(ask_private.initial, ask)
        father = vocab.agent("Father")
        p2 = Prop(vocab.atom("At(Present,PostOffice2)"))
        # The overhearer knows the call happened but not the answer, so it
        # now knows that the father knows whether the present is at PO2.
        knows_whether = Or_(Knows(father, p2), Knows(father, Not(p2)))
        assert eval_state(updated, Knows(e2, knows_whether))
        assert eval_state(updated, Not(Knows(e2, Knows(father, p2))))

    def test_overheard_with_remaining_outsiders(self):
        # Four agents: asker, answerer, one overhearer, one outsider. The
        # overhearer links the answers; the outsider still points to skip.
        vocab = Vocabulary(["p"], ["i", "j", "x", "y"])
        i, j, x, y = vocab.agents
        ask = make_ask(vocab, i, j, Prop(vocab.atom("p")), mode="overheard",
                       overhearers={x})
        x_pairs = {(g.source, g.target) for g in ask.edges if g.agent == x}
        y_pairs = {(g.source, g.target) for g in ask.edges if g.agent == y}
        assert x_pairs == {(a, b) for a in range(3) for b in range(3) if a != b}
        assert y_pairs == {(a, 3) for a in range(3)}

    def test_self_ask_rejected(self, po2_ask):
        vocab = po2_ask.vocab
        father = vocab.agent("Father")
        with pytest.raises(ModelError):
            make_ask(vocab, father, father, TOP)


class TestGuards:
    def test_guard_evaluated_at_source_world(self, wrap_copresence):
        task = wrap_copresence
        vocab = task.vocab
        daughter = vocab.agent("Daughter")
        wrap_po = task.action_named("Wrap(Father,Present,PostOffice)")
        updated = product_update(task.initial, wrap_po)
        # The daughter is at home, so her guard (absent from the post
        # office) holds and she is shunted to the skip worlds: she learns
        # nothing new about the present.
        has = Prop(vocab.atom("Has(Father,Present)"))
        assert eval_state(updated, Not(Knows(daughter, has)))
        wrapped = Prop(vocab.atom("Wrapped(Present)"))
        assert eval_state(updated, wrapped)
        assert eval_state(updated, Not(Knows(daughter, wrapped)))

    def test_failed_guard_keeps_observers_informed(self, wrap_copresence):
        task = wrap_copresence
        vocab = task.vocab
        daughter = vocab.agent("Daughter")
        go_home = task.action_named("Go(Father,PostOffice,Home)")
        wrap_home = task.action_named("Wrap(Father,Present,Home)")
        at_home = product_update(task.initial, go_home)
        updated = product_update(at_home, wrap_home)
        has = Prop(vocab.atom("Has(Father,Present)"))
        assert eval_state(updated, Knows(daughter, has))

    def test_missing_edge_differs_from_false_guard(self):
        vocab = Vocabulary(["p"], ["a"])
        a = vocab.agent("a")
        events = [Event("x", TOP, LiteralConjunction()), Event("y", TOP, LiteralConjunction())]
        guarded = EpistemicAction(
            "g", vocab, events, {0}, [EdgeGuard(a, 0, 1, Not(TOP))]
        )
        bare = EpistemicAction("g", vocab, events, {0})
        assert guarded != bare
        assert len(guarded.edges) == 1

    def test_duplicate_edges_rejected(self):
        vocab = Vocabulary(["p"], ["a"])
        a = vocab.agent("a")
        events = [Event("x", TOP, LiteralConjunction()), Event("y", TOP, LiteralConjunction())]
        with pytest.raises(ModelError):
            EpistemicAction(
                "g", vocab, events, {0},
                [EdgeGuard(a, 0, 1), EdgeGuard(a, 0, 1, Not(TOP))],
            )


def _assert_matches_reference(state, action):
    """Applicability, the product update or its witness, contraction and keys
    equal the pre-compiled code of ``tests/reference_update.py``. The
    library and the reference each get their own product, since
    contraction marks models minimal."""
    assert applicable(state, action) == (reference.inapplicable_witness(state, action) is None)
    try:
        expected = reference.product_update(state, action)
    except EplanError as exc:
        with pytest.raises(type(exc)) as got:
            product_update(state, action)
        assert type(got.value) is type(exc)
        assert getattr(got.value, "witness", None) == getattr(exc, "witness", None)
        assert str(got.value) == str(exc)
        return
    updated = product_update(state, action)
    assert updated == expected
    assert updated.model.world_names == expected.model.world_names
    pairs = [(updated, expected)] + list(zip(globals_of(updated), globals_of(expected)))
    for ours, theirs in pairs:
        contracted, oracle = bisim_contract(ours), reference.bisim_contract(theirs)
        assert contracted == oracle
        assert contracted.model.world_names == oracle.model.world_names
        assert canonical_key(ours) == reference.canonical_key(theirs)
        assert canonical_key(contracted) == reference.canonical_key(oracle)


def _crafted_cases():
    """Shapes the generated tasks miss: a contradictory literal precondition,
    a non-top guard, a K precondition, unreachable worlds with distinct
    labels, and equal-label worlds that are not bisimilar."""
    vocab = Vocabulary(["p", "q"], ["a", "b"])
    p, q = Prop(vocab.atom("p")), Prop(vocab.atom("q"))
    a, b = vocab.agent("a"), vocab.agent("b")
    bare = LiteralConjunction()
    chain = EpistemicState(
        _model(vocab, [{p.atom}, set(), {q.atom}, {p.atom, q.atom}],
               {a: [(0, 1), (1, 0)], b: [(1, 2)]}),
        {0},
    )
    twins = EpistemicState(
        _model(vocab, [{p.atom}, {p.atom}, {q.atom}, set()],
               {a: [(0, 2), (1, 3)], b: [(0, 1), (1, 0)]}),
        {0, 1},
    )
    contradictory = EpistemicAction(
        "contradictory", vocab,
        [Event("x", And(p, Not(p)), bare), Event("y", TOP, bare)], {1},
        [EdgeGuard(a, 1, 0)],
    )
    contradictory_designated = EpistemicAction(
        "contradictory_designated", vocab, [Event("x", And(p, Not(p)), bare)], {0}
    )
    guarded = EpistemicAction(
        "guarded", vocab,
        [Event("x", TOP, LiteralConjunction(frozenset([q.atom]))), Event("y", Not(q), bare)], {0},
        [EdgeGuard(a, 0, 1, p), EdgeGuard(b, 0, 1, Knows(a, p)), EdgeGuard(b, 1, 0)],
    )
    modal = EpistemicAction(
        "modal", vocab,
        [Event("yes", Knows(a, p), bare), Event("no", Not(Knows(a, p)), bare)], {0, 1},
    )
    known = EpistemicAction("known", vocab, [Event("x", Knows(b, q), bare)], {0})
    skip = induced_action("skip", vocab, TOP, LiteralConjunction())
    states = {"chain": chain, "twins": twins}
    actions = [contradictory, contradictory_designated, guarded, modal, known, skip]
    return [
        pytest.param(state, action, id=f"{name}-{action.name}")
        for name, state in states.items()
        for action in actions
    ]


class TestReferenceOracle:
    def test_generated_pairs_match_reference(self):
        rng = random.Random(71)
        pairs = 0
        while pairs < 500:
            task = gen_task(rng, max_worlds=4)
            for action in task.actions:
                _assert_matches_reference(task.initial, action)
                pairs += 1
                if applicable(task.initial, action):
                    # A second step starts from a contracted (minimal) model.
                    after = bisim_contract(product_update(task.initial, action))
                    _assert_matches_reference(after, rng.choice(task.actions))

    @pytest.mark.parametrize("state, action", _crafted_cases())
    def test_crafted_cases_match_reference(self, state, action):
        _assert_matches_reference(state, action)
        for designated in ({0}, {1}, {2}, {0, 3}):
            sub = EpistemicState(state.model, designated)
            same = EpistemicState(
                _model(state.model.vocab, state.model.labels, state.model.edges), designated
            )
            assert bisim_contract(sub) == reference.bisim_contract(same)
            assert bisim_contract(sub).model.world_names == (
                reference.bisim_contract(same).model.world_names
            )
            assert canonical_key(sub) == reference.canonical_key(same)

    def test_private_ask_chain_matches_reference(self, ask_private):
        # One to eight private asks: the eighth builds 512 worlds and 13,122
        # Employee2 edges, the largest state a bundled task reaches.
        ask = ask_private.action_named("AskWhetherPO1")
        state = ask_private.initial
        for _ in range(8):
            updated, expected = product_update(state, ask), reference.product_update(state, ask)
            assert updated == expected
            assert updated.model.world_names == expected.model.world_names
            contracted, oracle = bisim_contract(updated), reference.bisim_contract(expected)
            assert contracted == oracle
            assert contracted.model.world_names == oracle.model.world_names
            assert canonical_key(updated) == reference.canonical_key(expected)
            state = updated
        employee2 = ask_private.vocab.agent("Employee2")
        assert state.model.n == 512 and len(state.model.edges[employee2]) == 13122


def _direct_outcome(action, model, w):
    """The events of ``action`` whose precondition holds at ``w``, each
    evaluated at ``w``, and their post-labels: ``_outcome`` without a memo."""
    label = model.labels[w]
    events = tuple(e for e, event in enumerate(action.events) if _eval(model, w, event.pre))
    return events, tuple(action.events[e].post.apply_to(label) for e in events)


def _one_level(phi):
    """True when ``phi`` is a Boolean combination of literals and ``K[a] psi``
    with ``psi`` propositional."""
    if isinstance(phi, Knows):
        return is_propositional(phi.sub)
    if isinstance(phi, Common):
        return False
    if isinstance(phi, Not):
        return _one_level(phi.sub)
    if isinstance(phi, (And, Or)):
        return _one_level(phi.left) and _one_level(phi.right)
    return True


class TestOutcomeMemo:
    """``_outcome`` memoized by label and per-agent successor labels gives
    what evaluating every precondition at the world gives, across models
    that share an action; a precondition with ``C`` or a nested ``K``
    keeps the per-world path."""

    def gen_pre(self, rng, vocab):
        a, b = rng.choice(vocab.agents), rng.choice(vocab.agents)
        p, q = Prop(rng.choice(vocab.atoms)), Prop(rng.choice(vocab.atoms))
        return rng.choice([
            lambda: gen_litconj(rng, vocab).to_formula(),
            lambda: gen_formula(rng, vocab, 2),
            lambda: Knows(a, Or(p, Not(q))),
            lambda: Or(Not(Knows(a, p)), And(q, Knows(b, Not(p)))),
            lambda: Knows(a, Knows(b, p)),
            lambda: And(p, Common(Or(p, q))),
        ])()

    def test_memoized_outcomes_equal_direct_evaluation(self):
        rng = random.Random(131)
        seen = {"pairs": 0, "hits": 0, "k_of_or": 0, "no_edges": 0, "per_world": 0}
        while seen["pairs"] < 1200:
            vocab = gen_vocab(rng, max_atoms=3, max_agents=3)
            events = [
                Event(f"e{i}", self.gen_pre(rng, vocab), gen_litconj(rng, vocab))
                for i in range(rng.randint(1, 3))
            ]
            action = EpistemicAction("memo", vocab, events, {0})
            memoized = all(_one_level(event.pre) for event in events)
            assert (action._outcomes is not None) == memoized
            k_of_or = memoized and any(
                isinstance(node, Knows) and isinstance(node.sub, Or)
                for event in events for node in _nodes(event.pre)
            )
            for _ in range(6):
                seen["per_world"] += not memoized
                seen["k_of_or"] += k_of_or
                model = gen_state(rng, vocab, max_worlds=4).model
                if rng.random() < 0.3:  # an agent with no edges
                    bare = rng.choice(vocab.agents)
                    model = _model(vocab, model.labels, {
                        agent: edges for agent, edges in model.edges.items() if agent != bare
                    })
                seen["no_edges"] += any(not edges for edges in model.edges.values())
                for w in range(model.n):
                    before = None if action._outcomes is None else len(action._outcomes)
                    got = actions_module._outcome(action, model, w)
                    assert got == _direct_outcome(action, model, w)
                    seen["hits"] += before is not None and before == len(action._outcomes)
                seen["pairs"] += 1
        assert min(seen.values()) > 100, seen


def _filtered(state, actions):
    """The per-action applicability test that the node filter replaces."""
    return [a for a in actions if applicable(state, a)]


def _updated(state, actions):
    """The actions ``applicable_updates`` finds applicable."""
    return [action for action, _, _ in applicable_updates(state, actions)]


def _applicability_cases():
    """Preconditions the required-atom filter must not misjudge: a K
    precondition, a contradiction, a negative-only literal, designated
    events that share an atom and events that do not."""
    vocab = Vocabulary(["p", "q", "r"], ["a", "b"])
    p, q, r = (Prop(vocab.atom(n)) for n in "pqr")
    a = vocab.agent("a")
    bare = LiteralConjunction()
    model = _model(
        vocab,
        [{p.atom, q.atom}, {q.atom}, {p.atom, r.atom}, set()],
        {a: [(0, 1), (1, 0), (2, 3)]},
    )
    states = [EpistemicState(model, d) for d in ({0}, {1}, {2}, {3}, {0, 1}, {0, 2}, {1, 3})]

    def action(name, *pres, designated=None):
        events = [Event(f"e{i}", pre, bare) for i, pre in enumerate(pres)]
        return EpistemicAction(name, vocab, events, designated or range(len(events)))

    actions = [
        action("knows", Knows(a, q)),
        action("knows_and_literal", And(p, Knows(a, q)), q),
        action("contradiction", And(p, Not(p))),
        action("negative_only", Not(r)),
        action("shared_q", And(p, q), q),
        action("lacks_shared", And(p, q), r),
        action("one_designated", And(p, r), q, designated={1}),
        action("top", TOP),
    ]
    return states, actions


class TestApplicableActions:
    def test_required_atoms(self):
        _, actions = _applicability_cases()
        must = {action.name: {atom.name for atom in action._must} for action in actions}
        assert must == {
            "knows": set(),
            "knows_and_literal": set(),
            "contradiction": set(),
            "negative_only": set(),
            "shared_q": {"q"},
            "lacks_shared": set(),
            "one_designated": {"q"},
            "top": set(),
        }

    def test_crafted_cases_match_per_action_test(self):
        states, actions = _applicability_cases()
        hits = 0
        for state in states:
            expected = _filtered(state, actions)
            assert _updated(state, actions) == expected
            assert applicable_actions(state, actions) == expected
            hits += len(expected)
        assert 0 < hits < len(states) * len(actions)

    def test_generated_tasks_match_per_action_test(self):
        # Against the per-action test and the filter the searches used
        # before (``reference_update.applicable_actions``); each pairing
        # materializes to the product update of its action.
        rng = random.Random(73)
        for _ in range(500):
            task = gen_task(rng, max_agents=3, max_worlds=4)
            states = [task.initial]
            for action in applicable_actions(task.initial, task.actions):
                states.append(product_update(task.initial, action))
                states.append(bisim_contract(states[-1]))
            for state in states:
                expected = _filtered(state, task.actions)
                assert applicable_actions(state, task.actions) == expected
                assert _updated(state, task.actions) == expected
                for action, shape, pairs in applicable_updates(state, task.actions):
                    assert _materialize(state, action, shape, pairs) == product_update(state, action)

    def test_mismatched_vocabulary_raises_even_when_filtered(self):
        states, actions = _applicability_cases()
        other = Vocabulary(["p", "q", "r", "s"], ["a", "b"])
        s = Prop(other.atom("s"))
        foreign = EpistemicAction(
            "foreign", other, [Event("e", s, LiteralConjunction())], {0}
        )
        assert foreign._must == {other.atom("s")}
        for state in states:
            with pytest.raises(VocabularyMismatchError):
                _updated(state, actions + [foreign])
