"""The public constructors' rejections: each invalid argument raises its
exception type with its exact message."""

import re

import pytest

from eplan import (
    ConditionalAction,
    EdgeGuard,
    EpistemicAction,
    EpistemicModel,
    EpistemicState,
    EpistemicTask,
    Event,
    GroundAction,
    LiteralConjunction,
    ModelError,
    Policy,
    Prop,
    PropositionalTask,
    TOP,
    Vocabulary,
    VocabularyError,
    VocabularyMismatchError,
    enumerate_executions,
    execute,
    export_dot,
    make_ask,
)

VOCAB = Vocabulary(["p"], ["a", "b"])
OTHER = Vocabulary(["q"], ["c"])
P = VOCAB.atom("p")
A, B = VOCAB.agents
C = OTHER.agent("c")
NONE = LiteralConjunction()
E1, E2 = Event("e1", TOP, NONE), Event("e2", TOP, NONE)
ONE_WORLD = EpistemicState(EpistemicModel(VOCAB, ["w"], [{P}]), {0})
SKIP = EpistemicAction("skip", VOCAB, [E1], {0})


def _raises(exc, message, build):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "message, build",
    [
        ("action x: needs at least one event", lambda: EpistemicAction("x", VOCAB, [], {0})),
        ("action x: designated set must be non-empty",
         lambda: EpistemicAction("x", VOCAB, [E1], ())),
        ("action x: designated event out of range: 1",
         lambda: EpistemicAction("x", VOCAB, [E1], {1})),
        ("action x: duplicate event names",
         lambda: EpistemicAction("x", VOCAB, [E1, Event("e1", TOP, NONE)], {0})),
        ("action x: edge endpoint out of range",
         lambda: EpistemicAction("x", VOCAB, [E1, E2], {0}, [EdgeGuard(A, 0, 2)])),
    ],
    ids=["no-events", "empty-designated", "designated-out-of-range", "duplicate-event-names",
         "edge-out-of-range"],
)
def test_epistemic_action_rejects(message, build):
    _raises(ModelError, message, build)


def test_epistemic_action_drops_reflexive_edges():
    action = EpistemicAction("x", VOCAB, [E1, E2], {0}, [EdgeGuard(A, 1, 1), EdgeGuard(A, 0, 1)])
    assert action.edges == (EdgeGuard(A, 0, 1),)
    assert action.guards(A) == {(0, 1): TOP}


@pytest.mark.parametrize(
    "exc, message, build",
    [
        (ModelError, "a model needs at least one world",
         lambda: EpistemicModel(VOCAB, [], [])),
        (ModelError, "labels and world names disagree in length",
         lambda: EpistemicModel(VOCAB, ["w0", "w1"], [{P}])),
        (VocabularyError, "label atom q not in vocabulary",
         lambda: EpistemicModel(VOCAB, ["w"], [{OTHER.atom("q")}])),
        (ModelError, "edge endpoint out of range: (0,1)",
         lambda: EpistemicModel(VOCAB, ["w"], [{P}], {A: [(0, 1)]})),
        (VocabularyError, "agent c not in vocabulary",
         lambda: EpistemicModel(VOCAB, ["w"], [{P}], {C: [(0, 0)]})),
    ],
    ids=["no-worlds", "label-count", "foreign-atom", "edge-out-of-range", "foreign-agent"],
)
def test_epistemic_model_rejects(exc, message, build):
    _raises(exc, message, build)


@pytest.mark.parametrize(
    "message, build",
    [
        ("designated set must be non-empty", lambda: EpistemicState(ONE_WORLD.model, ())),
        ("designated world out of range: 1", lambda: EpistemicState(ONE_WORLD.model, {1})),
    ],
    ids=["empty-designated", "designated-out-of-range"],
)
def test_epistemic_state_rejects(message, build):
    _raises(ModelError, message, build)


def _two_worlds_for(agent):
    """Two worlds that ``agent`` cannot tell apart, the first designated."""
    model = EpistemicModel(VOCAB, ["w0", "w1"], [{P}, set()], {agent: [(0, 1), (1, 0)]})
    return EpistemicState(model, {0})


# An action whose designated event e1 is linked to e2 for a: local for b
# only.
A_BLIND = EpistemicAction("blind", VOCAB, [E1, E2], {0}, [EdgeGuard(A, 0, 1)])
FOREIGN = EpistemicState(EpistemicModel(OTHER, ["w"], [set()]), {0})


@pytest.mark.parametrize(
    "exc, message, build",
    [
        (VocabularyMismatchError, "initial state uses a different vocabulary",
         lambda: EpistemicTask(VOCAB, (SKIP,), FOREIGN, TOP)),
        (VocabularyMismatchError, "action skip uses a different vocabulary",
         lambda: EpistemicTask(
             VOCAB, (EpistemicAction("skip", OTHER, [E1], {0}),), ONE_WORLD, TOP)),
        (ModelError, "duplicate action name: skip",
         lambda: EpistemicTask(VOCAB, (SKIP, SKIP), ONE_WORLD, TOP)),
        (VocabularyMismatchError, "owner c not in vocabulary",
         lambda: EpistemicTask(VOCAB, (SKIP,), ONE_WORLD, TOP, C)),
        (ModelError, "initial state is not local for owner a",
         lambda: EpistemicTask(VOCAB, (SKIP,), _two_worlds_for(A), TOP, A)),
        (ModelError, "action blind is not local for owner a",
         lambda: EpistemicTask(VOCAB, (A_BLIND,), ONE_WORLD, TOP, A)),
    ],
    ids=["foreign-initial", "foreign-action", "duplicate-action", "foreign-owner",
         "initial-not-local", "action-not-local"],
)
def test_epistemic_task_rejects(exc, message, build):
    _raises(exc, message, build)


def test_epistemic_task_takes_an_action_local_for_its_owner():
    assert EpistemicTask(VOCAB, (A_BLIND,), ONE_WORLD, TOP, B).owner == B


@pytest.mark.parametrize(
    "message, build",
    [
        ("duplicate atom name: p", lambda: Vocabulary(["p", "p"], [])),
        ("duplicate agent name: a", lambda: Vocabulary([], ["a", "a"])),
        ("unknown atom: q", lambda: VOCAB.atom("q")),
        ("unknown agent: c", lambda: VOCAB.agent("c")),
    ],
    ids=["duplicate-atom", "duplicate-agent", "unknown-atom", "unknown-agent"],
)
def test_vocabulary_rejects(message, build):
    _raises(VocabularyError, message, build)


def test_conditional_action_rejects_no_events():
    _raises(ModelError, "conditional action x: needs at least one event",
            lambda: ConditionalAction("x", ()))


NOOP = GroundAction("noop", NONE, NONE)


@pytest.mark.parametrize(
    "exc, message, build",
    [
        (VocabularyError, "initial atom q not in vocabulary",
         lambda: PropositionalTask(VOCAB, (NOOP,), {OTHER.atom("q")}, TOP)),
        (ModelError, "duplicate ground action names",
         lambda: PropositionalTask(VOCAB, (NOOP, NOOP), {P}, TOP)),
    ],
    ids=["foreign-initial-atom", "duplicate-action"],
)
def test_propositional_task_rejects(exc, message, build):
    _raises(exc, message, build)


THREE = Vocabulary(["p"], ["a", "b", "c"])
ASKER, ANSWERER, BYSTANDER = THREE.agents


@pytest.mark.parametrize(
    "message, kwargs",
    [
        ("asker and answerer must differ", {"answerer": ASKER}),
        ("overhearers must exclude asker and answerer",
         {"mode": "overheard", "overhearers": [ASKER]}),
        ("overhearers must exclude asker and answerer",
         {"mode": "overheard", "overhearers": [ANSWERER]}),
        ("unknown ask mode: loud", {"mode": "loud"}),
        ("private mode takes no overhearers", {"mode": "private", "overhearers": [BYSTANDER]}),
    ],
    ids=["asker-is-answerer", "overhearer-is-asker", "overhearer-is-answerer", "unknown-mode",
         "private-with-overhearers"],
)
def test_make_ask_rejects(message, kwargs):
    args = {"asker": ASKER, "answerer": ANSWERER, "phi": Prop(THREE.atom("p")), **kwargs}
    _raises(ModelError, message, lambda: make_ask(THREE, **args))


@pytest.mark.parametrize("walk", [execute, enumerate_executions])
def test_executions_reject_a_non_global_start(walk):
    both = _two_worlds_for(A)
    start = EpistemicState(both.model, {0, 1})
    task = EpistemicTask(VOCAB, (SKIP,), both, TOP)
    _raises(ModelError, "execution starts from a global state",
            lambda: walk(task, Policy(A), start))


@pytest.mark.parametrize("value", [ONE_WORLD.model, None], ids=["model", "none"])
def test_export_dot_rejects_what_is_not_a_state_or_an_action(value):
    _raises(TypeError, "export_dot expects a state or an action", lambda: export_dot(value))
