"""The value classes: immutable after construction, equal by fields or by
identity, and with fixed reprs."""

import pytest

from eplan import (
    TOP,
    ActionSchema,
    BeliefState,
    ConditionalAction,
    EdgeGuard,
    EpistemicModel,
    EpistemicState,
    EpistemicTask,
    Event,
    GroundAction,
    LiteralConjunction,
    PropositionalTask,
    SchemaAtom,
    SchemaLiterals,
    Vocabulary,
)

VOCAB = Vocabulary(["p"], ["a"])
MODEL = EpistemicModel(VOCAB, ["w"], [set()])
EMPTY = LiteralConjunction()
GROUND = GroundAction("g", EMPTY, EMPTY)
NO_LITERALS = SchemaLiterals()

# (build one value, a field to assign, "fields" or "identity" equality,
# the repr, or None for object's default repr)
CASES = {
    "Event": (lambda: Event("e", TOP, EMPTY), "name", "fields", "Event('e')"),
    "EdgeGuard": (
        lambda: EdgeGuard(VOCAB.agent("a"), 0, 1), "target", "fields", "EdgeGuard(a, 0->1)",
    ),
    "SchemaAtom": (lambda: SchemaAtom("At", ["x", "y"]), "args", "fields", "At(x,y)"),
    "SchemaLiterals": (
        lambda: SchemaLiterals([SchemaAtom("At", ["x"])]), "positives", "identity", None,
    ),
    "ActionSchema": (
        lambda: ActionSchema("Go", [("x", "agent")], NO_LITERALS, NO_LITERALS),
        "name", "identity", "ActionSchema(Go(x:agent))",
    ),
    "GroundAction": (lambda: GroundAction("g", EMPTY, EMPTY), "pre", "fields", "GroundAction('g')"),
    "ConditionalAction": (
        lambda: ConditionalAction("c", [GROUND]), "events", "identity",
        "ConditionalAction('c', 1 events)",
    ),
    "PropositionalTask": (
        lambda: PropositionalTask(VOCAB, [GROUND], [], TOP), "goal", "identity", None,
    ),
    "EpistemicState": (
        lambda: EpistemicState(MODEL, {0}), "designated", "fields",
        "EpistemicState(1 worlds, designated w)",
    ),
    "BeliefState": (
        lambda: BeliefState([[VOCAB.atom("p")]]), "valuations", "fields",
        "BeliefState(1 valuations)",
    ),
    "EpistemicTask": (
        lambda: EpistemicTask(VOCAB, (), EpistemicState(MODEL, {0}), TOP), "goal", "fields",
        "EpistemicTask(0 actions, owner=None)",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_value_class_contract(name):
    build, attribute, equality, text = CASES[name]
    value, twin = build(), build()
    with pytest.raises(AttributeError):
        setattr(value, attribute, getattr(twin, attribute))
    # A name that is not a field is refused too; a frozen slotted dataclass
    # raises TypeError for it on CPython 3.11 and older.
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1
    assert value == value
    assert (value == twin) is (equality == "fields")
    assert repr(value) == (object.__repr__(value) if text is None else text)
