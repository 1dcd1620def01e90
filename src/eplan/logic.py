"""Epistemic language: vocabulary, formula AST, and the truth definition.

Formulas are evaluated against Kripke-style models that expose
``vocab``, ``labels``, ``successors(agent, world)`` and
``closure(starts, agents)`` (see :mod:`eplan.models`); keeping the evaluator
duck-typed avoids an import cycle between syntax and structures. ``&``/``|``
chains are walked without recursion, and ``Or`` is evaluated directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ConsistencyError, ModelError, VocabularyError


@dataclass(frozen=True)
class Atom:
    """An atomic proposition, interned in a :class:`Vocabulary`."""

    index: int
    name: str

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


@dataclass(frozen=True)
class Agent:
    """An agent, interned in a :class:`Vocabulary`."""

    index: int
    name: str

    def __repr__(self) -> str:
        return f"Agent({self.name!r})"


class Vocabulary:
    """The finite atom and agent tables a task is built over.

    Not a dataclass: ``__eq__`` has an identity fast path; label keys are cached.
    Immutable after construction; atoms and agents keep their declaration
    order, which fixes every deterministic ordering downstream.
    """

    __slots__ = (
        "atoms", "agents", "_atom_by_name", "_agent_by_name", "_atom_set", "_label_keys")

    def __init__(self, atom_names: Iterable[str], agent_names: Iterable[str]):
        atoms, atom_by_name = _intern(Atom, atom_names, "atom")
        agents, agent_by_name = _intern(Agent, agent_names, "agent")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "_atom_by_name", atom_by_name)
        object.__setattr__(self, "_agent_by_name", agent_by_name)
        object.__setattr__(self, "_atom_set", frozenset(atoms))
        object.__setattr__(self, "_label_keys", {})

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Vocabulary is immutable")

    def atom(self, name: str) -> Atom:
        try:
            return self._atom_by_name[name]
        except KeyError:
            raise VocabularyError(f"unknown atom: {name}") from None

    def agent(self, name: str) -> Agent:
        try:
            return self._agent_by_name[name]
        except KeyError:
            raise VocabularyError(f"unknown agent: {name}") from None

    def _label_key(self, label: frozenset[Atom]) -> tuple[int, ...]:
        """The label's atom indices, sorted; cached, as a function of the label."""
        key = self._label_keys.get(label)
        if key is None:
            key = self._label_keys[label] = tuple(sorted(a.index for a in label))
        return key

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.atoms == other.atoms and self.agents == other.agents

    def __hash__(self) -> int:
        return hash((self.atoms, self.agents))

    def __repr__(self) -> str:
        return f"Vocabulary({len(self.atoms)} atoms, {len(self.agents)} agents)"


def _intern(cls, names: Iterable[str], kind: str) -> tuple[tuple, dict]:
    """``cls(index, name)`` for each name in order, as a tuple and as a
    name -> entry table; a repeated name is a :class:`VocabularyError`."""
    table: dict = {}
    for name in names:
        if name in table:
            raise VocabularyError(f"duplicate {kind} name: {name}")
        table[name] = cls(len(table), name)
    return tuple(table.values()), table


# --------------------------------------------------------------------------
# Formula AST


class Formula:
    """Base class; concrete nodes below are frozen dataclasses. Formulas
    compare and hash by their pre-order walk, each node's type with its
    atom or agent, so a long chain needs no recursion; a node's type fixes
    its arity, so the walk fixes the tree."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or _walk(self) == _walk(other)

    def __hash__(self) -> int:
        return hash(_walk(self))


@dataclass(frozen=True, eq=False)
class Top(Formula):
    """Truth: holds at every world."""


@dataclass(frozen=True, eq=False)
class Bottom(Formula):
    """Falsity: holds at no world."""


@dataclass(frozen=True, eq=False)
class Prop(Formula):
    atom: Atom


@dataclass(frozen=True, eq=False)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    """Syntactic sugar: equivalent to Not(And(Not(left), Not(right)))."""

    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Knows(Formula):
    agent: Agent
    sub: Formula


@dataclass(frozen=True, eq=False)
class Common(Formula):
    sub: Formula


TOP = Top()
BOTTOM = Bottom()


def and_all(parts: Iterable[Formula]) -> Formula:
    """Left-fold a sequence into a conjunction, nested as the parser nests
    ``a & b & c``; the empty sequence is Top."""
    items = iter(parts)
    result = next(items, TOP)
    for part in items:
        result = And(result, part)
    return result


def _nodes(phi: Formula) -> Iterator[Formula]:
    """Every node of ``phi`` in reading order (pre-order, left to right),
    walked without recursion."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (And, Or)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, (Not, Knows, Common)):
            stack.append(node.sub)
        elif not isinstance(node, (Top, Bottom, Prop)):
            raise TypeError(f"not a formula: {node!r}")


def _walk(phi: Formula) -> tuple:
    return tuple(
        (type(node), getattr(node, "atom", None), getattr(node, "agent", None))
        for node in _nodes(phi)
    )


def is_propositional(phi: Formula) -> bool:
    """True when ``phi`` contains no knowledge modality."""
    return not any(isinstance(node, (Knows, Common)) for node in _nodes(phi))


def validate_over(vocab: Vocabulary, phi: Formula) -> None:
    """Check every atom and agent in ``phi`` is the vocabulary's own entry;
    the first foreign one in reading order is named."""
    for node in _nodes(phi):
        if isinstance(node, Prop):
            if node.atom not in vocab._atom_set:
                raise VocabularyError(f"atom {node.atom.name} not in vocabulary")
        elif isinstance(node, Knows):
            if node.agent not in vocab.agents:
                raise VocabularyError(f"agent {node.agent.name} not in vocabulary")


# Rendering uses the concrete syntax also accepted by the DSL parser:
# `!` binds tightest, then `&`, then `|`; K[agent] and C are prefix unary.

_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3


def render_formula(phi: Formula) -> str:
    return _render(phi, 0)


def _render(phi: Formula, parent_prec: int) -> str:
    if isinstance(phi, Top):
        return "top"
    if isinstance(phi, Bottom):
        return "bot"
    if isinstance(phi, Prop):
        return phi.atom.name
    if isinstance(phi, Not):
        return "!" + _render(phi.sub, _PREC_UNARY)
    if isinstance(phi, Knows):
        return f"K[{phi.agent.name}] " + _render(phi.sub, _PREC_UNARY)
    if isinstance(phi, Common):
        return "C " + _render(phi.sub, _PREC_UNARY)
    if isinstance(phi, (And, Or)):
        # The parser is left-associative, so a chain of one connective nests
        # down its left spine, walked here without recursion; right-nested
        # children keep parens.
        prec, op = (_PREC_AND, " & ") if isinstance(phi, And) else (_PREC_OR, " | ")
        rights = []
        node = phi
        while type(node) is type(phi):
            rights.append(node.right)
            node = node.left
        text = op.join([_render(node, prec)] + [_render(r, prec + 1) for r in reversed(rights)])
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"not a formula: {phi!r}")


# --------------------------------------------------------------------------
# Literal conjunctions (preconditions/effects/postconditions)


@dataclass(frozen=True)
class LiteralConjunction:
    """A conjunction of literals; the empty conjunction denotes top."""

    positives: frozenset[Atom] = field(default_factory=frozenset)
    negatives: frozenset[Atom] = field(default_factory=frozenset)

    def __post_init__(self):
        overlap = self.positives & self.negatives
        if overlap:
            names = ", ".join(sorted(a.name for a in overlap))
            raise ConsistencyError(f"contradictory literals: {names}")

    @classmethod
    def from_formula(cls, phi: Formula) -> "LiteralConjunction":
        """Read a formula of literal-conjunction shape; reject anything else."""
        pos: set[Atom] = set()
        neg: set[Atom] = set()
        stack = [phi]
        while stack:
            node = stack.pop()
            if isinstance(node, Top):
                continue
            if isinstance(node, And):
                stack.append(node.left)
                stack.append(node.right)
            elif isinstance(node, Prop):
                pos.add(node.atom)
            elif isinstance(node, Not) and isinstance(node.sub, Prop):
                neg.add(node.sub.atom)
            else:
                raise ConsistencyError(
                    f"not a conjunction of literals: {render_formula(phi)}"
                )
        return cls(frozenset(pos), frozenset(neg))

    def to_formula(self) -> Formula:
        parts: list[Formula] = [Prop(a) for a in sorted(self.positives, key=lambda a: a.index)]
        parts += [Not(Prop(a)) for a in sorted(self.negatives, key=lambda a: a.index)]
        return and_all(parts)

    def holds_in(self, valuation: frozenset[Atom]) -> bool:
        return self.positives <= valuation and not (self.negatives & valuation)

    def apply_to(self, valuation: frozenset[Atom]) -> frozenset[Atom]:
        """Delete negatives, then add positives."""
        return (valuation - self.negatives) | self.positives


# --------------------------------------------------------------------------
# Truth definition


def eval_world(model, world: int, phi: Formula) -> bool:
    """Truth at a single world of an epistemic model.

    K[i] quantifies over i's successors (relations carry an implicit
    reflexive edge, so the world itself is always included); C quantifies
    over the set reachable from ``world`` under the union of all agents'
    relations.
    """
    if not 0 <= world < len(model.labels):
        raise ModelError(f"unknown world id: {world}")
    validate_over(model.vocab, phi)
    return _eval(model, world, phi)


def _eval(model, w: int, phi: Formula) -> bool:
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, Prop):
        return phi.atom in model.labels[w]
    if isinstance(phi, Not):
        return not _eval(model, w, phi.sub)
    if isinstance(phi, (And, Or)):
        # A chain of one connective, nested either way, is walked with a
        # stack: operands in reading order, up to the first that decides it
        # (false for And, true for Or). Or is sugar for !(!left & !right).
        kind = type(phi)
        decides = kind is Or
        stack = [phi.right, phi.left]
        while stack:
            node = stack.pop()
            if type(node) is kind:
                stack += (node.right, node.left)
            elif _eval(model, w, node) is decides:
                return decides
        return not decides
    if isinstance(phi, Knows):
        return all(_eval(model, v, phi.sub) for v in model.successors(phi.agent, w))
    if isinstance(phi, Common):
        return all(_eval(model, v, phi.sub) for v in model.closure((w,), model.vocab.agents))
    raise TypeError(f"not a formula: {phi!r}")


def eval_state(state, phi: Formula) -> bool:
    """Truth in an epistemic state: truth at every designated world."""
    model = state.model
    if state.designated:
        validate_over(model.vocab, phi)
    return all(_eval(model, w, phi) for w in sorted(state.designated))
