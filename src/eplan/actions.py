"""Action models and product update.

Events carry a formula precondition and a literal-conjunction postcondition.
Per-agent event edges are directed and may carry a formula guard (an
unconditioned action model is the special case where every guard is top);
reflexive top-guarded loops are implicit for all agents, mirroring state
relations. A missing edge is distinct from a guarded edge whose condition
never holds only in that the latter round-trips through the DSL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ConsistencyError,
    ModelError,
    NotApplicableError,
    VocabularyError,
    VocabularyMismatchError,
)
from .logic import (
    TOP,
    Agent,
    And,
    Common,
    Formula,
    Knows,
    LiteralConjunction,
    Not,
    Top,
    Vocabulary,
    _eval,
    _nodes,
    is_propositional,
    render_formula,
    validate_over,
)
from .models import EpistemicModel, EpistemicState


@dataclass(frozen=True, slots=True, repr=False)
class Event:
    """A possible outcome of an action: what must hold, what changes."""

    name: str
    pre: Formula
    post: LiteralConjunction

    def __repr__(self) -> str:
        return f"Event({self.name!r})"


@dataclass(frozen=True, slots=True, repr=False)
class EdgeGuard:
    """A directed agent edge between events, present when ``condition``
    holds at the source world of the pair being linked."""

    agent: Agent
    source: int
    target: int
    condition: Formula = TOP

    def __repr__(self) -> str:
        return f"EdgeGuard({self.agent.name}, {self.source}->{self.target})"


class EpistemicAction:
    """An action model plus a non-empty set of designated events.

    Not a dataclass: most of its slots are tables compiled from the arguments.
    When it is built, each precondition of literal-conjunction shape is
    compiled to its literals, and each agent's guarded edges are indexed by
    source event, with top guards stored as None. ``_must`` holds the atoms
    that every designated event's compiled precondition requires (empty when
    one is not compiled): a designated world lacking one of them satisfies no
    designated event. ``_outcomes`` memoizes :func:`_outcome`, a cache that
    only gains entries, when every precondition that is not compiled is
    one-level: a Boolean combination of literals and ``K[a] psi`` with
    ``psi`` propositional. Its key is a world's label and, per agent of
    ``_modal`` (the indices of the agents such a ``K`` names, ascending),
    the frozenset of the labels of the world's successors. A precondition
    with ``C`` or a nested ``K`` leaves ``_outcomes`` None and ``_modal``
    empty, and every world is evaluated."""

    __slots__ = (
        "name", "vocab", "events", "designated", "edges", "_pre", "_out", "_must",
        "_outcomes", "_modal",
    )

    def __init__(
        self,
        name: str,
        vocab: Vocabulary,
        events: Sequence[Event],
        designated: Iterable[int],
        edges: Iterable[EdgeGuard] = (),
    ):
        if not events:
            raise ModelError(f"action {name}: needs at least one event")
        des = frozenset(designated)
        if not des:
            raise ModelError(f"action {name}: designated set must be non-empty")
        n = len(events)
        for e in des:
            if not 0 <= e < n:
                raise ModelError(f"action {name}: designated event out of range: {e}")
        names = [e.name for e in events]
        if len(set(names)) != n:
            raise ModelError(f"action {name}: duplicate event names")
        pres: list[LiteralConjunction | None] = []
        for event in events:
            validate_over(vocab, event.pre)
            try:
                pres.append(LiteralConjunction.from_formula(event.pre))
            except ConsistencyError:  # modal, disjunctive or contradictory
                pres.append(None)
        seen: set[tuple[int, int, int]] = set()
        kept: list[EdgeGuard] = []
        for g in edges:
            if not (0 <= g.source < n and 0 <= g.target < n):
                raise ModelError(f"action {name}: edge endpoint out of range")
            validate_over(vocab, g.condition)
            if g.source == g.target:
                continue  # reflexive loops are implicit and unconditioned
            key = (g.agent.index, g.source, g.target)
            if key in seen:
                raise ModelError(
                    f"action {name}: duplicate edge {g.agent.name}:"
                    f" {names[g.source]} -> {names[g.target]}"
                )
            seen.add(key)
            kept.append(g)
        kept.sort(key=lambda g: (g.agent.index, g.source, g.target))
        out: list[list[list]] = [[[] for _ in range(n)] for _ in vocab.agents]
        for g in kept:
            guard = None if isinstance(g.condition, Top) else g.condition
            out[g.agent.index][g.source].append((g.target, guard))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "events", tuple(events))
        object.__setattr__(self, "designated", des)
        object.__setattr__(self, "edges", tuple(kept))
        object.__setattr__(self, "_pre", tuple(pres))
        object.__setattr__(self, "_out", out)
        modal = [
            node for event, pre in zip(events, pres) if pre is None
            for node in _nodes(event.pre) if isinstance(node, (Knows, Common))
        ]
        one_level = all(isinstance(node, Knows) and is_propositional(node.sub) for node in modal)
        object.__setattr__(self, "_outcomes", {} if one_level else None)
        object.__setattr__(
            self, "_modal", tuple(sorted({node.agent.index for node in modal})) if one_level else ()
        )
        designated_pres = [pres[e] for e in des]
        object.__setattr__(
            self,
            "_must",
            frozenset.intersection(*(pre.positives for pre in designated_pres))
            if all(pre is not None for pre in designated_pres)
            else frozenset(),
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("EpistemicAction is immutable")

    def guards(self, agent: Agent) -> dict[tuple[int, int], Formula]:
        """Explicit guarded edges of one agent, as (source, target) -> guard."""
        self._check_agent(agent)
        return {(g.source, g.target): g.condition for g in self.edges if g.agent == agent}

    def is_local_for(self, agent: Agent) -> bool:
        """True iff the designated events are closed under the agent's
        top-guarded edges."""
        return self._top_closure(agent) == self.designated

    def _top_closure(self, agent: Agent) -> set[int]:
        """The designated events closed under the agent's top-guarded edges.

        Guards with non-top conditions depend on worlds and cannot be
        decided at the action level; they are ignored here (and flagged)."""
        self._check_agent(agent)
        out = self._out[agent.index]
        if any(guard is not None for e in self.designated for _, guard in out[e]):
            import logging
            logging.getLogger(__name__).debug(
                "action %s: event closure for %s ignores non-trivial guards",
                self.name,
                agent.name,
            )
        closed = set(self.designated)
        frontier = list(closed)
        while frontier:
            for f, guard in out[frontier.pop()]:
                if guard is None and f not in closed:
                    closed.add(f)
                    frontier.append(f)
        return closed

    def _check_agent(self, agent: Agent) -> None:
        if agent not in self.vocab.agents:
            raise VocabularyError(f"agent {agent.name} not in vocabulary")

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpistemicAction):
            return NotImplemented
        return (
            self.name == other.name
            and self.vocab == other.vocab
            and self.events == other.events
            and self.designated == other.designated
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"EpistemicAction({self.name!r}, {len(self.events)} events)"


# --------------------------------------------------------------------------
# Applicability and product update


def _check_shared_vocab(state: EpistemicState, action: EpistemicAction) -> None:
    if state.model.vocab != action.vocab:
        raise VocabularyMismatchError(
            f"state and action {action.name} use different atom/agent tables"
        )


def applicable(state: EpistemicState, action: EpistemicAction) -> bool:
    """For every designated world there is a designated event whose
    precondition holds there: the pairing (:func:`_pair`) meets no
    witness. The state must share the action's vocabulary (checked)."""
    _check_shared_vocab(state, action)
    try:
        _pair(state, action)
    except NotApplicableError:
        return False
    return True


def applicable_updates(state: EpistemicState, actions: Iterable[EpistemicAction]):
    """The pairing (:func:`_pair`) of ``state`` with each applicable action,
    as (action, shape, pairs) in the given order, consumed lazily.

    An action whose required atoms (``_must``) are not shared by every
    designated world's label is skipped without evaluating a precondition;
    every other action is decided by the pairing itself. The state must
    share each action's vocabulary (checked for every action)."""
    vocab, labels = state.model.vocab, state.model.labels
    common = frozenset.intersection(*(labels[w] for w in state.designated))
    for action in actions:
        if action.vocab is not vocab:
            _check_shared_vocab(state, action)
        if action._must <= common:
            try:
                shape, pairs = _pair(state, action)
            except NotApplicableError:
                continue
            yield action, shape, pairs


def _outcome(action: EpistemicAction, model: EpistemicModel, w: int) -> tuple:
    """The events whose precondition holds at world ``w`` (unchecked: the
    action validated them), in event order, and their post-labels, as two
    tuples. Memoized in ``action._outcomes`` when every precondition that
    is not compiled is one-level, keyed by w's label or, when
    ``action._modal`` names agents, by w's label and, per such agent, the
    frozenset of the labels of w's successors: all that a one-level
    precondition can read at w."""
    label = key = model.labels[w]
    if action._modal:
        labels = model.labels
        key = (label, *[frozenset([labels[v] for v in model._rows[a][w]]) for a in action._modal])
    table = action._outcomes
    out = None if table is None else table.get(key)
    if out is None:
        events = tuple(
            e for e, (event, pre) in enumerate(zip(action.events, action._pre))
            if (_eval(model, w, event.pre) if pre is None else pre.holds_in(label))
        )
        out = events, tuple(action.events[e].post.apply_to(label) for e in events)
        if table is not None:
            table[key] = out
    return out


def _pair(state: EpistemicState, action: EpistemicAction) -> tuple[tuple, tuple]:
    """The product update's successor shape (its labels, designated set and
    per-agent successor rows, which fix its contraction up to world names,
    its key and its owner classes) and its (world, event) pairs, in order.

    Designated worlds are paired first, in index order, so an inapplicable
    action raises before any other world is. When every world takes one
    event and the action has no explicit event edges, product world i is
    world i, and w's row keeps the successors that took w's event.

    The state must share the action's vocabulary (unchecked). Without modal
    preconditions, a world's outcome is read from ``action._outcomes`` by
    its label, and :func:`_outcome` runs only on a miss."""
    model = state.model
    labels = model.labels
    memo = {} if action._modal or action._outcomes is None else action._outcomes
    outcomes: list = [None] * len(labels)
    for w in sorted(state.designated):
        outcomes[w] = memo.get(labels[w]) or _outcome(action, model, w)
        if action.designated.isdisjoint(outcomes[w][0]):
            raise NotApplicableError(
                f"action {action.name} not applicable: designated world"
                f" {model.world_names[w]} satisfies no designated event's"
                " precondition",
                witness=w,
            )
    for w, out in enumerate(outcomes):
        if out is None:
            outcomes[w] = memo.get(labels[w]) or _outcome(action, model, w)

    taken = [events[0] if len(events) == 1 else None for events, _ in outcomes]
    if not action.edges and None not in taken:
        labels = tuple([post[0] for _, post in outcomes])
        rows = model._rows  # kept as they are when every world took the same event
        if taken.count(taken[0]) < len(taken):
            rows = tuple(
                tuple([tuple([v for v in row if taken[v] == e]) for e, row in zip(taken, table)])
                for table in rows
            )
        return (labels, state.designated, rows), tuple(enumerate(taken))

    # Pairs are numbered world-major; slot[e][w] is the product index of
    # (w, e), or None when e's precondition fails at w.
    pairs = tuple((w, e) for w, (events, _) in enumerate(outcomes) for e in events)
    labels = tuple(label for _, post in outcomes for label in post)
    slot: list[list[int | None]] = [[None] * len(outcomes) for _ in action.events]
    for i, (w, e) in enumerate(pairs):
        slot[e][w] = i

    # Pair (w, e)'s row runs along w's row: each successor v paired with e
    # and with each t of a guarded e -> t whose guard holds at w, in event
    # order. World-major numbering keeps the row sorted.
    rows = []
    for out, table in zip(action._out, model._rows):
        top = [  # e's columns when no guard from e depends on the world
            None if any(guard is not None for _, guard in out[e])
            else [slot[t] for t in sorted([e, *(t for t, _ in out[e])])]
            for e in range(len(slot))
        ]
        agent_rows = []
        for w, e in pairs:
            columns = top[e] or [slot[t] for t in sorted(
                [e, *(t for t, guard in out[e] if guard is None or _eval(model, w, guard))]
            )]
            agent_rows.append(tuple([
                i for v in table[w] for column in columns if (i := column[v]) is not None
            ]))
        rows.append(tuple(agent_rows))

    designated = frozenset(
        slot[e][w] for w in state.designated for e in action.designated if slot[e][w] is not None
    )
    return (labels, designated, tuple(rows)), pairs


def _materialize(state: EpistemicState, action: EpistemicAction, shape, pairs) -> EpistemicState:
    """The successor that :func:`_pair` describes, its model built
    unchecked; world (w,e) is named ``(<w's name>,<e's name>)``."""
    model = state.model
    labels, designated, rows = shape
    names = tuple(f"({model.world_names[w]},{action.events[e].name})" for w, e in pairs)
    return EpistemicState._trusted(
        EpistemicModel._trusted(model.vocab, names, labels, rows), designated
    )


def product_update(state: EpistemicState, action: EpistemicAction) -> EpistemicState:
    """The product update: pair worlds with events whose preconditions hold.

    An agent edge links (w,e) to (w',e') when w relates to w' and there is
    an agent edge e -> e' whose guard holds at the source world w in the
    pre-update model; postconditions delete negatives then add positives.
    Preconditions and guards are evaluated unchecked. A designated world
    paired with no designated event is reported as the witness of
    :class:`NotApplicableError`, after the shared-vocabulary check. The
    pairing (:func:`_pair`) followed by its materialization."""
    _check_shared_vocab(state, action)
    return _materialize(state, action, *_pair(state, action))


def local_action(action: EpistemicAction, agent: Agent) -> EpistemicAction:
    """The agent's perspective on an action: designated events closed under
    the agent's top-guarded edges (conditional edges cannot contribute to a
    world-independent closure and are flagged in debug logging)."""
    closed = action._top_closure(agent)
    if closed == action.designated:
        return action
    return EpistemicAction(action.name, action.vocab, action.events, closed, action.edges)


# --------------------------------------------------------------------------
# Constructors


def induced_action(
    name: str,
    vocab: Vocabulary,
    pre: Formula | LiteralConjunction,
    post: LiteralConjunction,
) -> EpistemicAction:
    """The one-event action induced by a propositional pre/post pair."""
    if isinstance(pre, LiteralConjunction):
        pre = pre.to_formula()
    return EpistemicAction(name, vocab, [Event("e", pre, post)], {0})


def make_ask(
    vocab: Vocabulary,
    asker: Agent,
    answerer: Agent,
    phi: Formula,
    mode: str = "public",
    overhearers: Iterable[Agent] = (),
) -> EpistemicAction:
    """An action where ``asker`` asks ``answerer`` whether ``phi`` holds.

    The three designated answer events are a sincere "yes" (the answerer
    knows phi), "no" (knows not-phi), and "don't know". In ``public`` mode
    they are pairwise distinguishable for everyone. In ``private`` mode a
    non-designated skip event is added with directed edges from each answer
    for every agent other than the two participants, so bystanders think
    nothing happened. In ``overheard`` mode the agents in ``overhearers``
    instead hear the question but not the answer: they get links among the
    three answers, while the remaining outsiders point to skip.
    """
    if asker == answerer:
        raise ModelError("asker and answerer must differ")
    validate_over(vocab, phi)
    overhearer_set = frozenset(overhearers)
    for agent in overhearer_set:
        if agent in (asker, answerer):
            raise ModelError("overhearers must exclude asker and answerer")
    yes = Event("yes", Knows(answerer, phi), LiteralConjunction())
    no = Event("no", Knows(answerer, Not(phi)), LiteralConjunction())
    unknown = Event(
        "unknown",
        And(Not(Knows(answerer, phi)), Not(Knows(answerer, Not(phi)))),
        LiteralConjunction(),
    )
    name = f"Ask({asker.name},{answerer.name},{render_formula(phi)})"
    if mode == "public":
        return EpistemicAction(name, vocab, [yes, no, unknown], {0, 1, 2})
    if mode not in ("private", "overheard"):
        raise ModelError(f"unknown ask mode: {mode}")
    if mode == "private" and overhearer_set:
        raise ModelError("private mode takes no overhearers")
    skip = Event("skip", TOP, LiteralConjunction())
    events = [yes, no, unknown, skip]
    edges: list[EdgeGuard] = []
    outsiders = [
        agent
        for agent in vocab.agents
        if agent not in (asker, answerer) and agent not in overhearer_set
    ]
    for agent in outsiders:
        for answer in (0, 1, 2):
            edges.append(EdgeGuard(agent, answer, 3))
    for agent in sorted(overhearer_set, key=lambda a: a.index):
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                if a != b:
                    edges.append(EdgeGuard(agent, a, b))
    return EpistemicAction(name, vocab, events, {0, 1, 2}, edges)
