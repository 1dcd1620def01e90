"""Epistemic models and states: perspective shifts, belief-state embedding,
bisimulation contraction, and canonical hashing keys for search nodes.

Relations are stored as per-agent successor rows: row w lists w and its
successors in ascending order. Reflexive loops are always present, so drawn
figures and documents never need to declare them; the explicit edge sets
are derived from the rows. Symmetry/transitivity are not enforced
structurally, so models with false beliefs (private actions) are
representable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ModelError, VocabularyError
from .logic import Agent, Atom, Vocabulary

Edge = tuple[int, int]


class EpistemicModel:
    """A finite multi-agent Kripke model with a valuation per world.

    Not a dataclass: ``_trusted`` bypasses ``__init__``. Immutable after
    construction. The stored relation is ``_rows``: per agent in vocabulary
    order, one sorted successor row per world, the world itself included.
    ``edges`` (per agent, the non-reflexive pairs) is derived from the rows
    on each call. A model that :func:`bisim_contract` builds or returns is
    marked minimal (no two of its worlds are bisimilar), so contracting a
    state over it again is a restriction to the designated-reachable
    worlds, with no refinement.
    """

    __slots__ = ("vocab", "world_names", "labels", "_rows", "_minimal")

    def __init__(
        self,
        vocab: Vocabulary,
        world_names: Sequence[str],
        labels: Sequence[Iterable[Atom]],
        edges: dict[Agent, Iterable[Edge]] | None = None,
    ):
        if not world_names:
            raise ModelError("a model needs at least one world")
        if len(labels) != len(world_names):
            raise ModelError("labels and world names disagree in length")
        n = len(world_names)
        frozen_labels = [frozenset(label) for label in labels]
        atom_set = vocab._atom_set
        for fl in frozen_labels:
            if not fl <= atom_set:
                foreign = next(atom for atom in fl if atom not in atom_set)
                raise VocabularyError(f"label atom {foreign.name} not in vocabulary")
        rows = []
        edges = edges or {}
        for agent in vocab.agents:
            succ = [{u} for u in range(n)]  # reflexive loops are implicit
            for (u, v) in edges.get(agent, ()):
                if not (0 <= u < n and 0 <= v < n):
                    raise ModelError(f"edge endpoint out of range: ({u},{v})")
                succ[u].add(v)
            rows.append(tuple(tuple(sorted(vs)) for vs in succ))
        for agent in edges:
            if agent not in vocab.agents:
                raise VocabularyError(f"agent {agent.name} not in vocabulary")

        self._fill(vocab, tuple(world_names), tuple(frozen_labels), tuple(rows))

    @classmethod
    def _trusted(cls, vocab, world_names, labels, rows) -> "EpistemicModel":
        """A model the library built itself, unchecked: a tuple of names, a
        tuple of frozen labels over ``vocab`` and, per agent of ``vocab`` in
        order, a tuple of rows, row w being a sorted tuple of in-range
        worlds that contains w."""
        model = object.__new__(cls)
        model._fill(vocab, world_names, labels, rows)
        return model

    def _fill(self, vocab, world_names, labels, rows) -> None:
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "world_names", world_names)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_minimal", False)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("EpistemicModel is immutable")

    @property
    def n(self) -> int:
        return len(self.world_names)

    @property
    def edges(self) -> dict[Agent, frozenset[Edge]]:
        """Per agent, its explicit (non-reflexive) edges, derived from the
        successor rows."""
        return {
            agent: frozenset([(u, v) for u, row in enumerate(rows) for v in row if v != u])
            for agent, rows in zip(self.vocab.agents, self._rows)
        }

    def world_index(self, name: str) -> int:
        try:
            return self.world_names.index(name)
        except ValueError:
            raise ModelError(f"unknown world: {name}") from None

    def successors(self, agent: Agent, w: int) -> tuple[int, ...]:
        """Sorted i-successors of ``w``, including ``w`` itself."""
        return self._rows[agent.index][w]

    def closure(self, starts: Iterable[int], agents: Sequence[Agent]) -> set[int]:
        """Worlds reachable from ``starts`` (included) under the union of
        the given agents' relations: one multi-source search, which walks
        one table's rows directly when one agent is asked."""
        seen = set(starts)
        frontier = list(seen)
        if len(agents) == 1:
            table = self._rows[agents[0].index]
            while frontier:
                for v in table[frontier.pop()]:
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
            return seen
        tables = [self._rows[agent.index] for agent in agents]
        while frontier:
            u = frontier.pop()
            for table in tables:
                for v in table[u]:
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
        return seen

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpistemicModel):
            return NotImplemented
        return (
            self.vocab == other.vocab
            and self.world_names == other.world_names
            and self.labels == other.labels
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"EpistemicModel({self.n} worlds)"


@dataclass(frozen=True, slots=True, repr=False)
class EpistemicState:
    """A model plus a non-empty set of designated worlds.

    Global when exactly one world is designated; doubles as the planner's
    search node. A state that :func:`bisim_contract` returns is marked
    contracted (every world designated-reachable, no two bisimilar), so
    contracting it again returns it at once.
    """

    model: EpistemicModel
    designated: frozenset[int]
    _contracted: bool = field(default=False, init=False, compare=False)

    def __post_init__(self):
        des = frozenset(self.designated)
        if not des:
            raise ModelError("designated set must be non-empty")
        for w in des:
            if not 0 <= w < self.model.n:
                raise ModelError(f"designated world out of range: {w}")
        object.__setattr__(self, "designated", des)

    @classmethod
    def _trusted(cls, model, designated, contracted=False) -> "EpistemicState":
        """A state the library built itself, unchecked: ``designated`` is a
        non-empty frozenset of worlds of ``model``, and ``contracted`` holds
        only for a result of :func:`bisim_contract`."""
        state = object.__new__(cls)
        object.__setattr__(state, "model", model)
        object.__setattr__(state, "designated", designated)
        object.__setattr__(state, "_contracted", contracted)
        return state

    @property
    def is_global(self) -> bool:
        return len(self.designated) == 1

    def __repr__(self) -> str:
        des = ",".join(self.model.world_names[w] for w in sorted(self.designated))
        return f"EpistemicState({self.model.n} worlds, designated {des})"


@dataclass(frozen=True, slots=True, repr=False)
class BeliefState:
    """A non-empty finite set of propositional valuations."""

    valuations: frozenset[frozenset[Atom]]

    def __post_init__(self):
        vals = frozenset(frozenset(v) for v in self.valuations)
        if not vals:
            raise ModelError("belief state must be non-empty")
        object.__setattr__(self, "valuations", vals)

    def __len__(self) -> int:
        return len(self.valuations)

    def __repr__(self) -> str:
        return f"BeliefState({len(self.valuations)} valuations)"


# --------------------------------------------------------------------------
# Perspective shifts


def globals_of(state: EpistemicState) -> list[EpistemicState]:
    """One global state per designated world, ordered by world index."""
    return [EpistemicState(state.model, {w}) for w in sorted(state.designated)]


def local_state(state: EpistemicState, agent: Agent) -> EpistemicState:
    """Agent's perspective: designated set closed under its relation.

    For non-symmetric relations the forward-reachable closure is taken, so
    the result is always closed under the agent's relation; for equivalence
    relations this coincides with taking the agent's equivalence classes.
    """
    return EpistemicState(state.model, state.model.closure(state.designated, (agent,)))


def is_local_for(state: EpistemicState, agent: Agent) -> bool:
    """True iff every agent-successor of a designated world is designated."""
    return state.model.closure(state.designated, (agent,)) == state.designated


def from_belief_state(vocab: Vocabulary, belief: BeliefState) -> EpistemicState:
    """Embed a belief state: one world per valuation, the total relation for
    every agent, all worlds designated."""
    order = sorted(belief.valuations, key=vocab._label_key)
    n = len(order)
    names = [f"w{i + 1}" for i in range(n)]
    total = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = {agent: total for agent in vocab.agents}
    model = EpistemicModel(vocab, names, order, edges)
    return EpistemicState(model, range(n))


def to_belief_state(state: EpistemicState) -> BeliefState:
    """Forget structure: the designated worlds' valuations as a set."""
    return BeliefState(state.model.labels[w] for w in sorted(state.designated))


# --------------------------------------------------------------------------
# Bisimulation machinery
#
# Contraction restricts to the worlds reachable from the designated set and
# quotients by the coarsest partition stable under labels and per-agent
# successor-block sets (naive signature refinement, as in Kanellakis &
# Smolka 1990). Designation does not split blocks: state bisimilarity only
# requires the designated sets to be linked both ways, so the quotient marks
# a block designated when it contains a designated world. This is what makes
# canonical-key equality coincide with state bisimilarity.


def bisim_contract(state: EpistemicState) -> EpistemicState:
    """Quotient by the largest bisimulation on the designated-reachable part.

    The result is bisimilar to ``state``, has no two bisimilar worlds, and
    its designated set is the image of the input's designated set. Worlds
    unreachable from the designated set are dropped here (and only here).
    The result is marked contracted and its model minimal; a state already
    marked contracted is returned at once.

    One loop refines the blocks of the reachable worlds. A world's first
    block is its label, or the world alone over a minimal model (the
    designated-reachable part is a generated submodel, which keeps
    bisimilarity). Each round splits blocks by the per-agent sets of
    successor blocks, until a round adds no block or every world has its
    own. The reachable set is closed under every agent's successors, so no
    successor needs filtering. Blocks are numbered in order of their
    smallest world. When every world is reachable and has its own block
    (as in a one-world model, which takes no closure search), the state
    itself is returned, its model marked minimal.
    """
    if state._contracted:
        return state
    model = state.model
    n = len(model.labels)
    tables = model._rows
    reach = [0] if n == 1 else sorted(model.closure(state.designated, model.vocab.agents))
    block = range(n) if model._minimal else model.labels
    count = len({block[w] for w in reach})
    while count < len(reach):
        ids: dict[tuple, int] = {}
        new_block = [0] * n
        for w in reach:
            sig = (block[w], tuple(frozenset([block[v] for v in table[w]]) for table in tables))
            new_block[w] = ids.setdefault(sig, len(ids))
        if len(ids) == count:
            break
        block, count = new_block, len(ids)
    if count == n:
        object.__setattr__(model, "_minimal", True)
        object.__setattr__(state, "_contracted", True)
        return state
    members: dict[object, list[int]] = {}
    for w in reach:
        members.setdefault(block[w], []).append(w)
    block_of = [0] * n
    for i, ws in enumerate(members.values()):
        for w in ws:
            block_of[w] = i
    firsts = [ws[0] for ws in members.values()]

    # The partition is stable, so one world per block gives its block's row.
    names = tuple(model.world_names[w] for w in firsts)
    rows = tuple(
        tuple(tuple(sorted({block_of[v] for v in table[w]})) for w in firsts)
        for table in tables
    )
    designated = frozenset([block_of[w] for w in state.designated])
    contracted = EpistemicModel._trusted(
        model.vocab, names, tuple(model.labels[w] for w in firsts), rows
    )
    object.__setattr__(contracted, "_minimal", True)
    return EpistemicState._trusted(contracted, designated, True)


def canonical_key(state: EpistemicState) -> bytes:
    """A deterministic byte key with: equal keys iff bisimilar states.

    Contracts first (a state marked contracted is used as it is), then
    ranks the quotient worlds by sorted signatures: label and designated
    flag first, then per-agent sorted successor-rank multisets, refined
    until each world has its own rank (first signatures that are pairwise
    distinct, as for one world, already give that). Refinement always gets
    there: a stable ranking is a bisimulation, and no two contracted worlds
    are bisimilar. The ranks, which do not depend on the input's world
    numbering, are the worlds' positions in the key.
    """
    c = state if state._contracted else bisim_contract(state)
    model, designated = c.model, c.designated
    vocab, tables = model.vocab, model._rows
    n = len(model.labels)
    sigs = [(vocab._label_key(label), w in designated) for w, label in enumerate(model.labels)]
    rank = _ranks(sigs)
    while max(rank) < n - 1:
        rank = _ranks([
            (rank[w], tuple(tuple(sorted(rank[v] for v in table[w])) for table in tables))
            for w in range(n)
        ])
    payload = (
        len(vocab.atoms),
        len(tables),
        n,
        tuple(sorted(sigs)),  # in rank order: ranks refine the sorted signatures
        tuple(
            tuple(sorted([
                (rank[u], rank[v]) for u, row in enumerate(rows) for v in row if v != u
            ]))
            for rows in tables
        ),
    )
    return repr(payload).encode("ascii")


def _ranks(sigs: list[tuple]) -> list[int]:
    table = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
    return [table[sig] for sig in sigs]
