"""Product update, applicability witness, bisimulation contraction and
canonical keys as they stood before label-distinct contraction, compiled
literal preconditions and per-event guard indexes. Kept unchanged as the
reference that ``tests/test_actions.py`` and ``tests/test_models.py``
compare the library against, together with ``bisimilar``, the
refinement-based bisimilarity check that the key property is tested with.

Reachability (``union_reach`` and ``reachable_from``) and the agent-local
closure are the per-world searches that stood before the library's one
multi-source search, ``EpistemicModel.closure``, and the contracted-state
mark. They are written as functions of the model, without a per-world
cache, so the reference contraction does not run the reachability code
under test.

``event_pair_product_update`` is the product update as it stood before
the pairing (``actions._pair``) and materialization
(``actions._materialize``) split: per-world precondition tests, edges built
per event pair and the checked ``EpistemicModel`` constructor. The shape
oracle in ``tests/test_planner.py`` compares materialized successors with it.

``applicable_actions`` is the search's action filter as it stood before
the product update decided applicability: the required-atom skip, then
one ``applicable`` test per remaining action. Tests use it to list the
successors a search makes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from eplan.actions import EpistemicAction, applicable
from eplan.errors import EplanError, NotApplicableError, VocabularyMismatchError
from eplan.logic import Agent, _eval
from eplan.models import EpistemicModel, EpistemicState

Edge = tuple[int, int]


class EmptyProductError(EplanError):
    """A product with no worlds; unreachable once a designated world has
    an applicable designated event."""


def union_reach(model: EpistemicModel, w: int) -> frozenset[int]:
    """Worlds reachable from ``w`` under the union of all relations."""
    seen = {w}
    frontier = [w]
    while frontier:
        u = frontier.pop()
        for agent in model.vocab.agents:
            for v in model.successors(agent, u):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return frozenset(seen)


def reachable_from(model: EpistemicModel, starts: Iterable[int]) -> frozenset[int]:
    out: set[int] = set()
    for w in starts:
        out.update(union_reach(model, w))
    return frozenset(out)


def local_state(state: EpistemicState, agent: Agent) -> EpistemicState:
    """Agent's perspective: designated set closed under its relation.

    For non-symmetric relations the forward-reachable closure is taken, so
    the result is always closed under the agent's relation; for equivalence
    relations this coincides with taking the agent's equivalence classes.
    """
    model = state.model
    closed = set(state.designated)
    frontier = list(closed)
    while frontier:
        w = frontier.pop()
        for v in model.successors(agent, w):
            if v not in closed:
                closed.add(v)
                frontier.append(v)
    return EpistemicState(model, closed)


def _check_shared_vocab(state: EpistemicState, action: EpistemicAction) -> None:
    if state.model.vocab != action.vocab:
        raise VocabularyMismatchError(
            f"state and action {action.name} use different atom/agent tables"
        )


def applicable_actions(
    state: EpistemicState, actions: Iterable[EpistemicAction]
) -> list[EpistemicAction]:
    """The actions applicable in ``state``, in the given order.

    An action whose required atoms (``_must``) are not shared by every
    designated world's label is skipped without evaluating a precondition;
    every other action is decided by :func:`applicable`. The state must
    share each action's vocabulary (checked for every action)."""
    vocab, labels = state.model.vocab, state.model.labels
    common = frozenset.intersection(*(labels[w] for w in state.designated))
    out = []
    for action in actions:
        if action.vocab is not vocab:
            _check_shared_vocab(state, action)
        if action._must <= common and applicable(state, action):
            out.append(action)
    return out


def inapplicable_witness(state: EpistemicState, action: EpistemicAction) -> int | None:
    """A designated world with no applicable designated event, or None.

    Preconditions are evaluated unchecked: the action validated them over
    its vocabulary when it was built, and the state must share it."""
    _check_shared_vocab(state, action)
    model = state.model
    designated_events = sorted(action.designated)
    for w in sorted(state.designated):
        if not any(
            _eval(model, w, action.events[e].pre) for e in designated_events
        ):
            return w
    return None


def product_update(state: EpistemicState, action: EpistemicAction) -> EpistemicState:
    """The product update: pair worlds with events whose preconditions hold.

    An agent edge links (w,e) to (w',e') when w relates to w' and there is
    an agent edge e -> e' whose guard holds at the source world w in the
    pre-update model; postconditions delete negatives then add positives.
    Preconditions and guards are evaluated unchecked, as in
    :func:`inapplicable_witness`, which also checks the shared vocabulary.
    """
    witness = inapplicable_witness(state, action)
    if witness is not None:
        raise NotApplicableError(
            f"action {action.name} not applicable: designated world"
            f" {state.model.world_names[witness]} satisfies no designated event's"
            " precondition",
            witness=witness,
        )
    model = state.model
    vocab = model.vocab

    pairs: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    for w in range(model.n):
        for e, event in enumerate(action.events):
            if _eval(model, w, event.pre):
                index[(w, e)] = len(pairs)
                pairs.append((w, e))
    if not pairs:
        raise EmptyProductError(
            f"product of state with action {action.name} has no worlds"
        )

    names = [
        f"({model.world_names[w]},{action.events[e].name})" for (w, e) in pairs
    ]
    labels = [action.events[e].post.apply_to(model.labels[w]) for (w, e) in pairs]

    edges: dict[Agent, set[tuple[int, int]]] = {agent: set() for agent in vocab.agents}
    for agent in vocab.agents:
        guard_table = action.guards(agent)
        for (w, e) in pairs:
            i = index[(w, e)]
            world_succ = model.successors(agent, w)
            event_succ: list[int] = [e]
            for (src, tgt), guard in guard_table.items():
                if src == e and _eval(model, w, guard):
                    event_succ.append(tgt)
            for wp in world_succ:
                for ep in event_succ:
                    j = index.get((wp, ep))
                    if j is not None and j != i:
                        edges[agent].add((i, j))

    designated = {
        index[(w, e)]
        for w in state.designated
        for e in sorted(action.designated)
        if (w, e) in index
    }
    new_model = EpistemicModel(vocab, names, labels, edges)
    return EpistemicState(new_model, designated)


def _holds(action: EpistemicAction, e: int, model: EpistemicModel, w: int) -> bool:
    """Event ``e``'s precondition at world ``w``, unchecked: the action
    validated it over its vocabulary when it was built."""
    pre = action._pre[e]
    if pre is None:
        return _eval(model, w, action.events[e].pre)
    label = model.labels[w]
    return pre.positives <= label and not pre.negatives & label


def event_pair_product_update(state: EpistemicState, action: EpistemicAction) -> EpistemicState:
    """The product update: pair worlds with events whose preconditions hold.

    An agent edge links (w,e) to (w',e') when w relates to w' and there is
    an agent edge e -> e' whose guard holds at the source world w in the
    pre-update model; postconditions delete negatives then add positives.
    Preconditions and guards are evaluated unchecked. A designated world
    paired with no designated event is reported as the witness of
    :class:`NotApplicableError`, after the shared-vocabulary check.
    """
    _check_shared_vocab(state, action)
    model = state.model
    vocab = model.vocab
    events = range(len(action.events))

    # slot[e][w]: the product index of (w, e), or None when e's
    # precondition fails at w. Pairs are numbered world-major.
    slot: list[list[int | None]] = [[None] * model.n for _ in events]
    pairs: list[tuple[int, int]] = []
    for w in range(model.n):
        for e in events:
            if _holds(action, e, model, w):
                slot[e][w] = len(pairs)
                pairs.append((w, e))
    designated_events = sorted(action.designated)
    for w in sorted(state.designated):
        if all(slot[e][w] is None for e in designated_events):
            raise NotApplicableError(
                f"action {action.name} not applicable: designated world"
                f" {model.world_names[w]} satisfies no designated event's"
                " precondition",
                witness=w,
            )

    names = [
        f"({model.world_names[w]},{action.events[e].name})" for (w, e) in pairs
    ]
    labels = [action.events[e].post.apply_to(model.labels[w]) for (w, e) in pairs]

    # Per event pair: e -> e links the pairs of each explicit world edge; a
    # guarded e -> t links each pair whose guard holds to its successors'.
    edges: dict[Agent, set[tuple[int, int]]] = {}
    for agent in vocab.agents:
        out = action._out[agent.index]
        linked: set[tuple[int, int]] = set()
        for e in events:
            source = slot[e]
            for (u, v) in model.edges[agent]:
                if source[u] is not None and source[v] is not None:
                    linked.add((source[u], source[v]))
            for t, guard in out[e]:
                target = slot[t]
                for w, i in enumerate(source):
                    if i is None or (guard is not None and not _eval(model, w, guard)):
                        continue
                    for v in model.successors(agent, w):
                        if target[v] is not None:
                            linked.add((i, target[v]))
        edges[agent] = linked

    designated = {
        slot[e][w]
        for w in state.designated
        for e in designated_events
        if slot[e][w] is not None
    }
    new_model = EpistemicModel(vocab, names, labels, edges)
    return EpistemicState(new_model, designated)


def _refine(
    worlds: Sequence[int],
    labels,
    succ,
    agents: Sequence[Agent],
    initial: dict[int, int],
) -> dict[int, int]:
    """Iterate successor-set splitting until the partition is stable.

    ``succ(agent, w)`` must include the implicit reflexive successor.
    Returns a dense block id per world.
    """
    block = dict(initial)
    while True:
        sig_to_id: dict[tuple, int] = {}
        new_block: dict[int, int] = {}
        for w in worlds:
            sig = (
                block[w],
                tuple(
                    frozenset(block[v] for v in succ(agent, w))
                    for agent in agents
                ),
            )
            if sig not in sig_to_id:
                sig_to_id[sig] = len(sig_to_id)
            new_block[w] = sig_to_id[sig]
        if len(set(new_block.values())) == len(set(block.values())):
            return new_block
        block = new_block


def _label_blocks(worlds: Sequence[int], labels) -> dict[int, int]:
    key_to_id: dict[tuple, int] = {}
    out: dict[int, int] = {}
    for w in worlds:
        key = tuple(sorted(a.index for a in labels[w]))
        if key not in key_to_id:
            key_to_id[key] = len(key_to_id)
        out[w] = key_to_id[key]
    return out


def bisim_contract(state: EpistemicState) -> EpistemicState:
    """Quotient by the largest bisimulation on the designated-reachable part.

    The result is bisimilar to ``state``, has no two bisimilar worlds, and
    its designated set is the image of the input's designated set. Worlds
    unreachable from the designated set are dropped here (and only here).
    The result's model is marked minimal. Over a minimal model the
    designated-reachable part is a generated submodel, which keeps
    bisimilarity, so its worlds are already the quotient's blocks: the
    state itself is returned when every world is reachable, and otherwise
    the reachable worlds are kept in index order, exactly as refinement
    would give them.
    """
    model = state.model
    reach = sorted(reachable_from(model, state.designated))
    if model._minimal:
        if len(reach) == model.n:
            return state
        ordered_blocks = [[w] for w in reach]
    else:
        in_reach = set(reach)

        def succ(agent: Agent, w: int):
            return [v for v in model.successors(agent, w) if v in in_reach]

        block = _refine(
            reach, model.labels, succ, model.vocab.agents, _label_blocks(reach, model.labels)
        )

        # One quotient world per block, ordered by smallest member index.
        members: dict[int, list[int]] = {}
        for w in reach:
            members.setdefault(block[w], []).append(w)
        ordered_blocks = sorted(members.values(), key=lambda ws: min(ws))
    block_of = {w: i for i, ws in enumerate(ordered_blocks) for w in ws}

    names = [model.world_names[min(ws)] for ws in ordered_blocks]
    labels = [model.labels[min(ws)] for ws in ordered_blocks]
    edges: dict[Agent, set[Edge]] = {agent: set() for agent in model.vocab.agents}
    for agent in model.vocab.agents:
        for (u, v) in model.edges[agent]:
            if u in block_of and v in block_of and block_of[u] != block_of[v]:
                edges[agent].add((block_of[u], block_of[v]))
    designated = {block_of[w] for w in state.designated}
    contracted = EpistemicModel(model.vocab, names, labels, edges)
    object.__setattr__(contracted, "_minimal", True)
    return EpistemicState(contracted, designated)


def bisimilar(s: EpistemicState, t: EpistemicState) -> bool:
    """Whether a bisimulation links the two designated sets both ways.

    Computed by refining the disjoint union of both models and checking
    that every designated world of each state shares a block with a
    designated world of the other.
    """
    if s.model.vocab != t.model.vocab:
        raise VocabularyMismatchError("states are over different atom/agent tables")
    ms, mt = s.model, t.model
    offset = ms.n
    worlds = list(range(ms.n + mt.n))

    def labels(w: int):
        return ms.labels[w] if w < offset else mt.labels[w - offset]

    def succ(agent: Agent, w: int):
        if w < offset:
            return ms.successors(agent, w)
        return [v + offset for v in mt.successors(agent, w - offset)]

    class _L:
        def __getitem__(self, w):
            return labels(w)

    block = _refine(worlds, _L(), succ, ms.vocab.agents, _label_blocks(worlds, _L()))
    s_blocks = {block[w] for w in s.designated}
    t_blocks = {block[w + offset] for w in t.designated}
    return s_blocks <= t_blocks and t_blocks <= s_blocks


def canonical_key(state: EpistemicState) -> bytes:
    """A deterministic byte key with: equal keys iff bisimilar states.

    Contracts first, then orders the (pairwise non-bisimilar) quotient
    worlds by an iterated signature: label set and designated flag first,
    then per-agent sorted successor-rank multisets, refined to a fixpoint.
    Ranks are assigned by sorting signatures, so the final order does not
    depend on the input's world numbering; any residual tie (impossible
    after contraction, kept for safety) breaks by world index.
    """
    c = bisim_contract(state)
    model = c.model
    n = model.n
    agents = model.vocab.agents

    sigs: list[tuple] = [
        (tuple(sorted(a.index for a in model.labels[w])), w in c.designated)
        for w in range(n)
    ]
    rank = _ranks(sigs)
    for _ in range(n):
        sigs = [
            (
                rank[w],
                tuple(
                    tuple(sorted(rank[v] for v in model.successors(agent, w)))
                    for agent in agents
                ),
            )
            for w in range(n)
        ]
        new_rank = _ranks(sigs)
        if new_rank == rank:
            break
        rank = new_rank

    order = sorted(range(n), key=lambda w: (rank[w], w))
    position = {w: i for i, w in enumerate(order)}
    payload = (
        len(model.vocab.atoms),
        len(agents),
        n,
        tuple(
            (tuple(sorted(a.index for a in model.labels[w])), w in c.designated)
            for w in order
        ),
        tuple(
            tuple(sorted((position[u], position[v]) for (u, v) in model.edges[agent]))
            for agent in agents
        ),
    )
    return repr(payload).encode("ascii")


def _ranks(sigs: list[tuple]) -> list[int]:
    table = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
    return [table[sig] for sig in sigs]
