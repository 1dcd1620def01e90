"""The pre-epistemic layers: STRIPS-style schemas with grounding,
propositional planning tasks, and belief-state planning with conditional
actions.

Rigid type predicates are handled by sorting parameters instead of carrying
IsAgent/IsLocation-style atoms through the state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product as iproduct
from types import SimpleNamespace
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

from .errors import ConsistencyError, ModelError, VocabularyError
from .logic import Formula, LiteralConjunction, Vocabulary, _eval, is_propositional, validate_over
from .models import BeliefState

Valuation = frozenset
Node = TypeVar("Node")


def applied_name(head: str, args: Sequence[str]) -> str:
    """``head`` applied to ``args`` as one name: ``Head(a,b)``, or ``head``."""
    return f"{head}({','.join(args)})" if args else head


@dataclass(frozen=True, slots=True, repr=False)
class SchemaAtom:
    """A predicate applied to parameters and/or constants, e.g. At(agt, from)."""

    predicate: str
    args: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))

    def ground_name(self, binding: Mapping[str, str]) -> str:
        return applied_name(self.predicate, [binding.get(a, a) for a in self.args])

    def __repr__(self) -> str:
        return self.ground_name({})


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class SchemaLiterals:
    """Positive and negative schema atoms of a precondition or effect."""

    positives: tuple[SchemaAtom, ...] = ()
    negatives: tuple[SchemaAtom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "positives", tuple(self.positives))
        object.__setattr__(self, "negatives", tuple(self.negatives))


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class ActionSchema:
    """A named, parameterized pre/effect pair over sorted variables."""

    name: str
    parameters: tuple[tuple[str, str], ...]
    precondition: SchemaLiterals
    effect: SchemaLiterals

    def __post_init__(self):
        parameters = tuple(self.parameters)
        if len({var for var, _ in parameters}) != len(parameters):
            raise ModelError("duplicate parameter names")
        object.__setattr__(self, "parameters", parameters)

    def __repr__(self) -> str:
        params = ",".join(f"{v}:{s}" for v, s in self.parameters)
        return f"ActionSchema({self.name}({params}))"


@dataclass(frozen=True, slots=True, repr=False)
class GroundAction:
    """A propositional action: a precondition/postcondition pair."""

    name: str
    pre: LiteralConjunction
    post: LiteralConjunction

    def __repr__(self) -> str:
        return f"GroundAction({self.name!r})"


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class ConditionalAction:
    """A non-empty set of ground events; mutually consistent preconditions
    are read as nondeterminism (only one event takes place)."""

    name: str
    events: tuple[GroundAction, ...]

    def __post_init__(self):
        events = tuple(self.events)
        if not events:
            raise ModelError(f"conditional action {self.name}: needs at least one event")
        object.__setattr__(self, "events", events)

    def __repr__(self) -> str:
        return f"ConditionalAction({self.name!r}, {len(self.events)} events)"


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class PropositionalTask:
    """Ground actions, an initial valuation, and a propositional goal."""

    vocab: Vocabulary
    actions: tuple[GroundAction, ...]
    initial: frozenset
    goal: Formula

    def __post_init__(self):
        vocab = self.vocab
        init = frozenset(self.initial)
        for atom in init:
            if atom not in vocab._atom_set:
                raise VocabularyError(f"initial atom {atom.name} not in vocabulary")
        validate_over(vocab, self.goal)
        if not is_propositional(self.goal):
            raise ModelError("goal of a propositional task must not use K or C")
        actions = tuple(self.actions)
        if len({a.name for a in actions}) != len(actions):
            raise ModelError("duplicate ground action names")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "initial", init)


def eval_prop(valuation: Valuation, phi: Formula) -> bool:
    """Propositional truth in a valuation: the epistemic truth definition
    at the one world of a model labelled ``valuation``. A formula with K or
    C is rejected before it is evaluated."""
    if not is_propositional(phi):
        raise ModelError("propositional evaluation reached a modality")
    return _eval(SimpleNamespace(labels=(valuation,)), 0, phi)


# --------------------------------------------------------------------------
# Grounding


def ground(
    schemas: Sequence[ActionSchema],
    objects: Mapping[str, Sequence[str]],
    vocab: Vocabulary,
) -> list[GroundAction]:
    """All ground instances of the schemas, sorted by name then arguments.

    Effects are applied delete-then-add, so a literal that an instantiation
    makes both positive and negative nets to positive (self-moves like
    Go(F,H,H) become no-ops); instances whose precondition becomes
    contradictory can never fire and are dropped.
    """
    out: list[tuple[tuple[str, tuple[str, ...]], GroundAction]] = []
    for schema in schemas:
        domains = []
        for var, sort in schema.parameters:
            members = objects.get(sort)
            if not members:
                raise ModelError(f"schema {schema.name}: empty sort {sort}")
            domains.append(list(members))
        for combo in iproduct(*domains):
            binding = {var: obj for (var, _), obj in zip(schema.parameters, combo)}
            name = applied_name(schema.name, combo)
            try:
                pre = _instantiate(schema.precondition, binding, vocab, normalize=False)
            except ConsistencyError:
                continue
            post = _instantiate(schema.effect, binding, vocab, normalize=True)
            out.append(((schema.name, tuple(combo)), GroundAction(name, pre, post)))
    out.sort(key=lambda item: item[0])
    return [action for _, action in out]


def _instantiate(
    literals: SchemaLiterals,
    binding: Mapping[str, str],
    vocab: Vocabulary,
    normalize: bool,
) -> LiteralConjunction:
    pos = {vocab.atom(a.ground_name(binding)) for a in literals.positives}
    neg = {vocab.atom(a.ground_name(binding)) for a in literals.negatives}
    if normalize:
        neg -= pos
    return LiteralConjunction(frozenset(pos), frozenset(neg))


# --------------------------------------------------------------------------
# Transition semantics


def apply_ground(valuation: Valuation, action: GroundAction) -> Valuation | None:
    """Delete-then-add update, or None when the precondition fails."""
    if not action.pre.holds_in(valuation):
        return None
    return action.post.apply_to(valuation)


def apply_belief(belief: BeliefState, action: ConditionalAction) -> BeliefState:
    """The generalized transition on belief states: collect the results of
    every applicable event at every valuation (duplicates merge).

    Requires strong applicability: every valuation must admit at least one
    event, keeping this layer aligned with epistemic applicability."""
    results = set()
    for valuation in belief.valuations:
        fired = False
        for event in action.events:
            if event.pre.holds_in(valuation):
                results.add(event.post.apply_to(valuation))
                fired = True
        if not fired:
            names = ", ".join(sorted(a.name for a in valuation)) or "(empty)"
            raise ModelError(
                f"action {action.name} not applicable: no event fires in"
                f" {{{names}}}"
            )
    return BeliefState(results)


def reachable_system(
    actions: Sequence[GroundAction], initial: Valuation
) -> tuple[list[Valuation], set[tuple[Valuation, str, Valuation]]]:
    """The reachable fragment of the induced transition system.

    States come back in BFS discovery order (actions tried in the given
    order); edges are (source, action name, target) triples."""
    initial = frozenset(initial)
    states = [initial]
    seen = {initial}
    edges: set[tuple[Valuation, str, Valuation]] = set()
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        for action in actions:
            result = apply_ground(state, action)
            if result is None:
                continue
            edges.add((state, action.name, result))
            if result not in seen:
                seen.add(result)
                states.append(result)
                queue.append(result)
    return states, edges


def breadth_first(
    start: Node,
    key: Callable[[Node], Hashable],
    expand: Callable[[Node], Iterable[tuple[str, Node]]],
    is_goal: Callable[[Node], bool],
    depth_cap: int,
) -> tuple[str, ...] | None:
    """Shortest sequence of step names from ``start`` to a goal node, or
    None within ``depth_cap`` steps.

    Layered breadth-first search shared by every planning layer.
    ``expand(node)`` yields (step name, successor) pairs in tie-break order
    and is consumed lazily, so nothing past the first goal is computed.
    A successor whose key was seen before is dropped before the goal test,
    which runs when a node is generated."""
    if depth_cap < 0:
        raise ModelError("depth cap must be non-negative")
    if is_goal(start):
        return ()
    visited = {key(start)}
    frontier: list[tuple[Node, tuple[str, ...]]] = [(start, ())]
    depth = 0
    while frontier and depth < depth_cap:
        depth += 1
        next_frontier: list[tuple[Node, tuple[str, ...]]] = []
        for node, path in frontier:
            for name, succ in expand(node):
                succ_key = key(succ)
                if succ_key in visited:
                    continue
                if is_goal(succ):
                    return path + (name,)
                visited.add(succ_key)
                next_frontier.append((succ, path + (name,)))
        frontier = next_frontier
    return None


def solve_classical(task: PropositionalTask, depth_cap: int) -> list[str] | None:
    """Shortest plan by breadth-first search over valuations, or None
    within the cap; ties break by action order."""

    def expand(state: Valuation):
        for action in task.actions:
            result = apply_ground(state, action)
            if result is not None:
                yield action.name, result

    steps = breadth_first(
        task.initial, lambda v: v, expand, lambda v: eval_prop(v, task.goal), depth_cap
    )
    return None if steps is None else list(steps)
