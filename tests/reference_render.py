"""State and action listings as they stood before state edges were read
along the model's sorted successor rows: ``_edges`` builds a dict of top
guards per agent and sorts its two-way and one-way groups, and the
renderers below format what it yields. ``state_payload`` is the CLI's JSON
state (``eplan.cli._state_payload``) with its edges from
``sorted(model.edges[agent])``. Kept unchanged as the reference that
``tests/test_dsl.py`` compares the library's renderers against.
"""

from __future__ import annotations

from typing import Iterator

from eplan.actions import EpistemicAction
from eplan.logic import TOP, Agent, Formula, Top, render_formula
from eplan.models import EpistemicModel, EpistemicState


def _edges(
    value: EpistemicState | EpistemicAction,
) -> Iterator[tuple[Agent, int, int, bool, Formula]]:
    """Every explicit agent edge of a state or action model, listed once as
    (agent, u, v, two_way, guard). Per agent in vocabulary order: first the
    pairs present both ways with equal guards (as u < v), then the remaining
    directed pairs, each group sorted. State edges carry the top guard."""
    if isinstance(value, EpistemicState):
        vocab = value.model.vocab
        guards = lambda agent: dict.fromkeys(value.model.edges[agent], TOP)  # noqa: E731
    else:
        vocab = value.vocab
        guards = value.guards
    for agent in vocab.agents:
        table = guards(agent)
        two_way, one_way = [], []
        for (u, v), guard in table.items():
            back = table.get((v, u))
            # Identity first: every state edge shares the one TOP object.
            if back is guard or (back is not None and back == guard):
                if u < v:
                    two_way.append((u, v, guard))
            else:
                one_way.append((u, v, guard))
        # (u, v) is unique per agent, so sorting never compares guards.
        for (u, v, guard) in sorted(two_way):
            yield agent, u, v, True, guard
        for (u, v, guard) in sorted(one_way):
            yield agent, u, v, False, guard


def _label(model: EpistemicModel, w: int, sep: str = ", ") -> str:
    """The atoms true at a world, in vocabulary order."""
    atoms = model.vocab.atoms
    return sep.join(atoms[i].name for i in model.vocab._label_key(model.labels[w]))


def _serialize_state(state: EpistemicState, name: str) -> list[str]:
    model = state.model
    lines = [f"state {name} {{"]
    for w in range(model.n):
        atoms = _label(model, w)
        body = f" {atoms} " if atoms else " "
        lines.append(f"  world {model.world_names[w]} {{{body}}}")
    for agent, u, v, two_way, _ in _edges(state):
        arrow = "--" if two_way else "->"
        lines.append(
            f"  edge {agent.name}: {model.world_names[u]} {arrow} {model.world_names[v]};"
        )
    designated = ", ".join(model.world_names[w] for w in sorted(state.designated))
    lines.append(f"  designated {designated};")
    lines.append("}")
    return lines


def render_state(state: EpistemicState) -> str:
    """Multi-line listing of worlds, labels, edges, and designation."""
    model = state.model
    lines = []
    for w in range(model.n):
        mark = " [designated]" if w in state.designated else ""
        lines.append(f"world {model.world_names[w]}{mark}: {_label(model, w)}")
    for agent, u, v, two_way, _ in _edges(state):
        arrow = "--" if two_way else "->"
        lines.append(f"edge {agent.name}: {model.world_names[u]} {arrow} {model.world_names[v]}")
    return "\n".join(lines)


def render_state_line(state: EpistemicState) -> str:
    """One-line summary used in policy listings."""
    model = state.model
    parts = []
    for w in range(model.n):
        mark = "*" if w in state.designated else ""
        parts.append(f"{model.world_names[w]}{mark}[{_label(model, w, ',')}]")
    edge_bits = [
        f"{agent.name}:{model.world_names[u]}{'--' if two_way else '->'}{model.world_names[v]}"
        for agent, u, v, two_way, _ in _edges(state)
    ]
    text = " ".join(parts)
    if edge_bits:
        text += " | " + " ".join(edge_bits)
    return text


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(value: EpistemicState | EpistemicAction) -> str:
    """Graphviz rendering: designated nodes double-circled, reflexive edges
    suppressed, symmetric edges drawn once without direction, guards shown
    on edge labels; node order follows the index order."""
    if isinstance(value, EpistemicState):
        return _dot_state(value)
    if isinstance(value, EpistemicAction):
        return _dot_action(value)
    raise TypeError("export_dot expects a state or an action")


def _dot_state(state: EpistemicState) -> str:
    model = state.model
    lines = ["digraph state {", "  rankdir=LR;", '  node [shape=circle, fontsize=10];']
    for w in range(model.n):
        atoms = _label(model, w)
        label = model.world_names[w] + ("\\n" + _dot_escape(atoms) if atoms else "")
        extra = ", peripheries=2" if w in state.designated else ""
        lines.append(f'  n{w} [label="{label}"{extra}];')
    lines.extend(_dot_edges(state))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_action(action: EpistemicAction) -> str:
    lines = ["digraph action {", "  rankdir=LR;", '  node [shape=circle, fontsize=10];']
    for i, event in enumerate(action.events):
        pair = f"⟨{render_formula(event.pre)}, {render_formula(event.post.to_formula())}⟩"
        caption = _dot_escape(event.name) + "\\n" + _dot_escape(pair)
        extra = ", peripheries=2" if i in action.designated else ""
        lines.append(f'  n{i} [label="{caption}"{extra}];')
    lines.extend(_dot_edges(action))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_edges(value: EpistemicState | EpistemicAction) -> Iterator[str]:
    for agent, u, v, two_way, guard in _edges(value):
        label = agent.name if isinstance(guard, Top) else f"{agent.name}: {render_formula(guard)}"
        extra = ", dir=none" if two_way else ""
        yield f'  n{u} -> n{v} [label="{_dot_escape(label)}"{extra}];'


def state_payload(state: EpistemicState) -> dict:
    model = state.model
    worlds = [
        {
            "name": model.world_names[w],
            "designated": w in state.designated,
            "atoms": sorted((a.name for a in model.labels[w])),
        }
        for w in range(model.n)
    ]
    edges = []
    for agent in model.vocab.agents:
        for (u, v) in sorted(model.edges[agent]):
            edges.append(
                {
                    "agent": agent.name,
                    "source": model.world_names[u],
                    "target": model.world_names[v],
                }
            )
    return {"worlds": worlds, "edges": edges}
