"""Task-document parsing, diagnostics, serialization, and DOT export."""

import hashlib
import json
import random

import pytest

import reference_render as reference
from conftest import (
    GOLDEN_DIR,
    TASK_FILES,
    gen_action,
    gen_equivalence_state,
    gen_state,
    gen_vocab,
    load_doc,
)
from eplan import (
    And,
    EpistemicModel,
    EpistemicState,
    EpistemicTask,
    ModelError,
    Prop,
    TaskParseError,
    Top,
    Vocabulary,
    bisim_contract,
    export_dot,
    make_ask,
    parse_task,
    product_update,
    render_formula,
    serialize_task,
)
from eplan.cli import _state_payload
from eplan.dsl import (
    MAX_FORMULA_NESTING,
    _serialize_block,
    _tokenize,
    parse_formula,
    render_state,
    render_state_line,
)


MINIMAL = """
agents { A }
atoms { p }
action skip {
  event e { pre: top; post: top; }
  designated e;
}
state s0 {
  world w { p }
  designated w;
}
goal { p }
task { initial: s0; actions: skip; }
"""

# One action with every edge shape the listing distinguishes: a two-way
# pair with equal guards, a one-way guarded edge, and a pair drawn both
# ways with different guards (listed as two one-way edges). The state has
# one two-way and one one-way edge.
MIXED_EDGES = """
agents { A, B }
atoms { p, q }
action mix {
  event e1 { pre: p; post: top; }
  event e2 { pre: !p; post: q; }
  event e3 { pre: top; post: !q; }
  edge A: e1 -- e2;
  edge A: e2 -> e3 if q;
  edge B: e1 -> e3 if p;
  edge B: e3 -> e1 if !p;
  designated e1, e2;
}
state s0 {
  world w1 { p }
  world w2 { q }
  world w3 { }
  edge A: w1 -- w2;
  edge B: w3 -> w1;
  designated w1;
}
goal { q }
task { initial: s0; actions: mix; }
"""


class TestParse:
    def test_two_post_offices_document(self, po2):
        assert po2.initial.model.n == 2
        assert po2.owner.name == "Father"
        assert len(po2.actions) == 12  # 9 Go + 2 TryPickUp + 1 Wrap
        assert [a.name for a in po2.actions[:3]] == [
            "Go(Father,Home,Home)",
            "Go(Father,Home,PostOffice1)",
            "Go(Father,Home,PostOffice2)",
        ]

    def test_minimal_document(self):
        doc = parse_task(MINIMAL)
        assert doc.task.initial.model.n == 1
        assert len(doc.task.actions) == 1

    @pytest.mark.parametrize("old, new", [
        ("atoms { p }", "sorts { }\natoms { p }"),
        ("atoms { p }", "sorts { s, }\natoms { p }"),
        ("atoms { p }", "atoms { p, }"),
        ("atoms { p }", "atoms { p; }"),
    ])
    def test_name_lists_may_be_empty_or_end_with_a_separator(self, old, new):
        # `sorts` and `atoms` as docs/dsl.md gives them: an empty list and a
        # trailing `,` or `;` parse with no diagnostic.
        task = parse_task(MINIMAL.replace(old, new)).task
        assert [atom.name for atom in task.vocab.atoms] == ["p"]

    def test_empty_document_reports_missing_task(self):
        with pytest.raises(TaskParseError) as exc:
            parse_task("")
        assert any("missing task block" in str(d) for d in exc.value.diagnostics)

    def test_inconsistent_postcondition_reported(self):
        bad = MINIMAL.replace("post: top;", "post: p & !p;")
        with pytest.raises(TaskParseError) as exc:
            parse_task(bad)
        assert any("inconsistent postcondition" in str(d) for d in exc.value.diagnostics)

    def test_unknown_atom_reported_with_position(self):
        bad = MINIMAL.replace("world w { p }", "world w { q }")
        with pytest.raises(TaskParseError) as exc:
            parse_task(bad)
        diag = next(d for d in exc.value.diagnostics if "unknown atom: q" in d.message)
        assert diag.line > 1

    def test_empty_designated_set_reported(self):
        bad = MINIMAL.replace("designated w;", "")
        with pytest.raises(TaskParseError) as exc:
            parse_task(bad)
        assert any("empty designated set" in str(d) for d in exc.value.diagnostics)

    def test_duplicate_task_block_rejected(self):
        bad = MINIMAL + "\ntask { initial: s0; actions: skip; }\n"
        with pytest.raises(TaskParseError) as exc:
            parse_task(bad)
        assert any("more than one task" in str(d) for d in exc.value.diagnostics)

    def test_reserved_atom_heads_rejected(self):
        bad = MINIMAL.replace("atoms { p }", "atoms { p; C }")
        with pytest.raises(TaskParseError):
            parse_task(bad)

    def test_grounding_cap(self):
        # 22 ** 3 = 10,648 instances; the cap is checked before any is built.
        text = """
agents { A }
sorts { thing }
objects { thing: a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s, t, u, v; }
atoms { P }
schema Link(x: thing, y: thing, z: thing) {
  pre: top;
  effect: P;
}
state s0 { world w { } designated w; }
goal { top }
task { initial: s0; actions: Link; }
"""
        with pytest.raises(TaskParseError) as exc:
            parse_task(text)
        assert any("cap" in str(d) for d in exc.value.diagnostics)

    def test_repeated_schema_parameter_is_a_diagnostic(self):
        text = """
agents { F }
sorts { agent, location }
objects { agent: F; location: H, P; }
atoms { At(agent, location) }
schema Go(agt: agent, agt: location, to: location) {
  pre: At(agt, to);
  effect: !At(agt, to);
}
state s0 { world w { } designated w; }
goal { top }
task { initial: s0; actions: Go; }
"""
        with pytest.raises(TaskParseError) as exc:
            parse_task(text)
        assert [str(d) for d in exc.value.diagnostics] == [
            "6:8: schema Go: duplicate parameter names"
        ]

    def test_invalid_utf8_is_a_diagnostic(self):
        with pytest.raises(TaskParseError):
            parse_task(b"\xff\xfe agents")

    def test_atom_names_are_whitespace_insensitive(self):
        spaced = MINIMAL.replace("atoms { p }", "atoms { At( X , Y ) }").replace(
            "world w { p }", "world w { At(X,Y) }"
        ).replace("goal { p }", "goal { At (X, Y) }")
        doc = parse_task(spaced)
        assert doc.task.vocab.atoms[0].name == "At(X,Y)"

    def test_extra_state_blocks_are_kept(self):
        text = MINIMAL + "\nstate other { world v { } designated v; }\n"
        doc = parse_task(text)
        assert "other" in doc.states
        assert doc.states["other"].model.n == 1

    def test_parser_never_crashes_on_noise(self):
        rng = random.Random(67)
        fragments = [
            "agents", "{", "}", "(", ")", ";", ",", "K[", "task", "state",
            "world", "p", "!", "&", "|", "edge", "->", "--", "goal", "¤", "#x",
        ]
        for _ in range(500):
            if rng.random() < 0.5:
                text = " ".join(rng.choice(fragments) for _ in range(rng.randint(0, 40)))
                data = text.encode()
            else:
                data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 160)))
            try:
                parse_task(data)
            except TaskParseError:
                pass  # diagnostics are the contract


class TestTokenize:
    def test_positions(self):
        # Columns count characters from 1: a tab or a `\r` is one column,
        # and `\n` starts the next line. A comment runs to the end of its
        # line; an unexpected character is a diagnostic, not a token.
        text = "agents { é, x² }\t# a -- b -> c\r\nedge A: u--v ->w;\r\n\t@ ²y\n#"
        diagnostics = []
        tokens = _tokenize(text, diagnostics)
        assert [(t.kind, t.text, t.line, t.col) for t in tokens] == [
            ("ident", "agents", 1, 1),
            ("punct", "{", 1, 8),
            ("ident", "é", 1, 10),
            ("punct", ",", 1, 11),
            ("ident", "x²", 1, 13),
            ("punct", "}", 1, 16),
            ("ident", "edge", 2, 1),
            ("ident", "A", 2, 6),
            ("punct", ":", 2, 7),
            ("ident", "u", 2, 9),
            ("punct", "--", 2, 10),
            ("ident", "v", 2, 12),
            ("punct", "->", 2, 14),
            ("ident", "w", 2, 16),
            ("punct", ";", 2, 17),
            ("ident", "y", 3, 5),
            ("eof", "", 4, 1),
        ]
        assert [str(d) for d in diagnostics] == [
            "3:2: unexpected character '@'",
            "3:4: unexpected character '²'",
        ]


class TestAtomDeclarations:
    def test_arguments_are_identifiers(self):
        # `P(f(a))` names no atom a world or a goal could mention, so its
        # declaration is the error.
        bad = MINIMAL.replace("atoms { p }", "atoms { p; P(f(a)) }")
        with pytest.raises(TaskParseError) as exc:
            parse_task(bad)
        assert [str(d) for d in exc.value.diagnostics] == ["3:15: expected ')', found '('"]


class TestBlockDiagnostics:
    """The exact diagnostics of the ``state`` and ``action`` blocks, one
    edit of ``MINIMAL`` each: message, position and order."""

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            (
                "world w { p }",
                "world w { p }\n  colour w;",
                ["10:3: unknown state entry 'colour'"],
            ),
            (
                "  designated e;",
                "  ramp e;\n  designated e;",
                ["6:3: unknown action entry 'ramp'"],
            ),
            (
                "post: top; }",
                "post: top; cost: top; }",
                ["5:34: unknown event entry 'cost'", "6:3: expected a block, found 'designated'"],
            ),
            (
                "designated w;",
                "edge A: w -- w if p;\n  designated w;",
                ["10:18: state edges cannot carry guards"],
            ),
            (
                "world w { p }",
                "world w { p }\n  world w { }",
                ["10:9: duplicate world: w"],
            ),
            (
                "event e { pre: top; post: top; }",
                "event e { pre: top; post: top; }\n  event e { pre: top; post: top; }",
                ["6:9: duplicate event: e"],
            ),
            (
                "designated w;",
                "edge A: w -- v;\n  designated v;",
                ["10:16: unknown world: v", "11:14: unknown world: v"],
            ),
            (
                "  designated e;",
                "  edge A: e -- f;\n  designated f;",
                ["6:16: unknown event: f", "7:14: unknown event: f"],
            ),
            (
                "event e { pre: top;",
                "event e { pre: zz;",
                ["5:18: unknown atom: zz"],
            ),
            ("world w { p }", "world w { zz }", ["9:13: unknown atom: zz"]),
            (
                "world w { p }\n  designated w;\n}\ngoal { p }\ntask { initial: s0; actions: skip; }\n",
                "world w { zz }\n  designated w;\n}\ngoal { p }\ntask { initial: s0; actions: skip; }\n"
                "state s0 { world v { p } designated v; }\n",
                ["9:13: unknown atom: zz", "14:7: duplicate state: s0"],
            ),
            (
                "event e { pre: top; post: top; }\n  designated e;\n}\n",
                "event e { pre: zz; post: top; }\n  designated e;\n}\n"
                "action skip { event f { pre: top; post: top; } designated f; }\n",
                ["5:18: unknown atom: zz", "8:8: duplicate action: skip"],
            ),
            ("designated w;", "", ["8:7: state s0: empty designated set"]),
            ("  designated e;\n", "", ["4:8: action skip: empty designated set"]),
            (
                "task { initial: s0; actions: skip; }\n",
                "task { initial: s0; actions: skip;",
                ["13:35: expected '}', found ''"],
            ),
            ("pre: top;", "pre: top; pre: !p;", ["5:23: duplicate event entry: pre"]),
            ("post: top;", "post: top; post: p;", ["5:34: duplicate event entry: post"]),
            ("pre: top;", "pre: ;", ["5:9: expected a formula"]),
            ("post: top;", "post: ;", ["5:9: expected a formula"]),
        ],
        ids=[
            "unknown-state-entry",
            "unknown-action-entry",
            "unknown-event-entry",
            "guarded-state-edge",
            "duplicate-world",
            "duplicate-event",
            "unknown-world",
            "unknown-event",
            "event-unknown-atom",
            "world-unknown-atom",
            "duplicate-of-a-failed-state",
            "duplicate-of-a-failed-action",
            "empty-state-designated",
            "empty-action-designated",
            "eof-in-block",
            "duplicate-pre",
            "duplicate-post",
            "empty-pre",
            "empty-post",
        ],
    )
    def test_exact_diagnostics(self, old, new, expected):
        assert old in MINIMAL
        with pytest.raises(TaskParseError) as exc:
            parse_task(MINIMAL.replace(old, new))
        assert [str(d) for d in exc.value.diagnostics] == expected


class TestNameDiagnostics:
    """The exact diagnostics of names that do not resolve (agents, atoms,
    worlds, actions, states), of names declared twice or written as calls
    and of the task block, one edit of ``MINIMAL`` each: message, position
    and order."""

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            ("actions: skip; }", "actions: skip; owner: Z; }", ["13:43: unknown agent: Z"]),
            ("actions: skip;", "actions: skip, hop;", ["13:36: unknown action: hop"]),
            ("initial: s0;", "initial: s9;", ["13:17: unknown state: s9"]),
            ("initial: s0; ", "", ["13:6: task has no initial state"]),
            ("goal { p }\n", "goal { p }\ngoal { p }\n", ["13:6: more than one goal block"]),
            ("designated w;", "edge Z: w -- w;\n  designated w;", ["10:8: unknown agent: Z"]),
            ("designated w;", "edge A: v -> w;\n  designated w;", ["10:11: unknown world: v"]),
            ("designated w;", "edge A: w -> v;\n  designated w;", ["10:16: unknown world: v"]),
            ("goal { p }", "goal { K[Z] p }", ["12:10: unknown agent: Z"]),
            ("goal { p }", "goal { p & zz }", ["12:12: unknown atom: zz"]),
            (
                "world w { p }",
                "world w { zz, yy }",
                ["9:13: unknown atom: zz", "9:17: unknown atom: yy"],
            ),
            ("agents { A }", "agents { A, A }", ["2:13: duplicate agent: A"]),
            (
                "world w { p }\n  designated w;\n}\ngoal { p }\ntask { initial: s0; actions: skip; }",
                "world w { p }\n  world v { }\n  edge A: w -- v;\n  designated w;\n}\ngoal { p }\n"
                "task { initial: s0; actions: skip; owner: A; }",
                ["15:6: initial state is not local for owner A"],
            ),
            (
                "atoms { p }",
                "atoms { p }\nschema Go() { pre: top; effect: p; }\n"
                "schema Go() { pre: p; effect: top; }",
                ["5:8: duplicate schema: Go"],
            ),
            (
                "initial: s0;",
                "initial: s0; initial: s0;",
                ["13:21: duplicate task entry: initial"],
            ),
            (
                "actions: skip; }",
                "actions: skip; owner: A; owner: A; }",
                ["13:46: duplicate task entry: owner"],
            ),
            (
                "atoms { p }",
                "objects { loc: H, P, H; }\natoms { p }",
                ["3:22: duplicate object: H"],
            ),
            ("atoms { p }", "sorts { s, s }\natoms { p }", ["3:12: duplicate sort: s"]),
            # An agent name is one identifier wherever it appears, as in
            # `K[...]`: a call is a diagnostic at its `(`.
            ("agents { A }", "agents { A, B(c) }", ["2:14: expected '}', found '('"]),
            ("designated w;", "edge A(b): w -- w;\n  designated w;", ["10:9: expected ':', found '('"]),
            (
                "actions: skip; }",
                "actions: skip; owner: A(b); }",
                ["13:44: expected ';' or '}', found '('"],
            ),
            ("goal { p }", "goal { K[A(b)] p }", ["12:11: expected ']', found '('"]),
            # So is a sort or object name: in `sorts`, as an `objects`
            # entry's sort or member and as a schema parameter's sort.
            ("atoms { p }", "sorts { s(a) }\natoms { p }", ["3:10: expected '}', found '('"]),
            (
                "atoms { p }",
                "objects { T: a, b(c); }\natoms { p }",
                ["3:18: expected ';' or '}', found '('"],
            ),
            ("atoms { p }", "objects { T(x): a; }\natoms { p }", ["3:12: expected ':', found '('"]),
            (
                "atoms { p }",
                "sorts { T }\nobjects { T: a }\natoms { p }\n"
                "schema Go(x: T(y)) { pre: top; effect: p; }",
                ["6:15: expected ')', found '('"],
            ),
            # After an entry whose `;` may be left out, a punctuation token
            # other than `;` or `}` is reported at that token.
            ("initial: s0;", "initial: s0)", ["13:19: expected ';' or '}', found ')'"]),
        ],
        ids=[
            "unknown-owner",
            "unknown-action",
            "unknown-initial-state",
            "no-initial-state",
            "second-goal",
            "edge-unknown-agent",
            "edge-unknown-source",
            "edge-unknown-target",
            "goal-unknown-agent",
            "goal-unknown-atom",
            "world-two-unknown-atoms",
            "duplicate-agent",
            "initial-not-local",
            "duplicate-schema",
            "duplicate-initial",
            "duplicate-owner",
            "duplicate-object",
            "duplicate-sort",
            "agent-call-declared",
            "agent-call-in-edge",
            "agent-call-as-owner",
            "agent-call-in-knows",
            "sort-call-declared",
            "object-call",
            "sort-call-in-objects",
            "sort-call-as-parameter",
            "entry-closed-by-paren",
        ],
    )
    def test_exact_diagnostics(self, old, new, expected):
        assert old in MINIMAL
        with pytest.raises(TaskParseError) as exc:
            parse_task(MINIMAL.replace(old, new))
        assert [str(d) for d in exc.value.diagnostics] == expected

    def test_task_action_precedence(self):
        # A task's action name is an action block's first, then a schema's
        # (all its ground instances), then one ground instance's.
        text = MINIMAL.replace(
            "atoms { p }",
            "sorts { T }\nobjects { T: a, b }\natoms { p }\n"
            "schema Go(x: T) { pre: top; effect: p; }\n"
            "schema Flip(x: T) { pre: top; effect: p; }\n"
            "schema Hop(x: T) { pre: top; effect: p; }\n"
            "action Flip(a) { event own { pre: top; post: top; } designated own; }\n"
            "action Hop { event h { pre: top; post: top; } designated h; }\n",
        ).replace("actions: skip;", "actions: skip, Go, Flip(b), Flip(a), Hop;")
        actions = parse_task(text).task.actions
        assert [(a.name, [e.name for e in a.events]) for a in actions] == [
            ("skip", ["e"]),
            ("Go(a)", ["e"]),
            ("Go(b)", ["e"]),
            ("Flip(b)", ["e"]),
            ("Flip(a)", ["own"]),
            ("Hop", ["h"]),
        ]

    def test_list_entries_extend(self):
        # A task's `actions:`, a block's `designated` and a schema's `pre:`
        # and `effect:` may each be given more than once.
        text = MINIMAL.replace(
            "atoms { p }",
            "atoms { p, q }\nschema Go() { pre: p; pre: !q; effect: q; effect: !p; }",
        ).replace("world w { p }", "world w { p }\n  world v { }").replace(
            "designated w;", "designated w;\n  designated v;"
        ).replace("actions: skip;", "actions: skip; actions: Go;")
        task = parse_task(text).task
        assert task.initial.designated == {0, 1}
        assert [a.name for a in task.actions] == ["skip", "Go"]
        (event,) = task.actions[1].events
        assert render_formula(event.pre) == "p & !q"
        assert render_formula(event.post.to_formula()) == "q & !p"


class TestFrontEndDiagnostics:
    """The exact diagnostics of formulas, edges, task and schema entries,
    atom templates and schema sorts, one edit of ``MINIMAL`` each:
    message, position and order."""

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            ("goal { p }", "goal { p q }", ["12:10: unexpected 'q' after formula"]),
            ("goal { p }", "goal { p & }", ["12:10: expected a formula, found ''"]),
            ("goal { p }", "goal { }", ["12:6: expected a formula"]),
            ("designated w;", "edge A: w w;\n  designated w;", ["10:13: expected '--' or '->'"]),
            ("actions: skip; }", "actions: skip; foo: A; }", ["13:36: unknown task entry 'foo'"]),
            (
                "  designated e;",
                "  event f { pre: top; post: top; }\n  edge A: e -> f;\n  edge A: e -> f;\n"
                "  designated e;",
                ["4:8: action skip: duplicate edge A: e -> f"],
            ),
            (
                "  designated e;",
                "  event f { pre: top; post: top; }\n  edge A: e -> f if zz;\n  designated e;",
                ["7:21: unknown atom: zz"],
            ),
            (
                "  designated e;",
                "  event f { pre: top; post: top; }\n  edge A: e -> f if ;\n  designated e;",
                ["7:8: expected a formula"],
            ),
            ("atoms { p }", "atoms { p; p }", ["3:12: duplicate atom: p"]),
            (
                "atoms { p }",
                "objects { loc: H, P; }\natoms { p; At(loc); At(H) }",
                ["4:21: duplicate atom: At(H)"],
            ),
            ("atoms { p }", "sorts { s }\natoms { p; Q(s) }", ["4:14: sort s has no objects"]),
            (
                "atoms { p }",
                "atoms { p }\nschema Go(x: nowhere) { pre: top; effect: top; }",
                ["4:14: unknown or empty sort: nowhere"],
            ),
            (
                "atoms { p }",
                "atoms { p }\nschema Go() { effects: p; }",
                ["4:15: unknown schema entry 'effects'"],
            ),
        ],
        ids=[
            "token-after-goal",
            "goal-ends-in-and",
            "empty-goal",
            "edge-without-arrow",
            "unknown-task-entry",
            "duplicate-edge",
            "guard-unknown-atom",
            "empty-guard",
            "duplicate-atom",
            "template-duplicates-atom",
            "sort-without-objects",
            "schema-unknown-sort",
            "unknown-schema-entry",
        ],
    )
    def test_exact_diagnostics(self, old, new, expected):
        assert old in MINIMAL
        with pytest.raises(TaskParseError) as exc:
            parse_task(MINIMAL.replace(old, new))
        assert [str(d) for d in exc.value.diagnostics] == expected

    @pytest.mark.parametrize(
        "text, expected",
        [("", ["1:1: expected a formula"]), ("p q", ["1:3: unexpected 'q' after formula"])],
    )
    def test_standalone_formula(self, text, expected):
        with pytest.raises(TaskParseError) as exc:
            parse_formula(text, Vocabulary(["p", "q"], ["A"]))
        assert [str(d) for d in exc.value.diagnostics] == expected

    def test_contradictory_instance_is_dropped(self):
        # Go(H,H) and Go(P,P) need At(H) & !At(H): they can never fire.
        text = MINIMAL.replace(
            "atoms { p }",
            "objects { loc: H, P; }\natoms { p; At(loc) }\n"
            "schema Go(f: loc, t: loc) { pre: At(f) & !At(t); effect: At(t) & !At(f); }",
        ).replace("actions: skip;", "actions: skip, Go;")
        actions = parse_task(text).task.actions
        assert [a.name for a in actions] == ["skip", "Go(H,P)", "Go(P,H)"]


class TestNestingLimit:
    """Formulas nested past ``MAX_FORMULA_NESTING`` levels end in one
    positioned diagnostic, not in the interpreter's recursion limit."""

    VOCAB = Vocabulary(["p"], ["a"])

    @pytest.mark.parametrize(
        "text, col",
        [
            ("!" * 2000 + "top", MAX_FORMULA_NESTING + 1),
            ("(" * 2000 + "top" + ")" * 2000, MAX_FORMULA_NESTING + 1),
            ("K[a] " * 300 + "p", 5 * MAX_FORMULA_NESTING + 1),
            ("!(" * 150 + "p" + ")" * 150, MAX_FORMULA_NESTING + 1),
        ],
        ids=["negations", "parentheses", "knows", "mixed"],
    )
    def test_too_deep_is_one_positioned_diagnostic(self, text, col):
        with pytest.raises(TaskParseError) as exc:
            parse_formula(text, self.VOCAB)
        [diagnostic] = exc.value.diagnostics
        assert (diagnostic.line, diagnostic.column) == (1, col)
        assert f"more than {MAX_FORMULA_NESTING} levels" in diagnostic.message

    def test_limit_itself_parses(self):
        depth = MAX_FORMULA_NESTING
        assert parse_formula("!" * depth + "p", self.VOCAB) is not None
        assert parse_formula("(" * depth + "p" + ")" * depth, self.VOCAB) is not None
        assert parse_formula("C " * depth + "p", self.VOCAB) is not None

    def test_document_goal_reports_position(self):
        text = MINIMAL.replace("goal { p }", "goal {\n  " + "!" * 1000 + "p }")
        with pytest.raises(TaskParseError) as exc:
            parse_task(text)
        [diagnostic] = exc.value.diagnostics
        line = text.splitlines().index("goal {") + 2
        assert (diagnostic.line, diagnostic.column) == (line, 3 + MAX_FORMULA_NESTING)


class TestRoundTrip:
    @pytest.mark.parametrize("name", TASK_FILES)
    def test_corpus_round_trips(self, name):
        task = load_doc(name).task
        text = serialize_task(task)
        again = parse_task(text).task
        assert again == task

    def test_serialization_is_stable(self):
        task = load_doc("wrap_copresence").task
        once = serialize_task(task)
        assert serialize_task(parse_task(once).task) == once

    def test_minimal_document_golden(self):
        text = serialize_task(parse_task(MINIMAL).task)
        assert text == (GOLDEN_DIR / "minimal.eplan").read_text()

    def test_mixed_edges_document_golden(self):
        text = serialize_task(parse_task(MIXED_EDGES).task)
        assert text == (GOLDEN_DIR / "mixed_edges.eplan").read_text()

    def test_guards_survive_round_trip(self, wrap_copresence):
        wrap = wrap_copresence.action_named("Wrap(Father,Present,PostOffice)")
        text = serialize_task(wrap_copresence)
        again = parse_task(text).task.action_named("Wrap(Father,Present,PostOffice)")
        assert again == wrap
        guards = [g for g in again.edges if not isinstance(g.condition, Top)]
        assert len(guards) == 2

    def test_refuses_product_update_world_names(self, ask_private):
        state = product_update(ask_private.initial, ask_private.actions[0])
        task = EpistemicTask(
            ask_private.vocab, ask_private.actions, state, ask_private.goal
        )
        with pytest.raises(ModelError, match=r"world name '\(w1,yes\)'"):
            serialize_task(task)

    def test_refuses_an_ask_about_a_compound_formula(self, ask_private):
        vocab = ask_private.vocab
        father, employee = vocab.agents[:2]
        phi = And(Prop(vocab.atoms[0]), Prop(vocab.atoms[1]))
        ask = make_ask(vocab, father, employee, phi)
        task = EpistemicTask(vocab, [ask], ask_private.initial, ask_private.goal)
        with pytest.raises(ModelError, match=r"action name 'Ask\(Father,Employee,"):
            serialize_task(task)

    def test_formula_round_trip_through_text(self, po2):
        for phi in (po2.goal,):
            from eplan import render_formula

            assert parse_formula(render_formula(phi), po2.vocab) == phi


class TestDot:
    @pytest.mark.parametrize(
        "golden, kind, name",
        [
            ("s0_father.dot", "state", "two_post_offices"),
            ("one_world.dot", "state", "birthday_single"),
            ("private_ask.dot", "action", "ask_private"),
            ("mixed_edges_state.dot", "state", "mixed_edges"),
            ("mixed_edges_action.dot", "action", "mixed_edges"),
        ],
    )
    def test_golden_files(self, golden, kind, name):
        doc = parse_task(MIXED_EDGES) if name == "mixed_edges" else load_doc(name)
        if kind == "state":
            text = export_dot(doc.task.initial)
        else:
            text = export_dot(doc.task.actions[0])
        assert text == (GOLDEN_DIR / golden).read_text()

    def test_designated_worlds_double_circled(self, po2):
        text = export_dot(po2.initial)
        assert text.count("peripheries=2") == 2
        assert text.count('label="Father"') == 1  # merged symmetric edge

    def test_private_ask_shape(self, ask_private):
        text = export_dot(ask_private.action_named("AskWhetherPO1"))
        assert text.count("peripheries=2") == 3
        assert text.count("Employee2") == 3
        assert "dir=none" not in text

    def test_world_names_are_escaped(self):
        vocab = Vocabulary(["p"], ["a"])
        state = EpistemicState(EpistemicModel(vocab, ['a"b\\c'], [[]]), [0])
        assert '  n0 [label="a\\"b\\\\c", peripheries=2];' in export_dot(state)

    def test_stable_across_runs(self, po2):
        assert export_dot(po2.initial) == export_dot(po2.initial)


class TestRenderers:
    def test_render_state_lists_worlds_and_edges(self, po2):
        text = render_state(po2.initial)
        assert "world w1 [designated]: At(Father,Home), At(Present,PostOffice1)" in text
        assert "edge Father: w1 -- w2" in text

    def test_render_state_line_compact(self, po2):
        line = render_state_line(po2.initial)
        assert line.startswith("w1*[")
        assert "| Father:w1--w2" in line


def _assert_listed_as_reference(state):
    assert render_state(state) == reference.render_state(state)
    assert render_state_line(state) == reference.render_state_line(state)
    assert export_dot(state) == reference.export_dot(state)
    assert _serialize_block(state, "s") == reference._serialize_state(state, "s")
    assert json.dumps(_state_payload(state)) == json.dumps(reference.state_payload(state))


class TestListingOracle:
    """State edges read along the successor rows list the same bytes as
    the sorted edge set of ``tests/reference_render.py``."""

    def test_generated_states(self):
        rng = random.Random(2020)
        shapes = {"one world": 0, "no edges": 0, "one-way": 0, "two-way": 0}
        for i in range(1000):
            vocab = gen_vocab(rng, max_atoms=2, max_agents=3)
            gen = gen_state if i % 4 else gen_equivalence_state
            state = gen(rng, vocab, max_worlds=6)
            shapes["one world"] += state.model.n == 1
            shapes["no edges"] += not any(state.model.edges[a] for a in vocab.agents)
            for agent in vocab.agents:
                pairs = state.model.edges[agent]
                shapes["one-way"] += any((v, u) not in pairs for (u, v) in pairs)
                shapes["two-way"] += any((v, u) in pairs for (u, v) in pairs)
            _assert_listed_as_reference(state)
        assert all(shapes.values()), shapes

    def test_actions(self):
        # The action listing keeps its guard comparison and sort.
        rng = random.Random(2021)
        actions = [parse_task(MIXED_EDGES).task.actions[0]]
        actions += [a for name in TASK_FILES for a in load_doc(name).task.actions]
        for i in range(300):
            actions.append(gen_action(rng, gen_vocab(rng, max_agents=3), i, max_events=4))
        for action in actions:
            assert export_dot(action) == reference.export_dot(action)

    def test_private_asks(self, ask_private):
        # k private asks: 2 ** (k + 1) worlds, mostly one-way Employee2
        # edges; 512 worlds and 13,122 Employee2 edges at k = 8.
        ask = ask_private.action_named("AskWhetherPO1")
        state = ask_private.initial
        for k in range(9):
            if k:
                state = product_update(state, ask)
            _assert_listed_as_reference(state)
            _assert_listed_as_reference(bisim_contract(state))
        assert state.model.n == 512
        text = render_state(state).encode("utf-8")
        payload = json.dumps(_state_payload(state), ensure_ascii=False).encode("utf-8")
        assert (len(text), hashlib.sha256(text).hexdigest()) == (
            1_695_043, "d4066bf5dfb3ba4f883cb642c5644e4bf9e635f2493bb2309a148e6cff8e3708"
        )
        assert (len(payload), hashlib.sha256(payload).hexdigest()) == (
            2_124_184, "b7554117edaf80a08d5654ca8eb20386e0a565851f895ecac361a0976ac10946"
        )
