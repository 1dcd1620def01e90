"""The ``.eplan`` task format: parser with positioned diagnostics, a
canonical serializer, and Graphviz DOT export.

A document declares agents, sorts, objects, atoms (literal or templates
over sorts), STRIPS-style schemas (ground at parse time), explicit action
models, states, a goal, and exactly one task block wiring them together.
`#` starts a line comment; input is UTF-8 and whitespace-insensitive.
Blocks may appear in any order: names are resolved after the whole
document has been read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, NamedTuple

from .actions import EdgeGuard, EpistemicAction, Event, induced_action
from .classical import ActionSchema, SchemaAtom, SchemaLiterals, applied_name, ground
from .errors import ConsistencyError, Diagnostic, ModelError, TaskParseError, VocabularyError
from .logic import (
    TOP,
    Agent,
    And,
    Bottom,
    Common,
    Formula,
    Knows,
    LiteralConjunction,
    Not,
    Or,
    Prop,
    Top,
    Vocabulary,
    render_formula,
)
from .models import EpistemicModel, EpistemicState
from .planner import EpistemicTask

BLOCK_KEYWORDS = (
    "agents",
    "sorts",
    "objects",
    "atoms",
    "schema",
    "action",
    "state",
    "goal",
    "task",
)
RESERVED_HEADS = {"top", "bot", "K", "C"}
# The most ground actions the schemas of one document may have.
GROUND_CAP = 10_000
# The name serialize_task gives the initial state.
_INITIAL_NAME = "s0"
# Formulas are parsed, evaluated and rendered recursively, one call per
# level of `!`, `K`, `C` or parentheses; deeper input is rejected with a
# positioned diagnostic instead of exhausting the interpreter's stack.
MAX_FORMULA_NESTING = 200


# --------------------------------------------------------------------------
# Tokens


class Token(NamedTuple):
    kind: str  # "ident" | "punct" | "eof"
    text: str
    line: int
    col: int


_TWO_CHAR = {"--", "->"}
_ONE_CHAR = set("{}()[],:;&|!")


def _tokenize(text: str, diagnostics: list[Diagnostic]) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            tokens.append(Token("ident", word, line, col))
            col += i - start
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        diagnostics.append(Diagnostic(line, col, f"unexpected character {ch!r}"))
        i += 1
        col += 1
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Abort(Exception):
    """Internal: unwinds to the nearest recovery point."""


class _Stream:
    def __init__(self, tokens: list[Token], diagnostics: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = diagnostics

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def error(self, message: str, tok: Token | None = None) -> _Abort:
        tok = tok or self.peek()
        self.diagnostics.append(Diagnostic(tok.line, tok.col, message))
        return _Abort()

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.next()
        raise self.error(f"expected {text!r}, found {self.peek().text!r}")

    def expect_ident(self, what: str = "a name") -> Token:
        tok = self.peek()
        if tok.kind == "ident":
            return self.next()
        raise self.error(f"expected {what}, found {tok.text!r}")

    def end_entry(self) -> None:
        """Close a block entry. Its ``;`` may be left out before an
        identifier, a ``}`` or the end of input; any other token is an
        error at that token."""
        tok = self.peek()
        if tok.text == ";":
            self.next()
        elif tok.kind == "punct" and tok.text != "}":
            raise self.error(f"expected ';' or '}}', found {tok.text!r}")

    def skip_to_recovery(self) -> None:
        """Skip tokens until a plausible top-level block start."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth = max(0, depth - 1)
                self.next()
                if depth == 0:
                    return
                continue
            elif depth == 0 and tok.kind == "ident" and tok.text in BLOCK_KEYWORDS:
                return
            self.next()


def _find(diagnostics: list[Diagnostic], table: dict, name: Token, what: str):
    """``table[name.text]``, or None after an ``unknown <what>: <name>``
    diagnostic at the name. Callers test ``is None``: a world or event
    index of 0 is found."""
    value = table.get(name.text)
    if value is None:
        diagnostics.append(Diagnostic(name.line, name.col, f"unknown {what}: {name.text}"))
    return value


def _declare(diagnostics: list[Diagnostic], table: dict, name: Token, value, what: str) -> bool:
    """Enter ``value`` as ``table[name.text]`` and return True; or, when the
    name is already there, keep the first declaration and return False
    after a ``duplicate <what>: <name>`` diagnostic at the name."""
    if name.text in table:
        diagnostics.append(Diagnostic(name.line, name.col, f"duplicate {what}: {name.text}"))
        return False
    table[name.text] = value
    return True


# --------------------------------------------------------------------------
# Raw (unresolved) document pieces. Every positioned name is a `Token`. Each
# record is built with fresh lists, which the parser then fills in place.


class _RawEdge(NamedTuple):
    agent: Token
    source: Token
    target: Token
    symmetric: bool
    guard_tokens: list[Token] | None  # None when unguarded


class _RawGraph(NamedTuple):
    """A ``state`` or ``action`` block. ``nodes`` lists (name, body) in
    document order: a world's body is its atom refs, an event's body its
    formula tokens by entry (``pre``, ``post``)."""

    name: Token
    nodes: list[tuple[Token, object]]
    edges: list[_RawEdge]
    designated: list[Token]


# A schema literal: (positive?, predicate, arguments).
_Literal = tuple[bool, Token, list[Token]]


class _RawSchema(NamedTuple):
    name: Token
    parameters: list[tuple[str, Token]]
    pre: list[_Literal]
    effect: list[_Literal]


class _RawTask(NamedTuple):
    where: Token
    initial: Token | None
    actions: list[Token]
    owner: Token | None


class _RawDocument(NamedTuple):
    agents: list[Token]
    sorts: list[Token]
    objects: list[tuple[Token, list[Token]]]
    atom_decls: list[tuple[Token, list[Token]]]
    schemas: list[_RawSchema]
    actions: list[_RawGraph]
    states: list[_RawGraph]
    goals: list[tuple[list[Token], Token]]
    tasks: list[_RawTask]


def _parse_call(s: _Stream, what: str) -> tuple[Token, list[Token]]:
    """IDENT optionally followed by a parenthesized identifier list, as
    (head, arguments)."""
    head = s.expect_ident(what)
    args: list[Token] = []
    if s.eat("("):
        args.append(s.expect_ident("an argument"))
        while s.eat(","):
            args.append(s.expect_ident("an argument"))
        s.expect(")")
    return head, args


def _parse_ref(s: _Stream, what: str = "a name") -> Token:
    """A call (:func:`_parse_call`) as one name at its head: the canonical
    text joins the pieces without whitespace."""
    head, args = _parse_call(s, what)
    if not args:
        return head
    return Token("ident", applied_name(head.text, [a.text for a in args]), head.line, head.col)


def _parse_name_list(s: _Stream, what: str, read=_parse_ref) -> list[Token]:
    names = [read(s, what)]
    while s.eat(","):
        names.append(read(s, what))
    return names


def _collect_formula_tokens(s: _Stream, stop: tuple[str, ...]) -> list[Token]:
    """Grab the raw tokens of a formula up to a stop punct at paren depth 0."""
    depth = 0
    out: list[Token] = []
    while True:
        tok = s.peek()
        if tok.kind == "eof":
            return out
        if tok.text == "(" or tok.text == "[":
            depth += 1
        elif tok.text == ")" or tok.text == "]":
            if depth == 0:
                return out
            depth -= 1
        elif depth == 0 and tok.text in stop:
            return out
        out.append(s.next())


def _parse_edge(s: _Stream, allow_guard: bool) -> _RawEdge:
    agent = s.expect_ident("an agent name")
    s.expect(":")
    source = _parse_ref(s, "an endpoint")
    if s.eat("--"):
        symmetric = True
    elif s.eat("->"):
        symmetric = False
    else:
        raise s.error("expected '--' or '->'")
    target = _parse_ref(s, "an endpoint")
    guard_tokens = None
    if s.at("if"):
        if not allow_guard:
            raise s.error("state edges cannot carry guards")
        s.next()
        guard_tokens = _collect_formula_tokens(s, (";", "}"))
    return _RawEdge(agent, source, target, symmetric, guard_tokens)


def _parse_raw(s: _Stream) -> _RawDocument:
    doc = _RawDocument(*([] for _ in _RawDocument._fields))
    while s.peek().kind != "eof":
        tok = s.peek()
        if tok.kind != "ident" or tok.text not in BLOCK_KEYWORDS:
            s.diagnostics.append(
                Diagnostic(tok.line, tok.col, f"expected a block, found {tok.text!r}")
            )
            s.next()
            s.skip_to_recovery()
            continue
        try:
            _parse_block(s, doc)
        except _Abort:
            s.skip_to_recovery()
    return doc


def _parse_block(s: _Stream, doc: _RawDocument) -> None:
    keyword = s.next().text
    if keyword == "agents":
        s.expect("{")
        if not s.at("}"):
            doc.agents.extend(_parse_name_list(s, "an agent name", _Stream.expect_ident))
        s.expect("}")
    elif keyword == "sorts":
        s.expect("{")
        while not s.at("}") and s.peek().kind != "eof":
            doc.sorts.append(s.expect_ident("a sort name"))
            if not (s.eat(",") or s.eat(";")):
                break
        s.expect("}")
    elif keyword == "objects":
        s.expect("{")
        while not s.at("}") and s.peek().kind != "eof":
            sort = s.expect_ident("a sort name")
            s.expect(":")
            members = _parse_name_list(s, "an object name", _Stream.expect_ident)
            doc.objects.append((sort, members))
            s.end_entry()
        s.expect("}")
    elif keyword == "atoms":
        s.expect("{")
        while not s.at("}") and s.peek().kind != "eof":
            doc.atom_decls.append(_parse_call(s, "an atom name"))
            if not (s.eat(",") or s.eat(";")):
                break
        s.expect("}")
    elif keyword == "schema":
        doc.schemas.append(_parse_schema(s))
    elif keyword == "action":
        doc.actions.append(_parse_graph(s, "an action", "an event", _event_body))
    elif keyword == "state":
        doc.states.append(_parse_graph(s, "a state", "a world", _world_body))
    elif keyword == "goal":
        tok = s.expect("{")
        tokens = _collect_formula_tokens(s, ("}",))
        s.expect("}")
        doc.goals.append((tokens, tok))
    elif keyword == "task":
        where = s.expect("{")
        actions: list[Token] = []
        entries: dict[str, Token] = {}  # the singular entries
        while not s.at("}") and s.peek().kind != "eof":
            entry = s.expect_ident("a task entry")
            s.expect(":")
            if entry.text == "actions":
                actions.extend(_parse_name_list(s, "an action name"))
            elif entry.text in ("initial", "owner"):
                read = _parse_ref if entry.text == "initial" else _Stream.expect_ident
                what = "a state name" if entry.text == "initial" else "an agent name"
                _declare(s.diagnostics, entries, entry, read(s, what), "task entry")
            else:
                raise s.error(f"unknown task entry {entry.text!r}", entry)
            s.end_entry()
        s.expect("}")
        doc.tasks.append(_RawTask(where, entries.get("initial"), actions, entries.get("owner")))


def _parse_schema(s: _Stream) -> _RawSchema:
    name = s.expect_ident("a schema name")
    params: list[tuple[str, Token]] = []
    s.expect("(")
    if not s.at(")"):
        while True:
            var = s.expect_ident("a parameter name")
            s.expect(":")
            sort = s.expect_ident("a sort name")
            params.append((var.text, sort))
            if not s.eat(","):
                break
    s.expect(")")
    s.expect("{")
    pre: list[_Literal] = []
    effect: list[_Literal] = []
    while not s.at("}") and s.peek().kind != "eof":
        entry = s.expect_ident("'pre' or 'effect'")
        s.expect(":")
        target = pre if entry.text == "pre" else effect
        if entry.text not in ("pre", "effect"):
            raise s.error(f"unknown schema entry {entry.text!r}", entry)
        _parse_schema_literals(s, target)
        s.end_entry()
    s.expect("}")
    return _RawSchema(name, params, pre, effect)


def _parse_schema_literals(s: _Stream, out: list[_Literal]) -> None:
    if s.eat("top"):
        return
    while True:
        positive = not s.eat("!")
        out.append((positive, *_parse_call(s, "an atom")))
        if not s.eat("&"):
            return


def _parse_graph(s: _Stream, block: str, node: str, read_body) -> _RawGraph:
    """A ``state`` or ``action`` block. ``block`` and ``node`` are the block
    and node kinds with their article, as diagnostics print them ("a state"
    and "a world", or "an action" and "an event"); ``read_body`` reads a
    node's body between its braces."""
    kind, node_kind = block.split()[1], node.split()[1]
    graph = _RawGraph(_parse_ref(s, f"{block} name"), [], [], [])
    s.expect("{")
    while not s.at("}") and s.peek().kind != "eof":
        entry = s.expect_ident(f"{block} entry")
        if entry.text == node_kind:
            name = _parse_ref(s, f"{node} name")
            s.expect("{")
            body = read_body(s)
            s.expect("}")
            graph.nodes.append((name, body))
        elif entry.text == "edge":
            graph.edges.append(_parse_edge(s, allow_guard=kind == "action"))
            s.end_entry()
        elif entry.text == "designated":
            graph.designated.extend(_parse_name_list(s, f"{node} name"))
            s.end_entry()
        else:
            raise s.error(f"unknown {kind} entry {entry.text!r}", entry)
    s.expect("}")
    return graph


def _world_body(s: _Stream) -> list[Token]:
    return [] if s.at("}") else _parse_name_list(s, "an atom")


def _event_body(s: _Stream) -> dict[str, list[Token]]:
    parts: dict[str, list[Token]] = {}
    while not s.at("}") and s.peek().kind != "eof":
        part = s.expect_ident("'pre' or 'post'")
        s.expect(":")
        tokens = _collect_formula_tokens(s, (";", "}"))
        if part.text not in ("pre", "post"):
            raise s.error(f"unknown event entry {part.text!r}", part)
        _declare(s.diagnostics, parts, part, tokens, "event entry")
        s.end_entry()
    return parts


# --------------------------------------------------------------------------
# Formula parsing (token list -> Formula over a vocabulary)


class _FormulaParser:
    def __init__(self, tokens: list[Token], vocab: Vocabulary, diagnostics: list[Diagnostic]):
        end = tokens[-1] if tokens else Token("eof", "", 1, 1)
        self.stream = _Stream(tokens + [Token("eof", "", end.line, end.col)], diagnostics)
        self.vocab = vocab
        self.depth = 0

    def parse(self) -> Formula:
        s = self.stream
        if s.peek().kind == "eof":
            raise s.error("expected a formula")
        phi = self._or()
        if s.peek().kind != "eof":
            raise s.error(f"unexpected {s.peek().text!r} after formula")
        return phi

    def _or(self) -> Formula:
        phi = self._and()
        while self.stream.eat("|"):
            phi = Or(phi, self._and())
        return phi

    def _and(self) -> Formula:
        phi = self._unary()
        while self.stream.eat("&"):
            phi = And(phi, self._unary())
        return phi

    def _nested(self, parse, tok: Token) -> Formula:
        """``parse()`` one nesting level below ``tok``, within the limit."""
        if self.depth >= MAX_FORMULA_NESTING:
            raise self.stream.error(
                f"formula nested more than {MAX_FORMULA_NESTING} levels deep", tok
            )
        self.depth += 1
        phi = parse()
        self.depth -= 1
        return phi

    def _unary(self) -> Formula:
        s = self.stream
        tok = s.peek()
        if s.eat("!"):
            return Not(self._nested(self._unary, tok))
        if s.eat("K"):
            s.expect("[")
            agent_tok = s.expect_ident("an agent name")
            s.expect("]")
            agent = _find(s.diagnostics, self.vocab._agent_by_name, agent_tok, "agent")
            if agent is None:
                raise _Abort()
            return Knows(agent, self._nested(self._unary, tok))
        if s.eat("C"):
            return Common(self._nested(self._unary, tok))
        if s.eat("top"):
            return Top()
        if s.eat("bot"):
            return Bottom()
        if s.eat("("):
            phi = self._nested(self._or, tok)
            s.expect(")")
            return phi
        if tok.kind == "ident":
            atom = _find(s.diagnostics, self.vocab._atom_by_name, _parse_ref(s, "an atom"), "atom")
            if atom is None:
                raise _Abort()
            return Prop(atom)
        raise s.error(f"expected a formula, found {tok.text!r}")


def parse_formula(text: str, vocab: Vocabulary) -> Formula:
    """Parse a standalone formula in the task syntax; raises TaskParseError."""
    diagnostics: list[Diagnostic] = []
    tokens = _tokenize(text, diagnostics)
    if diagnostics:
        raise TaskParseError(diagnostics)
    try:
        phi = _FormulaParser(tokens[:-1], vocab, diagnostics).parse()
    except _Abort:
        raise TaskParseError(diagnostics) from None
    if diagnostics:
        raise TaskParseError(diagnostics)
    return phi


# --------------------------------------------------------------------------
# Resolution


@dataclass
class ParsedDocument:
    """A fully resolved document: the task and its named states."""

    task: EpistemicTask
    states: dict[str, EpistemicState]


def parse_task(text: str | bytes) -> ParsedDocument:
    """Parse and resolve a task document; no partial tasks come back.

    Raises :class:`TaskParseError` with positioned diagnostics for lexical,
    syntactic, resolution, and semantic problems.
    """
    diagnostics: list[Diagnostic] = []
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TaskParseError(
                [Diagnostic(1, 1, f"input is not valid UTF-8: {exc.reason}")]
            ) from None
    tokens = _tokenize(text, diagnostics)
    stream = _Stream(tokens, diagnostics)
    doc = _parse_raw(stream)

    parsed = _Resolver(doc, diagnostics).resolve()
    if parsed is None:
        raise TaskParseError(diagnostics)
    return parsed


class _Resolver:
    def __init__(self, doc: _RawDocument, diagnostics: list[Diagnostic]):
        self.doc = doc
        self.diagnostics = diagnostics

    def note(self, where: Token, message: str) -> None:
        self.diagnostics.append(Diagnostic(where.line, where.col, message))

    def resolve(self) -> ParsedDocument | None:
        """The resolved document, or None after at least one diagnostic."""
        doc = self.doc
        vocab = self._build_vocab()
        if vocab is None:
            return None
        self.vocab = vocab
        schema_groups = self._ground_schemas(vocab)
        explicit = self._resolve_graphs("action")
        states = self._resolve_graphs("state")
        goal = self._build_goal()

        if not doc.tasks:
            self.diagnostics.append(Diagnostic(1, 1, "missing task block"))
            return None
        if len(doc.tasks) > 1:
            self.note(doc.tasks[1].where, "more than one task block")
            return None
        raw = doc.tasks[0]
        if self.diagnostics:
            return None

        # A task's action name is an action block's, else a schema's (all
        # its ground instances), else one ground instance's. Instance names
        # differ across schemas: each starts with its schema's name.
        table = {a.name: [a] for group in schema_groups.values() for a in group}
        table.update(schema_groups)
        table.update((name, [action]) for name, action in explicit.items())
        actions: list[EpistemicAction] = []
        for name in raw.actions:
            actions.extend(_find(self.diagnostics, table, name, "action") or ())
        initial = owner = None
        if raw.initial is None:
            self.note(raw.where, "task has no initial state")
        else:
            initial = _find(self.diagnostics, states, raw.initial, "state")
        if raw.owner is not None:
            owner = _find(self.diagnostics, vocab._agent_by_name, raw.owner, "agent")
        if goal is None:
            self.note(raw.where, "missing goal block")
        if self.diagnostics:
            return None
        try:
            task = EpistemicTask(vocab, actions, initial, goal, owner)
        except (ModelError, VocabularyError) as exc:
            self.note(raw.where, str(exc))
            return None
        return ParsedDocument(task, states)

    # -- phase 1: vocabulary ------------------------------------------------

    def _build_vocab(self) -> Vocabulary | None:
        doc = self.doc
        agents: dict[str, None] = {}
        for name in doc.agents:
            _declare(self.diagnostics, agents, name, None, "agent")

        sort_members: dict[str, dict[str, None]] = {}
        for sort, members in doc.objects:
            bucket = sort_members.setdefault(sort.text, {})
            for member in members:
                _declare(self.diagnostics, bucket, member, None, "object")
        self.sorts = {name: tuple(vals) for name, vals in sort_members.items()}
        declared: dict[str, None] = {}
        for sort in doc.sorts:
            _declare(self.diagnostics, declared, sort, None, "sort")
            self.sorts.setdefault(sort.text, ())

        atoms: dict[str, None] = {}
        for head, args in doc.atom_decls:
            if head.text in RESERVED_HEADS:
                self.note(head, f"{head.text!r} is reserved and cannot name an atom")
                continue
            if not args:
                _declare(self.diagnostics, atoms, head, None, "atom")
                continue
            domains: list[tuple[str, ...]] = []
            for arg in args:
                if arg.text not in self.sorts:
                    domains.append((arg.text,))  # a constant, used literally
                    continue
                if not self.sorts[arg.text]:
                    self.note(arg, f"sort {arg.text} has no objects")
                domains.append(self.sorts[arg.text])
            for combo in product(*domains):
                name = Token("ident", applied_name(head.text, combo), head.line, head.col)
                _declare(self.diagnostics, atoms, name, None, "atom")

        if self.diagnostics:
            return None
        return Vocabulary(list(atoms), list(agents))

    # -- phase 2: schemas ---------------------------------------------------

    def _ground_schemas(self, vocab: Vocabulary) -> dict[str, list[EpistemicAction]]:
        groups: dict[str, list[EpistemicAction]] = {}
        total = 0
        for raw in self.doc.schemas:
            # Declared before grounding, so a later schema of the same name
            # is a duplicate even when this one fails.
            if not _declare(self.diagnostics, groups, raw.name, [], "schema"):
                continue
            params = []
            count = 1
            for var, sort in raw.parameters:
                if sort.text not in self.sorts or not self.sorts[sort.text]:
                    self.note(sort, f"unknown or empty sort: {sort.text}")
                    continue
                params.append((var, sort.text))
                count *= len(self.sorts[sort.text])
            if len(params) < len(raw.parameters):
                continue
            total += count
            if total > GROUND_CAP:
                self.note(
                    raw.name, f"grounding exceeds the cap of {GROUND_CAP} actions; split the task"
                )
                return groups
            try:
                schema = ActionSchema(
                    raw.name.text,
                    params,
                    self._schema_literals(raw.pre),
                    self._schema_literals(raw.effect),
                )
                ground_actions = ground([schema], self.sorts, vocab)
            except (ModelError, VocabularyError, ConsistencyError) as exc:
                self.note(raw.name, f"schema {raw.name.text}: {exc}")
                continue
            groups[raw.name.text] = [
                induced_action(ga.name, vocab, ga.pre, ga.post) for ga in ground_actions
            ]
        return groups

    @staticmethod
    def _schema_literals(items: list[_Literal]) -> SchemaLiterals:
        pos: list[SchemaAtom] = []
        neg: list[SchemaAtom] = []
        for positive, head, args in items:
            (pos if positive else neg).append(SchemaAtom(head.text, [a.text for a in args]))
        return SchemaLiterals(pos, neg)

    # -- phases 3 and 4: action and state blocks ----------------------------

    def _resolve_graphs(self, kind: str) -> dict:
        """The ``action`` or ``state`` blocks (``kind``) by name. Per block:
        its nodes, each read by :meth:`_event` or :meth:`_world` and indexed
        even when its body fails; then its edges; then its designated set;
        then the action or state itself. A block that fails stays declared,
        as None, after its diagnostic."""
        is_action = kind == "action"
        node_kind, read = ("event", self._event) if is_action else ("world", self._world)
        out: dict = {}
        for raw in self.doc.actions if is_action else self.doc.states:
            if not _declare(self.diagnostics, out, raw.name, None, kind):
                continue
            values: list = []
            index: dict[str, int] = {}  # node names in document order
            ok = True
            for name, body in raw.nodes:
                if not _declare(self.diagnostics, index, name, len(values), node_kind):
                    ok = False
                    continue
                value = read(name, body)
                if value is None:
                    ok = False
                values.append(value)
            edges: list[EdgeGuard] = []
            for redge in raw.edges:
                resolved = self._resolve_edge(redge, index, node_kind)
                if resolved is None:
                    ok = False
                else:
                    edges.extend(resolved)
            designated = self._find_all(index, raw.designated, node_kind)
            if not raw.designated:
                self.note(raw.name, f"{kind} {raw.name.text}: empty designated set")
                ok = False
            if not ok or designated is None:
                continue
            try:
                if is_action:
                    out[raw.name.text] = EpistemicAction(
                        raw.name.text, self.vocab, values, designated, edges
                    )
                else:
                    pairs: dict = {}
                    for edge in edges:
                        pairs.setdefault(edge.agent, []).append((edge.source, edge.target))
                    model = EpistemicModel(self.vocab, list(index), values, pairs)
                    out[raw.name.text] = EpistemicState(model, designated)
            except (ModelError, VocabularyError) as exc:
                self.note(raw.name, str(exc))
        return out

    def _event(self, name: Token, body: dict[str, list[Token]]) -> Event | None:
        """An absent entry is ``top``; an empty one is a diagnostic."""
        pre_tokens, post_tokens = body.get("pre"), body.get("post")
        pre = TOP if pre_tokens is None else self._formula(pre_tokens, name)
        post = TOP if post_tokens is None else self._formula(post_tokens, name)
        if pre is None or post is None:
            return None
        try:
            return Event(name.text, pre, LiteralConjunction.from_formula(post))
        except ConsistencyError as exc:
            self.note(name, f"inconsistent postcondition: {exc}")
            return None

    def _world(self, name: Token, refs: list[Token]) -> list | None:
        return self._find_all(self.vocab._atom_by_name, refs, "atom")

    def _find_all(self, table: dict, names: list[Token], what: str) -> list | None:
        """Each name's entry in ``table``, or None when any is missing (each
        missing one noted by :func:`_find`)."""
        found = [_find(self.diagnostics, table, name, what) for name in names]
        return None if None in found else found

    def _resolve_edge(self, redge: _RawEdge, index: dict[str, int], what: str):
        agent = _find(self.diagnostics, self.vocab._agent_by_name, redge.agent, "agent")
        if agent is None:
            return None
        src = _find(self.diagnostics, index, redge.source, what)
        if src is None:
            return None
        tgt = _find(self.diagnostics, index, redge.target, what)
        if tgt is None:
            return None
        guard = TOP
        if redge.guard_tokens is not None:
            parsed = self._formula(redge.guard_tokens, redge.agent)
            if parsed is None:
                return None
            guard = parsed
        if redge.symmetric:
            return [EdgeGuard(agent, src, tgt, guard), EdgeGuard(agent, tgt, src, guard)]
        return [EdgeGuard(agent, src, tgt, guard)]

    def _formula(self, tokens: list[Token], where: Token) -> Formula | None:
        if not tokens:
            self.note(where, "expected a formula")
            return None
        try:
            return _FormulaParser(tokens, self.vocab, self.diagnostics).parse()
        except _Abort:
            return None

    # -- phase 5: goal ------------------------------------------------------

    def _build_goal(self) -> Formula | None:
        if not self.doc.goals:
            return None
        if len(self.doc.goals) > 1:
            self.note(self.doc.goals[1][1], "more than one goal block")
            return None
        tokens, where = self.doc.goals[0]
        return self._formula(tokens, where)


# --------------------------------------------------------------------------
# Serialization


def serialize_task(task: EpistemicTask) -> str:
    """Canonical document text; parsing it back yields a structurally equal
    task (schemas are emitted as their ground actions, the initial state as
    ``s0``). Raises :class:`ModelError` naming the first world, action or
    event name that does not read back whole as one name, such as the
    ``(w1,e)`` worlds of a product update or ``make_ask`` about ``p & q``."""
    names = [("world", w) for w in task.initial.model.world_names]
    for action in task.actions:
        names.append(("action", action.name))
        names += [("event", event.name) for event in action.events]
    for kind, name in names:
        if not _reads_back(name):
            raise ModelError(f"cannot write {kind} name {name!r}: it does not parse back")
    lines: list[str] = []
    agents = ", ".join(a.name for a in task.vocab.agents)
    lines.append(f"agents {{ {agents} }}")
    lines.append("")
    lines.append("atoms {")
    for atom in task.vocab.atoms:
        lines.append(f"  {atom.name};")
    lines.append("}")
    lines.append("")
    lines.extend(_serialize_block(task.initial, _INITIAL_NAME))
    for action in task.actions:
        lines.append("")
        lines.extend(_serialize_block(action, action.name))
    lines.append("")
    lines.append(f"goal {{ {render_formula(task.goal)} }}")
    lines.append("")
    lines.append("task {")
    lines.append(f"  initial: {_INITIAL_NAME};")
    names = ", ".join(a.name for a in task.actions)
    lines.append(f"  actions: {names};")
    if task.owner is not None:
        lines.append(f"  owner: {task.owner.name};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _reads_back(name: str) -> bool:
    """Whether :func:`_parse_ref` reads ``name`` back whole as one name."""
    diagnostics: list[Diagnostic] = []
    s = _Stream(_tokenize(name, diagnostics), diagnostics)
    try:
        return _parse_ref(s).text == name and s.peek().kind == "eof"
    except _Abort:
        return False


def _edges(
    value: EpistemicState | EpistemicAction,
) -> Iterator[tuple[Agent, int, int, bool, Formula]]:
    """Every explicit agent edge of a state or action model, listed once as
    (agent, u, v, two_way, guard). Per agent in vocabulary order: first the
    pairs present both ways with equal guards (as u < v), then the remaining
    directed pairs, each group in (u, v) order. State edges carry the top
    guard and are read along the model's sorted successor rows; a pair is
    two-way when u is in v's row (always so for v == u, which is skipped)."""
    if isinstance(value, EpistemicState):
        model = value.model
        for agent, rows in zip(model.vocab.agents, model._rows):
            one_way = []
            for u, row in enumerate(rows):
                for v in row:
                    if u in rows[v]:
                        if u < v:
                            yield agent, u, v, True, TOP
                    else:
                        one_way.append((agent, u, v, False, TOP))
            yield from one_way
        return
    for agent in value.vocab.agents:
        # Stored in (agent, source, target) order, so never re-sorted.
        table = value.guards(agent)
        one_way = []
        for (u, v), guard in table.items():
            if table.get((v, u)) == guard:
                if u < v:
                    yield agent, u, v, True, guard
            else:
                one_way.append((agent, u, v, False, guard))
        yield from one_way


def _label(model: EpistemicModel, w: int, sep: str = ", ") -> str:
    """The atoms true at a world, in vocabulary order."""
    atoms = model.vocab.atoms
    return sep.join(atoms[i].name for i in model.vocab._label_key(model.labels[w]))


def _serialize_block(value: EpistemicState | EpistemicAction, name: str) -> list[str]:
    """One ``state`` or ``action`` block: its worlds or events, its edges,
    its designated set."""
    if isinstance(value, EpistemicState):
        model = value.model
        kind, names = "state", model.world_names
        nodes = []
        for w in range(model.n):
            atoms = _label(model, w)
            body = f" {atoms} " if atoms else " "
            nodes.append(f"  world {names[w]} {{{body}}}")
    else:
        kind, names = "action", [event.name for event in value.events]
        nodes = []
        for event in value.events:
            nodes.append(f"  event {event.name} {{")
            nodes.append(f"    pre: {render_formula(event.pre)};")
            nodes.append(f"    post: {render_formula(event.post.to_formula())};")
            nodes.append("  }")
    lines = [f"{kind} {name} {{", *nodes]
    for agent, u, v, two_way, guard in _edges(value):
        arrow = "--" if two_way else "->"
        line = f"  edge {agent.name}: {names[u]} {arrow} {names[v]}"
        if not isinstance(guard, Top):
            line += f" if {render_formula(guard)}"
        lines.append(line + ";")
    designated = ", ".join(names[i] for i in sorted(value.designated))
    lines.append(f"  designated {designated};")
    lines.append("}")
    return lines


# --------------------------------------------------------------------------
# Text rendering (CLI and policy summaries)


def render_state(state: EpistemicState) -> str:
    """Multi-line listing of worlds, labels, edges (in :func:`_edges` order,
    each formatted where its successor row is read), and designation."""
    model = state.model
    names = model.world_names
    lines = []
    for w in range(model.n):
        mark = " [designated]" if w in state.designated else ""
        lines.append(f"world {names[w]}{mark}: {_label(model, w)}")
    for agent, rows in zip(model.vocab.agents, model._rows):
        prefix = f"edge {agent.name}: "
        one_way = []
        for u, row in enumerate(rows):
            for v in row:
                if u in rows[v]:
                    if u < v:
                        lines.append(f"{prefix}{names[u]} -- {names[v]}")
                else:
                    one_way.append(f"{prefix}{names[u]} -> {names[v]}")
        lines += one_way
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


# --------------------------------------------------------------------------
# DOT export


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(value: EpistemicState | EpistemicAction) -> str:
    """Graphviz rendering: designated nodes double-circled, reflexive edges
    suppressed, symmetric edges drawn once without direction, guards shown
    on edge labels; node order follows the index order, and every name is
    escaped."""
    if isinstance(value, EpistemicState):
        model = value.model
        kind = "state"
        nodes = [(model.world_names[w], _label(model, w)) for w in range(model.n)]
    elif isinstance(value, EpistemicAction):
        kind = "action"
        nodes = [
            (e.name, f"⟨{render_formula(e.pre)}, {render_formula(e.post.to_formula())}⟩")
            for e in value.events
        ]
    else:
        raise TypeError("export_dot expects a state or an action")
    lines = [f"digraph {kind} {{", "  rankdir=LR;", '  node [shape=circle, fontsize=10];']
    for i, (name, caption) in enumerate(nodes):
        label = _dot_escape(name) + ("\\n" + _dot_escape(caption) if caption else "")
        extra = ", peripheries=2" if i in value.designated else ""
        lines.append(f'  n{i} [label="{label}"{extra}];')
    for agent, u, v, two_way, guard in _edges(value):
        label = agent.name if isinstance(guard, Top) else f"{agent.name}: {render_formula(guard)}"
        extra = ", dir=none" if two_way else ""
        lines.append(f'  n{u} -> n{v} [label="{_dot_escape(label)}"{extra}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
