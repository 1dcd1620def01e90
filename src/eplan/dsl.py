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

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

from .actions import EdgeGuard, EpistemicAction, Event, induced_action
from .classical import ActionSchema, SchemaAtom, SchemaLiterals, ground
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
DEFAULT_GROUND_CAP = 10_000
# The name serialize_task gives the initial state.
_INITIAL_NAME = "s0"
# Formulas are parsed, evaluated and rendered recursively, one call per
# level of `!`, `K`, `C` or parentheses; deeper input is rejected with a
# positioned diagnostic instead of exhausting the interpreter's stack.
MAX_FORMULA_NESTING = 200


# --------------------------------------------------------------------------
# Tokens


@dataclass(frozen=True)
class Token:
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

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

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


# --------------------------------------------------------------------------
# Raw (unresolved) document pieces. Every positioned name is a `Token`.


@dataclass
class _RawEdge:
    agent: Token
    source: Token
    target: Token
    symmetric: bool
    guard_tokens: list[Token] | None  # None when unguarded


@dataclass
class _RawGraph:
    """A ``state`` or ``action`` block. ``nodes`` lists (name, body) in
    document order: a world's body is its atom refs, an event's body its
    (pre tokens, post tokens)."""

    name: Token
    nodes: list[tuple[Token, object]] = field(default_factory=list)
    edges: list[_RawEdge] = field(default_factory=list)
    designated: list[Token] = field(default_factory=list)


# A schema literal: (positive?, predicate, arguments).
_Literal = tuple[bool, Token, list[Token]]


@dataclass
class _RawSchema:
    name: Token
    parameters: list[tuple[str, Token]]
    pre: list[_Literal]
    effect: list[_Literal]


@dataclass
class _RawTask:
    where: Token
    initial: Token | None = None
    actions: list[Token] = field(default_factory=list)
    owner: Token | None = None


@dataclass
class _RawDocument:
    agents: list[Token] = field(default_factory=list)
    sorts: list[Token] = field(default_factory=list)
    objects: list[tuple[Token, list[Token]]] = field(default_factory=list)
    atom_decls: list[tuple[Token, list[Token]]] = field(default_factory=list)
    schemas: list[_RawSchema] = field(default_factory=list)
    actions: list[_RawGraph] = field(default_factory=list)
    states: list[_RawGraph] = field(default_factory=list)
    goals: list[tuple[list[Token], Token]] = field(default_factory=list)
    tasks: list[_RawTask] = field(default_factory=list)


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
    return Token("ident", f"{head.text}({','.join(a.text for a in args)})", head.line, head.col)


def _parse_name_list(s: _Stream, what: str) -> list[Token]:
    names = [_parse_ref(s, what)]
    while s.eat(","):
        names.append(_parse_ref(s, what))
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
    agent = _parse_ref(s, "an agent name")
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
    if s.peek().kind == "ident" and s.peek().text == "if":
        if not allow_guard:
            raise s.error("state edges cannot carry guards")
        s.next()
        guard_tokens = _collect_formula_tokens(s, (";", "}"))
    return _RawEdge(agent, source, target, symmetric, guard_tokens)


def _parse_raw(s: _Stream) -> _RawDocument:
    doc = _RawDocument()
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
            doc.agents.extend(_parse_name_list(s, "an agent name"))
        s.expect("}")
    elif keyword == "sorts":
        s.expect("{")
        while not s.at("}") and s.peek().kind != "eof":
            doc.sorts.append(_parse_ref(s, "a sort name"))
            if not (s.eat(",") or s.eat(";")):
                break
        s.expect("}")
    elif keyword == "objects":
        s.expect("{")
        while not s.at("}") and s.peek().kind != "eof":
            sort = _parse_ref(s, "a sort name")
            s.expect(":")
            members = _parse_name_list(s, "an object name")
            doc.objects.append((sort, members))
            s.eat(";")
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
        raw = _RawTask(s.peek())
        s.expect("{")
        while not s.at("}") and s.peek().kind != "eof":
            entry = s.expect_ident("a task entry")
            s.expect(":")
            if entry.text == "initial":
                raw.initial = _parse_ref(s, "a state name")
            elif entry.text == "actions":
                raw.actions.extend(_parse_name_list(s, "an action name"))
            elif entry.text == "owner":
                raw.owner = _parse_ref(s, "an agent name")
            else:
                raise s.error(f"unknown task entry {entry.text!r}", entry)
            s.eat(";")
        s.expect("}")
        doc.tasks.append(raw)


def _parse_schema(s: _Stream) -> _RawSchema:
    name = s.expect_ident("a schema name")
    params: list[tuple[str, Token]] = []
    s.expect("(")
    if not s.at(")"):
        while True:
            var = s.expect_ident("a parameter name")
            s.expect(":")
            sort = _parse_ref(s, "a sort name")
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
        s.eat(";")
    s.expect("}")
    return _RawSchema(name, params, pre, effect)


def _parse_schema_literals(s: _Stream, out: list[_Literal]) -> None:
    if s.peek().text == "top":
        s.next()
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
    graph = _RawGraph(_parse_ref(s, f"{block} name"))
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
            s.eat(";")
        elif entry.text == "designated":
            graph.designated.extend(_parse_name_list(s, f"{node} name"))
            s.eat(";")
        else:
            raise s.error(f"unknown {kind} entry {entry.text!r}", entry)
    s.expect("}")
    return graph


def _world_body(s: _Stream) -> list[Token]:
    return [] if s.at("}") else _parse_name_list(s, "an atom")


def _event_body(s: _Stream) -> tuple[list[Token], list[Token]]:
    pre: list[Token] = []
    post: list[Token] = []
    while not s.at("}") and s.peek().kind != "eof":
        part = s.expect_ident("'pre' or 'post'")
        s.expect(":")
        tokens = _collect_formula_tokens(s, (";", "}"))
        if part.text == "pre":
            pre = tokens
        elif part.text == "post":
            post = tokens
        else:
            raise s.error(f"unknown event entry {part.text!r}", part)
        s.eat(";")
    return pre, post


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
        if tok.kind == "ident" and tok.text == "K":
            s.next()
            s.expect("[")
            agent_tok = s.expect_ident("an agent name")
            s.expect("]")
            if not self.vocab.has_agent(agent_tok.text):
                raise s.error(f"unknown agent: {agent_tok.text}", agent_tok)
            return Knows(self.vocab.agent(agent_tok.text), self._nested(self._unary, tok))
        if tok.kind == "ident" and tok.text == "C":
            s.next()
            return Common(self._nested(self._unary, tok))
        if tok.kind == "ident" and tok.text == "top":
            s.next()
            return Top()
        if tok.kind == "ident" and tok.text == "bot":
            s.next()
            return Bottom()
        if s.eat("("):
            phi = self._nested(self._or, tok)
            s.expect(")")
            return phi
        if tok.kind == "ident":
            ref = _parse_ref(s, "an atom")
            if not self.vocab.has_atom(ref.text):
                raise s.error(f"unknown atom: {ref.text}", tok)
            return Prop(self.vocab.atom(ref.text))
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
    """A fully resolved document: the task, named states, and a source map
    from declared entity names (namespaced) to (line, column)."""

    task: EpistemicTask
    states: dict[str, EpistemicState]
    source_map: dict[str, tuple[int, int]]


def parse_task(
    text: str | bytes, max_ground_actions: int = DEFAULT_GROUND_CAP
) -> ParsedDocument:
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

    resolver = _Resolver(doc, diagnostics, max_ground_actions)
    parsed = resolver.resolve()
    if diagnostics or parsed is None:
        raise TaskParseError(diagnostics or [Diagnostic(1, 1, "unresolved document")])
    return parsed


class _Resolver:
    def __init__(self, doc: _RawDocument, diagnostics: list[Diagnostic], ground_cap: int):
        self.doc = doc
        self.diagnostics = diagnostics
        self.ground_cap = ground_cap
        self.source_map: dict[str, tuple[int, int]] = {}

    def note(self, where: Token, message: str) -> None:
        self.diagnostics.append(Diagnostic(where.line, where.col, message))

    def record(self, namespace: str, name: Token) -> None:
        self.source_map.setdefault(f"{namespace}:{name.text}", (name.line, name.col))

    def resolve(self) -> ParsedDocument | None:
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

        # Ground instance names differ across schemas: each starts with its
        # schema's name.
        instances = {a.name: a for group in schema_groups.values() for a in group}
        actions: list[EpistemicAction] = []
        for name in raw.actions:
            if name.text in explicit:
                actions.append(explicit[name.text])
            elif name.text in schema_groups:
                actions.extend(schema_groups[name.text])
            elif name.text in instances:
                actions.append(instances[name.text])
            else:
                self.note(name, f"unknown action: {name.text}")
        if raw.initial is None:
            self.note(raw.where, "task has no initial state")
        initial = states.get(raw.initial.text) if raw.initial else None
        if raw.initial and initial is None:
            self.note(raw.initial, f"unknown state: {raw.initial.text}")
        owner = None
        if raw.owner is not None:
            if vocab.has_agent(raw.owner.text):
                owner = vocab.agent(raw.owner.text)
            else:
                self.note(raw.owner, f"unknown agent: {raw.owner.text}")
        if goal is None:
            self.note(raw.where, "missing goal block")
        if self.diagnostics or initial is None or goal is None:
            return None
        try:
            task = EpistemicTask(vocab, actions, initial, goal, owner)
        except (ModelError, VocabularyError) as exc:
            self.note(raw.where, str(exc))
            return None
        return ParsedDocument(task, states, self.source_map)

    # -- phase 1: vocabulary ------------------------------------------------

    def _build_vocab(self) -> Vocabulary | None:
        doc = self.doc
        agent_names: list[str] = []
        for name in doc.agents:
            if name.text in agent_names:
                self.note(name, f"duplicate agent: {name.text}")
            else:
                agent_names.append(name.text)
                self.record("agent", name)

        sort_members: dict[str, list[str]] = {}
        for sort, members in doc.objects:
            bucket = sort_members.setdefault(sort.text, [])
            for member in members:
                if member.text in bucket:
                    self.note(member, f"duplicate object {member.text} in sort {sort.text}")
                else:
                    bucket.append(member.text)
                    self.record("object", member)
        self.sorts = {name: tuple(vals) for name, vals in sort_members.items()}
        for sort in doc.sorts:
            self.sorts.setdefault(sort.text, ())

        atom_names: list[str] = []
        seen: set[str] = set()

        def declare(name: str, where: Token) -> None:
            if name in seen:
                self.note(where, f"duplicate atom: {name}")
                return
            seen.add(name)
            atom_names.append(name)

        for head, args in doc.atom_decls:
            if head.text in RESERVED_HEADS:
                self.note(head, f"{head.text!r} is reserved and cannot name an atom")
                continue
            self.record("atom", head)
            if not args:
                declare(head.text, head)
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
                declare(f"{head.text}({','.join(combo)})", head)

        if self.diagnostics:
            return None
        return Vocabulary(atom_names, agent_names)

    # -- phase 2: schemas ---------------------------------------------------

    def _ground_schemas(self, vocab: Vocabulary) -> dict[str, list[EpistemicAction]]:
        groups: dict[str, list[EpistemicAction]] = {}
        total = 0
        for raw in self.doc.schemas:
            self.record("schema", raw.name)
            params = []
            count = 1
            bad = False
            for var, sort in raw.parameters:
                if sort.text not in self.sorts or not self.sorts[sort.text]:
                    self.note(sort, f"unknown or empty sort: {sort.text}")
                    bad = True
                    continue
                params.append((var, sort.text))
                count *= len(self.sorts[sort.text])
            if bad:
                continue
            total += count
            if total > self.ground_cap:
                self.note(
                    raw.name,
                    f"grounding exceeds the cap of {self.ground_cap} actions;"
                    " split the task or raise the cap",
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
        then the action or state itself."""
        is_action = kind == "action"
        node_kind, read = ("event", self._event) if is_action else ("world", self._world)
        out: dict = {}
        for raw in self.doc.actions if is_action else self.doc.states:
            self.record(kind, raw.name)
            if raw.name.text in out:
                self.note(raw.name, f"duplicate {kind}: {raw.name.text}")
                continue
            values: list = []
            index: dict[str, int] = {}  # node names in document order
            ok = True
            for name, body in raw.nodes:
                self.record(f"{node_kind} {raw.name.text}", name)
                if name.text in index:
                    self.note(name, f"duplicate {node_kind}: {name.text}")
                    ok = False
                    continue
                value = read(name, body)
                if value is None:
                    ok = False
                index[name.text] = len(values)
                values.append(value)
            edges: list[EdgeGuard] = []
            for redge in raw.edges:
                resolved = self._resolve_edge(redge, index, node_kind)
                if resolved is None:
                    ok = False
                else:
                    edges.extend(resolved)
            designated = self._resolve_names(raw.designated, index, node_kind)
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

    def _event(self, name: Token, body: tuple[list[Token], list[Token]]) -> Event | None:
        pre_tokens, post_tokens = body
        pre = self._formula(pre_tokens, name) if pre_tokens else TOP
        post = self._formula(post_tokens, name) if post_tokens else TOP
        if pre is None or post is None:
            return None
        try:
            return Event(name.text, pre, LiteralConjunction.from_formula(post))
        except ConsistencyError as exc:
            self.note(name, f"inconsistent postcondition: {exc}")
            return None

    def _world(self, name: Token, refs: list[Token]) -> list | None:
        unknown = [ref for ref in refs if not self.vocab.has_atom(ref.text)]
        for ref in unknown:
            self.note(ref, f"unknown atom: {ref.text}")
        return None if unknown else [self.vocab.atom(ref.text) for ref in refs]

    def _resolve_names(
        self, names: list[Token], index: dict[str, int], what: str
    ) -> list[int] | None:
        out = []
        ok = True
        for name in names:
            if name.text not in index:
                self.note(name, f"unknown {what}: {name.text}")
                ok = False
            else:
                out.append(index[name.text])
        return out if ok else None

    def _resolve_edge(self, redge: _RawEdge, index: dict[str, int], what: str):
        if not self.vocab.has_agent(redge.agent.text):
            self.note(redge.agent, f"unknown agent: {redge.agent.text}")
            return None
        agent = self.vocab.agent(redge.agent.text)
        if redge.source.text not in index:
            self.note(redge.source, f"unknown {what}: {redge.source.text}")
            return None
        if redge.target.text not in index:
            self.note(redge.target, f"unknown {what}: {redge.target.text}")
            return None
        guard = TOP
        if redge.guard_tokens is not None:
            parsed = self._formula(redge.guard_tokens, redge.agent)
            if parsed is None:
                return None
            guard = parsed
        src, tgt = index[redge.source.text], index[redge.target.text]
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
    guard and are read along the model's sorted successor rows."""
    if isinstance(value, EpistemicState):
        model = value.model
        for agent in model.vocab.agents:
            edges = model.edges[agent]
            one_way = []
            for u in range(model.n):
                for v in model.successors(agent, u):
                    if (v, u) in edges:
                        if u < v:
                            yield agent, u, v, True, TOP
                    elif v != u:
                        one_way.append((agent, u, v, False, TOP))
            yield from one_way
        return
    for agent in value.vocab.agents:
        # Stored in (agent, source, target) order, so never re-sorted.
        table = value.guards(agent)
        one_way = []
        for (u, v), guard in table.items():
            back = table.get((v, u))
            if back is not None and back == guard:
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
    for agent in model.vocab.agents:
        edges = model.edges[agent]
        prefix = f"edge {agent.name}: "
        one_way = []
        for u in range(model.n):
            for v in model.successors(agent, u):
                if (v, u) in edges:
                    if u < v:
                        lines.append(f"{prefix}{names[u]} -- {names[v]}")
                elif v != u:
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
