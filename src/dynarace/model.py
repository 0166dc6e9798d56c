"""Model-file DSL: process terms, parsing, validation, domain inference.

A model file declares channels, recursive definitions and the top-level
parallel composition::

    channels Help, Up ;
    def SW  = "(flag = regular) . (pt = 1) . (pt <- 2)" ; SW
           o+ "(flag = blocking) . (pt = 1)" ; Help ! one ; SW
           o+ Up ? one ; SWP ;
    def SWP = "0" ; bot ;
    def C   = Help ? one ; Up ! one ; C ;
    init C || SW ;

NetKAT policies appear as quoted strings.  ``o+`` is nondeterministic
choice, ``;`` is sequential prefixing, ``bot`` is the deadlocked process,
``ch ! msg`` / ``ch ? msg`` send and receive over a channel.  ``//``
starts a line comment.  An optional ``fields { ... }`` block declares the
value domains explicitly; otherwise they are inferred from the literals
in the model, with one residual value added per field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .domains import (
    DynaraceError,
    EmptyModel,
    FieldDomains,
    UndeclaredValue,
    residual_token,
)
from .netkat import (
    Policy,
    PolicySyntaxError,
    parse_policy,
    policy_literals,
    render_policy,
)


# --------------------------------------------------------------------------
# Errors


class ModelError(DynaraceError):
    """Base class for model loading errors."""


class ModelSyntaxError(ModelError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnboundVariable(ModelError):
    pass


class UnguardedRecursion(ModelError):
    pass


class ParInsideDefinition(ModelError):
    pass


class DuplicateDefinition(ModelError):
    pass


# --------------------------------------------------------------------------
# Terms and messages


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class SeqPolicy:
    policy: Policy
    cont: "Term"


@dataclass(frozen=True)
class Send:
    channel: str
    message: "Message"
    cont: "Term"


@dataclass(frozen=True)
class Recv:
    channel: str
    message: "Message"
    cont: "Term"


@dataclass(frozen=True)
class Choice:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Var:
    name: str


Term = Bot | SeqPolicy | Send | Recv | Choice | Var


@dataclass(frozen=True)
class Token:
    """An uninterpreted message; compares by identifier."""

    name: str


@dataclass(frozen=True)
class PolicyMsg:
    """A NetKAT policy exchanged as a message (e.g. a flow table)."""

    policy: Policy


Message = Token | PolicyMsg


def render_message(msg: Message) -> str:
    if isinstance(msg, Token):
        return msg.name
    return f'"{render_policy(msg.policy)}"'


def render_term(t: Term) -> str:
    """Deterministic rendering in the model's concrete syntax."""
    if isinstance(t, Bot):
        return "bot"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, SeqPolicy):
        return f'"{render_policy(t.policy)}" ; {render_term(t.cont)}'
    if isinstance(t, Send):
        return f"{t.channel} ! {render_message(t.message)} ; {render_term(t.cont)}"
    if isinstance(t, Recv):
        return f"{t.channel} ? {render_message(t.message)} ; {render_term(t.cont)}"
    if isinstance(t, Choice):
        return f"({render_term(t.left)} o+ {render_term(t.right)})"
    raise TypeError(f"not a term node: {t!r}")


def subterms(t: Term):
    """Yield ``t`` and every term nested in it, pre-order, left branch first."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Choice):
            stack += (t.right, t.left)
        elif isinstance(t, (SeqPolicy, Send, Recv)):
            stack.append(t.cont)


# --------------------------------------------------------------------------
# Parsed model


@dataclass(frozen=True)
class ParsedModel:
    definitions: dict
    channels: frozenset
    declared_domains: FieldDomains | None
    init: tuple
    init_names: tuple

    @cached_property
    def hnfs(self) -> dict:
        """``hnf.hnf`` results over this model, by ``(term, domains)``."""
        return {}

    def component_count(self) -> int:
        return len(self.init)


# --------------------------------------------------------------------------
# Tokenizer

_MODEL_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<string>"[^"\n]*")
  | (?P<opar>o\+(?![A-Za-z0-9_]))
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<par>\|\|)
  | (?P<sym>[{}:,;!?()=])
    """,
    re.VERBOSE,
)


def _tokenize_model(text: str):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _MODEL_TOKEN_RE.match(text, pos)
        if m is None:
            raise ModelSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            val = m.group()
            if kind == "sym":
                kind = val
            tokens.append((kind, val, line, pos - line_start + 1))
        newlines = m.group().count("\n")
        if newlines:
            line += newlines
            line_start = pos + m.group().rindex("\n") + 1
        pos = m.end()
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens


# --------------------------------------------------------------------------
# Parser


class _ModelParser:
    def __init__(self, text: str):
        self.tokens = _tokenize_model(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ModelSyntaxError(message, tok[2], tok[3])

    def expect(self, kind, what=None):
        tok = self.next()
        if tok[0] != kind:
            self.error(f"expected {what or kind!r}, found {tok[1]!r}", tok)
        return tok

    def expect_ident(self, what="identifier"):
        tok = self.next()
        if tok[0] != "ident":
            self.error(f"expected {what}, found {tok[1]!r}", tok)
        return tok[1]

    # -- blocks

    def parse(self) -> ParsedModel:
        declared = None
        channels = []
        defs = {}
        init = None
        while self.peek()[0] != "eof":
            tok = self.peek()
            if tok[0] == "ident" and tok[1] == "fields":
                if declared is not None:
                    self.error("duplicate fields block")
                self.next()
                declared = self.fields_block()
            elif tok[0] == "ident" and tok[1] == "channels":
                self.next()
                channels.extend(self.channels_decl())
            elif tok[0] == "ident" and tok[1] == "def":
                self.next()
                name_tok = self.next()
                if name_tok[0] != "ident":
                    self.error("expected definition name", name_tok)
                name = name_tok[1]
                if name in defs:
                    raise DuplicateDefinition(
                        f"definition {name!r} appears more than once"
                    )
                self.expect("=")
                body = self.term(in_def=name)
                self.expect(";")
                defs[name] = body
            elif tok[0] == "ident" and tok[1] == "init":
                if init is not None:
                    self.error("duplicate init declaration")
                self.next()
                init = self.init_decl()
            else:
                self.error(f"expected a declaration, found {tok[1]!r}")
        if init is None:
            self.error("model has no init declaration")
        used = {
            s.channel
            for t in (*defs.values(), *init)
            for s in subterms(t)
            if isinstance(s, (Send, Recv))
        }
        model = ParsedModel(
            definitions=defs,
            channels=frozenset(channels) | used,
            declared_domains=declared,
            init=tuple(init),
            init_names=tuple(_component_name(t) for t in init),
        )
        _validate(model)
        return model

    def fields_block(self) -> FieldDomains:
        self.expect("{")
        names = []
        values = []
        while self.peek()[0] != "}":
            f = self.expect_ident("field name")
            self.expect(":")
            self.expect("{")
            vals = [self.value_literal()]
            while self.peek()[0] == ",":
                self.next()
                vals.append(self.value_literal())
            self.expect("}")
            self.expect(";")
            if f in names:
                self.error(f"field {f!r} declared twice")
            names.append(f)
            values.append(tuple(vals))
        self.next()  # '}'
        return FieldDomains(
            fields=tuple(names),
            values=tuple(values),
            residuals=(None,) * len(names),
        )

    def value_literal(self) -> str:
        tok = self.next()
        if tok[0] in ("ident", "int"):
            return tok[1]
        self.error(f"expected a value literal, found {tok[1]!r}", tok)

    def channels_decl(self):
        names = [self.expect_ident("channel name")]
        while self.peek()[0] == ",":
            self.next()
            names.append(self.expect_ident("channel name"))
        self.expect(";")
        return names

    def init_decl(self):
        comps = [self.term(in_def=None)]
        while self.peek()[0] == "par":
            self.next()
            comps.append(self.term(in_def=None))
        self.expect(";")
        return comps

    # -- terms

    def term(self, in_def) -> Term:
        t = self.prefix(in_def)
        while True:
            tok = self.peek()
            if tok[0] == "opar":
                self.next()
                t = Choice(t, self.prefix(in_def))
            elif tok[0] == "par" and in_def is not None:
                raise ParInsideDefinition(
                    f"parallel composition inside definition {in_def!r} "
                    f"(line {tok[2]}, column {tok[3]})"
                )
            else:
                return t

    def prefix(self, in_def) -> Term:
        tok = self.next()
        if tok[0] == "string":
            policy = self.embedded_policy(tok)
            self.expect(";")
            return SeqPolicy(policy, self.prefix(in_def))
        if tok[0] == "(":
            t = self.term(in_def)
            self.expect(")")
            return t
        if tok[0] == "ident":
            if tok[1] == "bot":
                return Bot()
            nxt = self.peek()
            if nxt[0] in ("!", "?"):
                self.next()
                msg = self.message()
                self.expect(";")
                cont = self.prefix(in_def)
                cls = Send if nxt[0] == "!" else Recv
                return cls(tok[1], msg, cont)
            return Var(tok[1])
        if tok[0] == "par" and in_def is not None:
            raise ParInsideDefinition(
                f"parallel composition inside definition {in_def!r} "
                f"(line {tok[2]}, column {tok[3]})"
            )
        self.error(f"expected a process term, found {tok[1]!r}", tok)

    def message(self) -> Message:
        tok = self.next()
        if tok[0] == "ident":
            return Token(tok[1])
        if tok[0] == "string":
            return PolicyMsg(self.embedded_policy(tok))
        self.error(f"expected a message, found {tok[1]!r}", tok)

    def embedded_policy(self, tok) -> Policy:
        try:
            return parse_policy(tok[1][1:-1])
        except PolicySyntaxError as exc:
            raise ModelSyntaxError(
                f"bad NetKAT policy: {exc}", tok[2], tok[3]
            ) from exc


# --------------------------------------------------------------------------
# Validation


def _component_name(t: Term) -> str:
    return t.name if isinstance(t, Var) else render_term(t)


def _unguarded_refs(t: Term):
    """Var names reachable from ``t`` without crossing an action prefix."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            yield t.name
        elif isinstance(t, Choice):
            stack += (t.right, t.left)


def _validate(model: ParsedModel) -> None:
    owners = [
        (f"definition {name!r}", body)
        for name, body in model.definitions.items()
    ] + [("init", comp) for comp in model.init]
    for owner, t in owners:
        for s in subterms(t):
            if isinstance(s, Var) and s.name not in model.definitions:
                raise UnboundVariable(f"{owner} refers to undefined {s.name!r}")

    # Guardedness: no cycle through head (unguarded) variable positions.
    edges = {
        name: set(_unguarded_refs(body))
        for name, body in model.definitions.items()
    }
    state = {}  # name -> "visiting" | "done"

    def visit(name, stack):
        if state.get(name) == "done":
            return
        if state.get(name) == "visiting":
            cycle = " -> ".join(stack[stack.index(name):] + [name])
            raise UnguardedRecursion(f"unguarded recursion: {cycle}")
        state[name] = "visiting"
        for ref in sorted(edges[name]):
            visit(ref, stack + [name])
        state[name] = "done"

    for name in model.definitions:
        visit(name, [])


def parse_model(text: str) -> ParsedModel:
    """Parse and validate a model file."""
    return _ModelParser(text).parse()


def load_model(path) -> ParsedModel:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())


# --------------------------------------------------------------------------
# Domain inference


def _model_literals(model: ParsedModel):
    """All (field, value) literals of the model, in deterministic order."""
    for t in (*model.definitions.values(), *model.init):
        for s in subterms(t):
            if isinstance(s, SeqPolicy):
                yield from policy_literals(s.policy)
            elif isinstance(s, (Send, Recv)) and isinstance(s.message, PolicyMsg):
                yield from policy_literals(s.message.policy)


def infer_domains(
    model: ParsedModel, declared: FieldDomains | None = None
) -> FieldDomains:
    """Resolve the field domains a model ranges over.

    With ``declared`` (or a ``fields`` block in the model) every literal is
    validated against the declaration and the declaration is returned
    unchanged.  Otherwise the domains are inferred: each field gets the
    sorted set of values it is paired with anywhere in the model, plus one
    fresh residual value so negated tests keep a nonempty complement.
    """
    declared = declared or model.declared_domains
    literals = list(_model_literals(model))
    if declared is not None:
        for f, v in literals:
            if not declared.has_field(f):
                raise UndeclaredValue(f"field {f!r} is not declared")
            if not declared.has_value(f, v):
                raise UndeclaredValue(
                    f"value {v!r} is outside the declared domain of {f!r}"
                )
        return declared
    if not literals:
        raise EmptyModel("no fields occur anywhere in the model")
    fields = []
    seen = {}
    for f, v in literals:
        if f not in seen:
            seen[f] = set()
            fields.append(f)
        seen[f].add(v)
    values = []
    residuals = []
    for f in fields:
        residual = residual_token(f)
        values.append(tuple(sorted(seen[f])) + (residual,))
        residuals.append(residual)
    return FieldDomains(
        fields=tuple(fields), values=tuple(values), residuals=tuple(residuals)
    )
