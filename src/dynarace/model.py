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
from collections import namedtuple
from functools import cached_property

from .domains import (
    DynaraceError,
    EmptyModel,
    FieldDomains,
    UndeclaredValue,
    residual_token,
)
from .netkat import (
    HashConsed,
    Policy,
    PolicySyntaxError,
    Tokens,
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


class UndeclaredChannel(ModelError):
    pass


class UnguardedRecursion(ModelError):
    pass


class ParInsideDefinition(ModelError):
    pass


class DuplicateDefinition(ModelError):
    pass


# --------------------------------------------------------------------------
# Terms and messages


class Bot(HashConsed):
    pass


class SeqPolicy(HashConsed):
    policy: Policy
    cont: "Term"


class Send(HashConsed):
    channel: str
    message: "Message"
    cont: "Term"


class Recv(HashConsed):
    channel: str
    message: "Message"
    cont: "Term"


class Choice(HashConsed):
    left: "Term"
    right: "Term"


class Var(HashConsed):
    name: str


Term = Bot | SeqPolicy | Send | Recv | Choice | Var


class Token(HashConsed):
    """An uninterpreted message; compares by identifier."""

    name: str


class PolicyMsg(HashConsed):
    """A NetKAT policy exchanged as a message (e.g. a flow table)."""

    policy: Policy


Message = Token | PolicyMsg


def render_message(msg: Message) -> str:
    if isinstance(msg, Token):
        return msg.name
    return f'"{render_policy(msg.policy)}"'


def render_term(t: Term) -> str:
    """Deterministic rendering in the model's concrete syntax.

    The term is walked with an explicit stack of pending terms and literal
    strings, so its depth is not bounded by the recursion limit.
    """
    out = []
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Bot):
            out.append("bot")
        elif isinstance(t, Var):
            out.append(t.name)
        elif isinstance(t, SeqPolicy):
            out.append(f'"{render_policy(t.policy)}" ; ')
            stack.append(t.cont)
        elif isinstance(t, Send):
            out.append(f"{t.channel} ! {render_message(t.message)} ; ")
            stack.append(t.cont)
        elif isinstance(t, Recv):
            out.append(f"{t.channel} ? {render_message(t.message)} ; ")
            stack.append(t.cont)
        elif isinstance(t, Choice):
            out.append("(")
            stack += (")", t.right, " o+ ", t.left)
        else:
            raise TypeError(f"not a term node: {t!r}")
    return "".join(out)


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


class ParsedModel(
    namedtuple("ParsedModel", "definitions declared_domains channels init init_names")
):
    """A validated model; ``channels`` is the frozenset of declared names.

    It holds no caches: an ``engine.Analysis`` keeps what one build
    computes from it.
    """

    __slots__ = ()


# --------------------------------------------------------------------------
# Tokenizer

_MODEL_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+|//[^\n]*)
  | (?P<string>"[^"\n]*")
  | (?P<opar>o\+(?![A-Za-z0-9_]))
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<par>\|\|)
  | (?P<sym>[{}:,;!?()=])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


# --------------------------------------------------------------------------
# Parser


class _ModelParser(Tokens):
    pattern = _MODEL_TOKEN_RE

    def where(self, offset: int) -> tuple:
        """The line and column of ``offset``, both counted from 1."""
        text = self.text
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    def error(self, message: str, offset: int):
        raise ModelSyntaxError(message, *self.where(offset))

    @cached_property
    def policies(self) -> dict:
        """The policies parsed so far, by their quoted text."""
        return {}

    def expect_ident(self, what="identifier"):
        tok = self.next()
        if tok[0] != "ident":
            self.error(f"expected {what}, found {tok[1]!r}", tok[2])
        return tok[1]

    # -- blocks

    def parse(self) -> ParsedModel:
        declared = None
        channels = set()
        defs = {}
        init = None
        while self.peek()[0] != "eof":
            tok = self.peek()
            if tok[0] == "ident" and tok[1] == "fields":
                if declared is not None:
                    self.error("duplicate fields block", tok[2])
                self.next()
                declared = self.fields_block()
            elif tok[0] == "ident" and tok[1] == "channels":
                self.next()
                channels.update(self.channels_decl())
            elif tok[0] == "ident" and tok[1] == "def":
                self.next()
                name_tok = self.next()
                if name_tok[0] != "ident":
                    self.error("expected definition name", name_tok[2])
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
                    self.error("duplicate init declaration", tok[2])
                self.next()
                init = self.init_decl()
            else:
                self.error(f"expected a declaration, found {tok[1]!r}", tok[2])
        if init is None:
            self.error("model has no init declaration", self.peek()[2])
        model = ParsedModel(
            definitions=defs,
            declared_domains=declared,
            channels=frozenset(channels),
            init=tuple(init),
            init_names=tuple(component_name(t) for t in init),
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
                self.error(f"field {f!r} declared twice", self.peek()[2])
            names.append(f)
            values.append(tuple(vals))
        self.next()  # '}'
        return FieldDomains(fields=tuple(names), values=tuple(values))

    def value_literal(self) -> str:
        tok = self.next()
        if tok[0] in ("ident", "int"):
            return tok[1]
        self.error(f"expected a value literal, found {tok[1]!r}", tok[2])

    def channels_decl(self) -> list:
        """The names of a ``channels`` list."""
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
                    "(line {}, column {})".format(*self.where(tok[2]))
                )
            else:
                return t

    def prefix(self, in_def) -> Term:
        """A chain of policy/send/receive prefixes ending in an atom.

        The chain is read in a loop and folded from the right, so its
        length is not bounded by the recursion limit.
        """
        heads = []  # (constructor, its arguments before the continuation)
        while True:
            tok = self.next()
            if tok[0] == "string":
                heads.append((SeqPolicy, self.embedded_policy(tok)))
                self.expect(";")
            elif tok[0] == "ident" and tok[1] != "bot" and self.peek()[0] in ("!", "?"):
                cls = Send if self.next()[0] == "!" else Recv
                heads.append((cls, tok[1], self.message()))
                self.expect(";")
            else:
                break
        if tok[0] == "(":
            t = self.term(in_def)
            self.expect(")")
        elif tok[0] == "ident":
            t = Bot() if tok[1] == "bot" else Var(tok[1])
        elif tok[0] == "par" and in_def is not None:
            raise ParInsideDefinition(
                f"parallel composition inside definition {in_def!r} "
                "(line {}, column {})".format(*self.where(tok[2]))
            )
        else:
            self.error(f"expected a process term, found {tok[1]!r}", tok[2])
        for cls, *args in reversed(heads):
            t = cls(*args, t)
        return t

    def message(self) -> Message:
        tok = self.next()
        if tok[0] == "ident":
            return Token(tok[1])
        if tok[0] == "string":
            return PolicyMsg(self.embedded_policy(tok))
        self.error(f"expected a message, found {tok[1]!r}", tok[2])

    def embedded_policy(self, tok) -> Policy:
        """The policy quoted in ``tok``, parsed once per distinct text."""
        text = tok[1][1:-1]
        p = self.policies.get(text)
        if p is None:
            try:
                p = self.policies[text] = parse_policy(text)
            except PolicySyntaxError as exc:
                raise ModelSyntaxError(
                    f"bad NetKAT policy: {exc}", *self.where(tok[2])
                ) from exc
        return p


# --------------------------------------------------------------------------
# Validation


def component_name(t: Term) -> str:
    """A component by its definition name, or its rendered term if unnamed."""
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
            if isinstance(s, (Send, Recv)) and s.channel not in model.channels:
                raise UndeclaredChannel(
                    f"{owner} uses undeclared channel {s.channel!r}"
                )

    # Guardedness: no cycle through head (unguarded) variable positions.
    edges = {
        name: set(_unguarded_refs(body))
        for name, body in model.definitions.items()
    }
    # Depth-first from each definition in file order, refs sorted, with an
    # explicit stack: a long definition chain must not hit the recursion limit.
    state = {}  # name -> "visiting" | "done"
    path = []  # the names being visited, outermost first
    pending = [iter(model.definitions)]  # names left to visit, one per level
    while pending:
        name = next(pending[-1], None)
        if name is None:
            pending.pop()
            if path:
                state[path.pop()] = "done"
        elif state.get(name) == "visiting":
            cycle = " -> ".join(path[path.index(name):] + [name])
            raise UnguardedRecursion(f"unguarded recursion: {cycle}")
        elif name not in state:
            state[name] = "visiting"
            path.append(name)
            pending.append(iter(sorted(edges[name])))


def parse_model(text: str) -> ParsedModel:
    """Parse and validate a model file."""
    return _ModelParser(text).parse()


def load_model(path) -> ParsedModel:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        where = f"byte 0x{data[exc.start]:02x} at offset {exc.start}"
        raise ModelError(f"{path}: not UTF-8: {where}") from None
    # Universal newlines, as a text-mode read gives.
    return parse_model(text.replace("\r\n", "\n").replace("\r", "\n"))


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


def infer_domains(model: ParsedModel) -> FieldDomains:
    """Resolve the field domains a model ranges over.

    With a ``fields`` block in the model (``model.declared_domains``) every
    literal is validated against the declaration and the declaration is
    returned unchanged.  Otherwise the domains are inferred: each field gets
    the sorted set of values it is paired with anywhere in the model, plus
    one fresh residual value so negated tests keep a nonempty complement.
    """
    declared = model.declared_domains
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
    values = tuple(tuple(sorted(seen[f])) + (residual_token(f),) for f in fields)
    return FieldDomains(fields=tuple(fields), values=values)
