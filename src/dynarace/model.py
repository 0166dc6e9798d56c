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
``ch ! msg`` / ``ch ? msg`` send and receive over a channel; a message
is a bare token such as ``one`` or a quoted policy.  ``//`` starts a
line comment.  An optional ``fields { ... }`` block declares the
value domains explicitly; otherwise they are inferred from the literals
in the model, with one residual value added per field.

A parse builds its own terms and policies, one object per distinct value
within the model (``netkat.HashConsed``).  A message is the value it
carries: a token is the ``str`` of its name, a policy message the policy
itself.
"""

from __future__ import annotations

from collections import namedtuple

from .domains import DynaraceError, FieldDomains, residual_token
from .netkat import (
    HashConsed,
    Policy,
    PolicySyntaxError,
    Tokens,
    parse_policy,
    policy_literals,
    render_policy,
    token_pattern,
)


# --------------------------------------------------------------------------
# Errors


class ModelSyntaxError(DynaraceError):
    """Malformed model source; carries the line and column, counted from 1."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


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


# A message: an uninterpreted token's name, or a NetKAT policy exchanged
# as a message (e.g. a flow table).
Message = str | Policy


def render_message(msg: Message) -> str:
    return msg if isinstance(msg, str) else f'"{render_policy(msg)}"'


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


def heads(t: Term, definitions=None):
    """Yield the head positions of ``t``: the terms reached through choices
    only, left branch first.  With ``definitions`` a variable is unfolded
    in place; that ends because ``_validate`` rejects a cycle through the
    variables this walk yields without them."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Choice):
            stack += (t.right, t.left)
        elif definitions is not None and isinstance(t, Var):
            stack.append(definitions[t.name])
        else:
            yield t


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

    Its terms, policies and token names come from one parse, in which
    equal values are one object (``Tokens.make``).  It holds no caches: an
    ``engine.Analysis`` keeps what one build computes from it.
    """

    __slots__ = ()


# --------------------------------------------------------------------------
# Parser


class _ModelParser(Tokens):
    symbols = "{}:,;!?()="
    pattern = token_pattern(
        r"(?:[ \t\r\n]+|//[^\n]*)*",
        rf'"[^"\n]*" | o\+(?![A-Za-z0-9_]) | [A-Za-z][A-Za-z0-9_]* | [0-9]+ | \|\| | [{symbols}]',
    )

    def where(self, k: int) -> tuple:
        """The line and column of token ``k``, both counted from 1."""
        text, offset = self.text, self.offset(k)
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    def error(self, message: str, k: int):
        raise ModelSyntaxError(message, *self.where(k))

    def expect_ident(self, what: str):
        tok = self.next()
        if not tok.isidentifier():
            self.error(f"expected {what}, found {tok!r}", self.i)
        return tok

    def declared(self, name: str, what: str) -> str:
        """``name``, the token just read, which a ``def`` or ``channels``
        declares or a send or receive uses.  A term reads ``bot`` as the
        deadlocked process, so no definition or channel can be called
        that."""
        if name == "bot":
            self.error(f"{what} 'bot' is reserved for the deadlocked process", self.i)
        return name

    # -- blocks

    def parse(self) -> ParsedModel:
        self.policies = {}  # the policies parsed so far, by their quoted text
        declared = None
        channels = set()
        defs = {}
        init = None
        # Only an identifier's text is a bare word, so the keyword tests
        # need not check the token's kind.
        while tok := self.next():
            if tok == "fields":
                if declared is not None:
                    self.error("duplicate fields block", self.i)
                declared = self.fields_block()
            elif tok == "channels":
                channels.update(self.channels_decl())
            elif tok == "def":
                name = self.declared(self.next(), "definition name")
                if not name.isidentifier():
                    self.error("expected definition name", self.i)
                if name in defs:
                    raise DynaraceError(f"definition {name!r} appears more than once")
                self.expect("=")
                body = self.term(in_def=name)
                self.expect(";")
                defs[name] = body
            elif tok == "init":
                if init is not None:
                    self.error("duplicate init declaration", self.i)
                init = self.init_decl()
            else:
                self.error(f"expected a declaration, found {tok!r}", self.i)
        if init is None:
            self.error("model has no init declaration", self.i)
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
        domains = {}
        while self.peek() != "}":
            f = self.expect_ident("field name")
            if f in domains:
                self.error(f"field {f!r} declared twice", self.i)
            self.expect(":")
            self.expect("{")
            vals = [self.value("a value literal")]
            while self.peek() == ",":
                self.next()
                val = self.value("a value literal")
                if val in vals:
                    self.error(f"value {val!r} declared twice for field {f!r}", self.i)
                vals.append(val)
            self.expect("}")
            self.expect(";")
            domains[f] = tuple(vals)
        self.next()  # '}'
        return FieldDomains(fields=tuple(domains), values=tuple(domains.values()))

    def channels_decl(self) -> list:
        """The names of a ``channels`` list."""
        names = [self.declared(self.expect_ident("channel name"), "channel name")]
        while self.peek() == ",":
            self.next()
            names.append(self.declared(self.expect_ident("channel name"), "channel name"))
        self.expect(";")
        return names

    def init_decl(self):
        comps = [self.term(in_def=None)]
        while self.peek() == "||":
            self.next()
            comps.append(self.term(in_def=None))
        self.expect(";")
        return comps

    # -- terms

    def term(self, in_def) -> Term:
        t = self.prefix(in_def)
        while True:
            tok = self.peek()
            if tok == "o+":
                self.next()
                t = self.make(Choice, t, self.prefix(in_def))
            elif tok == "||" and in_def is not None:
                self.error(f"parallel composition inside definition {in_def!r}", self.i + 1)
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
            if tok[:1] == '"':
                heads.append((SeqPolicy, self.embedded_policy(tok)))
                self.expect(";")
            elif tok.isidentifier() and self.peek() in ("!", "?"):
                self.declared(tok, "channel name")
                cls = Send if self.next() == "!" else Recv
                heads.append((cls, tok, self.message()))
                self.expect(";")
            else:
                break
        if tok == "(":
            self.depth = self.level(self.depth + 1)
            t = self.term(in_def)
            self.expect(")")
            self.depth -= 1
        elif tok.isidentifier():
            t = self.make(Bot) if tok == "bot" else self.make(Var, tok)
        elif tok == "||" and in_def is not None:
            self.error(f"parallel composition inside definition {in_def!r}", self.i)
        else:
            self.error(f"expected a process term, found {tok!r}", self.i)
        for cls, *args in reversed(heads):
            t = self.make(cls, *args, t)
        return t

    def message(self) -> Message:
        """A token's name, one string per name in the parse, or a policy."""
        tok = self.next()
        if tok.isidentifier():
            return self.interned.setdefault(tok, tok)
        if tok[:1] == '"':
            return self.embedded_policy(tok)
        self.error(f"expected a message, found {tok!r}", self.i)

    def embedded_policy(self, tok: str) -> Policy:
        """The policy quoted in ``tok``, the token just read, parsed once
        per distinct text."""
        text = tok[1:-1]
        p = self.policies.get(text)
        if p is None:
            try:
                p = self.policies[text] = parse_policy(text, self.interned)
            except PolicySyntaxError as exc:
                raise ModelSyntaxError(
                    f"bad NetKAT policy: {exc}", *self.where(self.i)
                ) from exc
        return p


# --------------------------------------------------------------------------
# Validation


def component_name(t: Term) -> str:
    """A component by its definition name, or its rendered term if unnamed."""
    return t.name if isinstance(t, Var) else render_term(t)


def _validate(model: ParsedModel) -> None:
    owners = [
        (f"definition {name!r}", body)
        for name, body in model.definitions.items()
    ] + [("init", comp) for comp in model.init]
    for owner, t in owners:
        for s in subterms(t):
            if isinstance(s, Var) and s.name not in model.definitions:
                raise DynaraceError(f"{owner} refers to undefined {s.name!r}")
            if isinstance(s, (Send, Recv)) and s.channel not in model.channels:
                raise DynaraceError(f"{owner} uses undeclared channel {s.channel!r}")

    # Guardedness: no cycle through head (unguarded) variable positions.
    edges = {
        name: {t.name for t in heads(body) if isinstance(t, Var)}
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
            raise DynaraceError(f"unguarded recursion: {cycle}")
        elif name not in state:
            state[name] = "visiting"
            path.append(name)
            pending.append(iter(sorted(edges[name])))


def parse_model(text: str) -> ParsedModel:
    """Parse and validate a model file.  Each call builds its own records,
    which share no object with another call's."""
    return _ModelParser(text).parse()


def load_model(path) -> ParsedModel:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        where = f"byte 0x{data[exc.start]:02x} at offset {exc.start}"
        raise DynaraceError(f"{path}: not UTF-8: {where}") from None
    text = text.removeprefix("\ufeff")  # a byte-order mark
    # Universal newlines, as a text-mode read gives.
    return parse_model(text.replace("\r\n", "\n").replace("\r", "\n"))


# --------------------------------------------------------------------------
# Domain inference


def _model_literals(model: ParsedModel):
    """The (field, value) literals of the model, in deterministic order:
    those of each distinct policy node once, where it first occurs."""
    seen = set()  # the policy nodes walked, shared by every policy
    for t in (*model.definitions.values(), *model.init):
        for s in subterms(t):
            if isinstance(s, SeqPolicy):
                yield from policy_literals(s.policy, seen)
            elif isinstance(s, (Send, Recv)) and not isinstance(s.message, str):
                yield from policy_literals(s.message, seen)


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
            if f not in declared.fields:
                raise DynaraceError(f"field {f!r} is not declared")
            if v not in declared.values[declared.field_index(f)]:
                raise DynaraceError(
                    f"value {v!r} is outside the declared domain of {f!r}"
                )
        return declared
    if not literals:
        raise DynaraceError("no fields occur anywhere in the model")
    seen = {}  # each field's values, fields in order of first occurrence
    for f, v in literals:
        seen.setdefault(f, set()).add(v)
    values = tuple(tuple(sorted(vs)) + (residual_token(f),) for f, vs in seen.items())
    return FieldDomains(fields=tuple(seen), values=values)
