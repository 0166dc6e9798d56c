"""Dup-free NetKAT: AST, concrete syntax and normal forms.

Policies denote functions from packets to sets of packets; a policy's
normal form lists that relation as (complete test, complete assignment)
pairs, computed symbolically on partial packets.  Negation is
restricted to predicates and the restriction is enforced at parse time,
mirroring the predicate/policy split of the language grammar.
"""

from __future__ import annotations

import itertools
import re
import weakref

from .domains import (
    PACKET_CAP,
    DomainTooLarge,
    DynaraceError,
    FieldDomains,
)


# --------------------------------------------------------------------------
# AST


class HashConsed:
    """Immutable records in which equal values are one object.

    A subclass declares its fields as annotations only: no decorator, no
    ``__init__``.  ``cls(*args)`` returns the live instance of ``cls`` built
    from equal arguments if there is one, else a new one with the arguments
    as its fields, in annotation order (hash-consing: Filliâtre and
    Conchon, "Type-Safe Modular Hash-Consing", ML Workshop 2006).  So the
    fields must be hashable, and equality and hashing are the identity's,
    which costs nothing and never walks a value, yet still means structural
    equality.  Fields cannot be set or deleted, which keeps the table
    sound; a ``cached_property`` still works, as it writes to the instance
    ``__dict__``.

    ``_instances`` is the one table of every hash-consed object, records
    and ``engine.SymbolicState`` alike.  It is a plain dict from
    ``(cls, *fields)`` to an ``_Entry``, a weak reference to the object,
    so an object is freed as soon as nothing else holds it, and its entry's
    callback then removes the entry.
    """

    _instances: dict = {}

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", {}))

    def __new__(cls, *args):
        key = (cls, *args)
        ref = HashConsed._instances.get(key)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = object.__new__(cls)
        self.__dict__.update(zip(cls.__match_args__, args, strict=True))
        return intern(key, self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class _Entry(weakref.ref):
    """A hash-cons table entry: a weak reference that knows its key.  No
    Python ``__new__`` or ``__init__``, so one C call makes it."""

    __slots__ = ("key",)


def _forget(entry, instances=HashConsed._instances) -> None:
    """The callback of a dead entry: drop it from the table.  An entry
    interned anew under its key while this callback waited (a collector
    pass clears every reference before it calls any callback) is put back."""
    live = instances.pop(entry.key, None)
    if live is not None and live is not entry:
        instances[entry.key] = live


def intern(key, obj):
    """Enter ``obj`` in the hash-cons table under ``key``, held weakly; return
    ``obj``.  The caller has found no live object under ``key``."""
    entry = HashConsed._instances[key] = _Entry(obj, _forget)
    entry.key = key
    return obj


class Zero(HashConsed):
    pass


class One(HashConsed):
    pass


class Test(HashConsed):
    field: str
    value: str


class Assign(HashConsed):
    field: str
    value: str


class Neg(HashConsed):
    pred: "Policy"


class Union(HashConsed):
    left: "Policy"
    right: "Policy"


class Seq(HashConsed):
    left: "Policy"
    right: "Policy"


class Star(HashConsed):
    body: "Policy"


Policy = Zero | One | Test | Assign | Neg | Union | Seq | Star


def policy_nodes(p: Policy, skip=frozenset()):
    """Yield ``p`` and every policy nested in it, pre-order, left branch first.

    A policy in ``skip`` is left out, with everything nested in it.
    """
    stack = [p]
    while stack:
        p = stack.pop()
        if p in skip:
            continue
        yield p
        if isinstance(p, (Union, Seq)):
            stack += (p.right, p.left)
        elif isinstance(p, Neg):
            stack.append(p.pred)
        elif isinstance(p, Star):
            stack.append(p.body)


def is_predicate(p: Policy, known=frozenset()) -> bool:
    """True iff ``p`` is built from 0, 1, tests, +, . and negation only.

    The policies in ``known`` are taken to be predicates, unwalked.
    """
    return not any(isinstance(q, (Assign, Star)) for q in policy_nodes(p, known))


# --------------------------------------------------------------------------
# Concrete syntax


class PolicySyntaxError(DynaraceError):
    """Malformed NetKAT source; carries a position within the string."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow><-)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<sym>[+.*~()=])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Tokens:
    """A whole text's tokens, scanned up front, and a cursor over them.

    A subclass sets ``pattern``, one named group per token kind: ``ws`` is
    skipped, ``sym`` takes its text as its kind, and the last, ``bad``, is
    any other character.  It also sets ``error(message, offset)``, which
    raises.  A token is ``(kind, text, offset)``; the last is ``eof``.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        for m in self.pattern.finditer(text):
            kind = m.lastgroup
            if kind == "ws":
                continue
            val = m.group()
            if kind == "bad":
                self.error(f"unexpected character {val!r}", m.start())
            self.tokens.append((val if kind == "sym" else kind, val, m.start()))
        self.tokens.append(("eof", "", len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            self.error(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


class _PolicyParser(Tokens):
    """Recursive-descent parser: ``+`` < ``.`` < postfix ``*`` / prefix ``~``."""

    pattern = _TOKEN_RE

    def error(self, message: str, offset: int):
        raise PolicySyntaxError(message, offset)

    def parse(self) -> Policy:
        # The negations built so far.  Each is a predicate, so the check at
        # an enclosing ``~`` skips them: a ``~`` chain parses in linear time.
        self.predicates = set()
        p = self.union()
        tok = self.peek()
        if tok[0] != "eof":
            self.error(f"trailing input {tok[1]!r}", tok[2])
        return p

    def union(self) -> Policy:
        p = self.seq()
        while self.peek()[0] == "+":
            self.next()
            p = Union(p, self.seq())
        return p

    def seq(self) -> Policy:
        p = self.starred()
        while self.peek()[0] == ".":
            self.next()
            p = Seq(p, self.starred())
        return p

    def starred(self) -> Policy:
        p = self.atom()
        while self.peek()[0] == "*":
            self.next()
            p = Star(p)
        return p

    def atom(self) -> Policy:
        kind, val, pos = self.next()
        if kind == "int" and val in ("0", "1"):
            return Zero() if val == "0" else One()
        if kind == "~":
            operand = self.starred()
            if not is_predicate(operand, self.predicates):
                self.error("negation applies only to predicates", pos)
            neg = Neg(operand)
            self.predicates.add(neg)
            return neg
        if kind == "(":
            p = self.union()
            self.expect(")")
            return p
        if kind == "ident":
            nxt = self.peek()
            if nxt[0] == "=":
                self.next()
                return Test(val, self.value_token())
            if nxt[0] == "arrow":
                self.next()
                return Assign(val, self.value_token())
            self.error(f"expected '=' or '<-' after field {val!r}", nxt[2])
        self.error(f"unexpected token {val!r}", pos)

    def value_token(self) -> str:
        kind, val, pos = self.next()
        if kind in ("ident", "int"):
            return val
        self.error(f"expected a value, found {val!r}", pos)


def parse_policy(text: str) -> Policy:
    """Parse NetKAT concrete syntax into an AST."""
    return _PolicyParser(text).parse()


def _left_spine(p: Union | Seq) -> tuple:
    """The operand at the foot of ``p``'s left spine, and the nodes of
    ``p``'s type on that spine, innermost first.

    ``a + b + c`` is ``(a + b) + c``: walking the spine in a loop keeps a
    long table or ``.`` chain within the recursion limit.
    """
    cls, nodes = type(p), []
    while type(p) is cls:
        nodes.append(p)
        p = p.left
    return p, nodes[::-1]


def render_policy(p: Policy) -> str:
    """Deterministic round-trippable rendering of a policy AST."""

    def go(p: Policy, parent_prec: int) -> str:
        if isinstance(p, Zero):
            return "0"
        if isinstance(p, One):
            return "1"
        if isinstance(p, Test):
            return f"({p.field} = {p.value})"
        if isinstance(p, Assign):
            return f"({p.field} <- {p.value})"
        if isinstance(p, Neg):
            return "~" + go(p.pred, 3)
        if isinstance(p, Star):
            body = go(p.body, 3)
            # ``~x*`` would reparse as negation of a star
            if isinstance(p.body, Neg):
                body = f"({body})"
            return body + "*"
        if isinstance(p, (Union, Seq)):
            prec, op = (1, " + ") if isinstance(p, Union) else (2, " . ")
            first, nodes = _left_spine(p)
            # right operands one level up so right-nested chains keep parens
            s = go(first, prec) + "".join(op + go(q.right, prec + 1) for q in nodes)
            return f"({s})" if parent_prec > prec else s
        raise TypeError(f"not a policy node: {p!r}")

    return go(p, 0)


def policy_literals(p: Policy):
    """Yield every (field, value) literal of ``p``, left to right."""
    for q in policy_nodes(p):
        if isinstance(q, (Test, Assign)):
            yield (q.field, q.value)


# --------------------------------------------------------------------------
# Semantics: normal forms over symbolic packets
#
# A symbolic packet has one entry per field.  A ``str`` entry is a value the
# policy assigned; a ``frozenset`` entry is the input's own value, known to
# lie in that set.  ``_ev(p, s, dom, atoms, steps)`` returns ``(n, o)``
# pairs: ``n`` is ``s`` with set entries narrowed, and describes the inputs
# for which ``o`` is an output.  A set entry of ``o`` is always the same set
# as the entry of ``n``: the output still copies that field from the input.
#
# A set entry is always a field's whole domain or one of its atoms (see
# ``_atoms``): tests narrow to a single tested value, and negation splits a
# whole domain into atoms.  So an entry of a field with v values takes at
# most 2v + 1 forms (v + 1 sets, v assigned values), the symbolic packets
# fed to a ``.`` or ``*`` operand number at most the product of those over
# the fields, and a star's fixpoint cannot enumerate subsets of a domain.


def _atoms(p: Policy, dom: FieldDomains) -> tuple:
    """Per field, the classes of input values that ``p`` cannot tell apart.

    Each value that ``p`` tests is a class of its own; the values it never
    tests form one more class, if there are any.
    """
    tested = [set() for _ in dom.fields]
    for q in policy_nodes(p):
        if isinstance(q, Test):
            tested[dom.field_index(q.field)].add(q.value)
    atoms = []
    for vals, t in zip(dom.values, tested):
        classes = [frozenset((v,)) for v in vals if v in t]
        rest = frozenset(v for v in vals if v not in t)
        atoms.append(tuple(classes + [rest] if rest else classes))
    return tuple(atoms)


def _narrowed(s: tuple, i: int, entry) -> tuple:
    return s[:i] + (entry,) + s[i + 1 :]


def _join(n1: tuple, o1: tuple, n2: tuple) -> tuple:
    """The inputs of ``n1`` whose output ``o1`` lies in ``n2``, a narrowing
    of ``o1``: ``n2`` on the fields that ``o1`` copies, else ``n1``."""
    if n2 is o1:
        return n1
    return tuple([b if type(b) is frozenset else a for a, b in zip(n1, n2)])


def _subtract(a: tuple, c: tuple, atoms: tuple) -> list:
    """Disjoint cubes covering ``a`` minus ``c``, split one field at a time.

    Both are narrowings of one symbolic packet, so their ``str`` entries agree,
    and each set entry is a whole domain or an atom.  Where ``c`` is narrower
    than ``a``, ``a``'s entry is the whole domain and ``c``'s one atom: the
    rest of the domain is split into its other atoms.
    """
    if any(type(x) is frozenset and x.isdisjoint(y) for x, y in zip(a, c)):
        return [a]
    out = []
    for i, (x, y) in enumerate(zip(a, c)):
        if type(x) is frozenset and not x <= y:
            out += [_narrowed(a, i, z) for z in atoms[i] if z != y]
            a = _narrowed(a, i, y)
    return out


def _step(
    node: Policy,
    operand: Policy,
    o: tuple,
    dom: FieldDomains,
    atoms: tuple,
    steps: dict,
) -> tuple:
    """``_ev(operand, o)`` for a ``.`` or ``*`` node, memoized in ``steps``
    by ``(node, o)``."""
    key = (node, o)
    out = steps.get(key)
    if out is None:
        out = steps[key] = _ev(operand, o, dom, atoms, steps)
    return out


def _ev(
    p: Policy, s: tuple, dom: FieldDomains, atoms: tuple, steps: dict
) -> tuple:
    """Duplicate-free ``(n, o)`` pairs of ``p`` on the symbolic packet ``s``.

    ``atoms`` is ``_atoms`` of the whole policy being normalized.

    ``steps`` memoizes the right operand of each ``.`` and the body of each
    ``*`` by the symbolic packet fed to it (see ``_step``).
    """
    if isinstance(p, Zero):
        return ()
    if isinstance(p, One):
        return ((s, s),)
    if isinstance(p, Test):
        i = dom.field_index(p.field)
        x = s[i]
        if type(x) is str:
            return ((s, s),) if x == p.value else ()
        if p.value not in x:
            return ()
        t = _narrowed(s, i, frozenset((p.value,)))
        return ((t, t),)
    if isinstance(p, Assign):
        return ((s, _narrowed(s, dom.field_index(p.field), p.value)),)
    if isinstance(p, Neg):
        pieces = [s]
        for c, _ in _ev(p.pred, s, dom, atoms, steps):
            pieces = [r for a in pieces for r in _subtract(a, c, atoms)]
        return tuple((r, r) for r in pieces)
    if isinstance(p, Union):
        first, nodes = _left_spine(p)
        out = dict.fromkeys(_ev(first, s, dom, atoms, steps))
        for q in nodes:
            out.update(dict.fromkeys(_ev(q.right, s, dom, atoms, steps)))
        return tuple(out)
    if isinstance(p, Seq):
        first, nodes = _left_spine(p)
        pairs = _ev(first, s, dom, atoms, steps)
        for q in nodes:
            out = {}
            for n1, o1 in pairs:
                for n2, o2 in _step(q, q.right, o1, dom, atoms, steps):
                    out[(_join(n1, o1, n2), o2)] = None
            pairs = tuple(out)
        return pairs
    if isinstance(p, Star):
        # Semi-naive least fixpoint: only new pairs take another body step.
        out = {(s, s): None}
        frontier = [(s, s)]
        while frontier:
            found = []
            for n1, o1 in frontier:
                for n2, o2 in _step(p, p.body, o1, dom, atoms, steps):
                    pair = (_join(n1, o1, n2), o2)
                    if pair not in out:
                        out[pair] = None
                        found.append(pair)
            frontier = found
        return tuple(out)
    raise TypeError(f"not a policy node: {p!r}")


def normal_form(p: Policy, dom: FieldDomains) -> tuple:
    """Relational normal form: all (complete test, complete assignment) pairs.

    The policy is evaluated once, forward, on the symbolic packet whose
    every field is its whole domain; each resulting ``(n, o)`` pair is then
    expanded into the complete tests ``alpha`` of ``n``, each paired with
    ``o`` filled in from ``alpha``.  Set entries are whole domains or atoms,
    which bounds the symbolic packets by the packet space up to a factor of
    (2v + 1) / v per field of v values.  In practice they are far fewer,
    and the work follows the size of the policy and of the result, not of
    the packet space (the complete-test /
    complete-assignment normal form of Anderson et al., POPL 2014).  The
    result is a canonically ordered, duplicate-free tuple of (input packet,
    output packet) pairs.  It is computed once per policy and cached on
    ``dom``, so it lives as long as the domains do.
    """
    cache = dom.normal_forms
    nf = cache.get(p)
    if nf is None:
        if dom.packet_count > PACKET_CAP:
            raise DomainTooLarge(
                f"packet space has {dom.packet_count} packets, cap is {PACKET_CAP}"
            )
        top = tuple(frozenset(vals) for vals in dom.values)
        pairs = set()
        for n, o in _ev(p, top, dom, _atoms(p, dom), {}):
            inputs = [[v for v in vals if v in x] for vals, x in zip(dom.values, n)]
            for alpha in itertools.product(*inputs):
                pi = tuple(y if type(y) is str else a for y, a in zip(o, alpha))
                pairs.add((alpha, pi))
        packets = {pkt for pair in pairs for pkt in pair}
        key = {pkt: dom.packet_key(pkt) for pkt in packets}
        nf = cache[p] = tuple(
            sorted(pairs, key=lambda pair: (key[pair[0]], key[pair[1]]))
        )
    return nf
