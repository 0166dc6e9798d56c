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

from .domains import DynaraceError, FieldDomains


# --------------------------------------------------------------------------
# AST


class HashConsed:
    """Immutable syntax records, in which equal values of one parse are one
    object.

    A subclass declares its fields as annotations only: no decorator, no
    ``__init__``.  ``cls(*args)`` builds a record with the arguments as its
    fields, in annotation order.  The parsers build every record through
    ``Tokens.make``, which hands out the record built earlier in the same
    parse from equal arguments, if there is one (hash-consing, scoped to
    one parse: Filliâtre and Conchon, "Type-Safe Modular Hash-Consing", ML
    Workshop 2006).  So the fields must be hashable, and equality and
    hashing are the identity's, which costs nothing and never walks a
    value, yet within one model still means structural equality.  Records
    of two parses are distinct objects; compare them by their rendered
    text.  Fields cannot be set or deleted, which keeps the sharing sound.
    """

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", {}))

    def __new__(cls, *args):
        self = object.__new__(cls)
        self.__dict__.update(zip(cls.__match_args__, args, strict=True))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


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


# --------------------------------------------------------------------------
# Concrete syntax


class PolicySyntaxError(DynaraceError):
    """Malformed NetKAT source; carries a position within the string."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


def token_pattern(skip: str, tokens: str) -> re.Pattern:
    """A ``Tokens.pattern``: ``skip`` (blanks, perhaps comments), then one
    group: a token of ``tokens``, the end of the text (``eof``, empty) or
    any other character (bad).  One of the three matches at every offset,
    so ``skip`` never gives a blank back to a bad one."""
    return re.compile(rf"{skip}({tokens}|\Z|.)", re.VERBOSE | re.DOTALL)


# The deepest nesting either parser accepts, in levels: a policy's ``(``,
# prefix ``~`` and postfix ``*``, a term's ``(``.  A level costs at most 4
# stack frames to parse (a policy's ``(``: ``atom``, ``union``, ``seq``,
# ``starred``), 2 to evaluate (a ``*`` or right-nested ``.``:
# ``_Evaluator.ev``, ``step``) and 1 to render, so at this limit a policy
# in a term, each nested to it, parses in about 620 frames, under the
# default recursion limit of 1000; deeper input is an error, never a
# ``RecursionError``.
MAX_NESTING = 100

# The one-character identifiers and integers.
_ALNUM = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


class Tokens:
    """A text's token texts, scanned up front by ``findall``, a cursor, and
    the parse's table of records.

    A subclass sets ``pattern``, made by ``token_pattern``, ``symbols``
    (its one-character tokens but letters and digits) and ``error(message,
    k)``, which raises at token ``k``.  The last token is ``eof``, ``""``;
    a bad character is an error before any is parsed.  Only an error finds
    an offset, by scanning again (``offset``).

    ``interned`` maps ``(cls, *fields)`` to the one record of those fields
    that ``make`` built; a model's quoted policies share the model's, and
    the model parser keys each message token's name, a ``str``, by itself,
    so the parse keeps one string per name.
    """

    depth = 0  # the levels of nesting open at the cursor

    def __init__(self, text: str, interned=None):
        self.text = text
        self.interned = {} if interned is None else interned
        self.texts = texts = self.pattern.findall(text)
        if texts[-2:] == ["", ""]:  # ``\Z`` after trailing blanks and at the end
            texts.pop()
        self.i = -1  # the last token read
        bad = [t for t in set(texts) if len(t) == 1 and t not in _ALNUM + self.symbols]
        if bad:
            k = min(map(texts.index, bad))
            self.error(f"unexpected character {texts[k]!r}", k)

    def make(self, cls, *args):
        """The record ``cls(*args)``: the one this parse built from equal
        arguments, if there is one, else a new one."""
        key = (cls, *args)
        record = self.interned.get(key)
        if record is None:
            record = self.interned[key] = cls(*args)
        return record

    def offset(self, k: int) -> int:
        """The offset of token ``k``, from a scan of the text up to it."""
        return next(itertools.islice(self.pattern.finditer(self.text), k, None)).start(1)

    def peek(self):
        return self.texts[self.i + 1]

    def next(self):
        self.i += 1
        return self.texts[self.i]

    def expect(self, text: str):
        tok = self.next()
        if tok != text:
            self.error(f"expected {text!r}, found {tok!r}", self.i)

    def value(self, what: str) -> str:
        """The next token's text if it is an identifier or an integer."""
        val = self.next()
        if not (val.isidentifier() or val.isdigit()):
            self.error(f"expected {what}, found {val!r}", self.i)
        return val

    def level(self, n: int) -> int:
        """``n``, the nesting level the token just read reaches, if within
        ``MAX_NESTING``; otherwise an error there."""
        if n > MAX_NESTING:
            self.error(f"nesting deeper than MAX_NESTING = {MAX_NESTING} levels", self.i)
        return n


class _PolicyParser(Tokens):
    """Recursive-descent parser: ``+`` < ``.`` < postfix ``*`` / prefix ``~``.

    ``impure`` counts the assignments and stars read so far: an operand
    of ``~`` is a predicate iff reading it left the count unchanged.
    """

    symbols = "+.*~()="
    pattern = token_pattern(r"\s*", rf"<- | [A-Za-z][A-Za-z0-9_]* | [0-9]+ | [{symbols}]")

    impure = 0

    def error(self, message: str, k: int):
        raise PolicySyntaxError(message, self.offset(k))

    def parse(self) -> Policy:
        self.deepest = 0  # the deepest level within the current operand
        p = self.union()
        if self.peek():
            self.error(f"trailing input {self.peek()!r}", self.i + 1)
        return p

    def union(self) -> Policy:
        p = self.seq()
        while self.peek() == "+":
            self.next()
            p = self.make(Union, p, self.seq())
        return p

    def seq(self) -> Policy:
        p = self.starred()
        while self.peek() == ".":
            self.next()
            p = self.make(Seq, p, self.starred())
        return p

    def starred(self) -> Policy:
        # A ``*`` nests its whole operand one level deeper, so it counts
        # from the deepest level inside the operand, not from ``depth``.
        outer, self.deepest = self.deepest, self.depth
        p = self.atom()
        while self.peek() == "*":
            self.next()
            self.deepest = self.level(self.deepest + 1)
            self.impure += 1
            p = self.make(Star, p)
        self.deepest = max(outer, self.deepest)
        return p

    def atom(self) -> Policy:
        val = self.next()
        if val in ("0", "1"):
            return self.make(Zero if val == "0" else One)
        if val in ("~", "("):
            # ``starred`` just set ``deepest`` to ``depth``.
            self.depth = self.deepest = self.level(self.depth + 1)
        if val == "~":
            k, impure = self.i, self.impure
            operand = self.starred()
            self.depth -= 1
            if self.impure != impure:
                self.error("negation applies only to predicates", k)
            return self.make(Neg, operand)
        if val == "(":
            p = self.union()
            self.expect(")")
            self.depth -= 1
            return p
        if val.isidentifier():
            op = self.peek()
            if op in ("=", "<-"):
                self.next()
                self.impure += op == "<-"
                return self.make(Test if op == "=" else Assign, val, self.value("a value"))
            self.error(f"expected '=' or '<-' after field {val!r}", self.i + 1)
        self.error(f"unexpected token {val!r}", self.i)


def parse_policy(text: str, interned=None) -> Policy:
    """Parse NetKAT concrete syntax into an AST.  A model passes its table
    of records as ``interned``, so its policies share their equal nodes."""
    return _PolicyParser(text, interned).parse()


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


def policy_literals(p: Policy, seen: set):
    """Yield the (field, value) literal of each test and assignment of
    ``p``, left to right, skipping a node in ``seen`` with all nested in
    it (its literals came before) and adding each node walked."""
    for q in policy_nodes(p, seen):
        seen.add(q)
        if isinstance(q, (Test, Assign)):
            yield (q.field, q.value)


# --------------------------------------------------------------------------
# Semantics: normal forms over symbolic packets
#
# A symbolic packet has one entry per field.  A ``str`` entry is a value the
# policy assigned; a ``frozenset`` entry is the input's own value, known to
# lie in that set.  ``_Evaluator.ev(p, s)`` returns ``(n, o)`` pairs: ``n``
# is ``s`` with set entries narrowed, and describes the inputs for which
# ``o`` is an output.  A set entry of ``o`` is always the same set as the
# entry of ``n``: the output still copies that field from the input.
#
# A set entry is always a field's whole domain or one of its atoms (see
# ``_Evaluator``): tests narrow to a single tested value, and negation splits
# a whole domain into atoms.  So an entry of a field with v values takes at
# most 2v + 1 forms (v + 1 sets, v assigned values), the symbolic packets
# fed to a ``.`` or ``*`` operand number at most the product of those over
# the fields, and a star's fixpoint cannot enumerate subsets of a domain.


def _narrowed(s: tuple, i: int, entry) -> tuple:
    return s[:i] + (entry,) + s[i + 1 :]


def _join(n1: tuple, o1: tuple, n2: tuple) -> tuple:
    """The inputs of ``n1`` whose output ``o1`` lies in ``n2``, a narrowing
    of ``o1``: ``n2`` on the fields that ``o1`` copies, else ``n1``."""
    if n2 is o1:
        return n1
    return tuple([b if type(b) is frozenset else a for a, b in zip(n1, n2)])


class _Evaluator:
    """The symbolic evaluation of one policy over ``dom``; ``normal_form``
    makes one per policy it normalises.

    ``atoms`` holds, per field, the classes of input values that the policy
    cannot tell apart: each value it tests is a class of its own, and the
    values it never tests form one more class, if there are any.  ``steps``
    memoizes the right operand of each ``.`` and the body of each ``*`` by
    the symbolic packet fed to it (see ``step``).
    """

    __slots__ = ("dom", "atoms", "steps")

    def __init__(self, p: Policy, dom: FieldDomains):
        self.dom, self.steps = dom, {}
        tested = [set() for _ in dom.fields]
        for q in policy_nodes(p):
            if isinstance(q, Test):
                tested[dom.field_index(q.field)].add(q.value)
        atoms = []
        for vals, t in zip(dom.values, tested):
            classes = [frozenset((v,)) for v in vals if v in t]
            rest = frozenset(v for v in vals if v not in t)
            atoms.append(tuple(classes + [rest] if rest else classes))
        self.atoms = tuple(atoms)

    def subtract(self, a: tuple, c: tuple) -> list:
        """Disjoint cubes covering ``a`` minus ``c``, split one field at a time.

        Both are narrowings of one symbolic packet, so their ``str`` entries
        agree, and each set entry is a whole domain or an atom.  Where ``c``
        is narrower than ``a``, ``a``'s entry is the whole domain and ``c``'s
        one atom: the rest of the domain is split into its other atoms.
        """
        if any(type(x) is frozenset and x.isdisjoint(y) for x, y in zip(a, c)):
            return [a]
        out = []
        for i, (x, y) in enumerate(zip(a, c)):
            if type(x) is frozenset and not x <= y:
                out += [_narrowed(a, i, z) for z in self.atoms[i] if z != y]
                a = _narrowed(a, i, y)
        return out

    def step(self, node: Policy, operand: Policy, o: tuple) -> tuple:
        """``ev(operand, o)`` for a ``.`` or ``*`` node, memoized in ``steps``
        by ``(node, o)``."""
        out = self.steps.get((node, o))
        if out is None:
            out = self.steps[node, o] = self.ev(operand, o)
        return out

    def ev(self, p: Policy, s: tuple) -> tuple:
        """Duplicate-free ``(n, o)`` pairs of ``p`` on the symbolic packet ``s``."""
        if isinstance(p, Zero):
            return ()
        if isinstance(p, One):
            return ((s, s),)
        if isinstance(p, Test):
            i = self.dom.field_index(p.field)
            x = s[i]
            if type(x) is str:
                return ((s, s),) if x == p.value else ()
            if p.value not in x:
                return ()
            t = _narrowed(s, i, frozenset((p.value,)))
            return ((t, t),)
        if isinstance(p, Assign):
            return ((s, _narrowed(s, self.dom.field_index(p.field), p.value)),)
        if isinstance(p, Neg):
            pieces = [s]
            for c, _ in self.ev(p.pred, s):
                pieces = [r for a in pieces for r in self.subtract(a, c)]
            return tuple((r, r) for r in pieces)
        if isinstance(p, Union):
            first, nodes = _left_spine(p)
            out = dict.fromkeys(self.ev(first, s))
            for q in nodes:
                out.update(dict.fromkeys(self.ev(q.right, s)))
            return tuple(out)
        if isinstance(p, Seq):
            first, nodes = _left_spine(p)
            pairs = self.ev(first, s)
            for q in nodes:
                out = {}
                for n1, o1 in pairs:
                    for n2, o2 in self.step(q, q.right, o1):
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
                    for n2, o2 in self.step(p, p.body, o1):
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
    which bounds the symbolic packets by the packet space (itself bounded
    when ``dom`` was built) up to a factor of (2v + 1) / v per field of v
    values.  In practice they are far fewer, and the work follows the size
    of the policy and of the result, not of the packet space (the
    complete-test / complete-assignment normal form of Anderson et al.,
    POPL 2014).  The result is a canonically ordered, duplicate-free tuple of
    (input packet, output packet) pairs.  Nothing is cached: the caller
    keeps what it needs (``engine.Analysis.hnfs`` keeps each term's steps).
    """
    top = tuple(frozenset(vals) for vals in dom.values)
    pairs = set()
    for n, o in _Evaluator(p, dom).ev(p, top):
        inputs = [[v for v in vals if v in x] for vals, x in zip(dom.values, n)]
        for alpha in itertools.product(*inputs):
            pi = tuple(y if type(y) is str else a for y, a in zip(o, alpha))
            pairs.add((alpha, pi))
    packets = {pkt for pair in pairs for pkt in pair}
    key = {pkt: dom.packet_key(pkt) for pkt in packets}
    return tuple(sorted(pairs, key=lambda pair: (key[pair[0]], key[pair[1]])))
