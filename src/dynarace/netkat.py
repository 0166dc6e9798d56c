"""Dup-free NetKAT: AST, concrete syntax, evaluation and normal forms.

Policies denote functions from packets to sets of packets.  Negation is
restricted to predicates and the restriction is enforced at parse time,
mirroring the predicate/policy split of the language grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .domains import (
    PACKET_CAP,
    DomainTooLarge,
    DynaraceError,
    FieldDomains,
    Packet,
)


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Test:
    field: str
    value: str


@dataclass(frozen=True)
class Assign:
    field: str
    value: str


@dataclass(frozen=True)
class Neg:
    pred: "Policy"


@dataclass(frozen=True)
class Union:
    left: "Policy"
    right: "Policy"


@dataclass(frozen=True)
class Seq:
    left: "Policy"
    right: "Policy"


@dataclass(frozen=True)
class Star:
    body: "Policy"


Policy = Zero | One | Test | Assign | Neg | Union | Seq | Star


def is_predicate(p: Policy) -> bool:
    """True iff ``p`` is built from 0, 1, tests, +, . and negation only."""
    if isinstance(p, (Zero, One, Test)):
        return True
    if isinstance(p, Neg):
        return is_predicate(p.pred)
    if isinstance(p, (Union, Seq)):
        return is_predicate(p.left) and is_predicate(p.right)
    return False


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
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolicySyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            val = m.group()
            if kind == "sym":
                kind = val
            tokens.append((kind, val, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _PolicyParser:
    """Recursive-descent parser: ``+`` < ``.`` < postfix ``*`` / prefix ``~``."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
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
            raise PolicySyntaxError(
                f"expected {kind!r}, found {tok[1]!r}", tok[2]
            )
        return tok

    def parse(self) -> Policy:
        p = self.union()
        tok = self.peek()
        if tok[0] != "eof":
            raise PolicySyntaxError(f"trailing input {tok[1]!r}", tok[2])
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
            if not is_predicate(operand):
                raise PolicySyntaxError(
                    "negation applies only to predicates", pos
                )
            return Neg(operand)
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
            raise PolicySyntaxError(
                f"expected '=' or '<-' after field {val!r}", nxt[2]
            )
        raise PolicySyntaxError(f"unexpected token {val!r}", pos)

    def value_token(self) -> str:
        kind, val, pos = self.next()
        if kind in ("ident", "int"):
            return val
        raise PolicySyntaxError(f"expected a value, found {val!r}", pos)


def parse_policy(text: str) -> Policy:
    """Parse NetKAT concrete syntax into an AST."""
    return _PolicyParser(text).parse()


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
        if isinstance(p, Union):
            # right operand one level up so right-nested unions keep parens
            s = f"{go(p.left, 1)} + {go(p.right, 2)}"
            return f"({s})" if parent_prec > 1 else s
        if isinstance(p, Seq):
            s = f"{go(p.left, 2)} . {go(p.right, 3)}"
            return f"({s})" if parent_prec > 2 else s
        raise TypeError(f"not a policy node: {p!r}")

    return go(p, 0)


def policy_literals(p: Policy):
    """Yield every (field, value) literal of ``p``, left to right."""
    if isinstance(p, (Test, Assign)):
        yield (p.field, p.value)
    elif isinstance(p, Neg):
        yield from policy_literals(p.pred)
    elif isinstance(p, Star):
        yield from policy_literals(p.body)
    elif isinstance(p, (Union, Seq)):
        yield from policy_literals(p.left)
        yield from policy_literals(p.right)


# --------------------------------------------------------------------------
# Semantics


def _eval(p: Policy, sigma: Packet, dom: FieldDomains, steps: dict) -> frozenset:
    """Output packets of ``p`` on ``sigma``.

    ``steps`` memoizes star-body steps by ``(id(star), packet)``; identity
    keys avoid re-hashing the subtree and hold while the policy is alive.
    """
    if isinstance(p, Zero):
        return frozenset()
    if isinstance(p, One):
        return frozenset({sigma})
    if isinstance(p, Test):
        i = dom.field_index(p.field)
        return frozenset({sigma}) if sigma[i] == p.value else frozenset()
    if isinstance(p, Assign):
        return frozenset({dom.set_field(sigma, p.field, p.value)})
    if isinstance(p, Neg):
        return frozenset({sigma}) - _eval(p.pred, sigma, dom, steps)
    if isinstance(p, Union):
        return _eval(p.left, sigma, dom, steps) | _eval(p.right, sigma, dom, steps)
    if isinstance(p, Seq):
        out = set()
        for mid in _eval(p.left, sigma, dom, steps):
            out |= _eval(p.right, mid, dom, steps)
        return frozenset(out)
    if isinstance(p, Star):
        # Least fixpoint: saturate the reachable-packet set.
        result = {sigma}
        frontier = {sigma}
        while frontier:
            step = set()
            for pkt in frontier:
                key = (id(p), pkt)
                if key not in steps:
                    steps[key] = _eval(p.body, pkt, dom, steps)
                step |= steps[key]
            frontier = step - result
            result |= step
        return frozenset(result)
    raise TypeError(f"not a policy node: {p!r}")


def eval_policy(p: Policy, sigma: Packet, dom: FieldDomains) -> set:
    """Denotational semantics restricted to single packets (no histories).

    Each call evaluates afresh; nothing outlives it.
    """
    return set(_eval(p, sigma, dom, {}))


def normal_form(p: Policy, dom: FieldDomains) -> tuple:
    """Relational normal form: all (complete test, complete assignment) pairs.

    Computed by evaluating the policy at every packet of the finite space;
    the result is a canonically ordered, duplicate-free tuple of
    (input packet, output packet) pairs.  It is computed once per policy
    and cached on ``dom``, so it lives as long as the domains do.
    """
    cache = dom.normal_forms
    nf = cache.get(p)
    if nf is None:
        if dom.packet_count > PACKET_CAP:
            raise DomainTooLarge(
                f"packet space has {dom.packet_count} packets, cap is {PACKET_CAP}"
            )
        steps: dict = {}
        nf = cache[p] = tuple(
            (alpha, pi)
            for alpha in dom.all_packets()
            for pi in sorted(_eval(p, alpha, dom, steps), key=dom.packet_key)
        )
    return nf


def policy_equiv(p: Policy, q: Policy, dom: FieldDomains) -> bool:
    """Semantic equality: identical normal forms over ``dom``."""
    return normal_form(p, dom) == normal_form(q, dom)
