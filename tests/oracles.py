"""Independent oracles used by the tests.

Everything here recomputes expected results from first principles,
deliberately avoiding the production code paths it is used to check:
a standalone packet-set evaluator, a walk telling predicates from
other policies, relation algebra for the KAT laws,
pointwise vector clocks (order, bump and merge), a direct recursive
race-detection function, a naive numbering of the full execution tree,
the first steps of a term by the SOS rules and their canonical order,
random generators for policies and models, and an eager
character-by-character scan of the token languages of both parsers.
"""

from __future__ import annotations

import itertools
import random
import string
from functools import lru_cache

from dynarace import netkat
from dynarace.domains import DynaraceError
from dynarace.hnf import hnf, message_key
from dynarace.engine import Analysis, PacketTransition, RcfgTransition, SymbolicState
from dynarace.model import Bot, Choice, Recv, Send, SeqPolicy, Var, render_term


# --------------------------------------------------------------------------
# Independent NetKAT evaluator (Star via bounded relational powers)


@lru_cache(maxsize=None)
def oracle_eval(p, sigma, dom):
    """Packet-set semantics computed independently of the production code."""
    if isinstance(p, netkat.Zero):
        return frozenset()
    if isinstance(p, netkat.One):
        return frozenset({sigma})
    if isinstance(p, netkat.Test):
        ok = sigma[dom.field_index(p.field)] == p.value
        return frozenset({sigma}) if ok else frozenset()
    if isinstance(p, netkat.Assign):
        i = dom.field_index(p.field)
        return frozenset({sigma[:i] + (p.value,) + sigma[i + 1 :]})
    if isinstance(p, netkat.Neg):
        return frozenset({sigma}) - oracle_eval(p.pred, sigma, dom)
    if isinstance(p, netkat.Union):
        return oracle_eval(p.left, sigma, dom) | oracle_eval(p.right, sigma, dom)
    if isinstance(p, netkat.Seq):
        out = set()
        for mid in oracle_eval(p.left, sigma, dom):
            out |= oracle_eval(p.right, mid, dom)
        return frozenset(out)
    if isinstance(p, netkat.Star):
        # Union of the first |packet space| + 1 powers; the fixpoint must
        # be reached within that many rounds over a finite space.
        levels = {sigma}
        total = {sigma}
        for _ in range(dom.packet_count):
            nxt = set()
            for pkt in levels:
                nxt |= oracle_eval(p.body, pkt, dom)
            levels = nxt
            total |= nxt
        return frozenset(total)
    raise TypeError(f"not a policy node: {p!r}")


def oracle_relation(p, dom):
    """The (input, output) packet relation of ``p`` as a frozenset."""
    return frozenset(
        (alpha, pi)
        for alpha in itertools.product(*dom.values)
        for pi in oracle_eval(p, alpha, dom)
    )


def oracle_is_predicate(p) -> bool:
    """True iff no node of ``p`` is an assignment or a star: a walk of its
    own, not the parser's count nor ``netkat.policy_nodes``."""
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, (netkat.Assign, netkat.Star)):
            return False
        stack += [getattr(q, f) for f in ("pred", "left", "right", "body") if hasattr(q, f)]
    return True


# --------------------------------------------------------------------------
# Relation algebra for the KAT law checks


def rel_compose(r1, r2):
    by_left = {}
    for b, c in r2:
        by_left.setdefault(b, set()).add(c)
    return frozenset(
        (a, c) for a, b in r1 for c in by_left.get(b, ())
    )


def rel_rtc(r, dom):
    """Reflexive-transitive closure restricted to the packet space."""
    closure = set((pkt, pkt) for pkt in itertools.product(*dom.values)) | set(r)
    while True:
        new = rel_compose(closure, closure) | closure
        if new == closure:
            return frozenset(closure)
        closure = new


# --------------------------------------------------------------------------
# Random policy generation


def random_predicate(rng: random.Random, dom, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return netkat.Zero()
        if kind == 1:
            return netkat.One()
        f = rng.choice(dom.fields)
        return netkat.Test(f, rng.choice(dom.values[dom.field_index(f)]))
    kind = rng.randrange(3)
    if kind == 0:
        return netkat.Neg(random_predicate(rng, dom, depth - 1))
    left = random_predicate(rng, dom, depth - 1)
    right = random_predicate(rng, dom, depth - 1)
    cls = netkat.Union if kind == 1 else netkat.Seq
    return cls(left, right)


def random_policy(rng: random.Random, dom, depth: int):
    if depth <= 0 or rng.random() < 0.25:
        kind = rng.randrange(5)
        if kind == 0:
            return netkat.Zero()
        if kind == 1:
            return netkat.One()
        f = rng.choice(dom.fields)
        v = rng.choice(dom.values[dom.field_index(f)])
        return netkat.Test(f, v) if kind < 4 else netkat.Assign(f, v)
    kind = rng.randrange(4)
    if kind == 0:
        return netkat.Star(random_policy(rng, dom, depth - 1))
    if kind == 1:
        return netkat.Neg(random_predicate(rng, dom, depth - 1))
    left = random_policy(rng, dom, depth - 1)
    right = random_policy(rng, dom, depth - 1)
    cls = netkat.Union if kind == 2 else netkat.Seq
    return cls(left, right)


def random_domains(rng: random.Random):
    from dynarace.domains import FieldDomains

    n_fields = rng.randint(1, 3)
    fields = tuple(f"f{i}" for i in range(n_fields))
    values = tuple(
        tuple(f"v{j}" for j in range(rng.randint(1, 3))) for _ in fields
    )
    return FieldDomains(fields=fields, values=values)


# --------------------------------------------------------------------------
# Pointwise vector clocks: the order the engine's race check shortcuts on
# the clocks it builds, and the bump and merge that build them


class LengthMismatch(DynaraceError):
    """Compared clocks have different lengths."""


def _check_lengths(v, w) -> None:
    if len(v) != len(w):
        raise LengthMismatch(f"clock lengths differ: {len(v)} vs {len(w)}")


def clock_leq(v, w) -> bool:
    """Pointwise less-or-equal (happens-before-or-equal)."""
    _check_lengths(v, w)
    return all(a <= b for a, b in zip(v, w))


def clock_bump(v, index: int):
    """``v`` with entry ``index`` one higher, built entry by entry."""
    return tuple(a + 1 if k == index else a for k, a in enumerate(v))


def clock_max(v, w):
    """Pointwise maximum of two clocks of one length."""
    _check_lengths(v, w)
    return tuple(a if a >= b else b for a, b in zip(v, w))


def clocks_concurrent(v, w) -> bool:
    """True iff the clocks are incomparable, witnessing concurrency."""
    return not clock_leq(v, w) and not clock_leq(w, v)


def pointwise_first_pair(clocks):
    """Lexicographically smallest (i, j), i < j, with incomparable clocks."""
    n = len(clocks)
    for i in range(n):
        for j in range(i + 1, n):
            if clocks_concurrent(clocks[i], clocks[j]):
                return (i, j)
    return None


# --------------------------------------------------------------------------
# Direct recursive race detection (the rd function)


def pkt_label(alpha):
    return ("pkt", alpha)


def rcfg_label(channel, message, dom):
    return ("rcfg", channel, message_key(message, dom))


def rd_oracle(components, k, model, dom):
    """Set of race-witnessing label sequences, computed by direct recursion.

    A sequence ends (implicitly) at the first state whose clocks contain
    an incomparable pair; states reached at depth 0 without a race
    contribute nothing.
    """
    return _rd(components, k, Analysis(model, dom))


def _rd(components, k, analysis):
    clocks = [c for _, c in components]
    if pointwise_first_pair(clocks) is not None:
        return {()}
    if k == 0:
        return set()
    dom = analysis.dom
    out = set()
    hnfs = [hnf(term, analysis) for term, _ in components]
    n = len(components)
    for i in range(n):
        term_i, clock_i = components[i]
        for step in hnfs[i].packet_steps:
            comps = list(components)
            comps[i] = (step.cont, clock_bump(clock_i, i))
            for tail in _rd(tuple(comps), k - 1, analysis):
                out.add((pkt_label(step.alpha),) + tail)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for send in hnfs[i].send_steps:
                for recv in hnfs[j].recv_steps:
                    if send.channel != recv.channel:
                        continue
                    if message_key(send.message, dom) != message_key(
                        recv.message, dom
                    ):
                        continue
                    s_clock = clock_bump(components[i][1], i)
                    r_clock = clock_bump(clock_max(s_clock, components[j][1]), j)
                    comps = list(components)
                    comps[i] = (send.cont, s_clock)
                    comps[j] = (recv.cont, r_clock)
                    label = rcfg_label(send.channel, send.message, dom)
                    for tail in _rd(tuple(comps), k - 1, analysis):
                        out.add((label,) + tail)
    return out


def witness_label_sequences(witnesses, dom):
    """Project production witnesses to comparable label sequences."""
    out = set()
    for w in witnesses:
        labels = []
        for step in w:
            label = step.label
            if isinstance(label, PacketTransition):
                labels.append(pkt_label(label.alpha))
            else:
                labels.append(rcfg_label(label.channel, label.message, dom))
        out.add(tuple(labels))
    return out


# --------------------------------------------------------------------------
# Naive numbering of the full execution tree


def numbered_full_tree(model, dom, depth):
    """``(ids, states, parents, labels)`` of the full execution tree.

    Numbered by plain recursion: the children of a node take the next ids
    together, in successor order, then the subtree of each child is
    numbered in turn.  No state is remembered, so a repeated subtree is
    walked again.  The successors come from the head normal
    forms, with the pointwise clock bump and merge above.
    """
    analysis = Analysis(model, dom)
    n = len(model.init)
    root = SymbolicState(model.init, ((0,) * n,) * n, depth)
    states, parents, labels = [root], [None], [None]

    def number(nid, state):
        kids = _oracle_successors(state, analysis)
        first = len(states)
        for label, kid in kids:
            states.append(kid)
            parents.append(nid)
            labels.append(label)
        for cid, (_, kid) in enumerate(kids, first):
            number(cid, kid)

    number(0, root)
    return list(range(len(states))), states, parents, labels


def _oracle_successors(state, analysis):
    """``(label, state)`` of each move: the handshakes by sender, send step,
    receiver and receive step, then the packet steps by component and step."""
    if state.depth_remaining == 0:
        return []
    terms, clocks, left = state.terms, state.clocks, state.depth_remaining - 1
    dom = analysis.dom
    hnfs = [hnf(term, analysis) for term in terms]
    out = []
    for i in range(len(terms)):
        for send in hnfs[i].send_steps:
            for j in range(len(terms)):
                if j == i:
                    continue
                for recv in hnfs[j].recv_steps:
                    if send.channel != recv.channel:
                        continue
                    if message_key(send.message, dom) != message_key(recv.message, dom):
                        continue
                    after, stamps = list(terms), list(clocks)
                    after[i], after[j] = send.cont, recv.cont
                    stamps[i] = clock_bump(clocks[i], i)
                    stamps[j] = clock_bump(clock_max(stamps[i], clocks[j]), j)
                    kid = SymbolicState(tuple(after), tuple(stamps), left)
                    out.append((RcfgTransition(i, j, send.channel, send.message), kid))
    for i, h in enumerate(hnfs):
        for step in h.packet_steps:
            after, stamps = list(terms), list(clocks)
            after[i], stamps[i] = step.cont, clock_bump(clocks[i], i)
            kid = SymbolicState(tuple(after), tuple(stamps), left)
            out.append((PacketTransition(i, step.alpha, step.pi), kid))
    return out


# --------------------------------------------------------------------------
# First steps by the SOS rules


def oracle_message(msg, dom):
    """A message's meaning: a token's name, a policy's packet relation."""
    if isinstance(msg, str):
        return ("token", msg)
    return ("policy", oracle_relation(msg, dom))


def oracle_first_steps(t, definitions, dom):
    """The first steps of a ``||``-free term by the SOS rules alone, as a set
    of ``("pkt", alpha, pi, cont)`` and ``(kind, channel, meaning, cont)``
    for a send (``kind`` ``"send"``) or a receive (``"recv"``).

    A choice steps as either branch, a variable as its body, ``"p" ; t``
    once per pair of ``oracle_relation(p)``, and a send or a receive as
    itself, its message taken by ``oracle_message``; ``bot`` has no step.
    """
    if isinstance(t, Choice):
        return oracle_first_steps(t.left, definitions, dom) | oracle_first_steps(
            t.right, definitions, dom
        )
    if isinstance(t, Var):
        return oracle_first_steps(definitions[t.name], definitions, dom)
    if isinstance(t, SeqPolicy):
        return {("pkt", alpha, pi, t.cont) for alpha, pi in oracle_relation(t.policy, dom)}
    if isinstance(t, (Send, Recv)):
        kind = "send" if isinstance(t, Send) else "recv"
        return {(kind, t.channel, oracle_message(t.message, dom), t.cont)}
    if isinstance(t, Bot):
        return set()
    raise TypeError(f"not a term node: {t!r}")


def first_steps_of_hnf(h, dom):
    """A head normal form's summands, in order, as ``oracle_first_steps``
    writes them."""
    steps = [("pkt", s.alpha, s.pi, s.cont) for s in h.packet_steps]
    for kind, summands in (("send", h.send_steps), ("recv", h.recv_steps)):
        steps += [(kind, s.channel, oracle_message(s.message, dom), s.cont) for s in summands]
    return steps


def first_step_key(step, dom):
    """Where a first step ranks in a head normal form: packet steps by input,
    then output packet, each by its values' places in their domains; then
    sends, then receives, each by channel, message and continuation.  A token
    ranks by name, after every policy, and a policy by its relation's pairs
    in packet order.  Continuations rank by their text."""

    def places(packet):
        return tuple(vals.index(v) for vals, v in zip(dom.values, packet))

    if step[0] == "pkt":
        _, alpha, pi, cont = step
        return (0, places(alpha), places(pi), render_term(cont))
    kind, channel, (what, meaning), cont = step
    if what == "policy":
        meaning = tuple(sorted(meaning, key=lambda pair: (places(pair[0]), places(pair[1]))))
    return (1 if kind == "send" else 2, channel, (what, meaning), render_term(cont))


# --------------------------------------------------------------------------
# Random model generation (emitted as DSL source, so the parser is used)

_POLICY_POOL = [
    "(a = 0)",
    "(a = 1)",
    "(a = 0) . (a <- 1)",
    "(a = 1) . (a <- 0)",
    "(a <- 0)",
    "1",
]


def random_model_text(rng: random.Random) -> str:
    n_components = rng.randint(2, 3)
    names = [f"P{i}" for i in range(n_components)]
    channels = ["x", "y"]
    messages = ["m", "n"]

    def cont():
        r = rng.random()
        if r < 0.15:
            return "bot"
        return rng.choice(names)

    def summand():
        if rng.random() < 0.5:
            return f'"{rng.choice(_POLICY_POOL)}" ; {cont()}'
        ch = rng.choice(channels)
        op = rng.choice(["!", "?"])
        msg = rng.choice(messages)
        return f"{ch} {op} {msg} ; {cont()}"

    lines = ["fields { a : { 0, 1 } ; }", "channels x, y ;"]
    for name in names:
        summands = " o+ ".join(summand() for _ in range(rng.randint(1, 3)))
        lines.append(f"def {name} = {summands} ;")
    lines.append("init " + " || ".join(names) + " ;")
    return "\n".join(lines) + "\n"


# Policies over two fields, with ``*`` and ``~``; each keeps to a few packet
# steps, so the trees stay small.
_WIDE_POLICY_POOL = [
    "(a = 0) . (b <- 1)",
    "(a = 1) . (b = 0) . (a <- 0)",
    "~(a = 0) . (b = 1)",
    "(a = 0) . ((a <- 1) . (b <- 0))*",
    "(b = 1) . ((a = 1) . (a <- 0) + (a = 0) . (a <- 1))*",
    "(a = 1) . (b = 1)*",
    "(b = 0) . ~((a = 0) + (a = 1))",
]

# Messages in classes of one meaning each, spelled apart within a class.
_WIDE_MESSAGES = [
    ["m"],
    ['"(a = 0)"', '"(a = 0) . (a = 0)"', '"1 . (a = 0)"', '"(a = 0) + 0"'],
    ['"(b <- 1)"', '"(b <- 0) . (b <- 1)"', '"(b <- 1) + (b <- 1)"', '"(b <- 1) . (b = 1)*"'],
]


def wide_model_text(rng: random.Random) -> str:
    """A model over two fields that uses more of the language than
    ``random_model_text``: ``*`` and ``~`` in component policies, quoted
    policy messages spelled apart but equal, prefix chains, nested ``o+``
    and prefixed ``init`` terms.  Each definition's first summand starts
    with a prefix, and a bare name in head position refers to an earlier
    definition only, so no draw is rejected as unguarded recursion.  The
    fields are declared or inferred."""
    n_components = rng.randint(2, 3)
    names = [f"P{i}" for i in range(n_components)]

    def prefix():
        if rng.random() < 0.4:
            return f'"{rng.choice(_WIDE_POLICY_POOL)}"'
        message = rng.choice(rng.choice(_WIDE_MESSAGES))
        return f"{rng.choice('xy')} {rng.choice('!?')} {message}"

    def chain(depth):
        prefixes = " ; ".join(prefix() for _ in range(rng.randint(1, 3)))
        r = rng.random()
        if r < 0.15:
            end = "bot"
        elif r < 0.3 and depth > 0:
            end = f"({choice(depth - 1)})"
        else:
            end = rng.choice(names)
        return f"{prefixes} ; {end}"

    def choice(depth):
        return " o+ ".join(chain(depth) for _ in range(rng.randint(1, 2)))

    lines = ["channels x, y ;"]
    if rng.random() < 0.5:
        lines.insert(0, "fields { a : { 0, 1 } ; b : { 0, 1 } ; }")
    for i, name in enumerate(names):
        summands = [chain(1)]
        if rng.random() < 0.5:
            summands.append(chain(1))
        if i and rng.random() < 0.3:
            summands.append(rng.choice(names[:i]))
        lines.append(f"def {name} = {' o+ '.join(summands)} ;")
    comps = [f"{prefix()} ; {name}" if rng.random() < 0.3 else name for name in names]
    lines.append("init " + " || ".join(comps) + " ;")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Eager token scan, one character at a time
#
# Both parsers once kept every token as ``(kind, text, offset)``; these
# functions restate that scan without regular expressions, as the
# reference for the parsers' lazy one (token texts, offsets on demand).

_SYMBOLS = {"policy": "+.*~()=", "model": "{}:,;!?()="}
_WORD = set(string.ascii_letters + string.digits + "_")


def _skip(text: str, i: int, lexer: str) -> int:
    """The offset after the blanks (and, in a model, ``//`` comments) at ``i``."""
    while i < len(text):
        if lexer == "policy" and text[i].isspace() or lexer == "model" and text[i] in " \t\r\n":
            i += 1
        elif lexer == "model" and text.startswith("//", i):
            end = text.find("\n", i)
            i = len(text) if end < 0 else end
        else:
            break
    return i


def _token_end(text: str, i: int, lexer: str):
    """``(kind, end)`` of the token at ``i``, or ``None`` for a bad character."""
    c, n = text[i], len(text)
    if lexer == "model" and c == '"':
        j = i + 1
        while j < n and text[j] not in '"\n':
            j += 1
        return ("string", j + 1) if j < n and text[j] == '"' else None
    if lexer == "model" and text.startswith("o+", i) and text[i + 2 : i + 3] not in _WORD:
        return "opar", i + 2
    if lexer == "model" and text.startswith("||", i):
        return "par", i + 2
    if lexer == "policy" and text.startswith("<-", i):
        return "arrow", i + 2
    if c in string.ascii_letters:
        j = i + 1
        while j < n and text[j] in _WORD:
            j += 1
        return "ident", j
    if c in string.digits:
        j = i + 1
        while j < n and text[j] in string.digits:
            j += 1
        return "int", j
    if c in _SYMBOLS[lexer]:
        return c, i + 1
    return None


def reference_tokens(text: str, lexer: str):
    """Yield ``(kind, text, offset)`` of each token of ``text`` in the
    ``lexer``'s language (``"policy"`` or ``"model"``): ``ident``, ``int``,
    ``arrow`` (``<-``), ``string``, ``opar`` (``o+``), ``par`` (``||``) or a
    symbol's own text.  The last is ``("eof", "", len(text))``, or
    ``("bad", c, offset)`` for the first character ``c`` that starts no
    token."""
    i = 0
    while True:
        i = _skip(text, i, lexer)
        if i == len(text):
            yield "eof", "", i
            return
        found = _token_end(text, i, lexer)
        if found is None:
            yield "bad", text[i], i
            return
        kind, end = found
        yield kind, text[i:end], i
        i = end


def token_kind(text: str) -> str:
    """A token's kind, read from its text as ``reference_tokens`` names it."""
    named = {"": "eof", "<-": "arrow", "o+": "opar", "||": "par"}
    if text in named:
        return named[text]
    if text[0] == '"':
        return "string"
    if text[0] in string.ascii_letters:
        return "ident"
    return "int" if text[0] in string.digits else text


def lexed(tokens) -> list:
    """``(kind, text, offset)`` of each token of a parser's scan (a
    ``netkat.Tokens``): the kind read from the text, the offset asked for."""
    return [(token_kind(t), t, tokens.offset(k)) for k, t in enumerate(tokens.texts)]
