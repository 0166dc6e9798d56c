"""Independent oracles used by the tests.

Everything here recomputes expected results from first principles,
deliberately avoiding the production code paths it is used to check:
a standalone packet-set evaluator, relation algebra for the KAT laws,
the pointwise vector-clock order, a direct recursive race-detection
function, and random generators for policies and models.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from dynarace import netkat
from dynarace.clocks import clock_bump, clock_max
from dynarace.domains import DynaraceError
from dynarace.hnf import hnf, message_key
from dynarace.engine import Analysis, PacketTransition


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
    from dynarace import FieldDomains

    n_fields = rng.randint(1, 3)
    fields = tuple(f"f{i}" for i in range(n_fields))
    values = tuple(
        tuple(f"v{j}" for j in range(rng.randint(1, 3))) for _ in fields
    )
    return FieldDomains(fields=fields, values=values)


# --------------------------------------------------------------------------
# Pointwise vector-clock order (the definition the engine's race check
# shortcuts on the clocks it builds)


class LengthMismatch(DynaraceError):
    """Compared clocks have different lengths."""


def _check_lengths(v, w) -> None:
    if len(v) != len(w):
        raise LengthMismatch(f"clock lengths differ: {len(v)} vs {len(w)}")


def clock_leq(v, w) -> bool:
    """Pointwise less-or-equal (happens-before-or-equal)."""
    _check_lengths(v, w)
    return all(a <= b for a, b in zip(v, w))


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
        for step in w.steps:
            label = step.label
            if isinstance(label, PacketTransition):
                labels.append(pkt_label(label.alpha))
            else:
                labels.append(rcfg_label(label.channel, label.message, dom))
        out.add(tuple(labels))
    return out


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
