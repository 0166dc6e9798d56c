"""Head normal forms of model terms.

A head normal form exposes every first step of a term as canonical,
duplicate-free summands of three kinds: packet steps (complete test /
complete assignment pairs), sends and receives, each with its continuation.
"""

from __future__ import annotations

from collections import namedtuple

from .domains import FieldDomains
from .model import (
    Bot,
    Message,
    Recv,
    Send,
    SeqPolicy,
    Term,
    heads,
    render_term,
)
from .netkat import normal_form


class PacketStep(namedtuple("PacketStep", "alpha pi cont")):
    """A complete test, a complete assignment and the continuation."""

    __slots__ = ()


Summand = PacketStep | Send | Recv


class HeadNormalForm(namedtuple("HeadNormalForm", "packet_steps send_steps recv_steps")):
    """The summands by kind, each in canonical order; none is the deadlocked term."""

    __slots__ = ()


def message_key(msg: Message, dom: FieldDomains):
    """Canonical comparison key: a token (a ``str``) by its name, a policy
    by its normal form."""
    if isinstance(msg, str):
        return ("token", msg)
    return ("policy", normal_form(msg, dom))


def _group(s: Send | Recv) -> tuple:
    """A send's or receive's rank in the order (1 send, 2 receive) and its
    channel."""
    return (1 if isinstance(s, Send) else 2, s.channel)


def _sort_key(s: Summand, dom: FieldDomains, conts: dict, groups: dict) -> tuple:
    """``conts`` maps each continuation to its rendering, ``groups`` each
    ``_group`` to the set of its summands' messages.  A message is in the
    key only where its group has two or more: otherwise it is common to
    the group, and is never normalised."""
    if isinstance(s, PacketStep):
        return (0, dom.packet_key(s.alpha), dom.packet_key(s.pi), conts[s.cont])
    group = _group(s)
    msg = message_key(s.message, dom) if len(groups[group]) > 1 else None
    return (*group, msg, conts[s.cont])


def hnf(t: Term, analysis) -> HeadNormalForm:
    """Expose the first steps of a Par-free term.

    The steps depend only on the term and on the model's definitions and
    the domains, which ``analysis`` (an ``engine.Analysis``) holds, so each
    is computed once per analysis and term.
    """
    h = analysis.hnfs.get(t)
    if h is None:
        dom = analysis.dom
        raw: list = []
        for s in heads(t, analysis.model.definitions):
            if isinstance(s, SeqPolicy):
                raw += (
                    PacketStep(alpha, pi, s.cont)
                    for alpha, pi in normal_form(s.policy, dom)
                )
            elif isinstance(s, (Send, Recv)):
                raw.append(s)
            elif not isinstance(s, Bot):
                raise TypeError(f"not a term node: {s!r}")
        # Canonical order and semantic deduplication: the first summand
        # of each key, in choice order, stands for it.  All packet steps
        # of one policy share a continuation, rendered here once.
        conts = {c: render_term(c) for c in dict.fromkeys(s.cont for s in raw)}
        groups: dict = {}
        for s in raw:
            if not isinstance(s, PacketStep):
                groups.setdefault(_group(s), set()).add(s.message)
        first: dict = {}
        for s in raw:
            first.setdefault(_sort_key(s, dom, conts, groups), s)
        # The sort key's rank (0 packet, 1 send, 2 receive) picks the kind.
        kinds: tuple = ([], [], [])
        for k in sorted(first):
            kinds[k[0]].append(first[k])
        h = analysis.hnfs[t] = HeadNormalForm(*map(tuple, kinds))
    return h
