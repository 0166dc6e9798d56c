"""Head normal forms of model terms.

A head normal form exposes every first step of a term as a canonical,
duplicate-free list of summands: packet steps (complete test / complete
assignment pairs), sends and receives, each with its continuation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import FieldDomains, Packet
from .model import (
    Bot,
    Choice,
    Message,
    ParInsideDefinition,
    ParsedModel,
    PolicyMsg,
    Recv,
    Send,
    SeqPolicy,
    Term,
    Token,
    Var,
    render_term,
)
from .netkat import normal_form


@dataclass(frozen=True)
class PacketStep:
    alpha: Packet
    pi: Packet
    cont: Term


@dataclass(frozen=True)
class SendStep:
    channel: str
    message: Message
    cont: Term


@dataclass(frozen=True)
class RecvStep:
    channel: str
    message: Message
    cont: Term


Summand = PacketStep | SendStep | RecvStep


@dataclass(frozen=True)
class HeadNormalForm:
    """Canonically ordered summands; an empty list is the deadlocked term."""

    summands: tuple

    @property
    def packet_steps(self):
        return tuple(s for s in self.summands if isinstance(s, PacketStep))

    @property
    def send_steps(self):
        return tuple(s for s in self.summands if isinstance(s, SendStep))

    @property
    def recv_steps(self):
        return tuple(s for s in self.summands if isinstance(s, RecvStep))


def message_key(msg: Message, dom: FieldDomains):
    """Canonical comparison key: tokens by name, policies by semantics."""
    if isinstance(msg, Token):
        return ("token", msg.name)
    return ("policy", normal_form(msg.policy, dom))


def _collect(t: Term, model: ParsedModel, dom: FieldDomains, out: list) -> None:
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Choice):
            stack += (t.right, t.left)
        elif isinstance(t, Var):
            # Guardedness (checked at load time) bounds this substitution.
            stack.append(model.definitions[t.name])
        elif isinstance(t, SeqPolicy):
            out.extend(
                PacketStep(alpha, pi, t.cont)
                for alpha, pi in normal_form(t.policy, dom)
            )
        elif isinstance(t, Send):
            out.append(SendStep(t.channel, t.message, t.cont))
        elif isinstance(t, Recv):
            out.append(RecvStep(t.channel, t.message, t.cont))
        elif not isinstance(t, Bot):
            raise ParInsideDefinition(
                f"parallel composition in component term: {t!r}"
            )


def _sort_key(s: Summand, dom: FieldDomains) -> tuple:
    if isinstance(s, PacketStep):
        return (0, dom.packet_key(s.alpha), dom.packet_key(s.pi), render_term(s.cont))
    rank = 1 if isinstance(s, SendStep) else 2
    return (rank, s.channel, message_key(s.message, dom), render_term(s.cont))


def hnf(t: Term, model: ParsedModel, dom: FieldDomains) -> HeadNormalForm:
    """Expose the first steps of a Par-free term.

    The steps depend only on the term, the model's definitions and the
    domains, so each is computed once per ``(t, dom)`` and cached on
    ``model``.
    """
    cache = model.hnfs
    h = cache.get((t, dom))
    if h is None:
        raw: list = []
        _collect(t, model, dom, raw)
        # Canonical order and semantic deduplication: the first summand
        # of each key, in choice order, stands for it.
        first: dict = {}
        for s in raw:
            first.setdefault(_sort_key(s, dom), s)
        h = cache[(t, dom)] = HeadNormalForm(tuple(first[k] for k in sorted(first)))
    return h
