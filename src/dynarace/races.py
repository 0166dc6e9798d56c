"""Racy-state detection and extraction of minimal race witnesses."""

from __future__ import annotations

from dataclasses import dataclass

from .domains import Packet
from .engine import PacketTransition
from .model import Message


@dataclass(frozen=True)
class PacketInput:
    """One processed packet: who matched it and what came out."""

    actor: str
    alpha: Packet
    pi: Packet
    node_id: int
    clocks: tuple


@dataclass(frozen=True)
class Rcfg:
    """One control/data-plane handshake."""

    sender: str
    receiver: str
    channel: str
    message: Message
    node_id: int
    clocks: tuple


WitnessStep = PacketInput | Rcfg


@dataclass(frozen=True)
class RaceWitness:
    """A minimal root-to-racy-node trace with the incomparable clock pair."""

    steps: tuple
    racy_node_id: int
    racy_pair: tuple  # (i, j, clock_i, clock_j)


def _witness_for(tree, node_id: int) -> RaceWitness:
    names = tree.component_names
    steps = []
    for nid in tree.path_to(node_id)[1:]:
        node = tree.nodes[nid]
        label = node.label
        clocks = node.state.clocks
        if isinstance(label, PacketTransition):
            steps.append(
                PacketInput(names[label.actor], label.alpha, label.pi, nid, clocks)
            )
        else:
            steps.append(
                Rcfg(
                    names[label.sender],
                    names[label.receiver],
                    label.channel,
                    label.message,
                    nid,
                    clocks,
                )
            )
    i, j = tree.nodes[node_id].racy_pair
    clocks = tree.nodes[node_id].state.clocks
    return RaceWitness(
        steps=tuple(steps),
        racy_node_id=node_id,
        racy_pair=(i, j, clocks[i], clocks[j]),
    )


def extract_witnesses(tree) -> list:
    """One witness per racy node with no racy proper ancestor.

    Ordered with the shortest packet explanations first, ties broken by
    node id.
    """
    witnesses = []
    cut = set()  # racy nodes and their descendants
    # Children are numbered in a batch after their parent, so a parent's id
    # is lower than its children's and the id-ordered walk meets it first.
    for nid, node in tree.nodes.items():
        if node.parent in cut:
            cut.add(nid)
        elif node.racy:
            cut.add(nid)
            witnesses.append(_witness_for(tree, nid))
    witnesses.sort(key=lambda w: (len(witness_packets(w)), w.racy_node_id))
    return witnesses


def witness_packets(w: RaceWitness) -> list:
    """The input packets of the witness, in order; handshakes contribute none."""
    return [s.alpha for s in w.steps if isinstance(s, PacketInput)]
