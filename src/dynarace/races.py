"""Minimal race witnesses of an execution tree, in report order.

Race detection happens while the tree is built: ``engine.build_tree``
flags each node whose clocks hold an incomparable pair
(``clocks.first_concurrent_pair``) and lists those with no racy ancestor
in ``tree.races``.  This module explains each by its root path and orders
them.
"""

from __future__ import annotations

from collections import namedtuple

from .engine import PacketTransition


class RaceWitness(namedtuple("RaceWitness", "steps")):
    """A minimal trace to a racy node: the tree's nodes on its root path.

    ``steps`` are the ``TreeNode``s below the root, in path order; the
    last is the racy node.
    """

    __slots__ = ()

    @property
    def racy_node_id(self) -> int:
        return self.steps[-1].node_id


def extract_witnesses(tree) -> list:
    """One witness per node of ``tree.races``.

    Ordered with the shortest packet explanations first, ties broken by
    node id.
    """
    witnesses = [
        RaceWitness(tuple(tree.nodes[n] for n in tree.path_to(nid)[1:]))
        for nid in tree.races
    ]
    witnesses.sort(key=lambda w: (len(witness_packets(w)), w.racy_node_id))
    return witnesses


def witness_packets(w: RaceWitness) -> list:
    """The input packets of the witness, in order; handshakes contribute none."""
    return [
        s.label.alpha for s in w.steps if isinstance(s.label, PacketTransition)
    ]
