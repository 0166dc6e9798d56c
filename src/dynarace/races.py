"""Minimal race witnesses of an execution tree, in report order.

Race detection happens while the tree is built: ``engine.build_tree``
checks each child of a node with no racy node on its root path for an
incomparable pair of clocks (``clocks.first_concurrent_pair``, two
diagonal comparisons per pair) and lists the root path of each racy one
in ``tree.races``.  This module orders those explanations.
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
    """One witness per path of ``tree.races``.

    Ordered with the shortest packet explanations first, ties broken by
    node id.
    """
    witnesses = map(RaceWitness, tree.races)
    return sorted(witnesses, key=lambda w: (len(witness_packets(w)), w.racy_node_id))


def witness_packets(w: RaceWitness) -> list:
    """The input packets of the witness, in order; handshakes contribute none."""
    return [
        s.label.alpha for s in w.steps if isinstance(s.label, PacketTransition)
    ]
