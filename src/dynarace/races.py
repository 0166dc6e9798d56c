"""Extraction of minimal race witnesses from an execution tree.

Race detection happens while the tree is built: ``engine.build_tree``
flags each node whose clocks hold an incomparable pair
(``clocks.first_concurrent_pair``).  This module picks the racy nodes with
no racy ancestor and explains each by its root path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import PacketTransition


@dataclass(frozen=True)
class RaceWitness:
    """A minimal trace to a racy node: the tree's nodes on its root path.

    ``steps`` are the ``TreeNode``s below the root, in path order; the
    last is the racy node.
    """

    steps: tuple

    @property
    def racy_node_id(self) -> int:
        return self.steps[-1].node_id

    @property
    def racy_pair(self) -> tuple:
        """``(i, j, clock_i, clock_j)`` of the incomparable pair."""
        node = self.steps[-1]
        i, j = node.state.racy_pair
        clocks = node.state.clocks
        return (i, j, clocks[i], clocks[j])


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
            path = tree.path_to(nid)[1:]
            witnesses.append(RaceWitness(tuple(tree.nodes[n] for n in path)))
    witnesses.sort(key=lambda w: (len(witness_packets(w)), w.racy_node_id))
    return witnesses


def witness_packets(w: RaceWitness) -> list:
    """The input packets of the witness, in order; handshakes contribute none."""
    return [
        s.label.alpha for s in w.steps if isinstance(s.label, PacketTransition)
    ]
