"""Minimal race witnesses of an execution tree, in report order.

Race detection happens while the tree is built: ``engine.build_tree``
checks each child of a node with no racy node on its root path for an
incomparable pair of clocks (``engine.first_concurrent_pair``, two
diagonal comparisons per pair) and lists the root path of each racy one
in ``tree.races``.  A witness is one of those tuples: the ``TreeNode``s
below the root, in path order, ending at the racy node.  This module
orders them.
"""

from __future__ import annotations

from .engine import PacketTransition


def extract_witnesses(tree) -> list:
    """The witnesses of ``tree.races``, shortest packet explanations first,
    ties broken by the racy node's id."""
    return sorted(tree.races, key=lambda w: (len(witness_packets(w)), w[-1].node_id))


def witness_packets(w: tuple) -> list:
    """The input packets of the witness, in order; handshakes contribute none."""
    return [s.label.alpha for s in w if isinstance(s.label, PacketTransition)]
