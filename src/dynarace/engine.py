"""Symbolic execution of the component vector with vector clocks.

Builds the bounded execution tree of the top-level parallel composition.
Packet steps advance one component and bump its own clock entry; matching
send/receive pairs handshake into a single reconfiguration transition
that merges the receiver's clock with the sender's.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .clocks import VectorClock, clock_bump, clock_max, first_concurrent_pair
from .domains import FieldDomains, Packet
from .hnf import hnf, message_key
from .model import Message, ParsedModel
from .netkat import HashConsed


class SymbolicState(HashConsed):
    """The component terms, one vector clock per component, the depth left.

    Hash-consed like the terms, so a distinct state is one object: whatever
    depends only on the state is computed once and can be keyed by it.
    """

    terms: tuple  # of Term
    clocks: tuple  # of VectorClock
    depth_remaining: int

    @property
    def components(self) -> tuple:
        """``(term, clock)`` per component, derived from the two tuples."""
        return tuple(zip(self.terms, self.clocks))

    @cached_property
    def racy_pair(self) -> tuple | None:
        """``first_concurrent_pair`` of the clocks, computed once per state."""
        return first_concurrent_pair(self.clocks)


class PacketTransition(HashConsed):
    actor: int
    alpha: Packet
    pi: Packet


class RcfgTransition(HashConsed):
    sender: int
    receiver: int
    channel: str
    message: Message


class TreeNode(namedtuple("TreeNode", "node_id state parent label")):
    """``label`` is the transition of the incoming edge; ``None`` at the root."""

    __slots__ = ()

    @property
    def racy(self) -> bool:
        return self.state.racy_pair is not None


class ExecutionTree(namedtuple("ExecutionTree", "component_names dom nodes races")):
    """The stored nodes by id, in id order; edges are the ``parent`` links.

    ``dom`` holds the field domains the packets range over.  ``nodes``
    maps each id to its ``TreeNode``.  ``races`` holds one tuple per racy
    node with no racy proper ancestor: the ``TreeNode``s of its root path,
    below the root, ending at it.
    """

    __slots__ = ()

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]


class Analysis:
    """One build's model and domains, and the tables computed from them.

    ``hnfs`` maps a term to its head normal form and ``moves`` a term
    vector to its ``_moves``.  Neither depends on the clocks or the depth,
    so one build computes each once across all its states.  Normal forms
    stay on ``dom``, since they depend on the domains alone.
    """

    __slots__ = ("model", "dom", "hnfs", "moves")

    def __init__(self, model: ParsedModel, dom: FieldDomains):
        self.model = model
        self.dom = dom
        self.hnfs: dict = {}
        self.moves: dict = {}


def initial_state(model: ParsedModel, depth: int) -> SymbolicState:
    """All components in init order, all-zero clocks."""
    zero: VectorClock = (0,) * len(model.init)
    return SymbolicState(model.init, (zero,) * len(model.init), depth)


def _moves(terms: tuple, analysis: Analysis) -> list:
    """Ordered ``(label, i, j, successor terms)`` of a term vector.

    ``i`` is the component that moves (the sender of a handshake) and ``j``
    the receiver, or ``None`` for a packet step.  The moves depend only on
    the terms, never on the clocks, so each list is computed once per
    analysis and term vector.
    """
    moves = analysis.moves.get(terms)
    if moves is not None:
        return moves
    dom = analysis.dom
    hnfs = [hnf(term, analysis) for term in terms]
    moves = []
    n = len(terms)
    for i in range(n):
        for send in hnfs[i].send_steps:
            for j in range(n):
                if j == i:
                    continue
                for recv in hnfs[j].recv_steps:
                    if send.channel != recv.channel:
                        continue
                    if message_key(send.message, dom) != message_key(
                        recv.message, dom
                    ):
                        continue
                    after = list(terms)
                    after[i] = send.cont
                    after[j] = recv.cont
                    after = tuple(after)
                    label = RcfgTransition(i, j, send.channel, send.message)
                    moves.append((label, i, j, after))

    for i in range(n):
        for step in hnfs[i].packet_steps:
            after = list(terms)
            after[i] = step.cont
            after = tuple(after)
            label = PacketTransition(i, step.alpha, step.pi)
            moves.append((label, i, None, after))
    analysis.moves[terms] = moves
    return moves


def successors(state: SymbolicState, analysis: Analysis):
    """Ordered list of (label, successor state).

    Reconfiguration transitions come first, ordered by (sender, receiver,
    channel, message), then packet transitions by (component, complete
    test).  The order is fixed so that node numbering is reproducible.
    A packet step bumps the actor's clock entry; a handshake bumps the
    sender's, then merges it into the receiver's and bumps that.
    """
    if state.depth_remaining <= 0:
        return []
    clocks = state.clocks
    depth = state.depth_remaining - 1
    out = []
    for label, i, j, terms in _moves(state.terms, analysis):
        after = list(clocks)
        after[i] = clock_bump(clocks[i], i)
        if j is not None:
            after[j] = clock_bump(clock_max(after[i], clocks[j]), j)
        out.append((label, SymbolicState(terms, tuple(after), depth)))
    return out


def build_tree(
    model: ParsedModel,
    dom: FieldDomains,
    depth: int,
    mode: str = "race",
    trace=None,
) -> ExecutionTree:
    """Exhaustive bounded expansion of the component vector.

    Node ids follow the full expansion order (children created in batch,
    subtrees expanded depth-first) in both modes, so race-mode trees keep
    the ids of the corresponding full tree.  In race mode, nodes whose
    clocks contain an incomparable pair become leaves.  Their subtrees are
    sized, not built: the id counter skips as many ids as the full tree
    has nodes below them, a count that depends only on the term vector and
    the depth.  With ``trace`` they are built and numbered and passed to it.

    The walk keeps the path from the root's child down to the node being
    expanded, and each racy node with no racy proper ancestor adds that
    path to ``tree.races``.  Full mode stores every node when it is
    numbered; race mode stores the root and, after the walk, the steps of
    those paths.  Either way ``tree.nodes`` is in id order and a parent
    always precedes its children.

    The tree repeats states, so what depends only on a state is done once
    per distinct state: its ``successors`` are computed once, keyed by the
    state itself, and its racy pair is cached on it.  What depends only on
    terms, their HNFs and moves, is kept on the call's ``Analysis``.  A
    node costs only its id and its ``TreeNode``.
    """
    if mode not in ("race", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    full = mode == "full"
    analysis = Analysis(model, dom)
    tree = ExecutionTree(model.init_names, dom, {}, [])
    root = TreeNode(0, initial_state(model, depth), None, None)
    tree.nodes[0] = root
    counter = [1]
    path: list = []  # the nodes from the root's child to the one being expanded
    sizes: dict = {}

    def size(terms: tuple, left: int) -> int:
        """Nodes in the full subtree of a node with these terms, ``left`` deep."""
        if left <= 0:
            return 1
        n = sizes.get((terms, left))
        if n is None:
            n = 1
            for _, _, _, after in _moves(terms, analysis):
                n += size(after, left - 1)
            sizes[(terms, left)] = n
        return n

    expansions: dict = {}  # state -> [(label, child state)]

    def expand(node: TreeNode, clean: bool) -> None:
        """``clean``: no proper ancestor of ``node`` is racy."""
        if clean and node.racy:
            tree.races.append(tuple(path))
            clean = False
        left = node.state.depth_remaining
        if left <= 0:
            return
        if not (clean or full) and trace is None:
            counter[0] += size(node.state.terms, left) - 1
            return
        moves = expansions.get(node.state)
        if moves is None:
            moves = expansions[node.state] = successors(node.state, analysis)
        children = []
        for label, child_state in moves:
            cid = counter[0]
            counter[0] += 1
            child = TreeNode(cid, child_state, node.node_id, label)
            if full:
                tree.nodes[cid] = child
            children.append(child)
            if trace is not None:
                trace(tree, child)
        for child in children:
            path.append(child)
            expand(child, clean)
            path.pop()

    if trace is not None:
        trace(tree, root)
    expand(root, True)
    # ``expand`` and ``size`` call themselves through their closures; unbind
    # them so the tables above are freed now, not by the cyclic collector.
    expand = size = None
    if not full:
        steps = {step.node_id: step for witness in tree.races for step in witness}
        tree.nodes.update(sorted(steps.items()))
    return tree
