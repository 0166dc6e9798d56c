"""Symbolic execution of the component vector with vector clocks.

Builds the bounded execution tree of the top-level parallel composition.
Packet steps advance one component and bump its own clock entry; matching
send/receive pairs handshake into a single reconfiguration transition
that merges the receiver's clock with the sender's.  Clocks are plain
tuples of nonnegative integers, one entry per component, and
``successors`` is the only code that builds them.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, groupby
from operator import itemgetter

from .domains import FieldDomains
from .hnf import hnf, message_key
from .model import ParsedModel


VectorClock = tuple


def clock_bump(v: VectorClock, index: int) -> VectorClock:
    """Increment one entry by exactly 1."""
    return v[:index] + (v[index] + 1,) + v[index + 1 :]


def clock_max(v: VectorClock, w: VectorClock) -> VectorClock:
    """Pointwise maximum (receiver-side merge)."""
    return tuple(map(max, v, w))


# Clock count -> its (i, j) pairs, i < j, in lexicographic order: a memo of
# immutable values, the same whichever call fills it.
_PAIRS: dict = {}


def first_concurrent_pair(clocks) -> tuple | None:
    """Lexicographically smallest (i, j), i < j, with incomparable clocks.

    Precondition: the clocks were built by ``successors`` from the
    all-zero root.  Every change to ``c[k]`` bumps ``c[k][k]``, and a merge
    passes a whole clock on, so ``c[a][k] <= c[k][k]`` and ``c[k] <= c[a]``
    pointwise exactly when ``c[a][k] == c[k][k]`` (Fidge 1988; Mattern
    1989).  So ``i`` and ``j`` race iff ``c[i][j] < c[j][j]`` and
    ``c[j][i] < c[i][i]``: two comparisons per pair, not two clock scans.
    The pair returned is one of ``_PAIRS``' shared tuples.
    """
    pairs = _PAIRS.get(len(clocks))
    if pairs is None:
        pairs = _PAIRS[len(clocks)] = tuple(combinations(range(len(clocks)), 2))
    for pair in pairs:
        i, j = pair
        if clocks[i][j] < clocks[j][j] and clocks[j][i] < clocks[i][i]:
            return pair
    return None


class SymbolicState(namedtuple("SymbolicState", "terms clocks depth_remaining racy_pair")):
    """The component terms, one vector clock per component, the depth left.

    A plain named tuple: ``SymbolicState(terms, clocks, depth_remaining)``
    also sets ``racy_pair``, the ``first_concurrent_pair`` of the clocks,
    a function of the clocks, so tuple equality and hashing are value
    equality and hashing.  ``first_concurrent_pair`` is looked up on this
    module, so the benchmark's tracer counts one call per construction.
    Within one build each distinct state is one object, taken from
    ``Analysis.distinct``.  Arguments are positional and fields cannot be
    set or deleted.  ``_make`` and ``_replace`` bypass ``__new__``, so they
    must not be used.
    """

    __slots__ = ()

    def __new__(cls, terms: tuple, clocks: tuple, depth_remaining: int, /):
        return tuple.__new__(cls, (terms, clocks, depth_remaining, first_concurrent_pair(clocks)))

    @property
    def components(self) -> tuple:
        """``(term, clock)`` per component, derived from the two tuples."""
        return tuple(zip(self.terms, self.clocks))


class PacketTransition(namedtuple("PacketTransition", "actor alpha pi")):
    """A packet step of component ``actor``: complete test ``alpha``, output ``pi``."""

    __slots__ = ()


class RcfgTransition(namedtuple("RcfgTransition", "sender receiver channel message")):
    """A handshake: ``sender`` passes ``message`` to ``receiver`` on ``channel``."""

    __slots__ = ()


class TreeNode(namedtuple("TreeNode", "node_id state parent label")):
    """``label`` is the transition of the incoming edge; ``None`` at the root."""

    __slots__ = ()


class ExecutionTree(
    namedtuple("ExecutionTree", "component_names dom nodes parents children races")
):
    """The stored node ids, in id order, and their entries.

    ``dom`` holds the field domains the packets range over.  ``nodes``
    holds the stored ids: ``range(n)`` in a full tree, a sorted list in a
    race tree.  ``children[k]`` is ``(labels, states)``, the edge labels
    and states of the stored children of node ``parents[k]``, which take
    the next ``len(states)`` ids of ``nodes``; the first entry is the root
    alone, ``None`` and ``((None,), (root,))``.  A full tree keeps one
    entry per expanded node, whose ``children`` is the tuple the
    ``Analysis`` shares among equal states, so a node costs no slot of its
    own; a race tree keeps one per parent of a stored node.  ``races``
    holds the race witnesses, one tuple per racy node with no racy proper
    ancestor: the ``TreeNode``s of its root path, below the root, ending
    at it.  Witnesses through one node share its ``TreeNode``.
    """

    __slots__ = ()

    @property
    def root(self) -> TreeNode:
        return TreeNode(0, self.children[0][1][0], None, None)


class Analysis:
    """One build's model and domains, its tables and its walk.

    ``hnfs`` maps a term to its head normal form and ``moves`` a term
    vector to its ``_moves``; ``sizes`` maps ``(terms, left)`` to ``size``
    and ``expansions`` the ``id`` of a state to its edge labels and child
    states.  None but ``expansions`` depends on the clocks or the depth,
    so one analysis computes each once across all its states.  No table
    holds normal forms: ``hnfs`` keeps the packet steps taken from them.

    ``distinct`` maps ``(terms, clocks, left)`` to the one state of that
    value that ``successors`` has built, in the order it met them: every
    distinct state but the root, which no step reaches (every step bumps
    a clock).  So within a build an equal state is one object, and
    ``expansions`` is keyed by identity: every state ``expand`` meets is
    the root or a value of ``distinct``, alive until the build returns, so
    no id is reused while the table is in use.  ``shared`` does the
    same for the values inside states and edges: it maps each clock row,
    clock vector and expansion labels tuple the build makes to the one
    object of that value, so the states hold one row object per distinct
    row and one vector per distinct vector, equal expansions one labels
    tuple, and ``render.emit_dot`` can key its edge suffixes by identity.
    One table serves all three, since no two kinds compare equal: a row
    holds ints, a vector rows and a labels tuple transitions.  Both tables
    are freed with the analysis.

    ``build`` walks the tree; while it runs, ``next_id`` is the next id to
    number, ``path`` the ``TreeNode``s from the root's child down to the
    node being expanded, ``races`` the witnesses found so far, and
    ``parents`` and ``children`` the tree's entries: the root's, then in
    full mode one per expanded node; a race tree's are added after the
    walk, one per stored parent.  Methods are looked up on the class, so
    the walk's recursion holds no reference cycle: an analysis is freed by
    reference counting once its caller drops it.
    """

    __slots__ = ("model", "dom", "hnfs", "moves", "sizes", "expansions", "distinct", "shared",
                 "full", "walk_all", "trace", "next_id", "path", "races", "parents", "children")

    def __init__(self, model: ParsedModel, dom: FieldDomains):
        self.model = model
        self.dom = dom
        self.hnfs: dict = {}
        self.moves: dict = {}
        self.sizes: dict = {}
        self.expansions: dict = {}  # id(state) -> (edge labels, child states)
        self.distinct: dict = {}  # (terms, clocks, left) -> state
        self.shared: dict = {}  # clock row, clock vector or labels -> that value's object

    def size(self, terms: tuple, left: int) -> int:
        """Nodes in the full subtree of a node with these terms, ``left`` deep."""
        if left <= 0:
            return 1
        n = self.sizes.get((terms, left))
        if n is None:
            n = 1
            for _, _, _, after in _moves(terms, self):
                n += self.size(after, left - 1)
            self.sizes[(terms, left)] = n
        return n

    def build(self, depth: int, full: bool, trace) -> ExecutionTree:
        """The tree of ``build_tree(model, dom, depth, mode, trace)``, with
        ``full`` for ``mode == "full"``."""
        root = initial_state(self.model, depth)
        # ``walk_all``: walk below racy nodes too, to number their subtrees.
        self.full, self.walk_all, self.trace = full, full or trace is not None, trace
        self.next_id, self.path, self.races = 1, [], []
        self.parents, self.children = [None], [((None,), (root,))]
        if trace is not None:
            trace(0, root, None, None)
        if depth > 0:  # the root's clocks are all zero, so it is never racy
            self.expand(0, root, True)
        if full:
            nodes = range(self.next_id)
        else:
            # A node's children take consecutive ids and their descendants
            # later ones, so the stored children of a parent are adjacent.
            steps = {step.node_id: step for witness in self.races for step in witness}
            nodes = [0, *sorted(steps)]
            for parent, group in groupby(map(steps.get, nodes[1:]), itemgetter(2)):
                _, states, _, labels = zip(*group)
                self.parents.append(parent)
                self.children.append((labels, states))
        names = self.model.init_names
        return ExecutionTree(names, self.dom, nodes, self.parents, self.children, self.races)

    def expand(self, nid: int, state: SymbolicState, clean: bool) -> None:
        """Number the children of node ``nid``, which has depth left, check
        them for races if ``clean`` (no node on the path to ``nid`` is
        racy), and walk into those with depth left."""
        moves = self.expansions.get(id(state))
        if moves is None:
            edges, kids = tuple(zip(*successors(state, self))) or ((), ())
            moves = self.expansions[id(state)] = (self.shared.setdefault(edges, edges), kids)
        edges, kids = moves
        ids = range(self.next_id, self.next_id + len(kids))
        self.next_id = ids.stop
        if self.full:
            self.parents.append(nid)
            self.children.append(moves)
        trace = self.trace
        if trace is not None:
            for cid, label, kid in zip(ids, edges, kids):
                trace(cid, kid, nid, label)
        left = state.depth_remaining - 1
        if not clean:
            if left:
                for cid, kid in zip(ids, kids):
                    self.expand(cid, kid, False)
            return
        path = self.path
        for cid, label, kid in zip(ids, edges, kids):
            if kid.racy_pair is not None:
                self.races.append((*path, TreeNode(cid, kid, nid, label)))
                if not self.walk_all:
                    self.next_id += self.size(kid.terms, left) - 1
                elif left:
                    self.expand(cid, kid, False)
            elif left:
                path.append(TreeNode(cid, kid, nid, label))
                self.expand(cid, kid, True)
                path.pop()


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
                    # Equal names compare by value and equal policies of
                    # a model are one object; only two unequal messages
                    # (a policy perhaps spelled apart) need keys.
                    if send.message != recv.message and message_key(
                        send.message, dom
                    ) != message_key(recv.message, dom):
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
    sender's, then merges it into the receiver's and bumps that.  A child
    is taken from ``analysis.distinct`` and built only when it is new.
    Before that lookup, its new rows and then its clock vector are taken
    from ``analysis.shared``, so the key and the state hold the one object
    of each value and the step's own copies are dropped at once.
    """
    if state.depth_remaining <= 0:
        return []
    clocks = state.clocks
    depth = state.depth_remaining - 1
    distinct, shared = analysis.distinct, analysis.shared.setdefault
    out = []
    for label, i, j, terms in _moves(state.terms, analysis):
        # The other rows are the parent's: one object per value already.
        after = list(clocks)
        row = clock_bump(clocks[i], i)
        after[i] = shared(row, row)
        if j is not None:
            row = clock_bump(clock_max(row, clocks[j]), j)
            after[j] = shared(row, row)
        after = tuple(after)
        key = (terms, shared(after, after), depth)
        child = distinct.get(key)
        if child is None:
            child = distinct[key] = SymbolicState(*key)
        out.append((label, child))
    return out


def build_tree(
    model: ParsedModel,
    dom: FieldDomains,
    depth: int,
    mode: str = "race",
    trace=None,
) -> ExecutionTree:
    """Exhaustive bounded expansion of the component vector: the tree that
    ``Analysis(model, dom).build`` walks, in ``mode`` ``"race"`` or ``"full"``.

    Node ids follow the full expansion order (children created in batch,
    subtrees expanded depth-first) in both modes, so race-mode trees keep
    the ids of the corresponding full tree.  In race mode, nodes whose
    clocks contain an incomparable pair become leaves.  Their subtrees are
    sized, not built: the id counter skips as many ids as the full tree
    has nodes below them (``Analysis.size``), a count that depends only on
    the term vector and the depth.  With ``trace`` they are built and
    numbered too, and each node, the root first, is passed to
    ``trace(id, state, parent, label)`` as it is numbered.

    The walk (``Analysis.expand``) enters only nodes with depth left, so a
    leaf costs no call.  It keeps the path from the root's child down to
    the node it expands, as ``TreeNode``s, and checks each child of a node
    with no racy node on its path: a racy one adds that path and itself to
    ``tree.races``, so every witness through a node shares its
    ``TreeNode``.  Full mode keeps, for each node it expands, the node's
    id and its children's ``(labels, states)`` tuple, which
    ``Analysis.expansions`` already shares among equal states.  Race mode
    keeps the root and the steps of those paths, grouped after the walk
    into one such entry per stored parent: a node's children take
    consecutive ids and their descendants later ones, so the stored
    children of one parent are adjacent in id order.  Either way the tree
    is built once, after the walk, ``tree.nodes`` is in id order and a
    parent always precedes its children.

    The tree repeats states, so what depends only on a state is done once
    per distinct state: the call's ``Analysis`` builds each distinct state
    once (``Analysis.distinct``), setting its racy pair then, and computes
    its ``successors`` once, keyed by that object's ``id``; equal clock
    rows, clock vectors and labels tuples are one object too
    (``Analysis.shared``).
    What depends only on terms, their HNFs, moves and subtree sizes, is
    kept on the analysis too, which is dropped when this returns.  A full
    tree's node costs no slot of its own, only an expanded node two (its
    entry); a ``TreeNode`` is built only for each clean node the walk
    enters, the path, and for each racy child of one.
    """
    if mode not in ("race", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    return Analysis(model, dom).build(depth, mode == "full", trace)
