"""Symbolic execution of the component vector with vector clocks.

Builds the bounded execution tree of the top-level parallel composition.
Packet steps advance one component and bump its own clock entry; matching
send/receive pairs handshake into a single reconfiguration transition
that merges the receiver's clock with the sender's.  Clocks are plain
tuples of nonnegative integers, one entry per component, and
``successors`` is the only code that builds them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Mapping
from itertools import starmap

from .domains import FieldDomains, Packet
from .hnf import hnf, message_key
from .model import Message, ParsedModel
from .netkat import HashConsed


VectorClock = tuple


def clock_bump(v: VectorClock, index: int) -> VectorClock:
    """Increment one entry by exactly 1."""
    return v[:index] + (v[index] + 1,) + v[index + 1 :]


def clock_max(v: VectorClock, w: VectorClock) -> VectorClock:
    """Pointwise maximum (receiver-side merge)."""
    return tuple(map(max, v, w))


def first_concurrent_pair(clocks) -> tuple | None:
    """Lexicographically smallest (i, j), i < j, with incomparable clocks.

    Precondition: the clocks were built by ``successors`` from the
    all-zero root.  Every change to ``c[k]`` bumps ``c[k][k]``, and a merge
    passes a whole clock on, so ``c[a][k] <= c[k][k]`` and ``c[k] <= c[a]``
    pointwise exactly when ``c[a][k] == c[k][k]`` (Fidge 1988; Mattern
    1989).  So ``i`` and ``j`` race iff ``c[i][j] < c[j][j]`` and
    ``c[j][i] < c[i][i]``: two comparisons per pair, not two clock scans.
    """
    for i, ci in enumerate(clocks):
        own = ci[i]
        for j in range(i + 1, len(clocks)):
            cj = clocks[j]
            if ci[j] < cj[j] and cj[i] < own:
                return (i, j)
    return None


class SymbolicState(
    namedtuple("SymbolicState", "terms clocks depth_remaining racy_pair key_hash")
):
    """The component terms, one vector clock per component, the depth left.

    A value record: ``SymbolicState(terms, clocks, depth_remaining)``
    also sets ``racy_pair``, the ``first_concurrent_pair`` of the clocks,
    and ``key_hash``, the hash of the first three fields, which
    ``__hash__`` returns, so a dict or memo lookup never walks the clocks.
    Both are functions of the first three fields, so tuple equality is
    value equality.  ``first_concurrent_pair`` is looked up on this
    module, so the benchmark's tracer counts one call per construction.
    Within one build each distinct state is one object, taken from
    ``Analysis.distinct``.  Arguments are positional, fields cannot be set
    or deleted, and the ``repr`` is the dataclass text of the first three
    fields.  ``_make`` and ``_replace`` bypass ``__new__``, so they must
    not be used.
    """

    __slots__ = ()
    __match_args__ = ("terms", "clocks", "depth_remaining")

    def __new__(cls, terms: tuple, clocks: tuple, depth_remaining: int, /):
        key = (terms, clocks, depth_remaining)
        return tuple.__new__(cls, (*key, first_concurrent_pair(clocks), hash(key)))

    def __hash__(self):
        return self.key_hash

    __repr__ = HashConsed.__repr__

    @property
    def components(self) -> tuple:
        """``(term, clock)`` per component, derived from the two tuples."""
        return tuple(zip(self.terms, self.clocks))


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


class Nodes(Mapping):
    """A tree's stored nodes by id, in id order, kept as parallel columns.

    ``states[i]``, ``parents[i]`` and ``labels[i]`` are the state, the
    parent id and the incoming edge label of node ``ids[i]``; ``ids`` is
    sorted, and ``range(len(states))`` in a full tree.  A node costs three
    column slots, not a ``TreeNode``: ``nodes[nid]`` builds one on each read.
    """

    __slots__ = ("ids", "states", "parents", "labels")

    def __init__(self, ids, states, parents, labels):
        self.ids = ids
        self.states = states
        self.parents = parents
        self.labels = labels

    def __getitem__(self, nid):
        i = bisect_left(self.ids, nid)
        if i == len(self.ids) or self.ids[i] != nid:
            raise KeyError(nid)
        return TreeNode(nid, self.states[i], self.parents[i], self.labels[i])

    def __iter__(self):
        return iter(self.ids)

    def __len__(self):
        return len(self.ids)


class ExecutionTree(namedtuple("ExecutionTree", "component_names dom nodes races")):
    """The stored nodes by id, in id order; edges are the ``parent`` links.

    ``dom`` holds the field domains the packets range over.  ``nodes`` is
    a ``Nodes`` mapping each id to its ``TreeNode``.  ``races`` holds the
    race witnesses, one tuple per racy node with no racy proper ancestor:
    the ``TreeNode``s of its root path, below the root, ending at it.
    Witnesses through one node share its ``TreeNode``.
    """

    __slots__ = ()

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]


class Analysis:
    """One build's model and domains, its tables and its walk.

    ``hnfs`` maps a term to its head normal form and ``moves`` a term
    vector to its ``_moves``; ``sizes`` maps ``(terms, left)`` to ``size``
    and ``expansions`` a state to its edge labels and child states.  None
    depends on the clocks, and only ``expansions`` on the depth, so one
    analysis computes each once across all its states.  Normal forms stay
    on ``dom``, since they depend on the domains alone.

    ``distinct`` maps ``(terms, clocks, left)`` to the one state of that
    value that ``successors`` has built, in the order it met them: every
    distinct state but the root, which no step reaches (every step bumps
    a clock).  So within a build an equal state is one object, and the
    walk's lookups keyed by state hit on identity.

    ``build`` walks the tree; while it runs, ``next_id`` is the next id to
    number, ``path`` the nodes from the root's child down to the node being
    expanded, ``races`` the witnesses found so far, and ``states``,
    ``parents`` and ``labels`` full mode's columns.  Methods are looked up
    on the class, so the walk's recursion holds no reference cycle: an
    analysis is freed by reference counting once its caller drops it.
    """

    __slots__ = ("model", "dom", "hnfs", "moves", "sizes", "expansions", "distinct", "full",
                 "walk_all", "trace", "next_id", "path", "races", "states", "parents", "labels")

    def __init__(self, model: ParsedModel, dom: FieldDomains):
        self.model = model
        self.dom = dom
        self.hnfs: dict = {}
        self.moves: dict = {}
        self.sizes: dict = {}
        self.expansions: dict = {}  # state -> (edge labels, child states)
        self.distinct: dict = {}  # (terms, clocks, left) -> state

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
        self.states, self.parents, self.labels = [root], [None], [None]  # full mode's columns
        if trace is not None:
            trace(0, root, None, None)
        if depth > 0:  # the root's clocks are all zero, so it is never racy
            self.expand(0, root, True)
        if full:
            nodes = Nodes(range(len(self.states)), self.states, self.parents, self.labels)
        else:
            steps = {step.node_id: step for witness in self.races for step in witness}
            nodes = Nodes(*zip((0, root, None, None), *map(steps.get, sorted(steps))))
        return ExecutionTree(self.model.init_names, self.dom, nodes, self.races)

    def expand(self, nid: int, state: SymbolicState, clean: bool) -> None:
        """Number the children of node ``nid``, which has depth left, check
        them for races if ``clean`` (no node on the path to ``nid`` is
        racy), and walk into those with depth left."""
        moves = self.expansions.get(state)
        if moves is None:
            moves = tuple(zip(*successors(state, self))) or ((), ())
            self.expansions[state] = moves
        edges, kids = moves
        ids = range(self.next_id, self.next_id + len(kids))
        self.next_id = ids.stop
        if self.full:
            self.states.extend(kids)
            self.parents.extend([nid] * len(kids))
            self.labels.extend(edges)
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
                # Earlier witnesses made a prefix of the path ``TreeNode``s,
                # which this one shares; build the rest, in place.
                k = len(path)
                while k and type(path[k - 1]) is not TreeNode:
                    k -= 1
                path[k:] = starmap(TreeNode, path[k:])
                self.races.append((*path, TreeNode(cid, kid, nid, label)))
                if not self.walk_all:
                    self.next_id += self.size(kid.terms, left) - 1
                elif left:
                    self.expand(cid, kid, False)
            elif left:
                path.append((cid, kid, nid, label))
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
                    # Equal messages are one object; only two distinct
                    # objects (policies, perhaps spelled apart) need keys.
                    if send.message is not recv.message and message_key(
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
    """
    if state.depth_remaining <= 0:
        return []
    clocks = state.clocks
    depth = state.depth_remaining - 1
    distinct = analysis.distinct
    out = []
    for label, i, j, terms in _moves(state.terms, analysis):
        after = list(clocks)
        after[i] = clock_bump(clocks[i], i)
        if j is not None:
            after[j] = clock_bump(clock_max(after[i], clocks[j]), j)
        key = (terms, tuple(after), depth)
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
    the node it expands, as plain ``(id, state, parent, label)`` tuples,
    and checks each child of a node with no racy node on its path: a racy
    one adds that path and itself to ``tree.races``.  The path's tuples
    become ``TreeNode``s then, in place, so every witness through a node
    shares its ``TreeNode``.  Full mode keeps every node in three columns
    as it is numbered; race mode keeps the root and the steps of those
    paths.  Either way ``Nodes`` and the tree are built once, after the
    walk, ``tree.nodes`` is in id order and a parent always precedes its
    children.

    The tree repeats states, so what depends only on a state is done once
    per distinct state: the call's ``Analysis`` builds each distinct state
    once (``Analysis.distinct``), setting its racy pair then, and computes
    its ``successors`` once, keyed by that object.  What depends only on
    terms, their HNFs, moves and subtree sizes, is kept on the analysis
    too, which is dropped when this returns.  A
    stored node costs three list slots (``Nodes``); a ``TreeNode`` is
    built only for a witness step and when ``tree.nodes`` is read.
    """
    if mode not in ("race", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    return Analysis(model, dom).build(depth, mode == "full", trace)
