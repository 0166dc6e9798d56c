"""Symbolic execution of the component vector with vector clocks.

Builds the bounded execution tree of the top-level parallel composition.
Packet steps advance one component and bump its own clock entry; matching
send/receive pairs handshake into a single reconfiguration transition
that merges the receiver's clock with the sender's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .clocks import VectorClock, clock_bump, clock_max, first_concurrent_pair
from .domains import DEFAULT_PACKET_CAP, FieldDomains, Packet
from .hnf import hnf, message_key
from .model import Message, ParsedModel, Term


@dataclass(frozen=True)
class SymbolicState:
    """Component terms paired with their clocks, plus the remaining depth."""

    components: tuple  # of (Term, VectorClock)
    depth_remaining: int

    @property
    def clocks(self) -> tuple:
        return tuple(c for _, c in self.components)


@dataclass(frozen=True)
class PacketTransition:
    actor: int
    alpha: Packet
    pi: Packet


@dataclass(frozen=True)
class RcfgTransition:
    sender: int
    receiver: int
    channel: str
    message: Message


TransitionLabel = PacketTransition | RcfgTransition


@dataclass
class TreeNode:
    node_id: int
    state: SymbolicState
    parent: int | None
    label: TransitionLabel | None  # incoming edge label
    racy_pair: tuple | None = None
    deadlock: bool = False
    frontier: bool = False

    @property
    def racy(self) -> bool:
        return self.racy_pair is not None


@dataclass
class ExecutionTree:
    mode: str
    component_names: tuple
    nodes: dict = field(default_factory=dict)  # id -> TreeNode
    children: dict = field(default_factory=dict)  # id -> [child ids]

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def edges(self):
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            if node.parent is not None:
                yield (node.parent, node.label, nid)

    def path_to(self, node_id: int):
        """Node ids from the root to ``node_id`` inclusive."""
        path = []
        nid = node_id
        while nid is not None:
            path.append(nid)
            nid = self.nodes[nid].parent
        return list(reversed(path))


def initial_state(model: ParsedModel, depth: int) -> SymbolicState:
    """All components in init order, all-zero clocks."""
    n = model.component_count()
    zero: VectorClock = (0,) * n
    return SymbolicState(
        components=tuple((term, zero) for term in model.init),
        depth_remaining=depth,
    )


def successors(
    state: SymbolicState,
    model: ParsedModel,
    dom: FieldDomains,
    cap: int = DEFAULT_PACKET_CAP,
):
    """Ordered list of (label, successor state).

    Reconfiguration transitions come first, ordered by (sender, receiver,
    channel, message), then packet transitions by (component, complete
    test).  The order is fixed so that node numbering is reproducible.
    """
    if state.depth_remaining <= 0:
        return []
    budget = state.depth_remaining
    hnfs = [hnf(term, model, dom, budget, cap) for term, _ in state.components]
    depth = state.depth_remaining - 1
    out = []

    n = len(state.components)
    for i in range(n):
        for send in hnfs[i].send_steps:
            for j in range(n):
                if j == i:
                    continue
                for recv in hnfs[j].recv_steps:
                    if send.channel != recv.channel:
                        continue
                    if message_key(send.message, dom, cap) != message_key(
                        recv.message, dom, cap
                    ):
                        continue
                    sender_clock = clock_bump(state.components[i][1], i)
                    recv_clock = clock_bump(
                        clock_max(sender_clock, state.components[j][1]), j
                    )
                    comps = list(state.components)
                    comps[i] = (send.cont, sender_clock)
                    comps[j] = (recv.cont, recv_clock)
                    out.append(
                        (
                            RcfgTransition(i, j, send.channel, send.message),
                            SymbolicState(tuple(comps), depth),
                        )
                    )

    for i in range(n):
        term_i, clock_i = state.components[i]
        for step in hnfs[i].packet_steps:
            comps = list(state.components)
            comps[i] = (step.cont, clock_bump(clock_i, i))
            out.append(
                (
                    PacketTransition(i, step.alpha, step.pi),
                    SymbolicState(tuple(comps), depth),
                )
            )
    return out


def build_tree(
    model: ParsedModel,
    dom: FieldDomains,
    depth: int,
    mode: str = "race",
    cap: int = DEFAULT_PACKET_CAP,
    trace=None,
) -> ExecutionTree:
    """Exhaustive bounded expansion of the component vector.

    Node ids follow the full expansion order (children created in batch,
    subtrees expanded depth-first) in both modes, so race-mode trees keep
    the ids of the corresponding full tree.  In race mode, nodes whose
    clocks contain an incomparable pair become leaves: their descendants
    are still numbered and passed to ``trace``, but never stored.  Racy
    nodes are flagged in both modes.
    """
    if mode not in ("race", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    tree = ExecutionTree(mode=mode, component_names=model.init_names)
    root = TreeNode(
        node_id=0,
        state=initial_state(model, depth),
        parent=None,
        label=None,
        racy_pair=None,
    )
    tree.nodes[0] = root
    tree.children[0] = []
    counter = [1]

    def expand(node: TreeNode) -> None:
        if node.state.depth_remaining <= 0:
            node.frontier = True
            return
        succ = successors(node.state, model, dom, cap)
        if not succ:
            node.deadlock = True
            return
        keep = node.node_id in tree.nodes and not (mode == "race" and node.racy)
        children = []
        for label, child_state in succ:
            cid = counter[0]
            counter[0] += 1
            child = TreeNode(
                node_id=cid,
                state=child_state,
                parent=node.node_id,
                label=label,
                racy_pair=first_concurrent_pair(child_state.clocks),
            )
            if keep:
                tree.nodes[cid] = child
                tree.children[cid] = []
                tree.children[node.node_id].append(cid)
            children.append(child)
            if trace is not None:
                trace(tree, child)
        for child in children:
            expand(child)

    if trace is not None:
        trace(tree, root)
    expand(root)
    return tree
