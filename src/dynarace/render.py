"""Console trace rendering and DOT graph emission."""

from __future__ import annotations

from .domains import FieldDomains
from .engine import PacketTransition
from .model import Message, Token, component_name, render_policy

ANSI_TITLE = "\x1b[1;31m"
ANSI_TRACE = "\x1b[1;36m"
ANSI_RESET = "\x1b[0m"


def render_clock(clock) -> str:
    return "[" + ", ".join(str(c) for c in clock) + "]"


def render_message_quoted(msg: Message) -> str:
    """Channel payloads come out quoted, e.g. ``'"one"'``."""
    inner = msg.name if isinstance(msg, Token) else render_policy(msg.policy)
    return f"'\"{inner}\"'"


def render_rcfg(channel: str, msg: Message) -> str:
    return f"rcfg('{channel}', {render_message_quoted(msg)})"


def render_state_clocks(names, clocks) -> str:
    inner = " || ".join(
        f"{name}{render_clock(clock)}" for name, clock in zip(names, clocks)
    )
    return "{" + inner + "}"


def _short_step(label, dom: FieldDomains) -> str:
    if isinstance(label, PacketTransition):
        return f'"{dom.render_test(label.alpha)}"'
    return render_rcfg(label.channel, label.message)


def _long_step(node, names, dom: FieldDomains) -> str:
    label = node.label
    clocks = render_state_clocks(names, node.state.clocks)
    if isinstance(label, PacketTransition):
        head = f'[{names[label.actor]}] "{dom.render_test(label.alpha)}"'
    else:
        head = f"[{names[label.sender]} -> {names[label.receiver]}] " + render_rcfg(
            label.channel, label.message
        )
    return f"{head} {clocks} nid:{node.node_id};"


def render_traces(witnesses, tree, dom: FieldDomains, color: bool = False) -> str:
    """The RACE SHORT TRACES / RACE LONG TRACES report of a run."""

    def title(text):
        return f"{ANSI_TITLE}{text}{ANSI_RESET}" if color else text

    def header(text):
        return f"{ANSI_TRACE}{text}{ANSI_RESET}" if color else text

    names = tree.component_names
    lines = [title("RACE SHORT TRACES")]
    for k, w in enumerate(witnesses):
        lines.append(header(f"Trace {k}:"))
        lines.append("; ".join(_short_step(s.label, dom) for s in w.steps))
        lines.append("")
    lines.append("")
    lines.append(title("RACE LONG TRACES"))
    for k, w in enumerate(witnesses):
        lines.append(header(f"Trace {k}:"))
        root_clocks = tree.root.state.clocks
        lines.append(f"{render_state_clocks(names, root_clocks)} nid:0;")
        for step in w.steps:
            lines.append(_long_step(step, names, dom))
        lines.append("")
    return "\n".join(lines) + "\n"


def render_tracing(node, names, dom: FieldDomains) -> str:
    """The ``-t`` line of a node as it is numbered: its incoming edge and clocks."""
    state = render_state_clocks(names, node.state.clocks)
    if node.parent is None:
        return f"tracing: nid:{node.node_id} {state}"
    label = _edge_label(node.label, dom)
    return f"tracing: nid:{node.parent} -> nid:{node.node_id} {label} {state}"


def _edge_label(label, dom: FieldDomains) -> str:
    if isinstance(label, PacketTransition):
        return f"({dom.render_packet(label.alpha)},{dom.render_packet(label.pi)})"
    return render_rcfg(label.channel, label.message)


# --------------------------------------------------------------------------
# DOT


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _state_label(state, labels: dict) -> str:
    """The escaped ``name[clock] || …`` part of a DOT node label.

    ``labels`` renders each distinct component and clock once per DOT,
    keyed by ``(term, clock)``.
    """
    parts = []
    for term, clock in zip(state.terms, state.clocks):
        label = labels.get((term, clock))
        if label is None:
            label = f"{component_name(term)}{render_clock(clock)}"
            labels[(term, clock)] = label
        parts.append(label)
    return _dot_escape(" || ".join(parts))


def emit_dot(tree, witnesses, dom: FieldDomains) -> str:
    """DOT digraph of the execution tree.

    In race mode only nodes on witness paths appear (the root always
    does); in full mode every node appears.  Racy nodes get a distinct
    fill.  The ``labels`` dict renders each distinct state once, each
    distinct component and clock once (see ``_state_label``) and each
    distinct edge label once, keyed by the hash-consed values themselves;
    a node only formats its id into its line.
    """
    if tree.mode == "race":
        keep = {0} | {step.node_id for w in witnesses for step in w.steps}
    else:
        keep = tree.nodes
    labels: dict = {}
    lines = ["digraph execution {", "    node [shape=box];"]
    edges = []
    # ``keep`` holds the parent of each node it holds, so every edge into a
    # kept node is drawn.
    for nid, node in tree.nodes.items():
        if nid not in keep:
            continue
        state = labels.get(node.state)
        if state is None:
            state = labels[node.state] = _state_label(node.state, labels)
        fill = ", style=filled, fillcolor=lightcoral" if node.racy else ""
        lines.append(f'    n{nid} [label="{nid}\\n{state}"{fill}];')
        if node.parent is not None:
            edge = labels.get(node.label)
            if edge is None:
                edge = _dot_escape(_edge_label(node.label, dom))
                labels[node.label] = edge
            edges.append(f'    n{node.parent} -> n{nid} [label="{edge}"];')
    return "\n".join(lines + edges + ["}"]) + "\n"
