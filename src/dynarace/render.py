"""Console trace rendering and DOT graph emission."""

from __future__ import annotations

from .domains import FieldDomains
from .engine import PacketTransition
from .model import Message, Token, component_name, render_policy

ANSI_TITLE = "\x1b[1;31m"
ANSI_TRACE = "\x1b[1;36m"
ANSI_RESET = "\x1b[0m"
TITLES = ("RACE SHORT TRACES", "RACE LONG TRACES")

DOT_BATCH = 2048  # DOT lines joined per batch


class _Memo(dict):
    """``memo[key]`` formats ``make(key)`` on the first lookup only."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


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


def render_traces(witnesses, tree) -> str:
    """The RACE SHORT TRACES / RACE LONG TRACES report of a run, uncolored.

    Witnesses share their path prefixes, and the ``TreeNode`` of each
    step on them, so each distinct short step (keyed by its label) and
    each witness node's long line (keyed by the step itself) is formatted
    once, and the root's long line once.
    """
    names, dom = tree.component_names, tree.dom
    short = _Memo(lambda label: _short_step(label, dom))
    long = _Memo(lambda step: _long_step(step, names, dom))
    lines = [TITLES[0]]
    for k, w in enumerate(witnesses):
        lines.append(f"Trace {k}:")
        lines.append("; ".join(short[s.label] for s in w))
        lines.append("")
    lines.append("")
    lines.append(TITLES[1])
    root = f"{render_state_clocks(names, tree.root.state.clocks)} nid:0;"
    for k, w in enumerate(witnesses):
        lines.append(f"Trace {k}:")
        lines.append(root)
        lines.extend(long[s] for s in w)
        lines.append("")
    return "\n".join(lines) + "\n"


def color_report(report: str) -> str:
    """``report`` with its titles and ``Trace k:`` headers colored.

    Only those lines differ from the plain report, so the colored one is
    made from it and no step is formatted twice.  No step line can pass
    for one: a short step line is empty or starts with a quote or
    ``rcfg(``, a long one with ``{`` or ``[``.
    """
    lines = report.split("\n")
    for i, line in enumerate(lines):
        if line in TITLES:
            lines[i] = f"{ANSI_TITLE}{line}{ANSI_RESET}"
        elif line.startswith("Trace "):
            lines[i] = f"{ANSI_TRACE}{line}{ANSI_RESET}"
    return "\n".join(lines)


def tracing(emit, names, dom: FieldDomains):
    """A ``build_tree`` ``trace`` callback for ``-t``.

    It passes ``emit`` the line of each node as it is numbered: its
    incoming edge and clocks.  Each distinct edge label and state is
    formatted once per run, keyed by the hash-consed value.
    """
    labels = _Memo(lambda label: _edge_label(label, dom))
    states = _Memo(lambda state: render_state_clocks(names, state.clocks))

    def trace(node_id, state, parent, label):
        if parent is None:
            emit(f"tracing: nid:{node_id} {states[state]}")
        else:
            emit(f"tracing: nid:{parent} -> nid:{node_id} {labels[label]} {states[state]}")

    return trace


def _edge_label(label, dom: FieldDomains) -> str:
    if isinstance(label, PacketTransition):
        return f"({dom.render_packet(label.alpha)},{dom.render_packet(label.pi)})"
    return render_rcfg(label.channel, label.message)


# --------------------------------------------------------------------------
# DOT


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _state_label(state, parts) -> str:
    """The escaped ``name[clock] || …`` part of a DOT node label.

    ``parts`` renders each distinct component and clock once per DOT,
    keyed by ``(term, clock)``.
    """
    pairs = zip(state.terms, state.clocks)
    return _dot_escape(" || ".join(parts[pair] for pair in pairs))


def emit_dot(tree) -> str:
    """DOT digraph of the stored nodes of the execution tree.

    A race-mode tree stores the root and the witness paths, a full-mode
    tree every node.  Racy nodes get a distinct fill.  A node line is
    ``    n<id> [label="<id>`` and its state's tail, an edge line
    ``    n<parent> -> n<id>`` and its label's suffix; each distinct
    state's tail and each distinct edge label's suffix is formatted once,
    keyed by the hash-consed value itself.  The lines come straight from
    ``tree.nodes``' columns and are joined in batches of ``DOT_BATCH``, so
    the whole text is held at most twice (the batches and their join),
    never once per line as well.  The whole text is returned, not
    streamed: ``perfbench/tracer.py`` counts the DOT's bytes from this
    return value.
    """
    dom = tree.dom
    parts = _Memo(lambda pair: f"{component_name(pair[0])}{render_clock(pair[1])}")

    def tail(state):
        fill = "" if state.racy_pair is None else ", style=filled, fillcolor=lightcoral"
        return f'\\n{_state_label(state, parts)}"{fill}];\n'

    tails = _Memo(tail)
    suffixes = _Memo(lambda label: f' [label="{_dot_escape(_edge_label(label, dom))}"];\n')
    nodes = tree.nodes
    ids, states, parents, labels = nodes.ids, nodes.states, nodes.parents, nodes.labels
    batches = ["digraph execution {\n    node [shape=box];\n"]
    for i in range(0, len(ids), DOT_BATCH):
        j = i + DOT_BATCH
        batches.append("".join([
            f'    n{nid} [label="{nid}{tails[state]}'
            for nid, state in zip(ids[i:j], states[i:j])
        ]))
    # The root, always first, has no incoming edge.
    for i in range(1, len(ids), DOT_BATCH):
        j = i + DOT_BATCH
        batches.append("".join([
            f"    n{parent} -> n{nid}{suffixes[label]}"
            for nid, parent, label in zip(ids[i:j], parents[i:j], labels[i:j])
        ]))
    batches.append("}\n")
    return "".join(batches)
