"""Console trace rendering and DOT graph emission."""

from __future__ import annotations

import re
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter

from .domains import FieldDomains
from .engine import PacketTransition
from .model import component_name, render_policy

ANSI_TITLE = "\x1b[1;31m"
ANSI_TRACE = "\x1b[1;36m"
ANSI_RESET = "\x1b[0m"
TITLES = ("RACE SHORT TRACES", "RACE LONG TRACES")

DOT_BATCH = 256  # DOT lines formatted per batch: see ``emit_dot``


class _Memo(dict):
    """``memo[key]`` formats ``make(key)`` on the first lookup only."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def render_clock(clock) -> str:
    return "[" + ", ".join(map(str, clock)) + "]"


def render_rcfg(label) -> str:
    """A message step as ``rcfg('<channel>', '"<payload>"')``: the payload,
    a token's name (a ``str``) or a rendered policy, comes out quoted."""
    msg = label.message
    inner = msg if isinstance(msg, str) else render_policy(msg)
    return f"rcfg('{label.channel}', '\"{inner}\"')"


def render_state_clocks(names, clocks, texts) -> str:
    """``{name[clock] || …}``; ``texts`` maps each clock to its text."""
    return "{" + " || ".join(map(str.__add__, names, map(texts.__getitem__, clocks))) + "}"


def _short_step(label, dom: FieldDomains) -> str:
    if isinstance(label, PacketTransition):
        return f'"{dom.render_test(label.alpha)}"'
    return render_rcfg(label)


def _long_head(label, names, short) -> str:
    """``[name] "test"`` or ``[a -> b] rcfg(…)``: the step's actors, then
    its short step."""
    if isinstance(label, PacketTransition):
        return f"[{names[label.actor]}] {short[label]}"
    return f"[{names[label.sender]} -> {names[label.receiver]}] {short[label]}"


def _long_step(node, heads, names, texts) -> str:
    clocks = render_state_clocks(names, node.state.clocks, texts)
    return f"{heads[node.label]} {clocks} nid:{node.node_id};"


def render_traces(witnesses, tree) -> str:
    """The RACE SHORT TRACES / RACE LONG TRACES report of a run, uncolored,
    as printed: it ends with its last line, without a newline.

    Witnesses share their path prefixes, and the ``TreeNode`` of each
    step on them, so each distinct short step and long-step head (keyed
    by its label), each witness node's long line (keyed by the step
    itself), the root's long line and each distinct clock are formatted
    once.
    """
    names, dom = tree.component_names, tree.dom
    texts = _Memo(render_clock)
    short = _Memo(lambda label: _short_step(label, dom))
    heads = _Memo(lambda label: _long_head(label, names, short))
    long = _Memo(lambda step: _long_step(step, heads, names, texts))
    label = attrgetter("label")
    lines = [TITLES[0]]
    for k, w in enumerate(witnesses):
        lines += (f"Trace {k}:", "; ".join(map(short.__getitem__, map(label, w))), "")
    lines += ("", TITLES[1])
    root = f"{render_state_clocks(names, tree.root.state.clocks, texts)} nid:0;"
    for k, w in enumerate(witnesses):
        lines += (f"Trace {k}:", root)
        lines += map(long.__getitem__, w)
        lines.append("")
    if witnesses:
        lines.pop()
    return "\n".join(lines)


# Compiled on the first ``-c`` run, not at import.
_HEADER = r"(?m)^(?:(%s)|Trace .*)$" % "|".join(TITLES)


def color_report(report: str) -> str:
    """``report`` with its titles and ``Trace k:`` headers colored.

    Only those lines differ from the plain report, so the colored one is
    made from it, by one substitution, and no step is formatted twice.
    No step line can pass for one: a short step line is empty or starts
    with a quote or ``rcfg(``, a long one with ``{`` or ``[``.
    """
    return re.sub(
        _HEADER, lambda m: f"{ANSI_TITLE if m[1] else ANSI_TRACE}{m[0]}{ANSI_RESET}", report
    )


def tracing(emit, names, dom: FieldDomains):
    """A ``build_tree`` ``trace`` callback for ``-t``.

    It passes ``emit`` the line of each node as it is numbered: its
    incoming edge and clocks.  Each distinct edge label and state is
    formatted once per run, keyed by its value (a state caches its hash),
    and so is each distinct clock.
    """
    texts = _Memo(render_clock)
    labels = _Memo(lambda label: _edge_label(label, dom))
    states = _Memo(lambda state: render_state_clocks(names, state.clocks, texts))

    def trace(node_id, state, parent, label):
        if parent is None:
            emit(f"tracing: nid:{node_id} {states[state]}")
        else:
            emit(f"tracing: nid:{parent} -> nid:{node_id} {labels[label]} {states[state]}")

    return trace


def _edge_label(label, dom: FieldDomains) -> str:
    if isinstance(label, PacketTransition):
        return f"({dom.render_packet(label.alpha)},{dom.render_packet(label.pi)})"
    return render_rcfg(label)


# --------------------------------------------------------------------------
# DOT


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _state_label(state, parts) -> str:
    """The escaped ``name[clock] || …`` part of a DOT node label.

    ``parts`` escapes each distinct component and clock once per DOT,
    keyed by ``(term, clock)``; " || " needs no escaping.
    """
    return " || ".join(map(parts.__getitem__, zip(state.terms, state.clocks)))


def _lines(line: str, rows):
    """``line`` filled with each row of ``rows`` in turn, ``DOT_BATCH``
    lines formatted by each ``%``."""
    width = line.count("%")
    fields = chain.from_iterable(rows)
    while batch := tuple(islice(fields, width * DOT_BATCH)):
        yield line * (len(batch) // width) % batch


def _formatted(memo, tuples: dict, field: int) -> dict:
    """Each key of ``tuples`` mapped to ``memo``'s texts of the items of
    its value's ``field``, in one pass that runs no Python code but
    ``memo``'s misses."""
    values = map(itemgetter(field), tuples.values())
    return dict(zip(tuples, map(tuple, map(map, repeat(memo.__getitem__), values))))


def _per_node(table, tuples):
    """``table``'s texts of each of ``tuples``, keyed by its identity,
    chained: one text per node."""
    return chain.from_iterable(map(table.__getitem__, map(id, tuples)))


def _node_lines(tree, distinct):
    """The batches of node lines.  The memos of states, parts and clocks
    are dropped on return, the tails of ``distinct`` once the batches are
    consumed."""
    texts = _Memo(render_clock)
    parts = _Memo(lambda pair: _dot_escape(component_name(pair[0]) + texts[pair[1]]))

    def tail(state):
        fill = "" if state.racy_pair is None else ", style=filled, fillcolor=lightcoral"
        return f'\\n{_state_label(state, parts)}"{fill}];\n'

    tails_of = _formatted(_Memo(tail), distinct, 1)
    # Each node line holds its id twice, so ``tree.nodes`` is zipped twice.
    rows = zip(tree.nodes, tree.nodes, _per_node(tails_of, tree.children))
    return _lines('    n%d [label="%d%s', rows)


def _edge_lines(tree, distinct):
    """The batches of edge lines, all entries' but the root's.  Equal
    labels tuples are one object (``Analysis.shared``), so the suffixes of
    each distinct one are looked up once, keyed by its identity."""
    suffixes = _Memo(lambda label: f' [label="{_dot_escape(_edge_label(label, tree.dom))}"];\n')
    by_labels = {id(entry[0]): entry for entry in islice(distinct.values(), 1, None)}
    suffixes_of = _formatted(suffixes, by_labels, 0)
    sizes = map(len, map(itemgetter(1), islice(tree.children, 1, None)))
    rows = zip(
        chain.from_iterable(map(repeat, islice(tree.parents, 1, None), sizes)),
        islice(tree.nodes, 1, None),
        _per_node(suffixes_of, map(itemgetter(0), islice(tree.children, 1, None))),
    )
    return _lines("    n%d -> n%d%s", rows)


def emit_dot(tree) -> str:
    """DOT digraph of the stored nodes of the execution tree.

    A race-mode tree stores the root and the witness paths, a full-mode
    tree every node.  Racy nodes get a distinct fill.  A node line is
    ``    n<id> [label="<id>`` and its state's tail, an edge line
    ``    n<parent> -> n<id>`` and its label's suffix.  ``tree.children``
    holds the children of each stored parent as one ``(labels, states)``
    tuple, which in a full tree equal states share, so the tails of each
    distinct tuple are looked up once, keyed by its identity.  Equal
    labels tuples are one object too (``Analysis.shared``), so the
    suffixes of each distinct labels tuple are looked up once, keyed by
    its identity (36 tuples for 24 934 nodes on ``fanout -u6 -gfull``).
    Each distinct state's tail, edge label's suffix, ``(term, clock)``
    part and clock is formatted once, keyed by the value itself.  All
    node lines come first, and their tables are dropped
    before the edge lines' are built.  The lines are chained from those
    rows and formatted by one ``%`` per ``DOT_BATCH`` lines, each batch
    appended to one string that nothing else references, which CPython
    grows in place; so the whole text is held once plus one batch and one
    half's tables, never once per line or as a list of batches to join.
    ``tests/test_render.py`` bounds that peak.  ``DOT_BATCH`` is set by
    measurement: a first ``emit_dot`` on ``fanout -u6 -gfull`` (CPython
    3.11, glibc 2.36) takes about 1 600 minor page faults with 256-line
    batches and 3 600 with 2048-line ones.
    The whole text is returned, not streamed: ``perfbench/tracer.py``
    counts the DOT's bytes from this return value.
    """
    # Each distinct children tuple once, keyed by identity so that no
    # lookup hashes a state; the root's comes first and has no edges.
    distinct = dict(zip(map(id, tree.children), tree.children))
    # ``text`` must stay the string's only reference, or each ``+=`` copies.
    text = "digraph execution {\n    node [shape=box];\n"
    for batch in _node_lines(tree, distinct):
        text += batch
    for batch in _edge_lines(tree, distinct):
        text += batch
    text += "}\n"
    return text
