"""What ``render`` formats once, and what the DOT costs in memory."""

import hashlib
import io
import re
import tracemalloc
from collections import Counter

import pytest

import dynarace.render as render
from dynarace import build_tree, extract_witnesses, infer_domains, parse_model
from dynarace.cli import RunConfig, run
from dynarace.engine import TreeNode

from conftest import SW_MODEL_PATH

SELF_LOOP = 'def A = "(pt <- 1)" ; A o+ "(pt <- 2)" ; A ; init A ;'
# Racy, and each packet step of A's policy repeats a label and a state.
REPEATING = """
channels c ;
def A = "(pt <- 1) + (pt <- 2)" ; A o+ c ! m ; A ;
def B = c ? m ; B ;
init A || B ;
"""


def test_emit_dot_holds_the_text_at_most_twice_and_a_half():
    # 9331 nodes, a 0.75 MB DOT; bytes requested, so no machine dependence.
    model = parse_model(SELF_LOOP)
    dom = infer_domains(model)
    tree = build_tree(model, dom, 5, "full")
    tracemalloc.start()
    try:
        dot = render.emit_dot(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dot) > 700_000
    assert peak < 2.5 * len(dot)


def counted(monkeypatch, name, key):
    """Wrap ``render.<name>`` and count its calls by ``key(*args)``."""
    calls = Counter()
    original = getattr(render, name)

    def wrapper(*args):
        calls[key(*args)] += 1
        return original(*args)

    monkeypatch.setattr(render, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "mode, traced",
    [("race", False), ("full", False), ("race", True), ("full", True)],
    ids=["race", "full", "race-t", "full-t"],
)
def test_each_distinct_piece_is_formatted_once(mode, traced, monkeypatch, sw_model, sw_dom):
    model, dom, depth = sw_model, sw_dom, 5
    if traced:
        model = parse_model(REPEATING)
        dom, depth = infer_domains(model), 3
    states = counted(monkeypatch, "_state_label", lambda state, parts: state)
    labels = counted(monkeypatch, "_edge_label", lambda label, dom: label)
    steps = counted(monkeypatch, "_long_step", lambda node, heads, names, texts: node.node_id)
    clocks = counted(monkeypatch, "render_state_clocks", lambda names, clocks, texts: clocks)
    numbered, lines = [], []
    trace = None
    if traced:
        line = render.tracing(lines.append, model.init_names, dom)

        def trace(*node):
            numbered.append(TreeNode(*node))
            line(*node)

    tree = build_tree(model, dom, depth, mode, trace=trace)
    witnesses = extract_witnesses(tree)
    render.render_traces(witnesses, tree)
    render.emit_dot(tree)
    monkeypatch.undo()

    on_paths = {step.node_id for w in witnesses for step in w}
    kept = tree.nodes if mode == "full" else {0} | on_paths
    kept_nodes = [tree.nodes[nid] for nid in kept]
    traced_states = {node.state for node in numbered}
    traced_labels = {n.label for n in numbered if n.parent is not None}
    assert witnesses
    assert states == Counter({node.state for node in kept_nodes})
    assert labels == Counter({n.label for n in kept_nodes if n.parent is not None}) + Counter(
        traced_labels
    )
    assert steps == Counter(on_paths)
    assert clocks == Counter(s.clocks for s in traced_states) + Counter(
        [tree.root.state.clocks] + [tree.nodes[nid].state.clocks for nid in on_paths]
    )
    assert sum(len(w) for w in witnesses) > len(on_paths)
    if traced:
        assert len(numbered) > 4 * len(traced_states) > 4 * len(traced_labels) > 4
        names, texts = tree.component_names, render._Memo(render.render_clock)
        assert lines == [
            f"tracing: nid:{n.node_id} {render.render_state_clocks(names, n.state.clocks, texts)}"
            if n.parent is None
            else f"tracing: nid:{n.parent} -> nid:{n.node_id} "
            f"{render._edge_label(n.label, dom)} {render.render_state_clocks(names, n.state.clocks, texts)}"
            for n in numbered
        ]


def test_color_formats_the_report_once(monkeypatch, tmp_path):
    """``-c`` colors the plain report's titles and headers; it formats no step again."""
    model = tmp_path / "sw_controller.dnk"
    model.write_text(SW_MODEL_PATH.read_text(encoding="utf-8"), encoding="utf-8")
    outputs, counts = [], []
    for color in (False, True):
        clocks = counted(monkeypatch, "render_state_clocks", lambda names, clocks, texts: clocks)
        steps = counted(monkeypatch, "_long_step", lambda node, heads, names, texts: node.node_id)
        stdout = io.StringIO()
        config = RunConfig(str(model), 5, "race", color=color, output_file=str(tmp_path / f"{color}.txt"))
        assert run(config, stdout=stdout, stderr=io.StringIO()) == 1
        monkeypatch.undo()
        outputs.append((stdout.getvalue(), (tmp_path / f"{color}.txt").read_text(encoding="utf-8")))
        counts.append((clocks, steps))
    (plain, plain_copy), (colored, colored_copy) = outputs
    assert counts[0] == counts[1]
    assert sum(counts[0][1].values()) > 1
    assert plain == plain_copy == colored_copy
    assert colored != plain
    assert re.sub(r"\x1b\[[0-9;]*m", "", colored) == plain
    assert colored.count(render.ANSI_RESET) == 2 + plain.count("Trace ")


@pytest.mark.parametrize("mode", ["race", "full"])
def test_each_distinct_clock_is_formatted_once_per_output(mode, monkeypatch):
    """The ``-t`` lines, the report and the DOT each format a distinct clock once."""
    model = parse_model(REPEATING)
    dom = infer_domains(model)
    traced_states = []
    traced = counted(monkeypatch, "render_clock", lambda clock: clock)
    line = render.tracing(lambda text: None, model.init_names, dom)

    def trace(*node):
        traced_states.append(node[1])
        line(*node)

    tree = build_tree(model, dom, 3, mode, trace=trace)
    monkeypatch.undo()
    witnesses = extract_witnesses(tree)
    reported = counted(monkeypatch, "render_clock", lambda clock: clock)
    render.render_traces(witnesses, tree)
    monkeypatch.undo()
    drawn = counted(monkeypatch, "render_clock", lambda clock: clock)
    render.emit_dot(tree)
    monkeypatch.undo()

    on_paths = [tree.root.state] + [step.state for w in witnesses for step in w]
    for states, calls in ((traced_states, traced), (on_paths, reported), (tree.nodes.states, drawn)):
        clocks = [clock for state in states for clock in state.clocks]
        assert calls == Counter(set(clocks))
        assert len(clocks) > 2 * len(calls)


# sha256 of stdout, the -f copy and the DOT of `-t -c` runs, which
# perfbench/references.json (plain report and DOT only) does not cover.
TRACED_COLORED_DIGESTS = {
    ("sw_controller", "race"): (
        "ef44f198094e6c3dbc543aa60fcd93b61ef5ee586b4df6ca1cb71601e63bd077",
        "f6e684f8608be00720cf7d2fbe039bf2e0752e30473d2a3c99734b1bb89f1dd0",
        "bcfb83eaa59359ef81ee51bf4b7d5281568fbc9f4c756a992ef1d21faee05252",
    ),
    ("sw_controller", "full"): (
        "ef44f198094e6c3dbc543aa60fcd93b61ef5ee586b4df6ca1cb71601e63bd077",
        "f6e684f8608be00720cf7d2fbe039bf2e0752e30473d2a3c99734b1bb89f1dd0",
        "66dc56a044e8547e85c3e45ea58b8b5f9e750fc10a0ff4b8ad9def91ae33058e",
    ),
    ("repeating", "race"): (
        "8153073d4e3eb161d2d6b4cc746e72dbc3bd66e8c9dfbc0ea2d599f95299c5f5",
        "2524bdd81b1c38d1d648aaa790dc72d413d31ff6ad51df9eb38e9266daf21fe1",
        "ec86cc45f5d14dae81fd215b2330da89c62eb54b224c1de905e24fbe7e398faf",
    ),
    ("repeating", "full"): (
        "8153073d4e3eb161d2d6b4cc746e72dbc3bd66e8c9dfbc0ea2d599f95299c5f5",
        "2524bdd81b1c38d1d648aaa790dc72d413d31ff6ad51df9eb38e9266daf21fe1",
        "ca9b1345ea792481adbd6210c2665243b20e9b7cc074770c7365608ae6cfe171",
    ),
}


@pytest.mark.parametrize("name, mode", list(TRACED_COLORED_DIGESTS), ids="-".join)
def test_traced_colored_output_bytes_are_pinned(name, mode, tmp_path):
    """``sw_controller.dnk -u4`` and ``REPEATING -u3`` with ``-t -c``, both modes."""
    text, depth = (SW_MODEL_PATH.read_text(encoding="utf-8"), 4) if name == "sw_controller" else (REPEATING, 3)
    model = tmp_path / f"{name}.dnk"
    model.write_text(text, encoding="utf-8")
    stdout, report = io.StringIO(), tmp_path / "report.txt"
    config = RunConfig(str(model), depth, mode, color=True, show_steps=True, output_file=str(report))
    assert run(config, stdout=stdout, stderr=io.StringIO()) == 1
    outputs = (stdout.getvalue().encode("utf-8"), report.read_bytes(), (tmp_path / f"{name}.dot").read_bytes())
    assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == TRACED_COLORED_DIGESTS[name, mode]
