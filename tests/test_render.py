"""What ``render`` formats once, and what the DOT costs in memory."""

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
    steps = counted(monkeypatch, "_long_step", lambda node, names, dom: node.node_id)
    clocks = counted(monkeypatch, "render_state_clocks", lambda names, clocks: clocks)
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
        names = tree.component_names
        assert lines == [
            f"tracing: nid:{n.node_id} {render.render_state_clocks(names, n.state.clocks)}"
            if n.parent is None
            else f"tracing: nid:{n.parent} -> nid:{n.node_id} "
            f"{render._edge_label(n.label, dom)} {render.render_state_clocks(names, n.state.clocks)}"
            for n in numbered
        ]


def test_color_formats_the_report_once(monkeypatch, tmp_path):
    """``-c`` colors the plain report's titles and headers; it formats no step again."""
    model = tmp_path / "sw_controller.dnk"
    model.write_text(SW_MODEL_PATH.read_text(encoding="utf-8"), encoding="utf-8")
    outputs, counts = [], []
    for color in (False, True):
        clocks = counted(monkeypatch, "render_state_clocks", lambda names, clocks: clocks)
        steps = counted(monkeypatch, "_long_step", lambda node, names, dom: node.node_id)
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
