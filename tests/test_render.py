"""What ``render`` formats once, and what the DOT costs in memory."""

import tracemalloc
from collections import Counter

import pytest

import dynarace.render as render
from dynarace import build_tree, extract_witnesses, infer_domains, parse_model

from conftest import SW_MODEL_PATH

SELF_LOOP = 'def A = "(pt <- 1)" ; A o+ "(pt <- 2)" ; A ; init A ;'


def test_emit_dot_holds_the_text_at_most_twice_and_a_half():
    # 9331 nodes, a 0.75 MB DOT; bytes requested, so no machine dependence.
    model = parse_model(SELF_LOOP)
    dom = infer_domains(model)
    tree = build_tree(model, dom, 5, "full")
    witnesses = extract_witnesses(tree)
    tracemalloc.start()
    try:
        dot = render.emit_dot(tree, witnesses, dom)
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


@pytest.mark.parametrize("mode", ["race", "full"])
def test_each_distinct_piece_is_formatted_once(mode, monkeypatch, sw_model, sw_dom):
    tree = build_tree(sw_model, sw_dom, 5, mode)
    witnesses = extract_witnesses(tree)
    states = counted(monkeypatch, "_state_label", lambda state, parts: state)
    labels = counted(monkeypatch, "_edge_label", lambda label, dom: label)
    steps = counted(monkeypatch, "_long_step", lambda node, names, dom: node.node_id)
    render.render_traces(witnesses, tree, sw_dom)
    render.emit_dot(tree, witnesses, sw_dom)

    on_paths = {step.node_id for w in witnesses for step in w.steps}
    kept = tree.nodes if mode == "full" else {0} | on_paths
    kept_nodes = [tree.nodes[nid] for nid in kept]
    assert witnesses
    assert states == Counter({node.state for node in kept_nodes})
    assert labels == Counter({n.label for n in kept_nodes if n.parent is not None})
    assert steps == Counter(on_paths)
    assert sum(len(w.steps) for w in witnesses) > len(on_paths)
