"""Property tests over generated models: race mode against the full tree
and against the recursive race oracle, full trees against a per-node
recomputation of what ``build_tree`` and ``emit_dot`` share per state and
per edge label, and NetKAT normal forms against the packet-by-packet
oracle."""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from dynarace import (
    FieldDomains,
    PacketTransition,
    build_tree,
    extract_witnesses,
    infer_domains,
    initial_state,
    normal_form,
    parse_model,
)
from dynarace.clocks import clock_bump, clock_max
from dynarace.domains import residual_token
from dynarace.model import component_name
from dynarace.render import _edge_label, emit_dot, render_clock
from conftest import path_to
from oracles import (
    oracle_relation,
    pointwise_first_pair,
    random_model_text,
    random_policy,
    rd_oracle,
    witness_label_sequences,
)
from test_engine import assert_race_tree_is_pruned_full_tree


# Derandomized: every run draws the same examples, so the verdict repeats.
@settings(deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), depth=st.integers(1, 5))
def test_race_mode_matches_full_tree_and_oracle(seed, depth):
    model = parse_model(random_model_text(random.Random(seed)))
    dom = infer_domains(model)
    assert_race_tree_is_pruned_full_tree(model, dom, depth)
    tree = build_tree(model, dom, depth, "race")
    expected = rd_oracle(initial_state(model, depth).components, depth, model, dom)
    witnesses = extract_witnesses(tree)
    assert witness_label_sequences(witnesses, dom) == expected
    for w in witnesses:
        path = path_to(tree, w.racy_node_id)[1:]
        assert len(w.steps) == len(path)
        assert all(step == tree.nodes[n] for step, n in zip(w.steps, path))


def child_clocks(clocks, label):
    """The clocks after ``label``, recomputed from the parent's clocks."""
    after = list(clocks)
    if isinstance(label, PacketTransition):
        after[label.actor] = clock_bump(clocks[label.actor], label.actor)
    else:
        i, j = label.sender, label.receiver
        after[i] = clock_bump(clocks[i], i)
        after[j] = clock_bump(clock_max(after[i], clocks[j]), j)
    return tuple(after)


def naive_dot_node(node):
    parts = " || ".join(
        f"{component_name(term)}{render_clock(clock)}"
        for term, clock in zip(node.state.terms, node.state.clocks)
    )
    label = f"{node.node_id}\\n" + parts.replace("\\", "\\\\").replace('"', '\\"')
    fill = ", style=filled, fillcolor=lightcoral" if node.state.racy_pair else ""
    return f'    n{node.node_id} [label="{label}"{fill}];'


def naive_dot_edge(node, dom):
    label = _edge_label(node.label, dom).replace("\\", "\\\\").replace('"', '\\"')
    return f'    n{node.parent} -> n{node.node_id} [label="{label}"];'


def assert_shared_states_match_each_node(model, dom, depth):
    """The state table never conflates states: each node's shared state and
    racy pair equal what its own path gives, and so do its DOT node and
    edge lines."""
    tree = build_tree(model, dom, depth, "full")
    for node in tree.nodes.values():
        state = node.state
        assert state.racy_pair == pointwise_first_pair(state.clocks)
        if node.parent is None:
            continue
        parent = tree.nodes[node.parent].state
        assert state.clocks == child_clocks(parent.clocks, node.label)
        assert state.depth_remaining == parent.depth_remaining - 1
    dot = emit_dot(tree)
    lines = [line for line in dot.splitlines() if re.match(r"    n\d+ \[", line)]
    assert lines == [naive_dot_node(node) for node in tree.nodes.values()]
    edges = [line for line in dot.splitlines() if re.match(r"    n\d+ -> ", line)]
    assert edges == [
        naive_dot_edge(node, dom) for node in tree.nodes.values() if node.parent is not None
    ]


@settings(deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), depth=st.integers(1, 5))
def test_shared_states_match_each_node(seed, depth):
    model = parse_model(random_model_text(random.Random(seed)))
    assert_shared_states_match_each_node(model, infer_domains(model), depth)


def test_equal_terms_and_clocks_at_two_depths():
    # Two handshakes, or a packet step, a handshake and a packet step, both
    # end in terms (A, B) with clocks [2, 0], [2, 2], one level apart.
    model = parse_model("""
    channels x ;
    def A = x ! m ; A o+ "(f <- 1)" ; A ;
    def B = x ? m ; B o+ "(f <- 1)" ; B ;
    init A || B ;
    """)
    assert_shared_states_match_each_node(model, infer_domains(model), 4)


@st.composite
def field_domains(draw):
    """1-3 fields of 1-6 values; a field may end in its residual value."""
    fields = tuple(f"f{i}" for i in range(draw(st.integers(1, 3))))
    values = []
    for f in fields:
        vals = [str(j) for j in range(draw(st.integers(1, 6)))]
        if draw(st.booleans()):
            vals[-1] = residual_token(f)
        values.append(tuple(vals))
    return FieldDomains(fields, tuple(values))


@settings(deadline=None, derandomize=True)
@given(
    dom=field_domains(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    depth=st.integers(1, 5),
)
def test_normal_form_matches_oracle(dom, seed, depth):
    p = random_policy(random.Random(seed), dom, depth)
    nf = normal_form(p, dom)
    assert set(nf) == oracle_relation(p, dom)
    keys = [(dom.packet_key(a), dom.packet_key(b)) for a, b in nf]
    assert keys == sorted(set(keys))
