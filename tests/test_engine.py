import random

import pytest

from dynarace import (
    PacketTransition,
    RcfgTransition,
    build_tree,
    infer_domains,
    initial_state,
    parse_model,
    successors,
)
from dynarace.engine import SymbolicState
from dynarace.model import Token, Var
from oracles import random_model_text


def pkt(dom, **kw):
    return dom.packet({k: str(v) for k, v in kw.items()})


def test_initial_state(sw_model):
    s = initial_state(sw_model, 3)
    assert s.depth_remaining == 3
    assert s.components == ((Var("C"), (0, 0)), (Var("SW"), (0, 0)))


def test_root_successors(sw_model, sw_dom):
    s = initial_state(sw_model, 3)
    succ = successors(s, sw_model, sw_dom)
    labels = [label for label, _ in succ]
    assert labels == [
        PacketTransition(1, pkt(sw_dom, flag="blocking", pt=1),
                         pkt(sw_dom, flag="blocking", pt=1)),
        PacketTransition(1, pkt(sw_dom, flag="regular", pt=1),
                         pkt(sw_dom, flag="regular", pt=2)),
    ]
    # blocking step: only SW's own clock entry moves
    _, after = succ[0]
    assert after.clocks == ((0, 0), (0, 1))
    assert after.depth_remaining == 2


def test_handshake_clocks(sw_model, sw_dom):
    tree = build_tree(sw_model, sw_dom, 3, "full")
    node1 = tree.nodes[1]
    succ = successors(node1.state, sw_model, sw_dom)
    assert len(succ) == 1
    label, after = succ[0]
    assert label == RcfgTransition(1, 0, "Help", Token("one"))
    assert after.clocks == ((1, 2), (0, 2))


def test_no_successors_at_depth_zero(sw_model, sw_dom):
    s = initial_state(sw_model, 0)
    assert successors(s, sw_model, sw_dom) == []


def test_deadlock_swp(sw_model, sw_dom):
    s = SymbolicState(components=((Var("SWP"), (0,)),), depth_remaining=2)
    assert successors(s, sw_model, sw_dom) == []


def test_root_not_deadlocked(sw_model, sw_dom):
    assert successors(initial_state(sw_model, 3), sw_model, sw_dom) != []


def test_mismatched_channels_deadlock():
    text = """
    fields { a : { 0 } ; }
    channels A, B ;
    def S = A ! m ; bot ;
    def R = B ? m ; bot ;
    init S || R ;
    """
    model = parse_model(text)
    dom = infer_domains(model)
    assert successors(initial_state(model, 2), model, dom) == []


def test_self_communication_excluded():
    text = """
    fields { a : { 0 } ; }
    channels x ;
    def S = x ! m ; bot o+ x ? m ; bot ;
    init S ;
    """
    model = parse_model(text)
    dom = infer_domains(model)
    assert successors(initial_state(model, 2), model, dom) == []


class TestBuildTree:
    def test_depth_zero_single_frontier_root(self, sw_model, sw_dom):
        tree = build_tree(sw_model, sw_dom, 0, "race")
        assert set(tree.nodes) == {0}
        assert tree.root.frontier

    def test_race_mode_witness_path(self, sw_model, sw_dom):
        tree = build_tree(sw_model, sw_dom, 3, "race")
        assert tree.nodes[5].racy and tree.nodes[6].racy
        assert tree.path_to(5) == [0, 1, 3, 5]
        assert tree.path_to(6) == [0, 1, 3, 6]
        clocks = [tree.nodes[n].state.clocks for n in (0, 1, 3, 5)]
        assert clocks == [
            ((0, 0), (0, 0)),
            ((0, 0), (0, 1)),
            ((1, 2), (0, 2)),
            ((1, 2), (0, 3)),
        ]

    def test_full_mode_contains_regular_branch(self, sw_model, sw_dom):
        tree = build_tree(sw_model, sw_dom, 3, "full")
        root_children = tree.children[0]
        labels = [tree.nodes[c].label for c in root_children]
        assert any(
            getattr(l, "alpha", None) is not None
            and dict(zip(sw_dom.fields, l.alpha))["flag"] == "regular"
            for l in labels
        )
        assert len(tree.nodes) == 12

    def test_tree_shape(self, sw_model, sw_dom):
        tree = build_tree(sw_model, sw_dom, 3, "full")
        assert tree.root.state.clocks == ((0, 0), (0, 0))
        for nid, node in tree.nodes.items():
            if nid != 0:
                assert node.parent in tree.nodes
                assert nid in tree.children[node.parent]

    def test_clock_monotonicity(self, sw_model, sw_dom):
        tree = build_tree(sw_model, sw_dom, 4, "full")
        for parent, label, child in tree.edges():
            before = tree.nodes[parent].state.clocks
            after = tree.nodes[child].state.clocks
            changed = [
                i for i, (b, a) in enumerate(zip(before, after)) if b != a
            ]
            for b, a in zip(before, after):
                assert all(x <= y for x, y in zip(b, a))
            if isinstance(label, PacketTransition):
                assert changed == [label.actor]
                i = label.actor
                assert after[i][i] == before[i][i] + 1
            else:
                assert sorted(changed) == sorted([label.sender, label.receiver])

    def test_handshake_law(self, sw_model, sw_dom):
        from dynarace.clocks import clock_bump, clock_max

        tree = build_tree(sw_model, sw_dom, 4, "full")
        for parent, label, child in tree.edges():
            if not isinstance(label, RcfgTransition):
                continue
            before = tree.nodes[parent].state.clocks
            after = tree.nodes[child].state.clocks
            i, j = label.sender, label.receiver
            assert after[i] == clock_bump(before[i], i)
            assert after[j] == clock_bump(clock_max(after[i], before[j]), j)

    def test_packet_transitions_match_hnf(self, sw_model, sw_dom):
        from dynarace.hnf import hnf

        tree = build_tree(sw_model, sw_dom, 3, "full")
        for parent, label, child in tree.edges():
            if not isinstance(label, PacketTransition):
                continue
            pstate = tree.nodes[parent].state
            term = pstate.components[label.actor][0]
            h = hnf(term, sw_model, sw_dom)
            assert any(
                s.alpha == label.alpha and s.pi == label.pi
                for s in h.packet_steps
            )

    def test_determinism(self, sw_model, sw_dom):
        t1 = build_tree(sw_model, sw_dom, 3, "race")
        t2 = build_tree(sw_model, sw_dom, 3, "race")
        assert sorted(t1.nodes) == sorted(t2.nodes)
        for nid in t1.nodes:
            assert t1.nodes[nid].state == t2.nodes[nid].state
            assert t1.nodes[nid].label == t2.nodes[nid].label

    def test_prefix_property_modulo_ids(self, sw_model, sw_dom):
        # The depth-m tree is the depth-(m+1) tree truncated at depth m
        # (structure, labels and non-frontier flags; node ids renumber).
        def signature(tree, nid, depth_left):
            node = tree.nodes[nid]
            if depth_left == 0:
                return ("leaf", node.racy_pair)
            kids = tuple(
                (tree.nodes[c].label, signature(tree, c, depth_left - 1))
                for c in tree.children[nid]
            )
            return (node.racy_pair, node.deadlock, kids)

        t3 = build_tree(sw_model, sw_dom, 3, "full")
        t4 = build_tree(sw_model, sw_dom, 4, "full")
        assert signature(t3, 0, 3) == signature(t4, 0, 3)


def assert_race_tree_is_pruned_full_tree(model, dom, depth):
    """The race-mode tree is the full tree restricted to the nodes with no
    racy proper ancestor: same ids, nodes and (filtered) children."""
    race = build_tree(model, dom, depth, "race")
    full = build_tree(model, dom, depth, "full")
    keep = {
        nid for nid in full.nodes
        if not any(full.nodes[a].racy for a in full.path_to(nid)[:-1])
    }
    assert race.nodes == {nid: full.nodes[nid] for nid in keep}
    assert race.children == {
        nid: [c for c in full.children[nid] if c in keep] for nid in keep
    }


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_race_tree_keeps_full_ids(sw_model, sw_dom, depth):
    assert_race_tree_is_pruned_full_tree(sw_model, sw_dom, depth)


@pytest.mark.parametrize("seed", range(20))
def test_race_tree_keeps_full_ids_random(seed):
    rng = random.Random(seed + 2000)
    model = parse_model(random_model_text(rng))
    assert_race_tree_is_pruned_full_tree(model, infer_domains(model), 4)
