from dynarace.races import extract_witnesses, witness_packets
from dynarace.model import infer_domains, parse_model
from dynarace.engine import (
    Analysis,
    PacketTransition,
    RcfgTransition,
    SymbolicState,
    build_tree,
    first_concurrent_pair,
    successors,
)

from conftest import nodes_by_id, path_to, pkt
from oracles import pointwise_first_pair


def state(clocks):
    return SymbolicState((None,) * len(clocks), tuple(clocks), 1)


def test_state_has_race():
    assert first_concurrent_pair(state([(1, 2), (0, 3)]).clocks) == (0, 1)
    assert first_concurrent_pair(state([(0, 0), (0, 0)]).clocks) is None
    assert first_concurrent_pair(state([(1, 2), (0, 2)]).clocks) is None


def test_running_example_witnesses(sw_model, sw_dom):
    tree = build_tree(sw_model, sw_dom, 3, "race")
    witnesses = extract_witnesses(tree)
    assert [w[-1].node_id for w in witnesses] == [5, 6]

    b1 = pkt(sw_dom, flag="blocking", pt=1)
    r1 = pkt(sw_dom, flag="regular", pt=1)
    assert witness_packets(witnesses[0]) == [b1, b1]
    assert witness_packets(witnesses[1]) == [b1, r1]

    w0 = witnesses[0]
    assert [type(s.label) for s in w0] == [
        PacketTransition,
        RcfgTransition,
        PacketTransition,
    ]
    assert [s.node_id for s in w0] == [1, 3, 5]
    names = tree.component_names
    rcfg = w0[1].label
    assert (names[rcfg.sender], names[rcfg.receiver]) == ("SW", "C")
    assert w0[-1].state.racy_pair == (0, 1)
    assert w0[-1].state.clocks == ((1, 2), (0, 3))


def test_depth_two_has_no_witnesses(sw_model, sw_dom):
    tree = build_tree(sw_model, sw_dom, 2, "race")
    assert extract_witnesses(tree) == []


def test_full_mode_same_witnesses(sw_model, sw_dom):
    race = extract_witnesses(build_tree(sw_model, sw_dom, 3, "race"))
    full = extract_witnesses(build_tree(sw_model, sw_dom, 3, "full"))
    assert race == full


def test_single_component_never_races():
    text = """
    def A = "(a = 0) . (a <- 1)" ; A o+ "(a = 1) . (a <- 0)" ; A ;
    init A ;
    """
    model = parse_model(text)
    dom = infer_domains(model)
    tree = build_tree(model, dom, 4, "race")
    assert extract_witnesses(tree) == []


def replay(nodes, model, dom, node_ids):
    """Walk the labels of a root path, given a ``nodes_by_id`` table,
    through successors(); return states."""
    from dynarace.engine import initial_state

    analysis = Analysis(model, dom)
    current = initial_state(model, nodes[0].state.depth_remaining)
    states = [current]
    for nid in node_ids[1:]:
        wanted = nodes[nid].label
        matches = [s for l, s in successors(current, analysis) if l == wanted]
        assert len(matches) == 1
        current = matches[0]
        states.append(current)
    return states


def test_witness_validity_and_minimality(sw_model, sw_dom):
    tree = build_tree(sw_model, sw_dom, 3, "race")
    nodes = nodes_by_id(tree)
    for w in extract_witnesses(tree):
        path = path_to(nodes, w[-1].node_id)
        states = replay(nodes, sw_model, sw_dom, path)
        assert states[-1] == nodes[w[-1].node_id].state
        assert pointwise_first_pair(states[-1].clocks) is not None
        # one-step truncation reaches a race-free state
        assert pointwise_first_pair(states[-2].clocks) is None
