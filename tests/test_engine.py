import gc
import random
import sys
import tracemalloc
import weakref
from itertools import accumulate, pairwise

import pytest

from dynarace.domains import FieldDomains
from dynarace.races import extract_witnesses
from dynarace import engine
from dynarace.engine import (
    Analysis,
    PacketTransition,
    RcfgTransition,
    SymbolicState,
    build_tree,
    initial_state,
    successors,
)
from dynarace.model import Var, infer_domains, load_model, parse_model
from conftest import ROOT, SW_MODEL_PATH, edges, nodes_by_id, path_to, pkt, shape, syntax
from oracles import numbered_full_tree, random_model_text, wide_model_text

sys.path.insert(0, str(ROOT / "perfbench"))

from models import fanout_model  # noqa: E402


def children(nodes, nid):
    """Child ids of ``nid`` in id order, from the ``parent`` links of a
    ``nodes_by_id`` table."""
    return [c for c, node in nodes.items() if node.parent == nid]


def test_initial_state(sw_model):
    # Two roots of one model are equal values with equal hashes, not one
    # object; their terms are the model's own terms.  The roots of two
    # parses hold terms of the same shape.
    again = load_model(SW_MODEL_PATH)
    for model in (sw_model, again):
        s = initial_state(model, 3)
        assert s.depth_remaining == 3
        assert shape(s.components) == shape(((Var("C"), (0, 0)), (Var("SW"), (0, 0))))
        assert s.terms == model.init
        assert all(a is b for a, b in zip(s.terms, model.init, strict=True))
        second = initial_state(model, 3)
        assert s == second and hash(s) == hash(second)
        assert s is not second
    first, other = initial_state(sw_model, 3), initial_state(again, 3)
    assert shape(first.components) == shape(other.components)
    assert first != other


def test_root_successors(sw_model, sw_dom, sw_analysis):
    s = initial_state(sw_model, 3)
    succ = successors(s, sw_analysis)
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


def test_handshake_clocks(sw_model, sw_dom, sw_analysis):
    tree = build_tree(sw_model, sw_dom, 3, "full")
    node1 = nodes_by_id(tree)[1]
    succ = successors(node1.state, sw_analysis)
    assert len(succ) == 1
    label, after = succ[0]
    assert shape(label) == shape(RcfgTransition(1, 0, "Help", "one"))
    assert after.clocks == ((1, 2), (0, 2))


def test_no_successors_at_depth_zero(sw_model, sw_analysis):
    s = initial_state(sw_model, 0)
    assert successors(s, sw_analysis) == []


def test_deadlock_swp(sw_analysis):
    s = SymbolicState((Var("SWP"),), ((0,),), 2)
    assert successors(s, sw_analysis) == []


def test_root_not_deadlocked(sw_model, sw_analysis):
    assert successors(initial_state(sw_model, 3), sw_analysis) != []


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
    assert successors(initial_state(model, 2), Analysis(model, dom)) == []


def test_self_communication_excluded():
    text = """
    fields { a : { 0 } ; }
    channels x ;
    def S = x ! m ; bot o+ x ? m ; bot ;
    init S ;
    """
    model = parse_model(text)
    dom = infer_domains(model)
    assert successors(initial_state(model, 2), Analysis(model, dom)) == []


def test_build_tree_leaves_nothing_on_the_model(sw_model, sw_dom):
    # The caches live on the build's own ``Analysis``, not on the model.
    for mode in ("race", "full"):
        build_tree(sw_model, sw_dom, 5, mode)
        assert type(sw_model).__slots__ == ()
        assert not hasattr(sw_model, "__dict__")


def test_moves_cache_is_per_domains():
    # Same model and terms: a wider domain gives the assignment more inputs.
    model = parse_model('def A = "(pt <- 1)" ; A ; init A ;')
    narrow = FieldDomains(("pt",), (("1",),))
    wide = FieldDomains(("pt",), (("1", "2"),))
    s = initial_state(model, 1)
    assert len(successors(s, Analysis(model, narrow))) == 1
    assert len(successors(s, Analysis(model, wide))) == 2


class TestBuildTree:
    def test_unknown_mode_rejected(self, sw_model, sw_dom):
        with pytest.raises(ValueError, match="unknown mode 'tree'"):
            build_tree(sw_model, sw_dom, 2, "tree")

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "trace"])
    def test_race_free_race_tree_stores_only_the_root(self, traced):
        # 55 987 nodes, none racy: race mode walks them (numbering all of
        # them with ``trace``) but has no witness step to store.
        model = parse_model('def A = "(pt <- 1)" ; A o+ "(pt <- 2)" ; A ; init A ;')
        numbered = []
        trace = (lambda nid, *_: numbered.append(nid)) if traced else None
        tree = build_tree(model, infer_domains(model), 6, "race", trace=trace)
        assert (list(tree.nodes), tree.races) == ([0], [])
        assert len(numbered) == (55_987 if traced else 0)

    def test_depth_zero_single_frontier_root(self, sw_model, sw_dom):
        tree = build_tree(sw_model, sw_dom, 0, "race")
        assert set(tree.nodes) == {0}
        assert tree.root.state.depth_remaining == 0

    def test_race_mode_witness_path(self, sw_model, sw_dom):
        nodes = nodes_by_id(build_tree(sw_model, sw_dom, 3, "race"))
        assert nodes[5].state.racy_pair and nodes[6].state.racy_pair
        assert path_to(nodes, 5) == [0, 1, 3, 5]
        assert path_to(nodes, 6) == [0, 1, 3, 6]
        clocks = [nodes[n].state.clocks for n in (0, 1, 3, 5)]
        assert clocks == [
            ((0, 0), (0, 0)),
            ((0, 0), (0, 1)),
            ((1, 2), (0, 2)),
            ((1, 2), (0, 3)),
        ]

    def test_full_mode_contains_regular_branch(self, sw_model, sw_dom):
        tree = build_tree(sw_model, sw_dom, 3, "full")
        nodes = nodes_by_id(tree)
        labels = [nodes[c].label for c in children(nodes, 0)]
        assert any(
            getattr(l, "alpha", None) is not None
            and dict(zip(sw_dom.fields, l.alpha))["flag"] == "regular"
            for l in labels
        )
        assert len(tree.nodes) == 12

    def test_tree_shape(self, sw_model, sw_dom):
        tree = build_tree(sw_model, sw_dom, 3, "full")
        assert tree.root.state.clocks == ((0, 0), (0, 0))
        for nid, node in nodes_by_id(tree).items():
            if nid != 0:
                assert node.parent in tree.nodes
                assert node.parent < nid

    def test_numbered_but_unstored_ids_are_not_nodes(self, sw_model, sw_dom):
        # Race mode numbers every node, as full mode does, but stores only
        # the root and the witness paths.
        race = build_tree(sw_model, sw_dom, 4, "race")
        full = build_tree(sw_model, sw_dom, 4, "full")
        unstored = sorted(set(full.nodes) - set(race.nodes))
        assert (len(full.nodes), unstored[:5]) == (21, [4, 7, 8, 9, 11])
        assert len(unstored) == 11
        for nid in unstored:
            assert nid not in race.nodes
        for nid in (len(full.nodes), -1):
            assert nid not in full.nodes

    def test_states_share_the_cached_term_vectors(self, sw_model, sw_dom):
        # A child's terms equal the successor tuple of a ``_moves`` entry and
        # are the very same terms, also with a second parse alive, whose
        # equal states are the first parse's objects.
        again = load_model(SW_MODEL_PATH)
        for model, dom in ((sw_model, sw_dom), (again, infer_domains(again))):
            nodes = nodes_by_id(build_tree(model, dom, 5, "full"))
            analysis = Analysis(model, dom)
            for node in nodes.values():
                successors(node.state, analysis)
            cached = {
                after: after
                for moves in analysis.moves.values()
                for *_, after in moves
            }
            for nid, node in nodes.items():
                state = node.state
                if nid:
                    after = cached[state.terms]
                    assert all(a is b for a, b in zip(state.terms, after, strict=True))
                assert state.components == tuple(zip(state.terms, state.clocks))

    def test_clock_monotonicity(self, sw_model, sw_dom):
        nodes = nodes_by_id(build_tree(sw_model, sw_dom, 4, "full"))
        for parent, label, child in edges(nodes):
            before = nodes[parent].state.clocks
            after = nodes[child].state.clocks
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
        from oracles import clock_bump, clock_max

        nodes = nodes_by_id(build_tree(sw_model, sw_dom, 4, "full"))
        for parent, label, child in edges(nodes):
            if not isinstance(label, RcfgTransition):
                continue
            before = nodes[parent].state.clocks
            after = nodes[child].state.clocks
            i, j = label.sender, label.receiver
            assert after[i] == clock_bump(before[i], i)
            assert after[j] == clock_bump(clock_max(after[i], before[j]), j)

    def test_packet_transitions_match_hnf(self, sw_model, sw_dom, sw_analysis):
        from dynarace.hnf import hnf

        nodes = nodes_by_id(build_tree(sw_model, sw_dom, 3, "full"))
        for parent, label, child in edges(nodes):
            if not isinstance(label, PacketTransition):
                continue
            pstate = nodes[parent].state
            term = pstate.components[label.actor][0]
            h = hnf(term, sw_analysis)
            assert any(
                s.alpha == label.alpha and s.pi == label.pi
                for s in h.packet_steps
            )

    def test_determinism(self, sw_model, sw_dom):
        t1 = nodes_by_id(build_tree(sw_model, sw_dom, 3, "race"))
        t2 = nodes_by_id(build_tree(sw_model, sw_dom, 3, "race"))
        assert sorted(t1) == sorted(t2)
        for nid in t1:
            assert t1[nid].state == t2[nid].state
            assert t1[nid].label == t2[nid].label

    def test_prefix_property_modulo_ids(self, sw_model, sw_dom):
        # The depth-m tree is the depth-(m+1) tree truncated at depth m
        # (structure, labels and racy pairs; node ids renumber).  Above
        # depth 0, an empty ``kids`` is a deadlock.
        def signature(nodes, nid, depth_left):
            node = nodes[nid]
            if depth_left == 0:
                return ("leaf", node.state.racy_pair)
            kids = tuple(
                (nodes[c].label, signature(nodes, c, depth_left - 1))
                for c in children(nodes, nid)
            )
            return (node.state.racy_pair, kids)

        t3 = nodes_by_id(build_tree(sw_model, sw_dom, 3, "full"))
        t4 = nodes_by_id(build_tree(sw_model, sw_dom, 4, "full"))
        assert signature(t3, 0, 3) == signature(t4, 0, 3)


def first_races(nodes):
    """The ids of the racy nodes of a full tree's ``nodes_by_id`` table
    with no racy proper ancestor."""
    return [
        nid for nid, node in nodes.items()
        if node.state.racy_pair
        and not any(nodes[a].state.racy_pair for a in path_to(nodes, nid)[:-1])
    ]


def assert_race_tree_is_pruned_full_tree(model, dom, depth):
    """The race-mode tree, with or without ``trace``, is the full tree
    restricted to the root and the root paths of its racy nodes with no
    racy proper ancestor: same ids and whole ``TreeNode``s, in id order.
    In all three trees the witnesses end at exactly those racy nodes.  Up
    to depth 5, ``Analysis.size`` of the root counts the full tree's nodes."""
    race = build_tree(model, dom, depth, "race")
    full = build_tree(model, dom, depth, "full")
    traced = build_tree(model, dom, depth, "race", trace=lambda *node: None)
    if depth <= 5:
        assert Analysis(model, dom).size(model.init, depth) == len(full.nodes)
    full_nodes = nodes_by_id(full)
    ends = first_races(full_nodes)
    keep = {0} | {a for nid in ends for a in path_to(full_nodes, nid)}
    expected = [full_nodes[nid] for nid in sorted(keep)]
    for tree in (race, traced):
        assert list(nodes_by_id(tree).values()) == expected
        assert list(tree.nodes) == sorted(keep)
    for tree in (race, full, traced):
        assert list(tree.nodes) == sorted(tree.nodes)
        assert sorted(w[-1].node_id for w in extract_witnesses(tree)) == ends


def expanded_states(tree, mode):
    """The distinct ``(terms, clocks, depth_remaining)`` values of the
    tree's nodes that a ``mode`` build expands: those with depth left and,
    in race mode, no racy ancestor-or-self."""
    racy_at_or_above = {None: False}  # the root's parent
    nodes = nodes_by_id(tree)
    for nid, node in nodes.items():
        # A KeyError here means a child was stored before its parent.
        racy_at_or_above[nid] = racy_at_or_above[node.parent] or node.state.racy_pair is not None
    return {
        (n.state.terms, n.state.clocks, n.state.depth_remaining)
        for nid, n in nodes.items()
        if n.state.depth_remaining > 0 and not (mode == "race" and racy_at_or_above[nid])
    }


def assert_race_mode_builds_what_it_keeps(model, dom, depth, monkeypatch):
    """Without ``trace``, race mode builds the successors of each distinct
    state of a full-tree node with depth left and no racy ancestor-or-self,
    once; with a no-op ``trace`` it numbers every node of the full tree, in
    order, and stores the same tree."""
    built = [1]  # the root; successors build the rest
    real = engine.successors

    def counting(state, analysis):
        succ = real(state, analysis)
        built[0] += len(succ)
        return succ

    monkeypatch.setattr(engine, "successors", counting)
    race = build_tree(model, dom, depth, "race")
    monkeypatch.undo()
    full = build_tree(model, dom, depth, "full")
    analysis = Analysis(model, dom)
    assert built[0] == 1 + sum(
        len(real(SymbolicState(*state), analysis))
        for state in expanded_states(full, "race")
    )

    traced = []
    with_trace = build_tree(
        model, dom, depth, "race", trace=lambda nid, *_: traced.append(nid)
    )
    assert with_trace == race
    assert traced == list(range(len(full.nodes)))


def assert_full_mode_expands_each_state_once(model, dom, depth, monkeypatch):
    """Full mode calls ``successors`` once per distinct expanded state, and
    the tree holds one object per distinct state."""
    calls = []
    real = engine.successors

    def counting(state, analysis):
        calls.append((state.terms, state.clocks, state.depth_remaining))
        return real(state, analysis)

    monkeypatch.setattr(engine, "successors", counting)
    full = build_tree(model, dom, depth, "full")
    monkeypatch.undo()
    assert len(calls) == len(set(calls))
    assert set(calls) == expanded_states(full, "full")
    states = [node.state for node in nodes_by_id(full).values()]
    assert len({id(s) for s in states}) == len(set(states))


@pytest.mark.parametrize("depth", [3, 4, 5, 6])
def test_race_tree_keeps_full_ids(sw_model, sw_dom, depth, monkeypatch):
    assert_race_tree_is_pruned_full_tree(sw_model, sw_dom, depth)
    assert_race_mode_builds_what_it_keeps(sw_model, sw_dom, depth, monkeypatch)


@pytest.mark.parametrize("seed", range(20))
def test_race_tree_keeps_full_ids_random(seed, monkeypatch):
    rng = random.Random(seed + 2000)
    model = parse_model(random_model_text(rng))
    dom = infer_domains(model)
    assert_race_tree_is_pruned_full_tree(model, dom, 4)
    assert_race_mode_builds_what_it_keeps(model, dom, 4, monkeypatch)


@pytest.mark.parametrize("seed", range(10))
def test_race_tree_keeps_full_ids_wide(seed):
    model = parse_model(wide_model_text(random.Random(seed)))
    assert_race_tree_is_pruned_full_tree(model, infer_domains(model), 4)


def test_full_mode_expands_each_state_once(sw_model, sw_dom, monkeypatch):
    assert_full_mode_expands_each_state_once(sw_model, sw_dom, 6, monkeypatch)


@pytest.mark.parametrize("seed", range(20))
def test_full_mode_expands_each_state_once_random(seed, monkeypatch):
    rng = random.Random(seed + 2000)
    model = parse_model(random_model_text(rng))
    dom = infer_domains(model)
    assert_full_mode_expands_each_state_once(model, dom, 5, monkeypatch)


@pytest.mark.parametrize("mode", ["full", "race"])
def test_build_tree_leaves_no_garbage_cycles(sw_model, sw_dom, mode):
    # The walk's tables are freed when build_tree returns, by reference
    # counting alone; a cycle through them would wait for the collector.
    gc.collect()
    gc.disable()
    try:
        build_tree(sw_model, sw_dom, 6, mode)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_dropped_model_and_tree_are_freed_by_reference_counting():
    # A parse's records belong to its model: once the model and its tree
    # are dropped, every term and policy node goes by reference counting
    # alone, and no table outside the model keeps one alive.
    gc.collect()
    gc.disable()
    try:
        model = load_model(SW_MODEL_PATH)
        tree = build_tree(model, infer_domains(model), 6, "full")
        records = [weakref.ref(r) for r in syntax(model)]
        assert len(records) == 21  # the token ``one`` is a string, not a record
        del model, tree
        assert [r for r in records if r() is not None] == []
    finally:
        gc.enable()


def test_equal_states_of_two_live_builds_are_equal_not_shared():
    # Each build owns its states: two live builds of one model give equal
    # trees whose states are equal values, not shared objects.  Dropping
    # both frees the model's records by reference counting alone.
    gc.collect()
    gc.disable()
    try:
        model = load_model(SW_MODEL_PATH)
        dom = infer_domains(model)
        first = build_tree(model, dom, 6, "full")
        second = build_tree(model, dom, 6, "full")
        assert first == second
        assert not any(
            a.state is b.state
            for a, b in zip(nodes_by_id(first).values(), nodes_by_id(second).values())
        )
        records = [weakref.ref(r) for r in syntax(model)]
        del model, dom, first, second
        assert [r for r in records if r() is not None] == []
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "mode, traced", [("race", False), ("full", False), ("race", True)], ids=["race", "full", "race-t"]
)
def test_race_check_runs_once_per_distinct_state(mode, traced, monkeypatch):
    # ``racy_pair`` is set when a state is built, by one call of
    # ``engine.first_concurrent_pair``, whether or not the walk reads it.
    calls = []
    built = []
    real_check, real_successors = engine.first_concurrent_pair, engine.successors

    def check(clocks):
        calls.append(clocks)
        return real_check(clocks)

    def recording(state, analysis):
        succ = real_successors(state, analysis)
        built.extend(child for _, child in succ)
        return succ

    gc.collect()  # no state of an earlier test survives in a cycle
    monkeypatch.setattr(engine, "first_concurrent_pair", check)
    monkeypatch.setattr(engine, "successors", recording)
    model = parse_model(fanout_model(3))
    trace = (lambda *_: None) if traced else None
    tree = build_tree(model, infer_domains(model), 5, mode, trace=trace)
    states = {tree.root.state, *built}
    assert len(calls) == len(states)
    assert sorted(calls) == sorted(s.clocks for s in states)
    for s in states:
        assert s.racy_pair == real_check(s.clocks)


@pytest.mark.parametrize(
    "text, mode, traced",
    [
        (fanout_model(3), "race", False),
        (fanout_model(3), "full", False),
        (fanout_model(3), "race", True),
        (wide_model_text(random.Random(0)), "full", False),
        (wide_model_text(random.Random(1)), "race", True),
    ],
    ids=["fanout-race", "fanout-full", "fanout-race-t", "wide0-full", "wide1-race-t"],
)
def test_analysis_table_holds_each_distinct_non_root_state_once(text, mode, traced, monkeypatch):
    # ``Analysis.distinct`` holds exactly the distinct states that
    # ``successors`` returned, the root never, each under its own fields;
    # every non-root state of the tree is that object, and so is every
    # state the trace sees during the build.  ``Analysis.expansions`` is
    # keyed by the ``id`` of the root or of one of those states.
    model = parse_model(text)
    analysis = Analysis(model, infer_domains(model))
    built = []
    real = engine.successors

    def recording(state, analysis):
        succ = real(state, analysis)
        built.extend(child for _, child in succ)
        return succ

    checked = []

    def trace(node_id, state, parent, label):
        if node_id % 97 == 1:
            key = (state.terms, state.clocks, state.depth_remaining)
            checked.append(state is analysis.distinct.get(key))

    monkeypatch.setattr(engine, "successors", recording)
    tree = analysis.build(5, mode == "full", trace if traced else None)
    monkeypatch.undo()
    table = analysis.distinct
    assert len(table) == len(set(built)) > 1
    assert {id(s) for s in table.values()} == {id(s) for s in built}
    for key, state in table.items():
        assert key == (state.terms, state.clocks, state.depth_remaining)
    assert tree.root.state not in set(built)
    owned = {id(tree.root.state), *map(id, table.values())}
    assert analysis.expansions and all(type(key) is int for key in analysis.expansions)
    assert set(analysis.expansions) <= owned
    non_root = [node.state for nid, node in nodes_by_id(tree).items() if nid]
    assert non_root
    for s in non_root:
        assert s is table[s.terms, s.clocks, s.depth_remaining]
    assert checked == [True] * len(checked) and (len(checked) > 1) == traced


@pytest.mark.parametrize(
    "text, depth, steps, made",
    [(SW_MODEL_PATH.read_text(), 6, 19, 25), (fanout_model(3), 5, 213, 213)],
    ids=["sw", "fanout"],
)
@pytest.mark.parametrize(
    "mode, traced",
    [("full", False), ("race", False), ("full", True), ("race", True)],
    ids=["full", "race", "full-t", "race-t"],
)
def test_tree_nodes_are_built_for_witness_steps_only(
    text, depth, steps, made, mode, traced, monkeypatch
):
    # A stored node is an item of its entry's tuples.  The walk builds a
    # ``TreeNode`` for each clean node it enters and each racy child of
    # one, ``made`` in all; a witness step is one of them, which every
    # witness through that node holds, ``steps`` distinct ones.  On sw, 6
    # clean nodes lie on no witness.  ``trace`` gets each node's fields,
    # not a ``TreeNode``.
    model = parse_model(text)
    dom = infer_domains(model)
    built = []

    class Counted(engine.TreeNode):
        __slots__ = ()

        def __new__(cls, *fields):
            node = super().__new__(cls, *fields)
            built.append(node)
            return node

    monkeypatch.setattr(engine, "TreeNode", Counted)
    tree = build_tree(model, dom, depth, mode, trace=(lambda *node: None) if traced else None)
    monkeypatch.undo()
    shared = {}
    for witness in tree.races:
        for step in witness:
            assert shared.setdefault(step.node_id, step) is step
    assert sum(map(len, tree.races)) > len(shared) == steps
    assert len(built) == made
    assert {id(node) for node in built} >= {id(step) for step in shared.values()}
    nodes = nodes_by_id(tree)
    assert all(nodes[nid] == step for nid, step in shared.items())


def one_object_per_value(values) -> bool:
    values = list(values)
    return len({id(v) for v in values}) == len(set(values))


WIDE_SEEDS = (0, 1, 3, 4)  # the model of seed 2 takes no step


@pytest.mark.parametrize(
    "text, depth",
    [(fanout_model(3), 6)] + [(wide_model_text(random.Random(seed)), 4) for seed in WIDE_SEEDS],
    ids=["fanout-u6"] + [f"wide{seed}-u4" for seed in WIDE_SEEDS],
)
def test_full_tree_keeps_one_object_per_clock_row_vector_and_labels(text, depth):
    # ``Analysis.shared`` gives each row, vector and labels tuple that a
    # build makes the one object of its value; without it, fanout-u6 holds
    # 1579 row objects for 67 rows, 1315 vectors for 440 and 601 labels
    # tuples for 36.
    model = parse_model(text)
    entries = build_tree(model, infer_domains(model), depth, "full").children[1:]
    states = [state for _, kids in entries for state in kids]
    assert states
    assert one_object_per_value(row for state in states for row in state.clocks)
    assert one_object_per_value(state.clocks for state in states)
    assert one_object_per_value(labels for labels, _ in entries)


@pytest.mark.parametrize("depth, nodes, bound", [(6, 24934, 28), (7, 107728, 18.5)])
def test_full_tree_keeps_one_entry_per_expansion(depth, nodes, bound):
    # 24 934 nodes for 1316 distinct states at depth 6: what a node keeps,
    # not what a state keeps, sets the size of a full tree.  A node is one
    # item of its parent's children tuple, which equal states share; only
    # an expanded node keeps slots of its own, two list slots and its boxed
    # id.  Equal clock rows, clock vectors and labels tuples are one object,
    # and a state is a plain four-field tuple.  Measured 26.6 and 17.9 bytes
    # per node; states that also cached their hash read 28.9 and 18.9, and
    # fail both bounds.
    model = parse_model(fanout_model(3))
    dom = infer_domains(model)
    build_tree(model, dom, depth, "full")  # the domains' normal forms, once
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = build_tree(model, dom, depth, "full")
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tree.nodes) == nodes
    assert kept / nodes <= bound


def test_race_tree_keeps_one_entry_per_stored_parent():
    # A node's children take consecutive ids and their descendants later
    # ones, so the stored children of one parent are adjacent and a race
    # tree keeps them as one entry, as a full tree keeps an expansion.
    model = parse_model(fanout_model(3))
    tree = build_tree(model, infer_domains(model), 6, "race")
    assert (len(tree.nodes), len(tree.children)) == (280, 53)
    stored = list(nodes_by_id(tree).values())
    assert tree.parents == [None, *dict.fromkeys(node.parent for node in stored[1:])]


CONTRACT_MODELS = [("sw", SW_MODEL_PATH.read_text(), 5), ("fanout", fanout_model(3), 5)] + [
    (f"wide{seed}", wide_model_text(random.Random(seed)), 4) for seed in WIDE_SEEDS
]


@pytest.mark.parametrize("mode", ["race", "full"])
@pytest.mark.parametrize(
    "text, depth", [case[1:] for case in CONTRACT_MODELS], ids=[case[0] for case in CONTRACT_MODELS]
)
def test_tree_entries_keep_the_data_contract(text, depth, mode):
    # ``nodes`` holds the stored ids, strictly increasing from 0, and the
    # entries' children take them in turn: the first entry is the root
    # alone, and every other entry's parent is a stored id below the ids
    # of its children.  A full tree stores every id it numbers, and keeps
    # an empty entry for an expanded node with no successor; a race tree
    # stores the root and the witness steps.
    model = parse_model(text)
    tree = build_tree(model, infer_domains(model), depth, mode)
    assert tree.nodes[0] == 0
    assert all(a < b for a, b in pairwise(tree.nodes))
    sizes = [len(states) for _, states in tree.children]
    assert len(tree.nodes) == sum(sizes)
    root = initial_state(model, depth)
    assert (tree.parents[0], tree.children[0]) == (None, ((None,), (root,)))
    assert tree.root == (0, root, None, None)
    assert len(tree.parents) == len(tree.children)
    firsts = accumulate(sizes, initial=0)  # the position of each entry's first child
    for parent, (labels, states), first in zip(tree.parents, tree.children, firsts):
        assert len(labels) == len(states)
        if parent is not None:
            assert parent in tree.nodes
            assert all(parent < nid for nid in tree.nodes[first : first + len(states)])
    assert None not in tree.parents[1:]
    if mode == "full":
        assert tree.nodes == range(len(tree.nodes))
    else:
        assert 0 not in sizes  # a race tree keeps only parents of stored nodes
        assert set(tree.nodes) == {0} | {step.node_id for w in tree.races for step in w}


SELF_LOOP = 'def A = "(pt <- 1)" ; A o+ "(pt <- 2)" ; A ; init A ;'
NUMBERING_CASES = (
    [("sw", SW_MODEL_PATH.read_text(), u) for u in range(1, 7)]
    + [(f"fanout{seed}", fanout_model(seed), u) for seed in range(3) for u in range(4, 8)]
    + [("loop", SELF_LOOP, u) for u in range(1, 8)]
    + [
        (f"random{seed}", random_model_text(random.Random(seed)), u)
        for seed in range(30)
        for u in range(1, 5)
    ]
    + [
        (f"wide{seed}", wide_model_text(random.Random(seed)), u)
        for seed in range(40)
        for u in range(1, 5)
    ]
)


@pytest.mark.parametrize(
    "text, depth", [case[1:] for case in NUMBERING_CASES], ids=[f"{n}-u{u}" for n, _, u in NUMBERING_CASES]
)
def test_numbering_matches_the_naive_oracle(text, depth):
    # A full tree's nodes, read from its entries, and the ``-t`` calls of
    # both modes are the naive recursive numbering's nodes, in id order; no
    # id past them is a node.
    model = parse_model(text)
    dom = infer_domains(model)
    expected = numbered_full_tree(model, dom, depth)
    tree = build_tree(model, dom, depth, "full")
    assert tuple(map(list, zip(*nodes_by_id(tree).values()))) == expected
    for nid in (len(tree.nodes), -1):
        assert nid not in tree.nodes
    for mode in ("full", "race"):
        rows = zip(*expected)

        def trace(*node):
            assert node == next(rows)

        build_tree(model, dom, depth, mode, trace=trace)
        assert next(rows, None) is None
