import gc
import random
import sys
import tracemalloc

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
from dynarace.model import Token, Var, infer_domains, load_model, parse_model
from dynarace.netkat import HashConsed
from conftest import ROOT, SW_MODEL_PATH, edges, path_to, pkt
from oracles import numbered_full_tree, random_model_text, wide_model_text

sys.path.insert(0, str(ROOT / "perfbench"))

from models import fanout_model  # noqa: E402


def children(tree, nid):
    """Child ids of ``nid`` in id order, from the ``parent`` links."""
    return [c for c, node in tree.nodes.items() if node.parent == nid]


def test_initial_state(sw_model):
    # The roots of two live parses are equal values with equal hashes, not
    # one object; their terms are the models' own hash-consed terms.
    again = load_model(SW_MODEL_PATH)
    for model in (sw_model, again):
        s = initial_state(model, 3)
        assert s.depth_remaining == 3
        assert s.components == ((Var("C"), (0, 0)), (Var("SW"), (0, 0)))
        assert s.terms == model.init
        assert all(a is b for a, b in zip(s.terms, model.init, strict=True))
    first, second = initial_state(sw_model, 3), initial_state(again, 3)
    assert first == second and hash(first) == hash(second)
    assert first is not second


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
    node1 = tree.nodes[1]
    succ = successors(node1.state, sw_analysis)
    assert len(succ) == 1
    label, after = succ[0]
    assert label == RcfgTransition(1, 0, "Help", Token("one"))
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
        tree = build_tree(sw_model, sw_dom, 3, "race")
        assert tree.nodes[5].state.racy_pair and tree.nodes[6].state.racy_pair
        assert path_to(tree, 5) == [0, 1, 3, 5]
        assert path_to(tree, 6) == [0, 1, 3, 6]
        clocks = [tree.nodes[n].state.clocks for n in (0, 1, 3, 5)]
        assert clocks == [
            ((0, 0), (0, 0)),
            ((0, 0), (0, 1)),
            ((1, 2), (0, 2)),
            ((1, 2), (0, 3)),
        ]

    def test_full_mode_contains_regular_branch(self, sw_model, sw_dom):
        tree = build_tree(sw_model, sw_dom, 3, "full")
        labels = [tree.nodes[c].label for c in children(tree, 0)]
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
            assert race.nodes.get(nid) is None
            with pytest.raises(KeyError):
                race.nodes[nid]
        for nid in (len(full.nodes), -1):
            assert nid not in full.nodes
            with pytest.raises(KeyError):
                full.nodes[nid]

    def test_states_share_the_cached_term_vectors(self, sw_model, sw_dom):
        # A child's terms equal the successor tuple of a ``_moves`` entry and
        # are the very same terms, also with a second parse alive, whose
        # equal states are the first parse's objects.
        again = load_model(SW_MODEL_PATH)
        for model, dom in ((sw_model, sw_dom), (again, infer_domains(again))):
            tree = build_tree(model, dom, 5, "full")
            analysis = Analysis(model, dom)
            for node in tree.nodes.values():
                successors(node.state, analysis)
            cached = {
                after: after
                for moves in analysis.moves.values()
                for *_, after in moves
            }
            for nid, node in tree.nodes.items():
                state = node.state
                if nid:
                    after = cached[state.terms]
                    assert all(a is b for a, b in zip(state.terms, after, strict=True))
                assert state.components == tuple(zip(state.terms, state.clocks))

    def test_clock_monotonicity(self, sw_model, sw_dom):
        tree = build_tree(sw_model, sw_dom, 4, "full")
        for parent, label, child in edges(tree):
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
        from oracles import clock_bump, clock_max

        tree = build_tree(sw_model, sw_dom, 4, "full")
        for parent, label, child in edges(tree):
            if not isinstance(label, RcfgTransition):
                continue
            before = tree.nodes[parent].state.clocks
            after = tree.nodes[child].state.clocks
            i, j = label.sender, label.receiver
            assert after[i] == clock_bump(before[i], i)
            assert after[j] == clock_bump(clock_max(after[i], before[j]), j)

    def test_packet_transitions_match_hnf(self, sw_model, sw_dom, sw_analysis):
        from dynarace.hnf import hnf

        tree = build_tree(sw_model, sw_dom, 3, "full")
        for parent, label, child in edges(tree):
            if not isinstance(label, PacketTransition):
                continue
            pstate = tree.nodes[parent].state
            term = pstate.components[label.actor][0]
            h = hnf(term, sw_analysis)
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
        # (structure, labels and racy pairs; node ids renumber).  Above
        # depth 0, an empty ``kids`` is a deadlock.
        def signature(tree, nid, depth_left):
            node = tree.nodes[nid]
            if depth_left == 0:
                return ("leaf", node.state.racy_pair)
            kids = tuple(
                (tree.nodes[c].label, signature(tree, c, depth_left - 1))
                for c in children(tree, nid)
            )
            return (node.state.racy_pair, kids)

        t3 = build_tree(sw_model, sw_dom, 3, "full")
        t4 = build_tree(sw_model, sw_dom, 4, "full")
        assert signature(t3, 0, 3) == signature(t4, 0, 3)


def first_races(full):
    """The ids of the full tree's racy nodes with no racy proper ancestor."""
    return [
        nid for nid, node in full.nodes.items()
        if node.state.racy_pair
        and not any(full.nodes[a].state.racy_pair for a in path_to(full, nid)[:-1])
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
    ends = first_races(full)
    keep = {0} | {a for nid in ends for a in path_to(full, nid)}
    expected = [full.nodes[nid] for nid in sorted(keep)]
    for tree in (race, traced):
        assert list(tree.nodes.values()) == expected
        assert list(tree.nodes) == sorted(keep)
    for tree in (race, full, traced):
        assert list(tree.nodes) == sorted(tree.nodes)
        assert sorted(w[-1].node_id for w in extract_witnesses(tree)) == ends


def expanded_states(tree, mode):
    """The distinct ``(terms, clocks, depth_remaining)`` values of the
    tree's nodes that a ``mode`` build expands: those with depth left and,
    in race mode, no racy ancestor-or-self."""
    racy_at_or_above = {None: False}  # the root's parent
    for nid, node in tree.nodes.items():
        # A KeyError here means a child was stored before its parent.
        racy_at_or_above[nid] = racy_at_or_above[node.parent] or node.state.racy_pair is not None
    return {
        (n.state.terms, n.state.clocks, n.state.depth_remaining)
        for nid, n in tree.nodes.items()
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
    states = [full.nodes[nid].state for nid in full.nodes]
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


def test_hash_cons_table_frees_a_dropped_tree():
    # The table holds its instances weakly: once a model and its tree are
    # dropped, their entries go by reference counting alone.  The model's
    # definitions are renamed, so no live model holds its terms already.
    text = SW_MODEL_PATH.read_text().replace("SW", "FreedSW")
    gc.collect()
    gc.disable()
    try:
        before = len(HashConsed._instances)
        model = parse_model(text)
        tree = build_tree(model, infer_domains(model), 6, "full")
        assert len(HashConsed._instances) > before
        del model, tree
        assert len(HashConsed._instances) == before
    finally:
        gc.enable()


def test_equal_states_of_two_live_builds_are_equal_not_shared():
    # Each build owns its states: two live builds of one model give equal
    # trees whose states are equal values, not shared objects, and no state
    # enters the hash-cons table.  Dropping both frees every entry they
    # added by reference counting alone.
    gc.collect()
    gc.disable()
    try:
        before = len(HashConsed._instances)
        model = load_model(SW_MODEL_PATH)
        dom = infer_domains(model)
        first = build_tree(model, dom, 6, "full")
        second = build_tree(model, dom, 6, "full")
        assert first == second
        assert not any(
            a.state is b.state for a, b in zip(first.nodes.values(), second.nodes.values())
        )
        assert not any(key[0] is SymbolicState for key in HashConsed._instances)
        del model, dom, first, second
        assert len(HashConsed._instances) == before
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
    # every non-root state of the tree is that object; and the process-wide
    # hash-cons table holds no state, during the build or after it.
    model = parse_model(text)
    analysis = Analysis(model, infer_domains(model))
    built = []
    real = engine.successors

    def recording(state, analysis):
        succ = real(state, analysis)
        built.extend(child for _, child in succ)
        return succ

    def no_state_in_hash_cons_table():
        return not any(key[0] is SymbolicState for key in HashConsed._instances)

    checked = []

    def trace(node_id, state, parent, label):
        if node_id % 97 == 1:
            checked.append(no_state_in_hash_cons_table())

    monkeypatch.setattr(engine, "successors", recording)
    tree = analysis.build(5, mode == "full", trace if traced else None)
    monkeypatch.undo()
    table = analysis.distinct
    assert len(table) == len(set(built)) > 1
    assert {id(s) for s in table.values()} == {id(s) for s in built}
    for key, state in table.items():
        assert key == (state.terms, state.clocks, state.depth_remaining)
    assert tree.root.state not in set(built)
    non_root = [node.state for nid, node in tree.nodes.items() if nid]
    assert non_root
    for s in non_root:
        assert s is table[s.terms, s.clocks, s.depth_remaining]
    assert checked == [True] * len(checked) and (len(checked) > 1) == traced
    assert no_state_in_hash_cons_table()


@pytest.mark.parametrize(
    "text, depth", [(SW_MODEL_PATH.read_text(), 6), (fanout_model(3), 5)], ids=["sw", "fanout"]
)
@pytest.mark.parametrize(
    "mode, traced",
    [("full", False), ("race", False), ("full", True), ("race", True)],
    ids=["full", "race", "full-t", "race-t"],
)
def test_tree_nodes_are_built_for_witness_steps_only(text, depth, mode, traced, monkeypatch):
    # A stored node is three list slots; only a witness step is a
    # ``TreeNode``, one object that every witness through that node holds.
    # ``trace`` gets each node's fields, not a ``TreeNode``.
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
    assert sum(map(len, tree.races)) > len(shared) > 0
    assert len(built) == len(shared)
    assert {id(node) for node in built} == {id(step) for step in shared.values()}
    assert all(tree.nodes[nid] == step for nid, step in shared.items())


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
    nodes = build_tree(model, infer_domains(model), depth, "full").nodes
    states = [state for _, kids in nodes.children[1:] for state in kids]
    assert states
    assert one_object_per_value(row for state in states for row in state.clocks)
    assert one_object_per_value(state.clocks for state in states)
    assert one_object_per_value(labels for labels, _ in nodes.children[1:])


def test_full_tree_keeps_under_100_bytes_per_node():
    # 24 934 nodes for 1316 distinct states: what a node keeps, not what a
    # state keeps, sets the size of a full tree.
    model = parse_model(fanout_model(3))
    dom = infer_domains(model)
    build_tree(model, dom, 6, "full")  # the domains' normal forms, once
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = build_tree(model, dom, 6, "full")
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nodes = len(tree.nodes)
    assert nodes == 24934
    assert kept / nodes <= 100


@pytest.mark.parametrize("depth, nodes, bound", [(6, 24934, 31), (7, 107728, 20)])
def test_full_tree_keeps_one_entry_per_expansion(depth, nodes, bound):
    # A node is one item of its parent's children tuple, which equal states
    # share; only an expanded node keeps slots of its own, two list slots
    # and its boxed id.  Equal clock rows, clock vectors and labels tuples
    # are one object.  Measured 28.9 and 18.9 bytes per node (37.7 and 23.2
    # when each state held its own rows and vector).
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
    nodes = build_tree(model, infer_domains(model), 6, "race").nodes
    assert (len(nodes), len(nodes.children)) == (280, 53)
    stored = list(nodes.values())
    assert nodes.parents == [None, *dict.fromkeys(node.parent for node in stored[1:])]
    kept = iter(stored)
    for parent, (labels, states) in zip(nodes.parents, nodes.children, strict=True):
        for label, state, node in zip(labels, states, kept):
            assert (node.parent, node.label, node.state) == (parent, label, state)
    assert next(kept, None) is None


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
    # A full tree's nodes, read by id, and the ``-t`` calls of both modes
    # are the naive recursive numbering's nodes, in id order; no id past
    # them is a node.
    model = parse_model(text)
    dom = infer_domains(model)
    expected = numbered_full_tree(model, dom, depth)
    nodes = build_tree(model, dom, depth, "full").nodes
    assert tuple(map(list, zip(*[nodes[nid] for nid in nodes]))) == expected
    for nid in (len(nodes), -1):
        assert nid not in nodes
        with pytest.raises(KeyError):
            nodes[nid]
    for mode in ("full", "race"):
        rows = zip(*expected)

        def trace(*node):
            assert node == next(rows)

        build_tree(model, dom, depth, mode, trace=trace)
        assert next(rows, None) is None
