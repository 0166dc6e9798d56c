"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
PASS/FAIL line directly to the terminal (bypassing capture) so the
verdicts are visible in any pytest run.
"""

import itertools
import random
import shutil
import time

import pytest

from dynarace.domains import FieldDomains
from dynarace.races import extract_witnesses, witness_packets
from dynarace.model import infer_domains, parse_model
from dynarace.render import render_traces
from dynarace.cli import main
from dynarace.netkat import Neg, One, Seq, Star, Union, normal_form
from dynarace.engine import Analysis, build_tree, initial_state, successors

from conftest import SW_MODEL_PATH, nodes_by_id, path_to, pkt
from oracles import (
    clock_leq,
    clocks_concurrent,
    oracle_eval,
    oracle_is_predicate,
    pointwise_first_pair,
    random_domains,
    random_model_text,
    random_policy,
    rd_oracle,
    rel_compose,
    rel_rtc,
    witness_label_sequences,
)


def _verdict(capfd, label, body):
    """Run ``body``, print one PASS/FAIL line for ``label``, re-raise."""
    err = None
    try:
        body()
    except BaseException as exc:  # report FAIL for any outcome
        err = exc
    with capfd.disabled():
        print(f"{'PASS' if err is None else 'FAIL'}: {label}")
    if err is not None:
        raise err


@pytest.fixture(scope="module")
def policy_corpus():
    """500 random policies with their domains, shared by criteria 4 and 5."""
    rng = random.Random(20240817)
    corpus = []
    for _ in range(500):
        dom = random_domains(rng)
        corpus.append((random_policy(rng, dom, 5), dom))
    return corpus


def run_cli(capfd, *argv):
    code = main(list(argv))
    out, err = capfd.readouterr()
    return code, out, err


def test_criterion_1_tree_reproduction(sw_model, sw_dom, capfd):
    def body():
        start = time.perf_counter()
        tree = build_tree(sw_model, sw_dom, 3, "race")
        witnesses = extract_witnesses(tree)
        elapsed = time.perf_counter() - start
        nodes = nodes_by_id(tree)
        paths = [path_to(nodes, w[-1].node_id) for w in witnesses]
        assert paths == [[0, 1, 3, 5], [0, 1, 3, 6]]
        clocks = {
            nid: nodes[nid].state.clocks
            for path in paths
            for nid in path
        }
        assert clocks[0] == ((0, 0), (0, 0))
        assert clocks[1] == ((0, 0), (0, 1))
        assert clocks[3] == ((1, 2), (0, 2))
        assert clocks[5] == ((1, 2), (0, 3))
        assert clocks[6] == ((1, 2), (0, 3))
        assert nodes[5].state.racy_pair and nodes[6].state.racy_pair
        assert tree.component_names == ("C", "SW")
        assert elapsed < 1.0
    _verdict(capfd, "criterion 1 (tree reproduction, depth 3)", body)


def test_criterion_2_trace_reproduction(sw_model, sw_dom, capfd):
    def body():
        tree = build_tree(sw_model, sw_dom, 3, "race")
        witnesses = extract_witnesses(tree)
        assert len(witnesses) == 2

        blocking = pkt(sw_dom, flag="blocking", pt=1)
        regular = pkt(sw_dom, flag="regular", pt=1)
        assert witness_packets(witnesses[0]) == [blocking, blocking]
        assert witness_packets(witnesses[1]) == [blocking, regular]
        names = tree.component_names
        for w, leaf in zip(witnesses, (5, 6)):
            assert [s.node_id for s in w] == [1, 3, leaf]
            labels = [s.label for s in w]
            assert names[labels[0].actor] == "SW"
            assert (names[labels[1].sender], names[labels[1].receiver]) == ("SW", "C")
            assert labels[1].channel == "Help"
            assert names[labels[2].actor] == "SW"

        report = render_traces(witnesses, tree)
        assert '"(flag = blocking) . (pt = 1)"; rcfg(\'Help\', \'"one"\'); ' \
            '"(flag = blocking) . (pt = 1)"' in report
        assert '"(flag = blocking) . (pt = 1)"; rcfg(\'Help\', \'"one"\'); ' \
            '"(flag = regular) . (pt = 1)"' in report
        assert '[SW] "(flag = blocking) . (pt = 1)" ' \
            "{C[0, 0] || SW[0, 1]} nid:1;" in report
        assert "[SW -> C] rcfg('Help', '\"one\"') " \
            "{C[1, 2] || SW[0, 2]} nid:3;" in report
        assert '[SW] "(flag = blocking) . (pt = 1)" ' \
            "{C[1, 2] || SW[0, 3]} nid:5;" in report
        assert '[SW] "(flag = regular) . (pt = 1)" ' \
            "{C[1, 2] || SW[0, 3]} nid:6;" in report
    _verdict(capfd, "criterion 2 (trace reproduction)", body)


def test_criterion_3_race_boundary(sw_model, sw_dom, tmp_path, capfd):
    def body():
        assert extract_witnesses(build_tree(sw_model, sw_dom, 2, "race")) == []
        deep = extract_witnesses(build_tree(sw_model, sw_dom, 3, "race"))
        assert len(deep) == 2
        # A copy, so that the DOT lands beside it, not in the checkout.
        model = tmp_path / SW_MODEL_PATH.name
        shutil.copy(SW_MODEL_PATH, model)
        code2, *_ = run_cli(capfd, str(model), "-u2")
        code3, *_ = run_cli(capfd, str(model), "-u3")
        assert (code2, code3) == (0, 1)
    _verdict(capfd, "criterion 3 (race boundary at depth 2/3)", body)


def test_criterion_4_normal_form_oracle(policy_corpus, capfd):
    def body():
        start = time.perf_counter()
        for p, dom in policy_corpus:
            expected = {
                (alpha, pi)
                for alpha in itertools.product(*dom.values)
                for pi in oracle_eval(p, alpha, dom)
            }
            assert set(normal_form(p, dom)) == expected
        assert time.perf_counter() - start < 60.0
    _verdict(capfd, "criterion 4 (normal form vs oracle, 500 policies)", body)


def test_criterion_5_kat_relation_laws(policy_corpus, capfd):
    def body():
        rng = random.Random(5)
        for p, dom in policy_corpus:
            q = random_policy(rng, dom, 3)
            rp = set(normal_form(p, dom))
            rq = set(normal_form(q, dom))
            assert set(normal_form(Union(p, q), dom)) == rp | rq
            assert set(normal_form(Seq(p, q), dom)) == rel_compose(rp, rq)
            assert set(normal_form(Star(p), dom)) == rel_rtc(rp, dom)
            a = Neg(Neg(Seq(q, q))) if oracle_is_predicate(q) else Neg(Neg(One()))
            assert set(normal_form(a, dom)) == set(normal_form(a.pred.pred, dom))
    _verdict(capfd, "criterion 5 (KAT relation laws)", body)


def test_criterion_6_clock_algebra(capfd):
    def body():
        rng = random.Random(6)

        def clock(n):
            return tuple(rng.randint(0, 10) for _ in range(n))

        for _ in range(10000):
            n = rng.randint(1, 6)
            a, b, c = clock(n), clock(n), clock(n)
            assert clock_leq(a, a)
            if clock_leq(a, b) and clock_leq(b, a):
                assert a == b
            if clock_leq(a, b) and clock_leq(b, c):
                assert clock_leq(a, c)
            assert clocks_concurrent(a, b) == clocks_concurrent(b, a)
            assert not clocks_concurrent(a, a)
            assert clocks_concurrent(a, b) == (
                not clock_leq(a, b) and not clock_leq(b, a)
            )
        assert clock_leq((0, 2), (1, 2))
        assert not clocks_concurrent((1, 2), (0, 2))
        assert clocks_concurrent((1, 2), (0, 3))
        assert clocks_concurrent((3, 0), (2, 1))
    _verdict(capfd, "criterion 6 (clock algebra, 10000 pairs)", body)


def test_criterion_7_recursive_oracle_equivalence(sw_model, sw_dom, capfd):
    def body():
        def labels(model, dom, depth):
            tree = build_tree(model, dom, depth, "race")
            return witness_label_sequences(extract_witnesses(tree), dom)

        for depth in range(5):
            expected = rd_oracle(
                initial_state(sw_model, depth).components,
                depth, sw_model, sw_dom,
            )
            assert labels(sw_model, sw_dom, depth) == expected

        rng = random.Random(7)
        for _ in range(20):
            model = parse_model(random_model_text(rng))
            dom = infer_domains(model)
            depth = rng.randint(1, 4)
            expected = rd_oracle(
                initial_state(model, depth).components, depth, model, dom
            )
            assert labels(model, dom, depth) == expected
    _verdict(capfd, "criterion 7 (recursive race oracle, 20 models)", body)


def _replay_and_check(model, dom, depth):
    tree = build_tree(model, dom, depth, "race")
    analysis = Analysis(model, dom)

    nodes = nodes_by_id(tree)
    for w in extract_witnesses(tree):
        path = path_to(nodes, w[-1].node_id)
        current = initial_state(model, depth)
        states = [current]
        for nid in path[1:]:
            wanted = nodes[nid].label
            options = [
                s for lbl, s in successors(current, analysis) if lbl == wanted
            ]
            target = nodes[nid].state
            assert target in options
            current = target
            states.append(current)
        assert pointwise_first_pair(states[-1].clocks) is not None
        assert pointwise_first_pair(states[-2].clocks) is None


def test_criterion_8_witness_minimality(sw_model, sw_dom, capfd):
    def body():
        _replay_and_check(sw_model, sw_dom, 3)
        rng = random.Random(8)
        for _ in range(20):
            model = parse_model(random_model_text(rng))
            dom = infer_domains(model)
            _replay_and_check(model, dom, 4)
    _verdict(capfd, "criterion 8 (witness validity and minimality)", body)


def test_criterion_9_determinism(tmp_path, capfd):
    def body():
        import shutil

        model = tmp_path / "sw_controller.dnk"
        shutil.copy(SW_MODEL_PATH, model)
        dot = tmp_path / "sw_controller.dot"
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(capfd, str(model), "-u3", "-grace")
            runs.append((code, out.encode(), dot.read_bytes()))
        assert runs[0] == runs[1]
    _verdict(capfd, "criterion 9 (byte-identical reruns)", body)
