import random
import sys

import pytest

from dynarace import build_tree, infer_domains, parse_model
from dynarace.clocks import clock_bump, clock_max, first_concurrent_pair
from conftest import ROOT, SW_MODEL_PATH
from oracles import (
    LengthMismatch,
    clock_leq,
    clocks_concurrent,
    pointwise_first_pair,
    random_model_text,
)

sys.path.insert(0, str(ROOT / "perfbench"))

from models import fanout_model  # noqa: E402


def test_reference_pairs():
    assert clock_leq((0, 2), (1, 2))
    assert not clocks_concurrent((0, 2), (1, 2))
    assert clocks_concurrent((1, 2), (0, 3))
    assert not clock_leq((1, 2), (0, 3))
    assert not clock_leq((0, 3), (1, 2))
    assert clocks_concurrent((3, 0), (2, 1))
    assert not clocks_concurrent((2, 0), (2, 1))


def test_reflexive():
    assert clock_leq((0, 0), (0, 0))
    assert not clocks_concurrent((0, 0), (0, 0))


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        clock_leq((1, 2), (1, 2, 3))
    with pytest.raises(LengthMismatch):
        clocks_concurrent((1,), (1, 2))


def random_clock(rng, n):
    return tuple(rng.randint(0, 10) for _ in range(n))


def test_partial_order_laws():
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randint(1, 6)
        v, w, u = (random_clock(rng, n) for _ in range(3))
        assert clock_leq(v, v)
        if clock_leq(v, w) and clock_leq(w, v):
            assert v == w
        if clock_leq(v, w) and clock_leq(w, u):
            assert clock_leq(v, u)
        assert clocks_concurrent(v, w) == clocks_concurrent(w, v)
        assert not clocks_concurrent(v, v)


def test_helpers():
    assert clock_bump((0, 2), 0) == (1, 2)
    assert clock_max((1, 0, 5), (0, 3, 5)) == (1, 3, 5)
    assert pointwise_first_pair([(0, 0), (1, 2), (0, 3)]) == (1, 2)
    assert pointwise_first_pair([(0, 0), (0, 1)]) is None
    # Clocks a run can reach: each entry at most its owner's own count.
    assert first_concurrent_pair([(1, 0, 0), (1, 2, 0), (0, 0, 1)]) == (0, 2)
    assert first_concurrent_pair([(1, 0), (1, 1)]) is None
    assert first_concurrent_pair([(0, 0), (0, 0)]) is None


@pytest.mark.parametrize(
    "text, depth",
    [(SW_MODEL_PATH.read_text(), 6), (fanout_model(3), 5)]
    + [(random_model_text(random.Random(seed)), 4) for seed in range(50)],
    ids=["sw", "fanout"] + [f"random{seed}" for seed in range(50)],
)
def test_diagonal_rule_matches_pointwise_order(text, depth):
    # The race check reads only clock diagonals; it is exact because no
    # component has seen more of another's events than that one has had.
    model = parse_model(text)
    tree = build_tree(model, infer_domains(model), depth, "full")
    for state in {node.state for node in tree.nodes.values()}:
        clocks = state.clocks
        for clock in clocks:
            for k, other in enumerate(clocks):
                assert clock[k] <= other[k]
                assert clock_leq(other, clock) == (clock[k] == other[k])
        assert state.racy_pair == pointwise_first_pair(clocks)
