"""Cross-check the engine + witness pipeline against the direct recursive
race-detection function, on the bundled example and on random models."""

import random

import pytest

from dynarace import (
    build_tree,
    extract_witnesses,
    infer_domains,
    initial_state,
    parse_model,
)
from conftest import path_to
from oracles import (
    pointwise_first_pair,
    random_model_text,
    rd_oracle,
    witness_label_sequences,
)


def pipeline_labels(model, dom, depth, mode="race"):
    tree = build_tree(model, dom, depth, mode)
    return witness_label_sequences(extract_witnesses(tree), dom), tree


def test_running_example_matches_oracle(sw_model, sw_dom):
    for depth in (0, 1, 2, 3, 4):
        expected = rd_oracle(
            initial_state(sw_model, depth).components, depth, sw_model, sw_dom
        )
        got, _ = pipeline_labels(sw_model, sw_dom, depth)
        assert got == expected


@pytest.mark.parametrize("seed", range(25))
def test_random_models_match_oracle(seed):
    rng = random.Random(seed)
    model = parse_model(random_model_text(rng))
    dom = infer_domains(model)
    depth = rng.randint(1, 4)
    expected = rd_oracle(
        initial_state(model, depth).components, depth, model, dom
    )
    got, _ = pipeline_labels(model, dom, depth)
    assert got == expected
    # full-mode extraction must agree as well
    got_full, _ = pipeline_labels(model, dom, depth, "full")
    assert got_full == expected


@pytest.mark.parametrize("seed", range(25))
def test_random_model_witnesses_replay(seed):
    from dynarace.engine import Analysis, successors

    rng = random.Random(seed + 1000)
    model = parse_model(random_model_text(rng))
    dom = infer_domains(model)
    tree = build_tree(model, dom, 4, "race")
    analysis = Analysis(model, dom)
    for w in extract_witnesses(tree):
        path = path_to(tree, w.racy_node_id)
        current = initial_state(model, 4)
        states = [current]
        for nid in path[1:]:
            wanted = tree.nodes[nid].label
            matches = [
                s for l, s in successors(current, analysis) if l == wanted
            ]
            # distinct summands may carry the same label, so match on the
            # state the tree actually reached
            target = tree.nodes[nid].state
            assert target in matches, "witness step does not replay"
            current = target
            states.append(current)
        assert current == tree.nodes[w.racy_node_id].state
        assert pointwise_first_pair(current.clocks) is not None
        assert pointwise_first_pair(states[-2].clocks) is None
