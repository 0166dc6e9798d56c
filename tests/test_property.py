"""Property tests over generated models: race mode against the full tree
and against the recursive race oracle."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dynarace import build_tree, extract_witnesses, infer_domains, initial_state, parse_model
from oracles import random_model_text, rd_oracle, witness_label_sequences
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
        path = tree.path_to(w.racy_node_id)[1:]
        assert len(w.steps) == len(path)
        assert all(step is tree.nodes[n] for step, n in zip(w.steps, path))
