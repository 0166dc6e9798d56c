"""Metamorphic relations between two runs (Chen, Cheung and Yiu,
"Metamorphic testing", HKUST-CS98-01, 1998).

The oracles in ``oracles.py`` read the same rules the engine implements;
a relation between two runs needs no second implementation.  Each run
parses the model anew, so the relations compare the witnesses of two
parses by value: label sequences of packets and message normal forms.

- depth: the witnesses at ``-u k`` are those at ``-u k+1`` of length at
  most ``k``;
- init order: reversing the components of ``init`` leaves the witnesses
  unchanged.

Run over ``random_model_text`` seeds 0-99 and ``wide_model_text`` seeds
0-59 at u = 1...4: 640 cases per relation, about 2 s in all.
"""

import random

import pytest

from dynarace.engine import build_tree
from dynarace.model import infer_domains, parse_model
from dynarace.races import extract_witnesses
from oracles import random_model_text, wide_model_text, witness_label_sequences

FAMILIES = {"random": (random_model_text, 100), "wide": (wide_model_text, 60)}
DEPTHS = range(1, 5)


def witnesses(text: str, depth: int) -> set:
    """The witness label sequences of a fresh parse of ``text`` at ``-u depth``."""
    model = parse_model(text)
    dom = infer_domains(model)
    return witness_label_sequences(extract_witnesses(build_tree(model, dom, depth, "race")), dom)


def reversed_init(text: str) -> str:
    """``text`` with the components of its last line, the ``init``, reversed."""
    head, init = text.rstrip("\n").rsplit("\n", 1)
    comps = init.removeprefix("init ").removesuffix(" ;").split(" || ")
    return f"{head}\ninit {' || '.join(reversed(comps))} ;\n"


def texts(family: str):
    generate, seeds = FAMILIES[family]
    for seed in range(seeds):
        yield seed, generate(random.Random(seed))


@pytest.mark.parametrize("family", FAMILIES)
def test_a_shallower_run_keeps_the_short_witnesses(family):
    failed, longer = [], 0
    for seed, text in texts(family):
        found = {u: witnesses(text, u) for u in (*DEPTHS, DEPTHS[-1] + 1)}
        for u in DEPTHS:
            if found[u] != {w for w in found[u + 1] if len(w) <= u}:
                failed.append((seed, u))
            longer += any(len(w) > u for w in found[u + 1])
    assert failed == []
    assert longer  # some case has witnesses the shallower run cuts off


@pytest.mark.parametrize("family", FAMILIES)
def test_reversing_init_keeps_the_witnesses(family):
    failed, raced = [], 0
    for seed, text in texts(family):
        flipped = reversed_init(text)
        assert flipped != text and reversed_init(flipped) == text
        for u in DEPTHS:
            found = witnesses(text, u)
            if witnesses(flipped, u) != found:
                failed.append((seed, u))
            raced += bool(found)
    assert failed == []
    assert raced  # the relation is not checked on empty sets alone
