"""Metamorphic relations between two runs (Chen, Cheung and Yiu,
"Metamorphic testing", HKUST-CS98-01, 1998).

The oracles in ``oracles.py`` read the same rules the engine implements;
a relation between two runs needs no second implementation.  Each run
parses the model anew, so the relations compare the witnesses of two
parses by value: label sequences of packets and message normal forms.

- depth: the witnesses at ``-u k`` are those at ``-u k+1`` of length at
  most ``k``;
- init order: reversing the components of ``init`` leaves the witnesses
  unchanged;
- redundant text: repeating each definition's first summand at the end
  of its body, or adding the unreachable ``def Unused = bot ;``, leaves
  the exit code, report and DOT byte for byte;
- an idle component: appending ``bot`` to ``init`` leaves the exit code
  and the witnesses unchanged;
- renaming: renaming every definition consistently leaves the exit code
  and the witnesses unchanged.

Each relation runs over ``random_model_text`` seeds 0-99 and
``wide_model_text`` seeds 0-59 at u = 1...4, 640 cases; the depth and
init-order relations also over the bundled model and ``fanout_model``
seeds 0-2.
"""

import io
import random
import re
import sys

import pytest

from dynarace.cli import RunConfig, run
from dynarace.engine import build_tree
from dynarace.model import infer_domains, parse_model
from dynarace.races import extract_witnesses
from conftest import ROOT, SW_MODEL_PATH
from oracles import random_model_text, wide_model_text, witness_label_sequences

sys.path.insert(0, str(ROOT / "perfbench"))

from models import fanout_model  # noqa: E402

# Each family: a model text by seed, and the number of seeds.
SEEDED = {
    "random": (lambda seed: random_model_text(random.Random(seed)), 100),
    "wide": (lambda seed: wide_model_text(random.Random(seed)), 60),
}
FAMILIES = {
    **SEEDED,
    "bundled": (lambda seed: SW_MODEL_PATH.read_text(), 1),
    "fanout": (fanout_model, 3),
}
DEPTHS = range(1, 5)


def witnesses(text: str, depth: int) -> set:
    """The witness label sequences of a fresh parse of ``text`` at ``-u depth``."""
    model = parse_model(text)
    dom = infer_domains(model)
    return witness_label_sequences(extract_witnesses(build_tree(model, dom, depth, "race")), dom)


def run_cli(path, text: str, depth: int) -> tuple:
    """The exit code, stdout, stderr and DOT of a CLI run on ``text``,
    written to ``path``, at ``-u depth``."""
    path.write_text(text)
    dot = path.with_suffix(".dot")
    dot.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(str(path), depth, "race"), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue(), dot.read_bytes() if dot.exists() else None


def with_init(text: str, change) -> str:
    """``text`` with ``change`` applied to the components of its last line,
    the ``init``."""
    head, init = text.rstrip("\n").rsplit("\n", 1)
    comps = init.removeprefix("init ").removesuffix(" ;").split(" || ")
    return f"{head}\ninit {' || '.join(change(comps))} ;\n"


def reversed_init(text: str) -> str:
    return with_init(text, lambda comps: comps[::-1])


def first_summand(body: str) -> str:
    """The text of ``body`` up to its first ``o+`` outside parentheses."""
    depth, quoted = 0, False
    for i, c in enumerate(body):
        quoted ^= c == '"'
        if not quoted:
            depth += {"(": 1, ")": -1}.get(c, 0)
            if depth == 0 and body.startswith(" o+ ", i):
                return body[:i]
    return body


def repeated_first_summands(text: str) -> str:
    """``text`` with each one-line definition ``def X = s o+ … ;`` made
    ``def X = s o+ … o+ s ;``."""

    def repeat(m):
        return f"{m[1]}{m[2]} o+ {first_summand(m[2])} ;"

    return re.sub(r"^(def \w+ = )(.*) ;$", repeat, text, flags=re.M)


def with_unused_definition(text: str) -> str:
    head, init = text.rstrip("\n").rsplit("\n", 1)
    return f"{head}\ndef Unused = bot ;\n{init}\n"


def renamed_definitions(text: str) -> str:
    """``text`` with each definition ``Pi`` renamed ``Q(9-i)``: the names
    change and so does their sorted order."""
    return re.sub(r"\bP(\d)\b", lambda m: f"Q{9 - int(m[1])}", text)


# Each change to a model text, and whether it keeps every output byte (the
# exit code, report and DOT) or the exit code and the witnesses.
VARIANTS = {
    "summand": (repeated_first_summands, True),
    "unused": (with_unused_definition, True),
    "idle-component": (lambda text: with_init(text, lambda comps: [*comps, "bot"]), False),
    "renamed": (renamed_definitions, False),
}


def texts(families, family: str):
    generate, seeds = families[family]
    for seed in range(seeds):
        yield seed, generate(seed)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_shallower_run_keeps_the_short_witnesses(family):
    failed, longer = [], 0
    for seed, text in texts(FAMILIES, family):
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
    for seed, text in texts(FAMILIES, family):
        flipped = reversed_init(text)
        assert flipped != text and reversed_init(flipped) == text
        for u in DEPTHS:
            found = witnesses(text, u)
            if witnesses(flipped, u) != found:
                failed.append((seed, u))
            raced += bool(found)
    assert failed == []
    assert raced  # the relation is not checked on empty sets alone


@pytest.mark.parametrize("family", SEEDED)
def test_redundant_text_an_idle_component_or_renaming_keeps_the_outputs(family, tmp_path):
    failed, raced = [], 0
    model = tmp_path / "model.dnk"
    for seed, text in texts(SEEDED, family):
        changed = {name: change(text) for name, (change, _) in VARIANTS.items()}
        assert text not in changed.values()
        for u in DEPTHS:
            outputs, found = run_cli(model, text, u), witnesses(text, u)
            for name, (_, every_byte) in VARIANTS.items():
                got = run_cli(model, changed[name], u)
                if every_byte:
                    kept = got == outputs
                else:
                    kept = (got[0], witnesses(changed[name], u)) == (outputs[0], found)
                if not kept:
                    failed.append((name, seed, u))
            raced += bool(found)
    assert failed == []
    assert raced  # the relations are not checked on race-free runs alone
