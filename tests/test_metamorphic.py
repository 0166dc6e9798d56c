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
  and the witnesses unchanged;
- init rotation: moving the first component of ``init`` to the end
  leaves the exit code and the witnesses unchanged, and renames the
  racing pairs of each witness's racy state by the rotation;
- an idle component, node by node: appending ``bot`` to ``init`` keeps
  every node's id, parent, label and racy pair, and only adds a trailing
  0 to every clock row and an all-zero row;
- prefixed names: prefixing every definition, channel, token, field and
  value name with one letter leaves the exit code and renames the
  witnesses' labels.

Each relation runs over ``random_model_text`` seeds 0-99 and
``wide_model_text`` seeds 0-59 at u = 1...4, 640 cases; the depth,
init-order, rotation, node-by-node and prefix relations also over the
bundled model and ``fanout_model`` seeds 0-2.
"""

import io
import random
import re
import sys
from functools import cache
from itertools import combinations

import pytest

from dynarace.cli import RunConfig, run
from dynarace.domains import residual_token
from dynarace.engine import build_tree
from dynarace.model import infer_domains, parse_model
from dynarace.races import extract_witnesses
from conftest import ROOT, SW_MODEL_PATH, shape
from oracles import (
    clocks_concurrent,
    random_model_text,
    wide_model_text,
    witness_label_sequences,
)

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


def racing_witnesses(text: str) -> tuple:
    """The domains of a fresh parse of ``text``, and at each ``-u`` depth
    of ``DEPTHS`` the ``(label sequence, racing pairs)`` of each witness:
    every ``(i, j)``, ``i < j``, whose clocks in the racy state are
    incomparable, compared pointwise."""
    model = parse_model(text)
    dom = infer_domains(model)
    pairs = {}  # clocks -> their racing pairs

    def racing(clocks):
        if clocks not in pairs:
            pairs[clocks] = frozenset(
                (i, j)
                for i, j in combinations(range(len(clocks)), 2)
                if clocks_concurrent(clocks[i], clocks[j])
            )
        return pairs[clocks]

    found = {}
    for u in DEPTHS:
        races = build_tree(model, dom, u, "race").races
        found[u] = {
            (*witness_label_sequences([w], dom), racing(w[-1].state.clocks)) for w in races
        }
    return dom, found


@pytest.fixture(scope="module")
def exit_code(tmp_path_factory):
    """The CLI's exit code on a model text at ``-u depth``, each once per
    module: the rotation and prefix relations share the original's."""
    model = tmp_path_factory.mktemp("exit") / "model.dnk"
    return cache(lambda text, depth: run_cli(model, text, depth)[0])


def rotated_init(text: str) -> str:
    return with_init(text, lambda comps: [*comps[1:], comps[0]])


@pytest.mark.parametrize("family", FAMILIES)
def test_rotating_init_keeps_the_exit_code_and_renames_the_racing_pairs(family, exit_code):
    failed, raced = [], 0
    for seed, text in texts(FAMILIES, family):
        rotated = rotated_init(text)
        assert rotated != text
        n = len(parse_model(text).init)
        found, got = racing_witnesses(text)[1], racing_witnesses(rotated)[1]
        for u in DEPTHS:
            # The component at position k moves to position k - 1.
            renamed = {
                (labels, frozenset(tuple(sorted((i - 1) % n for i in pair)) for pair in pairs))
                for labels, pairs in found[u]
            }
            if exit_code(rotated, u) != exit_code(text, u) or got[u] != renamed:
                failed.append((seed, u))
            raced += bool(found[u])
    assert failed == []
    assert raced  # the relation is not checked on empty sets alone


def with_idle_column(tree, idle) -> bool:
    """Whether ``idle`` is ``tree`` with one more component that never
    moves: the same node ids, parents, labels and racy pairs, each clock
    row with a trailing 0 and an all-zero row at the end.  The trees come
    from two parses, so a policy message is compared by its shape."""
    if (tree.nodes, tree.parents) != (idle.nodes, idle.parents):
        return False
    checked = set()  # full trees share an entry among equal states
    for (labels, states), (idle_labels, idle_states) in zip(tree.children, idle.children):
        if (id(states), id(idle_states)) in checked:
            continue
        checked.add((id(states), id(idle_states)))
        if len(states) != len(idle_states) or (
            labels != idle_labels and shape(labels) != shape(idle_labels)
        ):
            return False
        for state, idle_state in zip(states, idle_states):
            widened = tuple(row + (0,) for row in state.clocks)
            zero = (0,) * (len(state.clocks) + 1)
            if (idle_state.racy_pair, idle_state.clocks) != (state.racy_pair, (*widened, zero)):
                return False
    return True


@pytest.mark.parametrize("family", FAMILIES)
def test_an_idle_component_adds_a_clock_column_and_a_zero_row(family):
    failed, raced = [], 0
    for seed, text in texts(FAMILIES, family):
        models = [parse_model(t) for t in (text, with_init(text, lambda c: [*c, "bot"]))]
        doms = [infer_domains(model) for model in models]
        for u in DEPTHS:
            for mode in ("race", "full"):
                tree, idle = (build_tree(m, dom, u, mode) for m, dom in zip(models, doms))
                if not with_idle_column(tree, idle):
                    failed.append((seed, u, mode))
                raced += bool(tree.races)
    assert failed == []
    assert raced  # the relation is not checked on race-free trees alone


PREFIX = "q"
# Kept as they are: comments, ``o+``, the keywords and ``bot``; a quoted
# policy keeps its text but for the field and value of each test and
# assignment.
_MODEL_WORDS = re.compile(r'//[^\n]*|o\+|"[^"]*"|\w+')
_KEPT = {"def", "init", "channels", "fields", "bot"}
_POLICY_ATOM = re.compile(r"\(\s*(\w+)\s*(=|<-)\s*(\w+)\s*\)")


def prefixed_names(text: str) -> str:
    """``text`` with every definition, channel, token, field and value name
    prefixed with ``PREFIX``."""

    def word(m):
        w = m[0]
        if w.startswith('"'):
            return _POLICY_ATOM.sub(lambda a: f"({PREFIX}{a[1]} {a[2]} {PREFIX}{a[3]})", w)
        if w.startswith("//") or w == "o+" or w in _KEPT:
            return w
        return PREFIX + w

    return _MODEL_WORDS.sub(word, text)


def prefixed_labels(labels: tuple, dom) -> tuple:
    """A witness label sequence of a model over ``dom``, as it reads once the
    model's names are prefixed: a residual value follows its field's name."""

    def packet(p):
        return tuple(
            residual_token(PREFIX + f) if v == residual_token(f) else PREFIX + v
            for f, v in zip(dom.fields, p)
        )

    out = []
    for label in labels:
        if label[0] == "pkt":
            out.append(("pkt", packet(label[1])))
            continue
        _, channel, (kind, message) = label
        if kind == "token":
            message = PREFIX + message
        else:
            message = tuple((packet(alpha), packet(pi)) for alpha, pi in message)
        out.append(("rcfg", PREFIX + channel, (kind, message)))
    return tuple(out)


@pytest.mark.parametrize("family", FAMILIES)
def test_prefixing_every_name_keeps_the_exit_code_and_renames_the_witnesses(family, exit_code):
    failed, raced = [], 0
    for seed, text in texts(FAMILIES, family):
        prefixed = prefixed_names(text)
        dom, found = racing_witnesses(text)
        got = racing_witnesses(prefixed)[1]
        for u in DEPTHS:
            renamed = {prefixed_labels(labels, dom) for labels, _ in found[u]}
            got_labels = {labels for labels, _ in got[u]}
            if exit_code(prefixed, u) != exit_code(text, u) or got_labels != renamed:
                failed.append((seed, u))
            raced += bool(found[u])
    assert failed == []
    assert raced  # the relation is not checked on empty sets alone
