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
  witnesses' labels, and renames the report (``-t`` lines included) in
  its name positions only;
- reversed values: renaming each field's values by the bijection that
  reverses their order in the domains leaves the exit code and renames
  the witnesses' labels, though sibling order and node ids may change.

Each relation runs over ``random_model_text`` seeds 0-99 and
``wide_model_text`` seeds 0-59 at u = 1...4, 640 cases; the depth,
init-order, rotation, node-by-node, prefix and value-reversal relations
also over the bundled model and ``fanout_model`` seeds 0-2.
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


def run_cli(path, text: str, depth: int, show_steps=False) -> tuple:
    """The exit code, stdout, stderr and DOT of a CLI run on ``text``,
    written to ``path``, at ``-u depth``, with ``-t`` if ``show_steps``."""
    path.write_text(text)
    dot = path.with_suffix(".dot")
    dot.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(str(path), depth, "race", show_steps=show_steps)
    code = run(config, stdout=out, stderr=err)
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
def racing():
    """``racing_witnesses``, once per text and module: the rotation, prefix
    and value-reversal relations share the original's."""
    return cache(racing_witnesses)


@pytest.fixture(scope="module")
def cli_output(tmp_path_factory):
    """The ``run_cli`` outputs, with ``-t``, on a model text at ``-u
    depth``, each once per module: the rotation, prefix and value-reversal
    relations share the original's, and the two prefix relations the
    prefixed model's."""
    model = tmp_path_factory.mktemp("cli") / "model.dnk"
    return cache(lambda text, depth: run_cli(model, text, depth, show_steps=True))


def rotated_init(text: str) -> str:
    return with_init(text, lambda comps: [*comps[1:], comps[0]])


@pytest.mark.parametrize("family", FAMILIES)
def test_rotating_init_keeps_the_exit_code_and_renames_the_racing_pairs(family, racing, cli_output):
    failed, raced = [], 0
    for seed, text in texts(FAMILIES, family):
        rotated = rotated_init(text)
        assert rotated != text
        n = len(parse_model(text).init)
        found, got = racing(text)[1], racing(rotated)[1]
        for u in DEPTHS:
            # The component at position k moves to position k - 1.
            renamed = {
                (labels, frozenset(tuple(sorted((i - 1) % n for i in pair)) for pair in pairs))
                for labels, pairs in found[u]
            }
            if cli_output(rotated, u)[0] != cli_output(text, u)[0] or got[u] != renamed:
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
def test_prefixing_every_name_keeps_the_exit_code_and_renames_the_witnesses(family, racing, cli_output):
    failed, raced = [], 0
    for seed, text in texts(FAMILIES, family):
        prefixed = prefixed_names(text)
        dom, found = racing(text)
        got = racing(prefixed)[1]
        for u in DEPTHS:
            renamed = {prefixed_labels(labels, dom) for labels, _ in found[u]}
            got_labels = {labels for labels, _ in got[u]}
            if cli_output(prefixed, u)[0] != cli_output(text, u)[0] or got_labels != renamed:
                failed.append((seed, u))
            raced += bool(found[u])
    assert failed == []
    assert raced  # the relation is not checked on empty sets alone


# The parts of a report's lines that hold names, by kind: a ``-t`` line
# after its ids, and a long trace's line before its id (a short trace's is
# a ``; `` list of steps).  No component name holds a bracket, a brace or
# `` -> ``, and no step a brace.  Lines repeat these parts, so
# ``prefixed_report`` renames each distinct part once.
_TRACING_IDS = re.compile(r"tracing: nid:\d+(?: -> nid:\d+)? ")
_TRACING_PART = re.compile(r"(?:(?P<label>.*) )?\{(?P<state>.*)\}")
_LONG_PART = re.compile(r"(?:\[(?P<actors>[^]]*)\] (?P<step>.*) )?\{(?P<state>.*)\}")
_RCFG = re.compile(r"rcfg\('(\w+)', '\"(.*)\"'\)")
_VALUE = r"(<\w+:other>|\w+)"
_TEST = re.compile(rf"\((\w+) (=|<-) {_VALUE}\)")
_PACKET_ENTRY = re.compile(rf"(\w+)={_VALUE}")
_COMPONENT = re.compile(r"(.*)(\[[\d, ]*\])")


def prefixed_value(field: str, value: str) -> str:
    return residual_token(PREFIX + field) if value == residual_token(field) else PREFIX + value


def prefixed_policy(text: str) -> str:
    """A rendered policy or complete test with each field and value prefixed."""
    return _TEST.sub(lambda m: f"({PREFIX}{m[1]} {m[2]} {prefixed_value(m[1], m[3])})", text)


def prefixed_step(step: str) -> str:
    """A short step, a quoted complete test or an ``rcfg``, renamed."""
    m = _RCFG.fullmatch(step)
    if m is None:
        return prefixed_policy(step)
    payload = PREFIX + m[2] if m[2].isidentifier() else prefixed_policy(m[2])
    return f"rcfg('{PREFIX}{m[1]}', '\"{payload}\"')"


def prefixed_label(label: str) -> str:
    """A ``-t`` edge label, two packets or an ``rcfg``, renamed."""
    if label.startswith("rcfg("):
        return prefixed_step(label)
    return _PACKET_ENTRY.sub(lambda m: f"{PREFIX}{m[1]}={prefixed_value(m[1], m[2])}", label)


def prefixed_state(state: str) -> str:
    """The inside of ``{name[clock] || …}``, each component name renamed."""
    parts = (_COMPONENT.fullmatch(part) for part in state.split(" || "))
    return " || ".join(prefixed_names(m[1]) + m[2] for m in parts)


RENAMED_GROUPS = {
    "label": prefixed_label,
    "state": prefixed_state,
    "actors": lambda actors: " -> ".join(map(prefixed_names, actors.split(" -> "))),
    "step": prefixed_step,
}


def prefixed_part(pattern: re.Pattern, part: str) -> str:
    """``part`` with each of ``pattern``'s groups renamed, or unchanged if
    it does not match (and so fails the comparison)."""
    m = pattern.fullmatch(part)
    if m is None:
        return part
    for group in sorted(pattern.groupindex, key=m.start, reverse=True):
        if m[group] is not None:
            start, end = m.span(group)
            part = part[:start] + RENAMED_GROUPS[group](m[group]) + part[end:]
    return part


def prefixed_report(report: str) -> str:
    """``report`` as it reads once the model's names are prefixed: each name
    renamed in its name positions only (component names in ``{…}`` and
    ``[…]``, fields and values in ``(f = v)`` and ``{f=v, …}``, channels
    and tokens in ``rcfg``), never a ``nid:`` number or a clock."""
    renamed = cache(prefixed_part)
    short = cache(lambda line: "; ".join(map(prefixed_step, line.split("; "))))
    out = []
    for line in report.split("\n"):
        ids = _TRACING_IDS.match(line)
        if ids is not None:
            line = ids[0] + renamed(_TRACING_PART, line[ids.end():])
        elif line.startswith(("{", "[")):
            part, node_id = line.rsplit(" nid:", 1)
            line = f"{renamed(_LONG_PART, part)} nid:{node_id}"
        elif line.startswith(('"', "rcfg(")):
            line = short(line)
        out.append(line)
    return "\n".join(out)


# The prefix keeps the order of two renamed names, but not of a renamed
# name and ``bot``, which keeps its text: ``P0`` sorts before ``bot`` and
# ``qP0`` after it.  Equal packet steps of one term are ordered by their
# continuations' text, so on ``random_model_text`` seed 0 at ``-u 2``
# (the smallest failing case; 30 of 400 fail) a ``bot`` and a ``P0``
# continuation swap and the report's node ids move.  The relation is
# kept as stated and expected to fail there until that changes.
REPORT_FAMILIES = [
    pytest.param(
        family,
        marks=[pytest.mark.xfail(strict=True, reason="the prefix reorders names against bot")]
        if family == "random" else [],
    )
    for family in FAMILIES
]


@pytest.mark.parametrize("family", REPORT_FAMILIES)
def test_prefixing_every_name_renames_the_report(family, cli_output):
    failed, raced = [], 0
    for seed, text in texts(FAMILIES, family):
        prefixed = prefixed_names(text)
        for u in DEPTHS:
            code, report, err, _ = cli_output(text, u)
            if cli_output(prefixed, u)[:3] != (code, prefixed_report(report), err):
                failed.append((seed, u))
            raced += code == 1
    assert failed == []
    assert raced  # the relation is not checked on race-free reports alone


def reversed_values(text: str) -> tuple:
    """``text`` with each field's values renamed by the bijection that
    reverses their order in the domains (a residual value is kept), and
    that bijection: a dict of each field's renaming.  The renaming
    permutes each domain, so the renamed model has the same domains."""
    dom = infer_domains(parse_model(text))
    flip = {}
    for f, vals in zip(dom.fields, dom.values):
        named = [v for v in vals if v != residual_token(f)]
        flip[f] = dict(zip(named, reversed(named)))

    def word(m):
        if not m[0].startswith('"'):
            return m[0]
        return _POLICY_ATOM.sub(lambda a: f"({a[1]} {a[2]} {flip[a[1]][a[3]]})", m[0])

    return _MODEL_WORDS.sub(word, text), flip


def reversed_labels(labels: tuple, dom, flip: dict) -> tuple:
    """A witness label sequence with each packet renamed by ``flip`` and
    each policy message's pairs put back in ``dom``'s packet order."""

    def packet(p):
        return tuple(flip[f].get(v, v) for f, v in zip(dom.fields, p))

    def places(p):
        return tuple(vals.index(v) for vals, v in zip(dom.values, p))

    out = []
    for label in labels:
        if label[0] == "pkt":
            out.append(("pkt", packet(label[1])))
            continue
        _, channel, (kind, message) = label
        if kind == "policy":
            pairs = [(packet(alpha), packet(pi)) for alpha, pi in message]
            message = tuple(sorted(pairs, key=lambda pair: (places(pair[0]), places(pair[1]))))
        out.append(("rcfg", channel, (kind, message)))
    return tuple(out)


@pytest.mark.parametrize("family", FAMILIES)
def test_reversing_the_values_keeps_the_exit_code_and_renames_the_witnesses(family, racing, cli_output):
    failed, raced, moved = [], 0, 0
    for seed, text in texts(FAMILIES, family):
        flipped, flip = reversed_values(text)
        dom, found = racing(text)
        flipped_dom, got = racing(flipped)
        assert flipped_dom == dom
        for u in DEPTHS:
            renamed = {(reversed_labels(labels, dom, flip), pairs) for labels, pairs in found[u]}
            if cli_output(flipped, u)[0] != cli_output(text, u)[0] or got[u] != renamed:
                failed.append((seed, u))
            raced += bool(found[u])
            moved += renamed != found[u]
    assert failed == []
    assert raced  # the relation is not checked on empty sets alone
    assert moved  # nor on witnesses the renaming leaves as they are
