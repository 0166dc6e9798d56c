"""A seeded crash hunt over ``cli.run``: every run ends in exit 0, 1 or 2,
and an exit 2 is one ``dynarace: `` line made from a ``DynaraceError``.

Each seed model is mutated by a few token deletes, copies and swaps, of
the model's tokens or of those inside one of its quoted policies, and a
set of amplifiers repeats one construct k times around the nesting
limit.  The default recursion limit is kept: parsing recurses about four
frames per nesting level, and ``MAX_NESTING`` already bounds that.
"""

import io
import random
import re
import sys

import pytest

from dynarace.cli import RunConfig, run

from conftest import ROOT, SW_MODEL_PATH
from oracles import random_model_text

sys.path.insert(0, str(ROOT / "perfbench"))
from models import fanout_model, packet_space_model  # noqa: E402

SEEDS = {
    "sw_controller": (SW_MODEL_PATH.read_text(), 3),
    "fanout": (fanout_model(1), 3),
    "packet_space": (packet_space_model(1), 2),
    **{f"random{s}": (random_model_text(random.Random(s)), 3) for s in range(20)},
}
MUTANTS = 60  # per seed, each run at -u1 up to the seed's depth cap

# A quoted policy, ``o+``, ``||``, an identifier, an integer or one character.
_TOKEN = re.compile(r'"[^"\n]*"|o\+|\|\||[A-Za-z_]\w*|\d+|\S')
# Within a quoted policy: ``<-``, an identifier, an integer or one character.
_POLICY_TOKEN = re.compile(r"<-|[A-Za-z_]\w*|\d+|\S")
# How ``run`` reports an exception that is not a ``DynaraceError``.
_FOREIGN = re.compile(r"dynarace: [A-Za-z_]\w*: ")


def mutant(tokens: list, rng: random.Random) -> str:
    """``tokens`` after one to three deletes, copies or swaps, joined."""
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        op = rng.choice(("delete", "copy", "swap"))
        if op == "delete" and len(tokens) > 1:
            del tokens[i]
        elif op == "copy":
            tokens.insert(j, tokens[i])
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(tokens)


def check_run(tmp_path, text: str, depth: int, mode: str) -> int:
    model = tmp_path / "m.dnk"
    dot = tmp_path / "m.dot"
    model.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(str(model), depth, mode), stdout=out, stderr=err)
    where = f"exit {code} at -u{depth} -g{mode} on {text!r}"
    assert code in (0, 1, 2), where
    if code == 2:
        assert out.getvalue() == "" and not dot.exists(), where
        line = err.getvalue()
        assert line.startswith("dynarace: ") and line.count("\n") == 1, where
        assert line.endswith("\n") and not _FOREIGN.match(line), where
    else:
        assert err.getvalue() == "", where
    dot.unlink(missing_ok=True)
    return code


@pytest.mark.parametrize("name", SEEDS)
def test_mutants_end_in_a_documented_exit(tmp_path, name):
    text, cap = SEEDS[name]
    tokens = _TOKEN.findall(re.sub(r"//[^\n]*", "", text))
    # Unmutated, the tokens joined by spaces still reach a verdict.
    assert check_run(tmp_path, " ".join(tokens), 1, "race") in (0, 1)
    rng = random.Random(name)
    for _ in range(MUTANTS):
        mutated = mutant(tokens, rng)
        mode = rng.choice(("race", "full"))
        for depth in range(1, cap + 1):
            check_run(tmp_path, mutated, depth, mode)


@pytest.mark.parametrize("name", SEEDS)
def test_policy_mutants_end_in_a_documented_exit(tmp_path, name):
    # One quoted policy per mutant has its tokens mutated, at times with a
    # character no policy token starts with: the policy parser's errors,
    # offsets included, must reach ``run`` as one line.
    text, _ = SEEDS[name]
    rng = random.Random(name)
    quoted = list(re.finditer(r'"([^"\n]*)"', text))
    for _ in range(MUTANTS // 4):
        m = rng.choice(quoted)
        tokens = _POLICY_TOKEN.findall(m.group(1))
        if rng.random() < 0.25:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice("$<@"))
        mutated = text[: m.start(1)] + mutant(tokens, rng) + text[m.end(1):]
        check_run(tmp_path, mutated, 1, rng.choice(("race", "full")))


def policy_model(policy: str) -> str:
    return f'def A = "{policy}" ; A ;\ninit A ;\n'


AMPLIFIERS = {
    "policy-parens": lambda k: policy_model("(" * k + "pt <- 1" + ")" * k),
    "term-parens": lambda k: "def A = " + "(" * k + '"(pt <- 1)" ; A' + ")" * k + " ;\ninit A ;\n",
    "negation": lambda k: policy_model("~" * k + "(pt = 1)"),
    "star": lambda k: policy_model("(pt <- 1)" + "*" * k),
    "flat-table": lambda k: policy_model(
        " + ".join(f"(pt = {i}) . (pt <- {i + 1})" for i in range(k))
    ),
    "right-nested-union": lambda k: policy_model(
        "".join(f"(pt <- {i}) + (" for i in range(k - 1)) + f"pt <- {k}" + ")" * (k - 1)
    ),
    "prefix-chain": lambda k: "def A = "
    + "".join(f'"(pt <- {i})" ; ' for i in range(k)) + "A ;\ninit A ;\n",
    "wide-choice": lambda k: "def A = "
    + " o+ ".join(f'"(pt <- {i})" ; A' for i in range(k)) + " ;\ninit A ;\n",
}


@pytest.mark.parametrize("name", AMPLIFIERS)
def test_amplifiers_end_in_a_documented_exit(tmp_path, name):
    # Past MAX_NESTING = 100 the nesting shapes are refused while parsing.
    for k in (1, 5, 20, 40, 99, 100, 101):
        if name != "wide-choice" or k <= 40:
            check_run(tmp_path, AMPLIFIERS[name](k), 1, "race")
