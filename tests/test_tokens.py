"""Both parsers' scans against the eager reference in ``oracles``.

A parser keeps only its token texts and finds an offset again when an
error asks for one.  On seeded texts (the benchmark's generators, random
models, the bundled model, every malformed policy and model of the parser
tests, their quoted policies and character-level mutants of all of them)
each lexer must give the reference's texts, kinds read from those texts
and every offset, or, for a bad character, the reference's first one, at
its position.
"""

import random
import re
import sys

import pytest

from dynarace.model import ModelSyntaxError, _ModelParser
from dynarace.netkat import PolicySyntaxError, _PolicyParser

from conftest import ROOT, SW_MODEL_PATH
from oracles import lexed, random_model_text, reference_tokens
from test_model import MALFORMED_MODELS
from test_netkat import MALFORMED_POLICIES

sys.path.insert(0, str(ROOT / "perfbench"))
from models import fanout_model, packet_space_model  # noqa: E402

MODELS = [
    SW_MODEL_PATH.read_text(),
    *(fanout_model(s) for s in range(3)),
    *(packet_space_model(s) for s in range(3)),
    *(random_model_text(random.Random(s)) for s in range(20)),
    *(text for text, *_ in MALFORMED_MODELS),
]
POLICIES = [
    *(text for text, *_ in MALFORMED_POLICIES),
    *dict.fromkeys(q for m in MODELS for q in re.findall(r'"([^"\n]*)"', m)),
]
# Characters an edit inserts: blanks of both lexers and of neither, comment
# and string delimiters, halves of two-character tokens, bad characters.
PIECES = [" ", "\t", "\r", "\n", "\f", " ", '"', "/", "//", "|", "o+", "o", "<", "-",
          "$", "_", "é", "²", "0", "(", ")", "*", "~", ";", "x"]


def mutants(text: str, rng: random.Random, count: int):
    """``count`` copies of ``text``, each with one to three characters
    inserted, deleted or copied elsewhere."""
    for _ in range(count):
        out = text
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(out))
            op = rng.choice(("insert", "delete", "copy"))
            if op == "insert":
                out = out[:i] + rng.choice(PIECES) + out[i:]
            elif op == "delete":
                out = out[:i] + out[i + 1:]
            else:
                j = rng.randint(0, len(out))
                out = out[:i] + out[j:j + rng.randint(1, 4)] + out[i:]
        yield out


def check(lexer: str, text: str) -> None:
    expected = list(reference_tokens(text, lexer))
    kind, char, pos = expected[-1]
    parser = _PolicyParser if lexer == "policy" else _ModelParser
    if kind != "bad":
        assert lexed(parser(text)) == expected, text
        return
    with pytest.raises(PolicySyntaxError if lexer == "policy" else ModelSyntaxError) as exc:
        parser(text)
    if lexer == "policy":
        where = f"at offset {pos}"
        assert exc.value.pos == pos, text
    else:
        line, col = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
        where = f"line {line}, column {col}"
        assert (exc.value.line, exc.value.col) == (line, col), text
    assert str(exc.value) == f"unexpected character {char!r} ({where})", text


@pytest.mark.parametrize("lexer", ["policy", "model"])
def test_seeded_texts_scan_as_the_reference(lexer):
    for text in MODELS + POLICIES:
        check(lexer, text)


@pytest.mark.parametrize("lexer", ["policy", "model"])
def test_mutants_scan_as_the_reference(lexer):
    rng = random.Random(lexer)
    for text in MODELS + POLICIES:
        for mutated in mutants(text, rng, 10):
            check(lexer, mutated)


@pytest.mark.parametrize("lexer", ["policy", "model"])
def test_random_short_texts_scan_as_the_reference(lexer):
    rng = random.Random(lexer)
    for _ in range(3000):
        check(lexer, "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 8))))


def test_reference_names_the_first_bad_character():
    assert list(reference_tokens("a $ @", "policy"))[-1] == ("bad", "$", 2)
    assert list(reference_tokens('x "a', "model"))[-1] == ("bad", '"', 2)
    assert list(reference_tokens("o+x", "model")) == [("ident", "o", 0), ("bad", "+", 1)]
