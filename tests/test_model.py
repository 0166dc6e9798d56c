import re

import pytest

from dynarace.domains import DynaraceError
from dynarace.netkat import Assign
from dynarace.model import (
    Bot,
    Choice,
    ModelSyntaxError,
    _ModelParser,
    Recv,
    Send,
    SeqPolicy,
    Var,
    component_name,
    load_model,
    parse_model,
    render_term,
    subterms,
)

from conftest import SW_MODEL_PATH, shape
from oracles import lexed


def test_running_example_structure(sw_model):
    assert set(sw_model.definitions) == {"SW", "SWP", "C"}
    assert shape(sw_model.init) == shape((Var("C"), Var("SW")))
    assert sw_model.init_names == ("C", "SW")
    assert sw_model.channels == frozenset({"Help", "Up"})

    sw = sw_model.definitions["SW"]
    assert isinstance(sw, Choice)
    assert shape(sw.right) == shape(Recv("Up", "one", Var("SWP")))
    assert isinstance(sw.left, Choice)
    assert isinstance(sw.left.left, SeqPolicy)
    assert shape(sw.left.left.cont) == shape(Var("SW"))
    assert shape(sw.left.right.cont) == shape(Send("Help", "one", Var("SW")))

    swp = sw_model.definitions["SWP"]
    assert shape(swp) == shape(SeqPolicy(swp.policy, Bot()))
    assert shape(sw_model.definitions["C"]) == shape(
        Recv("Help", "one", Send("Up", "one", Var("C")))
    )


def test_policy_message():
    text = """
    channels x ;
    def A = x ! "(pt <- 1)" ; bot ;
    def B = x ? "(pt <- 1)" ; bot ;
    init A || B ;
    """
    model = parse_model(text)
    msg = model.definitions["A"].message
    assert shape(msg) == shape(Assign("pt", "1"))
    assert msg is model.definitions["B"].message


def test_unguarded_recursion():
    with pytest.raises(DynaraceError, match="^unguarded recursion: X -> X$"):
        parse_model("def X = X ;\ninit X ;")


def test_unguarded_cycle_through_choice():
    text = """
    def A = B o+ "1" ; A ;
    def B = A ;
    init A ;
    """
    with pytest.raises(DynaraceError, match="^unguarded recursion: A -> B -> A$"):
        parse_model(text)


def _chain(n, last):
    defs = "".join(f"def A{i} = A{i + 1} ;\n" for i in range(n - 1))
    return f"{defs}def A{n - 1} = {last} ;\ninit A0 ;"


def test_long_unguarded_chain_parses():
    # The guardedness check walks the chain without recursing per definition.
    model = parse_model(_chain(1500, "bot"))
    assert len(model.definitions) == 1500


def test_long_unguarded_cycle_is_rejected():
    cycle = " -> ".join(f"A{i}" for i in range(1500)) + " -> A0"
    with pytest.raises(DynaraceError, match=f"^unguarded recursion: {cycle}$"):
        parse_model(_chain(1500, "A0"))


def test_long_prefix_chain_parses():
    # The prefix chain is read in a loop, not one recursive call per ``;``.
    text = 'def A = ' + '"(pt <- 1)" ; ' * 1500 + "bot ;\ninit A ;"
    body = parse_model(text).definitions["A"]
    kinds = [type(t) for t in subterms(body)]
    assert kinds.count(SeqPolicy) == 1500
    assert kinds[-1] is Bot


def test_guarded_forwarding_is_fine():
    text = """
    def A = B ;
    def B = "1" ; A ;
    init A ;
    """
    model = parse_model(text)
    assert shape(model.definitions["A"]) == shape(Var("B"))


def test_unbound_variable():
    with pytest.raises(DynaraceError, match="^init refers to undefined 'A'$"):
        parse_model("init A ;")
    with pytest.raises(
        DynaraceError, match="^definition 'A' refers to undefined 'B'$"
    ):
        parse_model('def A = "1" ; B ;\ninit A ;')


def test_duplicate_definition():
    with pytest.raises(
        DynaraceError, match="^definition 'A' appears more than once$"
    ):
        parse_model('def A = "1" ; bot ;\ndef A = bot ;\ninit A ;')


def test_par_inside_definition():
    message = "parallel composition inside definition 'A' (line 1, column 13)"
    with pytest.raises(ModelSyntaxError, match=f"^{re.escape(message)}$"):
        parse_model('def A = bot || bot ;\ninit A ;')


def test_syntax_error_carries_position():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("def A = ;\ninit A ;")
    assert exc.value.line == 1
    assert "column" in str(exc.value)


def test_bad_embedded_policy_reported_with_location():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model('def A = "(pt <-)" ; bot ;\ninit A ;')
    assert "NetKAT" in str(exc.value)


def test_each_quoted_policy_is_parsed_once(monkeypatch):
    from dynarace import model as model_module

    texts = []
    parse = model_module.parse_policy

    def counted(text, interned):
        texts.append(text)
        return parse(text, interned)

    monkeypatch.setattr(model_module, "parse_policy", counted)
    table = "(pt = 1) . (pt <- 2) + (pt = 2) . (pt <- 1)"
    text = f"""
    channels x ;
    def C = x ! "{table}" ; C ;
    def S = x ? "{table}" ; "{table}" ; S o+ "(pt <- 1)" ; S ;
    init C || S ;
    """
    m = parse_model(text)
    assert sorted(texts) == sorted([table, "(pt <- 1)"])
    assert m.definitions["C"].message is m.definitions["S"].left.message


def test_comments_and_whitespace():
    text = """
    // leading comment
    def A = "1" ; bot ;   // trailing comment
    init A ;
    """
    assert parse_model(text).init_names == ("A",)


# A CRLF model whose last line is a comment with no newline.
CRLF_MODEL = "channels x ;\r\ndef A = x ! t ; A ;\r\ninit A ; // end"


def test_crlf_model_ending_in_a_comment_tokens():
    # The blanks and comments before a token belong to its match; each
    # token keeps its own offset, and ``eof`` is at the end of the text.
    tokens = lexed(_ModelParser(CRLF_MODEL))
    assert [(kind, pos) for kind, _, pos in tokens] == [
        ("ident", 0), ("ident", 9), (";", 11),
        ("ident", 14), ("ident", 18), ("=", 20), ("ident", 22), ("!", 24),
        ("ident", 26), (";", 28), ("ident", 30), (";", 32),
        ("ident", 35), ("ident", 40), (";", 42),
        ("eof", len(CRLF_MODEL)),
    ]


def test_crlf_model_ending_in_a_comment_loads_as_lf(tmp_path):
    crlf, lf = tmp_path / "crlf.dnk", tmp_path / "lf.dnk"
    crlf.write_bytes(CRLF_MODEL.encode())
    lf.write_bytes(CRLF_MODEL.replace("\r\n", "\n").encode())
    assert shape(load_model(crlf)) == shape(load_model(lf)) == shape(parse_model(CRLF_MODEL))
    assert parse_model(CRLF_MODEL).init_names == ("A",)


def test_init_accepts_compound_components():
    text = """
    def A = "1" ; bot ;
    init (A o+ bot) || A ;
    """
    model = parse_model(text)
    assert shape(model.init[0]) == shape(Choice(Var("A"), Bot()))
    assert model.init_names[0] == "(A o+ bot)"


def test_unnamed_component_renders_its_policy_message():
    model = parse_model('channels x ;\ninit x ! "(pt <- 1)" ; bot ;\n')
    assert component_name(model.init[0]) == 'x ! "(pt <- 1)" ; bot'


def test_equal_terms_of_one_parse_are_one_object(sw_model):
    # ``SW`` loops back to itself in two summands, and ``one`` is sent or
    # received in three definitions: equal tokens, kept as one string.
    sw, c = sw_model.definitions["SW"], sw_model.definitions["C"]
    assert sw.left.left.cont is sw.left.right.cont.cont
    assert sw_model.init[1] is sw.left.left.cont
    tokens = [sw.right.message, sw.left.right.cont.message, c.message, c.cont.message]
    assert tokens == ["one"] * 4
    assert len(set(map(id, tokens))) == 1


def test_parsing_twice_gives_equal_terms(sw_model):
    # Two parses share no object, and their terms render to the same text.
    again = load_model(SW_MODEL_PATH)
    assert shape(again) == shape(sw_model)
    for a, b in zip(again.init, sw_model.init, strict=True):
        assert a is not b and render_term(a) == render_term(b)
    for name, body in sw_model.definitions.items():
        assert again.definitions[name] is not body
        assert render_term(again.definitions[name]) == render_term(body)


def test_render_term_round_trips_running_example(sw_model):
    for name, body in sw_model.definitions.items():
        text = f"def X = {render_term(body)} ;\ninit X ;"
        # rendering must parse back to the same AST (modulo the new def)
        reparsed = parse_model(
            "channels Help, Up ;\n"
            + text.replace("init X ;", "")
            + "def SW = bot ;\ndef SWP = bot ;\ndef C = bot ;\ninit X ;"
        )
        assert shape(reparsed.definitions["X"]) == shape(body)


def test_bot_cannot_name_a_definition():
    # A term reads ``bot`` as the deadlocked process, so such a definition
    # could never be referred to.
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model('def bot = "(pt <- 1)" ; bot ;\ninit bot ;')
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        "definition name 'bot' is reserved for the deadlocked process (line 1, column 5)", 1, 5,
    )


def test_bot_cannot_name_a_channel():
    # ``bot ! m`` would never parse as a send on it.
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("channels x, bot ;\ndef A = bot ! m ; A ;\ninit A ;")
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        "channel name 'bot' is reserved for the deadlocked process (line 1, column 13)", 1, 13,
    )


# Every malformed model below, with the exception it raises: type, text and,
# for a syntax error, line and column (both from 1).  A bad character is
# reported before any parse error, wherever it is in the text.
MALFORMED_MODELS = [
    (
        "channels x ;\n// a comment\ndef A = bot @ ;\ninit A ;",
        ModelSyntaxError, "unexpected character '@' (line 3, column 13)", 3, 13,
    ),
    (
        'def A = "(pt <- 1) ; bot ;\ninit A ;',
        ModelSyntaxError, 'unexpected character \'"\' (line 1, column 9)', 1, 9,
    ),
    (
        'def A = "(pt\n<- 1)" ; bot ;\ninit A ;',
        ModelSyntaxError, 'unexpected character \'"\' (line 1, column 9)', 1, 9,
    ),
    (
        "def A = bot ;\r\ndef B = ;\r\ninit A ;",
        ModelSyntaxError, "expected a process term, found ';' (line 2, column 9)", 2, 9,
    ),
    (
        "def A = bot ;\r\ninit A ;\r\n@",
        ModelSyntaxError, "unexpected character '@' (line 3, column 1)", 3, 1,
    ),
    (
        "def A = bot || bot ;\ninit A ;",
        ModelSyntaxError,
        "parallel composition inside definition 'A' (line 1, column 13)",
        1, 13,
    ),
    (
        "def A = bot ;\ndef B = || bot ;\ninit A ;",
        ModelSyntaxError,
        "parallel composition inside definition 'B' (line 2, column 9)",
        2, 9,
    ),
    (
        'channels x ;\ndef A = "(pt <-)" ; bot ;\ninit A ;',
        ModelSyntaxError,
        "bad NetKAT policy: expected a value, found ')' (at offset 6) (line 2, column 9)",
        2, 9,
    ),
    (
        'def A = x ! "pt = 1 $" ; bot ;\ninit A ;',
        ModelSyntaxError,
        "bad NetKAT policy: unexpected character '$' (at offset 7) (line 1, column 13)",
        1, 13,
    ),
    (
        'def A = "~(pt <- 1)" ; bot ;\ninit A ;',
        ModelSyntaxError,
        "bad NetKAT policy: negation applies only to predicates (at offset 0) (line 1, column 9)",
        1, 9,
    ),
    (
        "def A = bot ;",
        ModelSyntaxError, "model has no init declaration (line 1, column 14)", 1, 14,
    ),
    (
        "def A = bot ;\ninit A",
        ModelSyntaxError, "expected ';', found '' (line 2, column 7)", 2, 7,
    ),
    (
        "",
        ModelSyntaxError, "model has no init declaration (line 1, column 1)", 1, 1,
    ),
    (
        "// only a comment",
        ModelSyntaxError, "model has no init declaration (line 1, column 18)", 1, 18,
    ),
    (
        "// only a comment\n",
        ModelSyntaxError, "model has no init declaration (line 2, column 1)", 2, 1,
    ),
    (
        "def A = ;\ninit A ; @",
        ModelSyntaxError, "unexpected character '@' (line 2, column 10)", 2, 10,
    ),
    (
        'def A = "(pt <-)" ; bot ; @\ninit A ;',
        ModelSyntaxError, "unexpected character '@' (line 1, column 27)", 1, 27,
    ),
    (
        "fields { pt : { 1 } ; } ;\nfields { pt : { 1 } ; }\ninit bot ;",
        ModelSyntaxError,
        "expected a declaration, found ';' (line 1, column 25)",
        1, 25,
    ),
    (
        "fields { pt : { 1 } ; }\nfields { pt : { 1 } ; }\ninit bot ;",
        ModelSyntaxError, "duplicate fields block (line 2, column 1)", 2, 1,
    ),
    (
        "fields { pt : { 1 } ; pt : { 2 } ; }\ninit bot ;",
        ModelSyntaxError, "field 'pt' declared twice (line 1, column 23)", 1, 23,
    ),
    (
        "fields { pt : { 1, 1, 2 } ; }\ninit bot ;",
        ModelSyntaxError,
        "value '1' declared twice for field 'pt' (line 1, column 20)",
        1, 20,
    ),
    (
        "fields { pt : { 1, 2 } ; flag : { a, b, a } ; }\ninit bot ;",
        ModelSyntaxError,
        "value 'a' declared twice for field 'flag' (line 1, column 41)",
        1, 41,
    ),
    (
        "fields { pt : { ; } ; }\ninit bot ;",
        ModelSyntaxError,
        "expected a value literal, found ';' (line 1, column 17)",
        1, 17,
    ),
    (
        "fields { 1 : { 1 } ; }\ninit bot ;",
        ModelSyntaxError, "expected field name, found '1' (line 1, column 10)", 1, 10,
    ),
    (
        "fields { pt { 1 } ; }\ninit bot ;",
        ModelSyntaxError, "expected ':', found '{' (line 1, column 13)", 1, 13,
    ),
    (
        "channels x, ;\ninit bot ;",
        ModelSyntaxError, "expected channel name, found ';' (line 1, column 13)", 1, 13,
    ),
    (
        "def 1 = bot ;\ninit bot ;",
        ModelSyntaxError, "expected definition name (line 1, column 5)", 1, 5,
    ),
    (
        "def A bot ;\ninit A ;",
        ModelSyntaxError, "expected '=', found 'bot' (line 1, column 7)", 1, 7,
    ),
    (
        "def A = (bot ;\ninit A ;",
        ModelSyntaxError, "expected ')', found ';' (line 1, column 14)", 1, 14,
    ),
    (
        "def A = x ! ; bot ;\ninit A ;",
        ModelSyntaxError, "expected a message, found ';' (line 1, column 13)", 1, 13,
    ),
    (
        "def A = bot\ndef B = bot ;\ninit A ;",
        ModelSyntaxError, "expected ';', found 'def' (line 2, column 1)", 2, 1,
    ),
    (
        "def A = bot o+ ;\ninit A ;",
        ModelSyntaxError,
        "expected a process term, found ';' (line 1, column 16)",
        1, 16,
    ),
    (
        "def A = bot ;\ninit A || ;",
        ModelSyntaxError,
        "expected a process term, found ';' (line 2, column 11)",
        2, 11,
    ),
    (
        "def A = bot ;\ninit A ;\ninit A ;",
        ModelSyntaxError, "duplicate init declaration (line 3, column 1)", 3, 1,
    ),
    (
        "def A = bot ;\nwhat A ;",
        ModelSyntaxError,
        "expected a declaration, found 'what' (line 2, column 1)",
        2, 1,
    ),
    (
        "\tdef A = $ ;",
        ModelSyntaxError, "unexpected character '$' (line 1, column 10)", 1, 10,
    ),
    (
        "def A = bot ;\x0c\ninit A ;",
        ModelSyntaxError, "unexpected character '\\x0c' (line 1, column 14)", 1, 14,
    ),
    (
        "def A = bot o+x ;\ninit A ;",
        ModelSyntaxError, "unexpected character '+' (line 1, column 14)", 1, 14,
    ),
    (
        "def A = bot ! m ;\ninit A ;",
        ModelSyntaxError,
        "channel name 'bot' is reserved for the deadlocked process (line 1, column 9)",
        1, 9,
    ),
    (
        "channels x ;\ndef A = x ! m ; bot ? m ; A ;\ninit A ;",
        ModelSyntaxError,
        "channel name 'bot' is reserved for the deadlocked process (line 2, column 17)",
        2, 17,
    ),
    (
        "def A = bot ; é",
        ModelSyntaxError, "unexpected character 'é' (line 1, column 15)", 1, 15,
    ),
    (
        "def A = x ? ; bot ;",
        ModelSyntaxError, "expected a message, found ';' (line 1, column 13)", 1, 13,
    ),
    (
        "channels x ;\nchannels y ;\ndef A = x ! m ; y ? m ; A ;\ninit A || z ? m ; bot ;",
        DynaraceError, "init uses undeclared channel 'z'", None, None,
    ),
    (
        "def A = Hlep ! one ; A ;\ninit A ;\n@",
        ModelSyntaxError, "unexpected character '@' (line 3, column 1)", 3, 1,
    ),
    # CRLF line ends, and a last comment with no newline.
    (
        "def A = bot ;\r\n// no init",
        ModelSyntaxError, "model has no init declaration (line 2, column 11)", 2, 11,
    ),
    (
        "def A = bot ;\r\ninit A // end",
        ModelSyntaxError, "expected ';', found '' (line 2, column 14)", 2, 14,
    ),
    (
        "def A = bot ;\r\n  // a comment\r\n  @ init A ;",
        ModelSyntaxError, "unexpected character '@' (line 3, column 3)", 3, 3,
    ),
]


@pytest.mark.parametrize(
    "text, error, message, line, col", MALFORMED_MODELS, ids=range(len(MALFORMED_MODELS))
)
def test_malformed_model_errors(text, error, message, line, col):
    with pytest.raises(error) as exc:
        parse_model(text)
    assert type(exc.value) is error
    assert str(exc.value) == message
    if error is ModelSyntaxError:
        assert (exc.value.line, exc.value.col) == (line, col)
