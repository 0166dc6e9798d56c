import pytest

from dynarace import (
    DuplicateDefinition,
    ModelSyntaxError,
    ParInsideDefinition,
    UnboundVariable,
    UndeclaredChannel,
    UnguardedRecursion,
    load_model,
    parse_model,
)
from dynarace.model import (
    Bot,
    Choice,
    PolicyMsg,
    Recv,
    Send,
    SeqPolicy,
    Token,
    Var,
    component_name,
    render_term,
    subterms,
)

from conftest import SW_MODEL_PATH


def test_running_example_structure(sw_model):
    assert set(sw_model.definitions) == {"SW", "SWP", "C"}
    assert sw_model.init == (Var("C"), Var("SW"))
    assert sw_model.init_names == ("C", "SW")
    assert sw_model.channels == frozenset({"Help", "Up"})

    sw = sw_model.definitions["SW"]
    assert isinstance(sw, Choice)
    assert sw.right == Recv("Up", Token("one"), Var("SWP"))
    assert isinstance(sw.left, Choice)
    assert isinstance(sw.left.left, SeqPolicy)
    assert sw.left.left.cont == Var("SW")
    assert sw.left.right.cont == Send("Help", Token("one"), Var("SW"))

    assert sw_model.definitions["SWP"] == SeqPolicy(
        sw_model.definitions["SWP"].policy, Bot()
    )
    assert sw_model.definitions["C"] == Recv(
        "Help", Token("one"), Send("Up", Token("one"), Var("C"))
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
    assert isinstance(msg, PolicyMsg)


def test_unguarded_recursion():
    with pytest.raises(UnguardedRecursion):
        parse_model("def X = X ;\ninit X ;")


def test_unguarded_cycle_through_choice():
    text = """
    def A = B o+ "1" ; A ;
    def B = A ;
    init A ;
    """
    with pytest.raises(UnguardedRecursion):
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
    with pytest.raises(UnguardedRecursion, match=f"^unguarded recursion: {cycle}$"):
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
    assert model.definitions["A"] == Var("B")


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        parse_model("init A ;")
    with pytest.raises(UnboundVariable):
        parse_model('def A = "1" ; B ;\ninit A ;')


def test_duplicate_definition():
    with pytest.raises(DuplicateDefinition):
        parse_model('def A = "1" ; bot ;\ndef A = bot ;\ninit A ;')


def test_par_inside_definition():
    with pytest.raises(ParInsideDefinition):
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

    def counted(text):
        texts.append(text)
        return parse(text)

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
    assert m.definitions["C"].message.policy is m.definitions["S"].left.message.policy


def test_comments_and_whitespace():
    text = """
    // leading comment
    def A = "1" ; bot ;   // trailing comment
    init A ;
    """
    assert parse_model(text).init_names == ("A",)


def test_init_accepts_compound_components():
    text = """
    def A = "1" ; bot ;
    init (A o+ bot) || A ;
    """
    model = parse_model(text)
    assert model.init[0] == Choice(Var("A"), Bot())
    assert model.init_names[0] == "(A o+ bot)"


def test_unnamed_component_renders_its_policy_message():
    model = parse_model('channels x ;\ninit x ! "(pt <- 1)" ; bot ;\n')
    assert component_name(model.init[0]) == 'x ! "(pt <- 1)" ; bot'


def test_parsing_twice_gives_identical_terms(sw_model):
    again = load_model(SW_MODEL_PATH)
    assert all(a is b for a, b in zip(again.init, sw_model.init, strict=True))
    for name, body in sw_model.definitions.items():
        assert again.definitions[name] is body


def test_render_term_round_trips_running_example(sw_model):
    for name, body in sw_model.definitions.items():
        text = f"def X = {render_term(body)} ;\ninit X ;"
        # rendering must parse back to the same AST (modulo the new def)
        reparsed = parse_model(
            "channels Help, Up ;\n"
            + text.replace("init X ;", "")
            + "def SW = bot ;\ndef SWP = bot ;\ndef C = bot ;\ninit X ;"
        )
        assert reparsed.definitions["X"] == body


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
        ParInsideDefinition,
        "parallel composition inside definition 'A' (line 1, column 13)",
        None, None,
    ),
    (
        "def A = bot ;\ndef B = || bot ;\ninit A ;",
        ParInsideDefinition,
        "parallel composition inside definition 'B' (line 2, column 9)",
        None, None,
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
        ModelSyntaxError, "field 'pt' declared twice (line 1, column 36)", 1, 36,
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
        ModelSyntaxError, "expected ';', found '!' (line 1, column 13)", 1, 13,
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
        UndeclaredChannel, "init uses undeclared channel 'z'", None, None,
    ),
    (
        "def A = Hlep ! one ; A ;\ninit A ;\n@",
        ModelSyntaxError, "unexpected character '@' (line 3, column 1)", 3, 1,
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
