import pytest

from dynarace import (
    DuplicateDefinition,
    ModelSyntaxError,
    ParInsideDefinition,
    UnboundVariable,
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
    render_term,
    subterms,
)

from conftest import SW_MODEL_PATH


def test_running_example_structure(sw_model):
    assert set(sw_model.definitions) == {"SW", "SWP", "C"}
    assert sw_model.channels == frozenset({"Help", "Up"})
    assert sw_model.init == (Var("C"), Var("SW"))
    assert sw_model.init_names == ("C", "SW")

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
