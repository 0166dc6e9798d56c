import random
import sys

import pytest

from dynarace import engine
from dynarace.engine import Analysis, RcfgTransition, build_tree, initial_state
from dynarace.domains import FieldDomains
from dynarace.netkat import Union, Zero, normal_form, parse_policy
from dynarace.hnf import HeadNormalForm, PacketStep, hnf, message_key
from dynarace.model import (
    Bot,
    Choice,
    ParsedModel,
    Recv,
    SeqPolicy,
    Send,
    Var,
    heads,
    infer_domains,
    parse_model,
    render_term,
    subterms,
)

from conftest import ROOT, SW_MODEL_PATH, pkt, shape
from oracles import (
    first_step_key,
    first_steps_of_hnf,
    oracle_first_steps,
    random_model_text,
    random_policy,
    wide_model_text,
)

sys.path.insert(0, str(ROOT / "perfbench"))

from models import fanout_model, packet_space_model  # noqa: E402


def test_hnf_sw(sw_dom, sw_analysis):
    h = hnf(Var("SW"), sw_analysis)
    assert sum(map(len, h)) == 3
    b1 = pkt(sw_dom, flag="blocking", pt=1)
    r1 = pkt(sw_dom, flag="regular", pt=1)
    r2 = pkt(sw_dom, flag="regular", pt=2)
    assert shape(h.packet_steps) == shape((
        PacketStep(b1, b1, Send("Help", "one", Var("SW"))),
        PacketStep(r1, r2, Var("SW")),
    ))
    assert shape(h.recv_steps) == shape((Recv("Up", "one", Var("SWP")),))
    assert h.send_steps == ()


def test_hnf_swp_empty(sw_analysis):
    assert hnf(Var("SWP"), sw_analysis) == HeadNormalForm((), (), ())


def test_hnf_controller(sw_analysis):
    h = hnf(Var("C"), sw_analysis)
    assert shape(h) == shape(HeadNormalForm(
        (), (), (Recv("Help", "one", Send("Up", "one", Var("C"))),)
    ))


def test_choice_laws(sw_analysis):
    p, q = Var("SW"), Var("C")
    assert hnf(Choice(p, q), sw_analysis) == hnf(Choice(q, p), sw_analysis)
    assert hnf(Choice(p, p), sw_analysis) == hnf(p, sw_analysis)
    assert hnf(Choice(p, Bot()), sw_analysis) == hnf(p, sw_analysis)


def test_seq_policy_fidelity(sw_dom, sw_analysis):
    from dynarace.model import SeqPolicy

    policy = parse_policy("(pt = 1) + (flag <- blocking)")
    term = SeqPolicy(policy, Bot())
    h = hnf(term, sw_analysis)
    pairs = {(s.alpha, s.pi) for s in h.packet_steps}
    assert pairs == set(normal_form(policy, sw_dom))
    assert all(s.cont is term.cont for s in h.packet_steps)


def test_no_var_at_head(sw_model, sw_analysis):
    for name in sw_model.definitions:
        h = hnf(Var(name), sw_analysis)
        for kind, steps in zip((PacketStep, Send, Recv), h):
            for s in steps:
                assert not isinstance(s.cont, type(None))
                # heads are fully resolved steps, never bare variables
                assert type(s) is kind


def test_message_matching_up_to_policy_equivalence():
    text = """
    channels x ;
    def A = x ! "(pt = 1) . (pt = 1)" ; bot ;
    init A ;
    """
    from dynarace.hnf import message_key

    model = parse_model(text)
    dom = infer_domains(model)
    send = hnf(Var("A"), Analysis(model, dom)).send_steps[0]
    other = parse_model(
        'channels x ;\ndef B = x ? "(pt = 1)" ; bot ;\ninit B ;'
    )
    recv = hnf(Var("B"), Analysis(other, dom)).recv_steps[0]
    assert message_key(send.message, dom) == message_key(recv.message, dom)


def test_par_rejected(sw_analysis):
    class FakePar:
        pass

    with pytest.raises(TypeError, match="^not a term node: <"):
        hnf(FakePar(), sw_analysis)


def test_hnf_cached_on_analysis(sw_model, sw_analysis):
    sw = sw_model.init[1]
    h = hnf(sw, sw_analysis)
    assert hnf(sw, sw_analysis) is h
    assert sw_analysis.hnfs == {sw: h}


def test_hnf_cache_is_per_model():
    # Same term, same domains, different definitions of A.
    m1 = parse_model('def A = "(pt <- 1)" ; A ; init A ;')
    m2 = parse_model('def A = "(pt <- 1)" ; A o+ "(pt <- 2)" ; A ; init A ;')
    dom = infer_domains(m2)
    h1 = hnf(Var("A"), Analysis(m1, dom))
    h2 = hnf(Var("A"), Analysis(m2, dom))
    assert h1 != h2
    assert len(h1.packet_steps) < len(h2.packet_steps)


def test_each_continuation_rendered_once(monkeypatch):
    """The packet steps of one policy share its continuation, which the
    summand order renders once, not once per step."""
    import dynarace.hnf as hnf_module

    rendered = []
    render = hnf_module.render_term

    def counted(t):
        rendered.append(t)
        return render(t)

    monkeypatch.setattr(hnf_module, "render_term", counted)
    model = parse_model('def A = "(pt = 0) + (pt = 1)" ; A ;\ninit A ;')
    h = hnf(Var("A"), Analysis(model, infer_domains(model)))
    assert len(h.packet_steps) == 2
    assert rendered == [model.definitions["A"].cont]


# Message normal forms are lazy: equal messages are one object, so a
# message is normalised only beside a different one on its kind and channel.


def eager_order(t, model, dom) -> tuple:
    """The sends and receives of ``hnf(t)`` as an eager ``message_key`` on
    every summand orders and deduplicates them."""
    first: dict = {}
    for s in heads(t, model.definitions):
        if isinstance(s, (Send, Recv)):
            key = (isinstance(s, Recv), s.channel, message_key(s.message, dom))
            first.setdefault((*key, render_term(s.cont)), s)
    return tuple(first[k] for k in sorted(first))


@pytest.fixture
def normalised(monkeypatch):
    """The policies passed to ``dynarace.hnf.normal_form``, one per call."""
    import dynarace.hnf as hnf_module

    seen = []
    real = hnf_module.normal_form

    def recorded(p, dom):
        seen.append(p)
        return real(p, dom)

    monkeypatch.setattr(hnf_module, "normal_form", recorded)
    return seen


def test_a_shared_message_table_is_never_normalised(normalised):
    # The controller sends each switch the table that switch receives: one
    # object each, so only the switches' own policies get normal forms.
    model = parse_model(packet_space_model(0))
    dom = infer_domains(model)
    build_tree(model, dom, 1)
    switch_policies = {
        s.policy
        for t in model.init
        for s in heads(t, model.definitions)
        if isinstance(s, SeqPolicy)
    }
    assert len(switch_policies) == 2
    assert len(normalised) == 2
    assert set(normalised) == switch_policies


# The normal forms each build takes, as ``(calls, distinct policies)``: no
# table keeps them, and ``Analysis.hnfs`` takes each term's steps once, so
# only the empty policy ``0`` repeats (on fanout).  A change that makes a
# normal form repeat shows here.
NORMAL_FORM_TRAFFIC = [
    ("fanout", 6, "full", 9, 7),
    ("packet-space", 1, "race", 2, 2),
    ("packet-space", 2, "race", 4, 4),
    ("packet-space", 3, "race", 4, 4),
    ("bundled", 6, "full", 3, 3),
]


@pytest.mark.parametrize("family, depth, mode, calls, distinct", NORMAL_FORM_TRAFFIC)
def test_each_build_takes_few_normal_forms(normalised, family, depth, mode, calls, distinct):
    text = {
        "fanout": lambda: fanout_model(1),
        "packet-space": lambda: packet_space_model(1),
        "bundled": SW_MODEL_PATH.read_text,
    }[family]()
    model = parse_model(text)
    build_tree(model, infer_domains(model), depth, mode)
    assert (len(normalised), len(set(normalised))) == (calls, distinct)


def test_equal_policies_spelled_apart_dedup_to_one_summand():
    model = parse_model(
        'channels x ;\ndef A = x ! "(pt = 1) . (pt = 1)" ; bot o+ x ! "(pt = 1)" ; bot ;\n'
        "init A ;"
    )
    h = hnf(Var("A"), Analysis(model, infer_domains(model)))
    assert h.send_steps == (model.definitions["A"].left,)


@pytest.mark.parametrize(
    "body",
    [
        'x ! "(pt <- 2)" ; bot o+ x ! "(pt = 1)" ; bot o+ x ! "(pt = 2)" ; A',
        'x ! t ; bot o+ x ! "(pt = 1)" ; A o+ x ! s ; bot o+ x ! "(pt = 1) . 1" ; bot',
        'x ? "(pt = 2)" ; bot o+ y ! "(pt <- 1)" ; A o+ x ! "(pt = 1)" ; bot '
        'o+ x ? "(pt = 1)" ; A o+ x ? "(pt = 2) + 0" ; A o+ y ! "(pt <- 1)" ; bot',
    ],
)
def test_distinct_messages_sort_as_eager_keys_sort_them(body):
    model = parse_model(f"channels x, y ;\ndef A = {body} ;\ninit A ;")
    dom = infer_domains(model)
    h = hnf(Var("A"), Analysis(model, dom))
    assert h.send_steps + h.recv_steps == eager_order(Var("A"), model, dom)


def test_moves_key_distinct_messages_only(monkeypatch):
    keyed = []

    def counted(msg, dom):
        keyed.append(msg)
        return message_key(msg, dom)

    monkeypatch.setattr(engine, "message_key", counted)
    shared = parse_model(
        'channels x ;\ndef A = x ! "(pt = 1)" ; bot ;\ndef B = x ? "(pt = 1)" ; bot ;\n'
        "init A || B ;"
    )
    spelled_apart = parse_model(
        'channels x ;\ndef A = x ! "(pt = 1) . (pt = 1)" ; bot ;\n'
        'def B = x ? "(pt = 1)" ; bot ;\ninit A || B ;'
    )
    tokens = parse_model(
        'channels x ;\ndef A = x ! m ; "(pt <- 1)" ; bot ;\ndef B = x ? m ; bot ;\ninit A || B ;'
    )
    for model, keys in ((shared, 0), (spelled_apart, 2), (tokens, 0)):
        keyed.clear()
        state = initial_state(model, 1)
        (label, _), = engine.successors(state, Analysis(model, infer_domains(model)))
        assert label == RcfgTransition(0, 1, "x", model.definitions["A"].message)
        assert len(keyed) == keys


# --------------------------------------------------------------------------
# First steps against the SOS rules, and the laws of choice


@pytest.mark.parametrize(
    "text",
    [
        SW_MODEL_PATH.read_text(),
        *(fanout_model(seed) for seed in range(3)),
        *(random_model_text(random.Random(seed)) for seed in range(30)),
        *(wide_model_text(random.Random(seed)) for seed in range(40)),
    ],
    ids=[
        "sw_controller",
        *(f"fanout{s}" for s in range(3)),
        *(f"random{s}" for s in range(30)),
        *(f"wide{s}" for s in range(40)),
    ],
)
def test_first_steps_follow_the_sos_rules(text):
    # Every term of the model: its HNF holds the first steps the rules
    # give, each once, in strictly ascending canonical order.
    model = parse_model(text)
    dom = infer_domains(model)
    analysis = Analysis(model, dom)
    roots = (*model.definitions.values(), *model.init)
    for t in dict.fromkeys(s for root in roots for s in subterms(root)):
        steps = first_steps_of_hnf(hnf(t, analysis), dom)
        assert set(steps) == oracle_first_steps(t, model.definitions, dom)
        keys = [first_step_key(s, dom) for s in steps]
        assert keys == sorted(set(keys))


LAW_DOM = FieldDomains(("a", "b"), (("0", "1"), ("0", "1", "2")))
NO_DEFINITIONS = ParsedModel({}, None, frozenset({"x"}), (), ())


def random_summand(rng, t):
    """A policy prefix, or a send or receive of a policy message, then ``t``."""
    p = random_policy(rng, LAW_DOM, 2)
    kind = rng.randrange(3)
    return SeqPolicy(p, t) if kind == 0 else (Send, Recv)[kind - 1]("x", p, t)


@pytest.mark.parametrize("seed", range(100))
def test_choice_laws_up_to_the_sort_key(seed):
    rng = random.Random(seed)
    analysis = Analysis(NO_DEFINITIONS, LAW_DOM)

    def keys(term):
        return [first_step_key(s, LAW_DOM) for s in first_steps_of_hnf(hnf(term, analysis), LAW_DOM)]

    p, q = (random_policy(rng, LAW_DOM, 3) for _ in range(2))
    t = rng.choice([Bot(), Send("x", "m", Bot()), random_summand(rng, Bot())])
    s = random_summand(rng, t)
    if rng.random() < 0.5:
        s = Choice(s, random_summand(rng, Bot()))
    a = random_summand(rng, t)
    assert keys(SeqPolicy(Union(p, q), t)) == keys(Choice(SeqPolicy(p, t), SeqPolicy(q, t)))
    assert keys(Choice(a, s)) == keys(Choice(s, a))
    assert keys(Choice(s, s)) == keys(s)
    assert keys(Choice(s, Bot())) == keys(s) == keys(Choice(Bot(), s))
    assert keys(Choice(SeqPolicy(Zero(), t), s)) == keys(s)
    # A message counts up to policy equivalence: ``p`` and ``p + 0`` are
    # different objects with one relation, so ``o+`` keeps one summand.
    for kind in (Send, Recv):
        spelled_apart = Choice(kind("x", Union(p, Zero()), t), kind("x", p, t))
        assert keys(spelled_apart) == keys(kind("x", p, t))
