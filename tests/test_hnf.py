import pytest

from dynarace.engine import Analysis
from dynarace.netkat import normal_form, parse_policy
from dynarace.hnf import HeadNormalForm, PacketStep, hnf
from dynarace.model import (
    Bot,
    Choice,
    Recv,
    Send,
    Token,
    Var,
    infer_domains,
    parse_model,
)

from conftest import pkt


def test_hnf_sw(sw_dom, sw_analysis):
    h = hnf(Var("SW"), sw_analysis)
    assert sum(map(len, h)) == 3
    b1 = pkt(sw_dom, flag="blocking", pt=1)
    r1 = pkt(sw_dom, flag="regular", pt=1)
    r2 = pkt(sw_dom, flag="regular", pt=2)
    assert h.packet_steps == (
        PacketStep(b1, b1, Send("Help", Token("one"), Var("SW"))),
        PacketStep(r1, r2, Var("SW")),
    )
    assert h.recv_steps == (Recv("Up", Token("one"), Var("SWP")),)
    assert h.send_steps == ()


def test_hnf_swp_empty(sw_analysis):
    assert hnf(Var("SWP"), sw_analysis) == HeadNormalForm((), (), ())


def test_hnf_controller(sw_analysis):
    h = hnf(Var("C"), sw_analysis)
    assert h == HeadNormalForm(
        (), (), (Recv("Help", Token("one"), Send("Up", Token("one"), Var("C"))),)
    )


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
    assert all(s.cont == Bot() for s in h.packet_steps)


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


def test_normal_form_cached_on_domains(sw_dom):
    p = parse_policy("(pt = 1) . (pt <- 2) + (flag <- blocking)")
    assert normal_form(p, sw_dom) is normal_form(p, sw_dom)


def test_hnf_cached_on_analysis(sw_analysis):
    h = hnf(Var("SW"), sw_analysis)
    assert hnf(Var("SW"), sw_analysis) is h
    assert sw_analysis.hnfs == {Var("SW"): h}


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
    assert rendered == [Var("A")]
