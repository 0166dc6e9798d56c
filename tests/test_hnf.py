import pytest

from dynarace import hnf, normal_form, parse_model, parse_policy
from dynarace.hnf import PacketStep, RecvStep, SendStep
from dynarace.model import Bot, Choice, ParInsideDefinition, Recv, Send, Token, Var


def b1(dom):
    return dom.packet({"flag": "blocking", "pt": "1"})


def r1(dom):
    return dom.packet({"flag": "regular", "pt": "1"})


def r2(dom):
    return dom.packet({"flag": "regular", "pt": "2"})


def test_hnf_sw(sw_model, sw_dom):
    h = hnf(Var("SW"), sw_model, sw_dom)
    assert len(h.summands) == 3
    assert h.packet_steps == (
        PacketStep(b1(sw_dom), b1(sw_dom), Send("Help", Token("one"), Var("SW"))),
        PacketStep(r1(sw_dom), r2(sw_dom), Var("SW")),
    )
    assert h.recv_steps == (RecvStep("Up", Token("one"), Var("SWP")),)
    assert h.send_steps == ()


def test_hnf_swp_empty(sw_model, sw_dom):
    assert hnf(Var("SWP"), sw_model, sw_dom).summands == ()


def test_hnf_controller(sw_model, sw_dom):
    h = hnf(Var("C"), sw_model, sw_dom)
    assert h.summands == (
        RecvStep("Help", Token("one"), Send("Up", Token("one"), Var("C"))),
    )


def test_choice_laws(sw_model, sw_dom):
    p, q = Var("SW"), Var("C")
    assert hnf(Choice(p, q), sw_model, sw_dom) == hnf(
        Choice(q, p), sw_model, sw_dom
    )
    assert hnf(Choice(p, p), sw_model, sw_dom) == hnf(p, sw_model, sw_dom)
    assert hnf(Choice(p, Bot()), sw_model, sw_dom) == hnf(p, sw_model, sw_dom)


def test_seq_policy_fidelity(sw_model, sw_dom):
    from dynarace.model import SeqPolicy

    policy = parse_policy("(pt = 1) + (flag <- blocking)")
    term = SeqPolicy(policy, Bot())
    h = hnf(term, sw_model, sw_dom)
    pairs = {(s.alpha, s.pi) for s in h.packet_steps}
    assert pairs == set(normal_form(policy, sw_dom))
    assert all(s.cont == Bot() for s in h.packet_steps)


def test_no_var_at_head(sw_model, sw_dom):
    for name in sw_model.definitions:
        for s in hnf(Var(name), sw_model, sw_dom).summands:
            assert not isinstance(s.cont, type(None))
            # heads are fully resolved steps, never bare variables
            assert isinstance(s, (PacketStep, SendStep, RecvStep))


def test_message_matching_up_to_policy_equivalence():
    text = """
    channels x ;
    def A = x ! "(pt = 1) . (pt = 1)" ; bot ;
    init A ;
    """
    from dynarace import infer_domains
    from dynarace.hnf import message_key

    model = parse_model(text)
    dom = infer_domains(model)
    send = hnf(Var("A"), model, dom).send_steps[0]
    other = parse_model(
        'channels x ;\ndef B = x ? "(pt = 1)" ; bot ;\ninit B ;'
    )
    recv = hnf(Var("B"), other, dom).recv_steps[0]
    assert message_key(send.message, dom) == message_key(recv.message, dom)


def test_par_rejected(sw_model, sw_dom):
    class FakePar:
        pass

    with pytest.raises(ParInsideDefinition):
        hnf(FakePar(), sw_model, sw_dom)


def test_normal_form_cached_on_domains(sw_dom):
    p = parse_policy("(pt = 1) . (pt <- 2) + (flag <- blocking)")
    assert normal_form(p, sw_dom) is normal_form(p, sw_dom)


def test_hnf_cached_on_model(sw_model, sw_dom):
    assert hnf(Var("SW"), sw_model, sw_dom) is hnf(Var("SW"), sw_model, sw_dom)


def test_hnf_cache_is_per_model():
    from dynarace import infer_domains

    # Same term, same domains, different definitions of A.
    m1 = parse_model('def A = "(pt <- 1)" ; A ; init A ;')
    m2 = parse_model('def A = "(pt <- 1)" ; A o+ "(pt <- 2)" ; A ; init A ;')
    dom = infer_domains(m2)
    h1 = hnf(Var("A"), m1, dom)
    h2 = hnf(Var("A"), m2, dom)
    assert h1 != h2
    assert len(h1.packet_steps) < len(h2.packet_steps)
