"""The record protocol of ``netkat.HashConsed`` subclasses: positional
fields in annotation order, a dataclass-style ``repr``, and no mutation."""

import pytest

from dynarace import engine, model, netkat
from dynarace.engine import SymbolicState
from dynarace.model import Bot, PolicyMsg, Send, Var
from dynarace.netkat import Assign, HashConsed, One, Seq, Test, Union, Zero

RECORDS = {
    netkat: ["Zero", "One", "Test", "Assign", "Neg", "Union", "Seq", "Star"],
    model: ["Bot", "SeqPolicy", "Send", "Recv", "Choice", "Var", "Token", "PolicyMsg"],
    engine: ["SymbolicState", "PacketTransition", "RcfgTransition"],
}


def test_every_record_is_hash_consed():
    subclasses = set(HashConsed.__subclasses__())
    for module, names in RECORDS.items():
        for name in names:
            assert getattr(module, name) in subclasses, name


@pytest.mark.parametrize("cls", HashConsed.__subclasses__(), ids=lambda c: c.__name__)
def test_match_args_are_the_annotated_fields(cls):
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    assert cls.__match_args__ == fields
    args = tuple(f"arg{i}" for i in range(len(fields)))
    record = cls(*args)
    assert tuple(getattr(record, f) for f in fields) == args
    assert cls(*args) is record


def test_fields_are_positional_and_complete():
    with pytest.raises(ValueError):
        Test("pt")
    with pytest.raises(TypeError):
        Test(field="pt", value="1")


def test_repr_is_the_dataclass_text():
    p = Seq(Union(Test("pt", "0"), One()), Assign("pt", "1"))
    assert repr(p) == (
        "Seq(left=Union(left=Test(field='pt', value='0'), right=One()), "
        "right=Assign(field='pt', value='1'))"
    )
    send = Send("Up", PolicyMsg(Assign("pt", "1")), Var("SW"))
    assert repr(send) == (
        "Send(channel='Up', message=PolicyMsg(policy=Assign(field='pt', "
        "value='1')), cont=Var(name='SW'))"
    )
    state = SymbolicState((Var("C"), Bot()), ((1, 0), (0, 0)), 3)
    assert repr(state) == (
        "SymbolicState(terms=(Var(name='C'), Bot()), "
        "clocks=((1, 0), (0, 0)), depth_remaining=3)"
    )
    assert repr(Zero()) == "Zero()"


def test_fields_cannot_be_set_or_deleted():
    t = Test("pt", "1")
    with pytest.raises(AttributeError):
        t.value = "2"
    with pytest.raises(AttributeError):
        t.other = "2"
    with pytest.raises(AttributeError):
        del t.value
    assert t.value == "1"
    assert Test("pt", "1") is t


def test_racy_pair_is_computed_once_per_state(monkeypatch):
    calls = []
    real = engine.first_concurrent_pair

    def counting(clocks):
        calls.append(clocks)
        return real(clocks)

    monkeypatch.setattr(engine, "first_concurrent_pair", counting)
    # a depth no other test uses, so the state is new
    state = SymbolicState((Var("C"), Var("SW")), ((1, 0), (0, 1)), 9871)
    assert state.racy_pair == real(state.clocks)
    assert state.racy_pair is state.racy_pair
    assert SymbolicState(state.terms, state.clocks, 9871).racy_pair is state.racy_pair
    assert len(calls) == 1
