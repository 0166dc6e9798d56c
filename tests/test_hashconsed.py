"""The record protocol of ``netkat.HashConsed`` subclasses: positional
fields in annotation order, a dataclass-style ``repr``, and no mutation.
The table holds syntax and edge labels only.  ``engine.SymbolicState`` keeps
the same protocol as a value record outside it: equal states are equal, not
one object."""

import gc
import weakref

import pytest

from dynarace import engine, model, netkat
from dynarace.engine import SymbolicState
from dynarace.model import Bot, PolicyMsg, Send, Var
from dynarace.netkat import Assign, HashConsed, One, Seq, Test, Union, Zero

RECORDS = {
    netkat: ["Zero", "One", "Test", "Assign", "Neg", "Union", "Seq", "Star"],
    model: ["Bot", "SeqPolicy", "Send", "Recv", "Choice", "Var", "Token", "PolicyMsg"],
    engine: ["PacketTransition", "RcfgTransition"],
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


@pytest.mark.parametrize("built_first", ["holder", "record"])
def test_a_record_interned_again_before_the_old_callback_keeps_its_entry(built_first):
    # A collector pass clears every weak reference into its garbage before it
    # runs any callback, so an earlier callback can build an equal record
    # anew; the dead entry's callback must not then drop the new entry.
    class Holder:
        pass

    name = f"gc-{built_first}"
    if built_first == "holder":
        holder = Holder()
        holder.record = Test(name, "1")
    else:
        record = Test(name, "1")
        holder = Holder()
        holder.record = record
        del record
    holder.cycle = holder
    rebuilt = []
    probe = weakref.ref(holder, lambda _: rebuilt.append(Test(name, "1")))
    del holder
    gc.collect()
    assert probe() is None and len(rebuilt) == 1
    assert Test(name, "1") is rebuilt[0]
    assert HashConsed._instances[(Test, name, "1")]() is rebuilt[0]


def test_symbolic_state_is_a_value_record():
    # A value record outside ``HashConsed``: equal fields give equal states
    # with equal hashes, not one object, and no table entry.
    terms, clocks = (Var("C"), Bot()), ((1, 0), (0, 0))
    state = SymbolicState(terms, clocks, 4)
    assert SymbolicState.__match_args__ == ("terms", "clocks", "depth_remaining")
    assert (state.terms, state.clocks, state.depth_remaining) == (terms, clocks, 4)
    again = SymbolicState(terms, clocks, 4)
    assert again == state and hash(again) == hash(state) == hash((terms, clocks, 4))
    assert again is not state
    assert SymbolicState(terms, clocks, 5) != state
    assert not any(key[0] is SymbolicState for key in HashConsed._instances)
    with pytest.raises(TypeError):
        SymbolicState(terms, clocks)
    with pytest.raises(TypeError):
        SymbolicState(terms=terms, clocks=clocks, depth_remaining=4)
    for field in ("terms", "clocks", "depth_remaining", "racy_pair", "key_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(state, field, None)
    for field in ("terms", "racy_pair"):
        with pytest.raises(AttributeError):
            delattr(state, field)
    assert (state.terms, state.racy_pair) == (terms, None)


def test_racy_pair_is_computed_once_per_construction(monkeypatch):
    # Once per distinct state within a build is pinned by
    # ``tests/test_engine.py::test_race_check_runs_once_per_distinct_state``.
    calls = []
    real = engine.first_concurrent_pair

    def counting(clocks):
        calls.append(clocks)
        return real(clocks)

    monkeypatch.setattr(engine, "first_concurrent_pair", counting)
    state = SymbolicState((Var("C"), Var("SW")), ((1, 0), (0, 1)), 9871)
    assert state.racy_pair == real(state.clocks) == (0, 1)
    assert state.racy_pair is state.racy_pair
    assert len(calls) == 1
    again = SymbolicState(state.terms, state.clocks, 9871)
    assert again.racy_pair == state.racy_pair
    assert calls == [state.clocks, state.clocks]
