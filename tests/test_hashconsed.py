"""The record protocol of ``netkat.HashConsed`` subclasses: positional
fields in annotation order, a dataclass-style ``repr``, no mutation, and
one object per value within one parse.  ``engine.SymbolicState`` and the
edge labels are value records with the same ``repr`` and no mutation:
equal records are equal, not one object."""

import gc
import weakref

import pytest

from dynarace import engine, model, netkat
from dynarace.engine import PacketTransition, RcfgTransition, SymbolicState
from dynarace.model import Bot, Send, Var, parse_model
from dynarace.netkat import Assign, HashConsed, One, Seq, Test, Union, Zero

from conftest import syntax

RECORDS = {
    netkat: ["Zero", "One", "Test", "Assign", "Neg", "Union", "Seq", "Star"],
    model: ["Bot", "SeqPolicy", "Send", "Recv", "Choice", "Var"],
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
    # Only a parse interns: a record built directly is a new object.
    assert cls(*args) is not record
    parser = netkat._PolicyParser("")
    made = parser.make(cls, *args)
    assert type(made) is cls and tuple(getattr(made, f) for f in fields) == args
    assert parser.make(cls, *args) is made


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
    send = Send("Up", Assign("pt", "1"), Var("SW"))
    assert repr(send) == (
        "Send(channel='Up', message=Assign(field='pt', value='1'), cont=Var(name='SW'))"
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
    assert vars(t) == {"field": "pt", "value": "1"}


# A model whose quoted policies share nodes: ``(pt = 1)`` is sent as a
# message by A, and is the first test of B's prefix.
SHARED = """
channels x ;
def A = x ! "(pt = 1)" ; A ;
def B = x ? "(pt = 1)" ; "(pt = 1) . (pt <- 2)" ; B ;
init A || B ;
"""


def test_a_policy_node_is_one_object_across_the_quoted_policies_of_a_model():
    m = parse_model(SHARED)
    sent = m.definitions["A"].message
    received = m.definitions["B"].message
    prefix = m.definitions["B"].cont.policy
    assert type(sent) is Test and type(prefix) is Seq
    assert sent is received is prefix.left
    # Another parse of the same text shares none of them.
    other = parse_model(SHARED)
    assert other.definitions["A"].message is not sent


def test_a_dropped_model_frees_its_policy_nodes():
    gc.collect()
    gc.disable()
    try:
        m = parse_model(SHARED)
        records = syntax(m)
        policies = [r for r in records if isinstance(r, (Test, Assign, Seq))]
        assert len(policies) == 3  # (pt = 1), (pt <- 2) and their ``.``
        refs = [weakref.ref(r) for r in records]
        del m, records, policies
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_symbolic_state_is_a_value_record():
    # A value record outside ``HashConsed``: equal fields give equal states
    # with equal hashes, not one object.
    terms, clocks = (Var("C"), Bot()), ((1, 0), (0, 0))
    state = SymbolicState(terms, clocks, 4)
    assert SymbolicState.__match_args__ == ("terms", "clocks", "depth_remaining")
    assert (state.terms, state.clocks, state.depth_remaining) == (terms, clocks, 4)
    again = SymbolicState(terms, clocks, 4)
    assert again == state and hash(again) == hash(state) == hash((terms, clocks, 4))
    assert again is not state
    assert SymbolicState(terms, clocks, 5) != state
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


@pytest.mark.parametrize("cls", [PacketTransition, RcfgTransition], ids=lambda c: c.__name__)
def test_edge_label_is_a_value_record(cls):
    # Like ``SymbolicState``: equal fields give equal labels with equal
    # hashes, not one object.
    fields = cls._fields
    args = tuple(f"arg{i}" for i in range(len(fields)))
    label = cls(*args)
    assert cls.__match_args__ == fields
    assert tuple(getattr(label, f) for f in fields) == args
    again = cls(*args)
    assert again == label and hash(again) == hash(label) == hash(args)
    assert again is not label
    assert cls(*args[:-1], "other") != label
    text = ", ".join(f"{f}={a!r}" for f, a in zip(fields, args))
    assert repr(label) == f"{cls.__name__}({text})"
    with pytest.raises(AttributeError):
        setattr(label, fields[0], None)
    with pytest.raises(AttributeError):
        label.other = None


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
