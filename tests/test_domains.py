import itertools
import random
import sys

import pytest

from dynarace import model as mdl, netkat
from dynarace.model import infer_domains, parse_model
from dynarace.domains import DynaraceError, FieldDomains, residual_token

from conftest import ROOT, pkt
from oracles import random_model_text

sys.path.insert(0, str(ROOT / "perfbench"))
from models import fanout_model, packet_space_model  # noqa: E402


def test_infer_running_example(sw_model, sw_dom):
    assert sw_dom.fields == ("flag", "pt")
    assert sw_dom.values[0] == ("blocking", "regular", residual_token("flag"))
    assert sw_dom.values[1] == ("1", "2", residual_token("pt"))


def test_declared_domains_returned_unchanged():
    text = """
    fields { pt : { 1, 2 } ; }
    def A = "(pt = 1)" ; A ;
    init A ;
    """
    model = parse_model(text)
    dom = infer_domains(model)
    assert dom is model.declared_domains
    assert dom.values == (("1", "2"),)


def test_declared_domain_violation():
    text = """
    fields { pt : { 1, 2 } ; }
    def A = "(pt = 3)" ; A ;
    init A ;
    """
    with pytest.raises(
        DynaraceError, match="^value '3' is outside the declared domain of 'pt'$"
    ):
        infer_domains(parse_model(text))


def test_undeclared_field():
    text = """
    fields { pt : { 1, 2 } ; }
    def A = "(flag = x)" ; A ;
    init A ;
    """
    with pytest.raises(DynaraceError, match="^field 'flag' is not declared$"):
        infer_domains(parse_model(text))


def test_empty_model():
    text = """
    channels x ;
    def A = x ! m ; A ;
    init A ;
    """
    with pytest.raises(
        DynaraceError, match="^no fields occur anywhere in the model$"
    ):
        infer_domains(parse_model(text))


def test_packet_enumeration_order():
    dom = FieldDomains(
        fields=("a", "b"),
        values=(("0", "1"), ("x", "y")),
    )
    assert list(itertools.product(*dom.values)) == [
        ("0", "x"),
        ("0", "y"),
        ("1", "x"),
        ("1", "y"),
    ]
    assert dom.packet_count == 4


def test_render(sw_dom):
    b1 = pkt(sw_dom, flag="blocking", pt=1)
    assert sw_dom.render_packet(b1) == "{flag=blocking, pt=1}"
    assert sw_dom.render_test(b1) == "(flag = blocking) . (pt = 1)"


def policy_occurrences(model):
    """Every policy node of the model, at each place it occurs, walked
    recursively: definitions then ``init``, each term and policy in
    pre-order, left branch first."""

    def policy(p):
        yield p
        for child in ("pred", "left", "right", "body"):
            if hasattr(p, child):
                yield from policy(getattr(p, child))

    def term(t):
        if isinstance(t, mdl.SeqPolicy):
            yield from policy(t.policy)
        elif isinstance(t, (mdl.Send, mdl.Recv)) and not isinstance(t.message, str):
            yield from policy(t.message)
        for child in ("left", "right", "cont"):
            if hasattr(t, child):
                yield from term(getattr(t, child))

    for t in (*model.definitions.values(), *model.init):
        yield from term(t)


def eager_literals(model) -> list:
    """Every (field, value) literal of the model, with its repeats."""
    return [
        (q.field, q.value)
        for q in policy_occurrences(model)
        if isinstance(q, (netkat.Test, netkat.Assign))
    ]


SEEDED_MODELS = [
    *(packet_space_model(s) for s in range(3)),
    *(fanout_model(s) for s in range(2)),
    *(random_model_text(random.Random(s)) for s in range(10)),
]


@pytest.mark.parametrize("text", SEEDED_MODELS, ids=range(len(SEEDED_MODELS)))
def test_domains_follow_the_first_occurrence_of_each_literal(text):
    # Each distinct policy node is walked once; a repeat adds no literal
    # that came before, so fields, values and the first value outside a
    # declared domain are those of an eager walk of every occurrence.
    model = parse_model(text)
    literals = eager_literals(model)
    fields = tuple(dict.fromkeys(f for f, _ in literals))
    if model.declared_domains is None:
        dom = infer_domains(model)
        assert dom.fields == fields
        assert dom.values == tuple(
            tuple(sorted({v for g, v in literals if g == f})) + (residual_token(f),)
            for f in fields
        )
    else:
        dom = model.declared_domains
    for i, f in enumerate(dom.fields):
        # With no value declared for ``f``, its first literal is outside.
        values = dom.values[:i] + ((),) + dom.values[i + 1:]
        narrowed = model._replace(declared_domains=FieldDomains(dom.fields, values))
        first = next((v for g, v in literals if g == f), None)
        if first is None:
            assert infer_domains(narrowed) is narrowed.declared_domains
            continue
        with pytest.raises(
            DynaraceError, match=f"^value '{first}' is outside the declared domain of '{f}'$"
        ):
            infer_domains(narrowed)


def test_each_distinct_policy_node_is_walked_once(monkeypatch):
    # The controller's tables are the switches' received tables, one object.
    model = parse_model(packet_space_model(0))
    walked = []
    real = netkat.policy_nodes

    def counting(p, skip):
        for q in real(p, skip):
            walked.append(q)
            yield q

    monkeypatch.setattr(netkat, "policy_nodes", counting)
    infer_domains(model)
    occurrences = list(policy_occurrences(model))
    assert len(walked) == len(set(walked)) == len(set(occurrences)) < len(occurrences)
