import itertools

import pytest

from dynarace.model import infer_domains, parse_model
from dynarace.domains import DynaraceError, FieldDomains, residual_token

from conftest import pkt


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
