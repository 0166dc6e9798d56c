import random

import pytest

from dynarace import (
    DomainTooLarge,
    FieldDomains,
    eval_policy,
    normal_form,
    parse_policy,
    policy_equiv,
    render_policy,
)
from dynarace.netkat import (
    Assign,
    Neg,
    One,
    PolicySyntaxError,
    Seq,
    Star,
    Test,
    Union,
    Zero,
    is_predicate,
)
from dynarace import netkat
from oracles import oracle_eval, oracle_relation, random_policy

PT = FieldDomains(fields=("pt",), values=(("1", "2"),))


def pkt(dom, **kw):
    return dom.packet({k: str(v) for k, v in kw.items()})


class TestParser:
    def test_primitives(self):
        assert parse_policy("0") == Zero()
        assert parse_policy("1") == One()
        assert parse_policy("pt = 1") == Test("pt", "1")
        assert parse_policy("pt <- 2") == Assign("pt", "2")

    def test_precedence(self):
        p = parse_policy("a = 1 . b = 2 + c = 3")
        assert p == Union(Seq(Test("a", "1"), Test("b", "2")), Test("c", "3"))

    def test_star_and_neg(self):
        assert parse_policy("(pt <- 2)*") == Star(Assign("pt", "2"))
        assert parse_policy("~(pt = 1)") == Neg(Test("pt", "1"))
        assert parse_policy("~ ~ pt = 1") == Neg(Neg(Test("pt", "1")))

    def test_neg_of_policy_rejected(self):
        with pytest.raises(PolicySyntaxError):
            parse_policy("~(pt <- 1)")
        with pytest.raises(PolicySyntaxError):
            parse_policy("~((pt = 1)*)")

    def test_trailing_garbage(self):
        with pytest.raises(PolicySyntaxError):
            parse_policy("pt = 1 )")

    def test_is_predicate(self):
        assert is_predicate(parse_policy("~(a = 1) . (b = 2) + 0"))
        assert not is_predicate(parse_policy("a <- 1"))
        assert not is_predicate(parse_policy("(a = 1)*"))

    def test_render_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_policy(rng, PT, 4)
            assert parse_policy(render_policy(p)) == p


class TestEval:
    def test_forward_regular(self, sw_dom):
        p = parse_policy("(flag = regular) . (pt = 1) . (pt <- 2)")
        sigma = pkt(sw_dom, flag="regular", pt=1)
        assert eval_policy(p, sigma, sw_dom) == {pkt(sw_dom, flag="regular", pt=2)}

    def test_one_is_identity(self, sw_dom):
        for sigma in sw_dom.all_packets():
            assert eval_policy(parse_policy("1"), sigma, sw_dom) == {sigma}

    def test_star_fixpoint(self):
        p = parse_policy("((pt = 1) . (pt <- 2) + (pt = 2) . (pt <- 1))*")
        assert eval_policy(p, pkt(PT, pt=1), PT) == {pkt(PT, pt=1), pkt(PT, pt=2)}

    def test_neg(self, sw_dom):
        p = parse_policy("~(flag = blocking)")
        assert eval_policy(p, pkt(sw_dom, flag="blocking", pt=1), sw_dom) == set()
        sigma = pkt(sw_dom, flag="regular", pt=1)
        assert eval_policy(p, sigma, sw_dom) == {sigma}


class TestNormalForm:
    def test_zero_empty(self, sw_dom):
        assert normal_form(parse_policy("0"), sw_dom) == ()

    def test_one_identity(self):
        assert normal_form(parse_policy("1"), PT) == (
            (("1",), ("1",)),
            (("2",), ("2",)),
        )

    def test_blocking_test(self, sw_dom):
        p = parse_policy("(flag = blocking) . (pt = 1)")
        b1 = pkt(sw_dom, flag="blocking", pt=1)
        assert normal_form(p, sw_dom) == ((b1, b1),)

    def test_domain_too_large(self):
        fields = tuple(f"f{i}" for i in range(21))  # 2^21 packets
        dom = FieldDomains(fields, (("0", "1"),) * 21)
        with pytest.raises(DomainTooLarge):
            normal_form(parse_policy("1"), dom)

    def test_canonical_order_and_determinism(self, sw_dom):
        p = parse_policy("(pt <- 1) + (pt <- 2) + (flag <- regular)")
        nf1 = normal_form(p, sw_dom)
        nf2 = normal_form(p, sw_dom)
        assert nf1 == nf2
        keys = [(sw_dom.packet_key(a), sw_dom.packet_key(b)) for a, b in nf1]
        assert keys == sorted(keys)
        assert len(set(nf1)) == len(nf1)


    def test_nested_star(self, monkeypatch):
        values = tuple(str(i) for i in range(12))
        dom = FieldDomains(("a", "b"), (values, values))

        def increments(f):
            return " + ".join(
                f"({f} = {i}) . ({f} <- {i + 1})" for i in range(len(values) - 1)
            )

        p = parse_policy(f"(({increments('a')})* . ({increments('b')}))*")
        calls = [0]
        evaluate = netkat._eval

        def counted(*args):
            calls[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(netkat, "_eval", counted)
        assert set(normal_form(p, dom)) == oracle_relation(p, dom)
        # Star-body steps are memoized within the call; without that the
        # evaluator recurses about 1.6 million times here.
        assert calls[0] < 100_000


class TestEquivalence:
    def test_union_commutes(self, sw_dom):
        p = parse_policy("(pt = 1) + (flag <- blocking)")
        q = parse_policy("(flag <- blocking) + (pt = 1)")
        assert policy_equiv(p, q, sw_dom)

    def test_test_idempotent(self, sw_dom):
        assert policy_equiv(
            parse_policy("(pt = 1) . (pt = 1)"), parse_policy("pt = 1"), sw_dom
        )

    def test_zero_not_one(self, sw_dom):
        assert not policy_equiv(parse_policy("0"), parse_policy("1"), sw_dom)


class TestOracleAgreement:
    def test_random_policies_match_independent_evaluator(self, sw_dom):
        rng = random.Random(42)
        for _ in range(100):
            p = random_policy(rng, sw_dom, 4)
            for sigma in sw_dom.all_packets():
                assert eval_policy(p, sigma, sw_dom) == set(
                    oracle_eval(p, sigma, sw_dom)
                )

    def test_normal_form_slices_match_eval(self, sw_dom):
        rng = random.Random(43)
        for _ in range(50):
            p = random_policy(rng, sw_dom, 4)
            nf = normal_form(p, sw_dom)
            for sigma in sw_dom.all_packets():
                produced = {pi for alpha, pi in nf if alpha == sigma}
                assert produced == eval_policy(p, sigma, sw_dom)
