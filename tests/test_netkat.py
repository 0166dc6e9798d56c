import itertools
import random
import sys
import time

import pytest

from dynarace.netkat import (
    MAX_NESTING,
    Assign,
    Neg,
    One,
    PolicySyntaxError,
    Seq,
    Star,
    Test,
    Union,
    Zero,
    normal_form,
    parse_policy,
    policy_literals,
    render_policy,
)
from dynarace import netkat
from dynarace.domains import DynaraceError, FieldDomains, PACKET_CAP
from conftest import pkt, shape
from oracles import (
    lexed,
    oracle_eval,
    oracle_is_predicate,
    oracle_relation,
    random_domains,
    random_policy,
)

PT = FieldDomains(fields=("pt",), values=(("1", "2"),))


def right_nested(entry: str) -> str:
    """``MAX_NESTING`` entries, each in parentheses inside the one before:
    ``entry`` with ``{i}``, ``{j}`` (``i + 1``) and ``{rest}`` (the next
    entries), the last one ``(pt <- {MAX_NESTING})``."""
    text = f"(pt <- {MAX_NESTING})"
    for i in reversed(range(MAX_NESTING - 1)):
        text = entry.format(i=i, j=i + 1, rest=text)
    return text


def recursion_depth() -> int:
    """The depth that the interpreter counts against the recursion limit
    at this call, found by recursing to the limit.  Counting frames would
    miss what some versions count besides them."""

    def probe(n):
        try:
            return probe(n + 1)
        except RecursionError:
            return n

    return sys.getrecursionlimit() - probe(1)


def outputs(p, sigma, dom):
    """The outputs of ``p`` on ``sigma``: its slice of the normal form."""
    return {pi for alpha, pi in normal_form(p, dom) if alpha == sigma}


# Every malformed policy below, with the message and offset of the
# ``PolicySyntaxError`` it raises.  A bad character is reported before any
# parse error, wherever it is in the text.
MALFORMED_POLICIES = [
    ("pt = 1 )", "trailing input ')' (at offset 7)", 7),
    ("~(pt <- 1)", "negation applies only to predicates (at offset 0)", 0),
    ("a = 1 . ~((b = 2)*)", "negation applies only to predicates (at offset 8)", 8),
    ("pt <- ", "expected a value, found '' (at offset 6)", 6),
    ("pt", "expected '=' or '<-' after field 'pt' (at offset 2)", 2),
    ("(pt = 1", "expected ')', found '' (at offset 7)", 7),
    ("pt = 1 $", "unexpected character '$' (at offset 7)", 7),
    ("", "unexpected token '' (at offset 0)", 0),
    ("+ pt = 1", "unexpected token '+' (at offset 0)", 0),
    ("pt = 1 . 2", "unexpected token '2' (at offset 9)", 9),
    ("pt = =", "expected a value, found '=' (at offset 5)", 5),
    ("pt = ) @", "unexpected character '@' (at offset 7)", 7),
    ("pt < 1", "unexpected character '<' (at offset 3)", 3),
    ('pt = "1"', 'unexpected character \'"\' (at offset 5)', 5),
    ("pt = 1\n)", "trailing input ')' (at offset 7)", 7),
    # Blanks before a token belong to its match: offsets stay the token's.
    ("(pt = 1)  \t\n  )", "trailing input ')' (at offset 14)", 14),
    ("pt = 1 +   \n", "unexpected token '' (at offset 12)", 12),
    ("pt = 1 \t \n$", "unexpected character '$' (at offset 10)", 10),
    ("  \n @ pt = 1", "unexpected character '@' (at offset 4)", 4),
]


class TestParser:
    def test_primitives(self):
        assert shape(parse_policy("0")) == shape(Zero())
        assert shape(parse_policy("1")) == shape(One())
        assert shape(parse_policy("pt = 1")) == shape(Test("pt", "1"))
        assert shape(parse_policy("pt <- 2")) == shape(Assign("pt", "2"))

    def test_blanks_around_a_complete_policy(self):
        assert shape(parse_policy(" \t pt = 1 \n\t ")) == shape(Test("pt", "1"))
        assert lexed(netkat._PolicyParser("  pt <- 1 ")) == [
            ("ident", "pt", 2),
            ("arrow", "<-", 5),
            ("int", "1", 8),
            ("eof", "", 10),
        ]

    def test_precedence(self):
        p = parse_policy("a = 1 . b = 2 + c = 3")
        assert shape(p) == shape(Union(Seq(Test("a", "1"), Test("b", "2")), Test("c", "3")))

    def test_star_and_neg(self):
        assert shape(parse_policy("(pt <- 2)*")) == shape(Star(Assign("pt", "2")))
        assert shape(parse_policy("~(pt = 1)")) == shape(Neg(Test("pt", "1")))
        assert shape(parse_policy("~ ~ pt = 1")) == shape(Neg(Neg(Test("pt", "1"))))

    def test_neg_of_policy_rejected(self):
        with pytest.raises(PolicySyntaxError):
            parse_policy("~(pt <- 1)")
        with pytest.raises(PolicySyntaxError):
            parse_policy("~((pt = 1)*)")

    def test_trailing_garbage(self):
        with pytest.raises(PolicySyntaxError):
            parse_policy("pt = 1 )")

    @pytest.mark.parametrize(
        "text, message, pos", MALFORMED_POLICIES, ids=range(len(MALFORMED_POLICIES))
    )
    def test_malformed_policy_errors(self, text, message, pos):
        with pytest.raises(PolicySyntaxError) as exc:
            parse_policy(text)
        assert type(exc.value) is PolicySyntaxError
        assert (str(exc.value), exc.value.pos) == (message, pos)

    def test_is_predicate(self):
        # ``~`` takes a predicate, negations and all.
        p = parse_policy("~(~(a = 1) . (b = 2) + 0)")
        assert type(p) is Neg
        assert render_policy(p.pred) == "~(a = 1) . (b = 2) + 0"

    def test_walks_follow_a_long_chain(self):
        # 2000 tests nest 2000 Seq nodes deep, past the recursion limit.
        text = " . ".join(f"(f = {k})" for k in range(2000))
        literals = [("f", str(k)) for k in range(2000)]
        assert list(policy_literals(parse_policy(text), set())) == literals
        negated = parse_policy(f"~({text})")
        assert type(negated) is Neg
        assert list(policy_literals(negated.pred, set())) == literals
        with pytest.raises(PolicySyntaxError) as exc:
            parse_policy(f"~({text} . (g <- 1))")
        assert (str(exc.value), exc.value.pos) == (
            "negation applies only to predicates (at offset 0)", 0
        )

    def test_negation_chain_checks_each_operand_once(self, monkeypatch):
        # Each ``~`` checks its operand by the count of assignments and
        # stars read, never by walking it: a walk into the ``~``s inside
        # would make the chain quadratic.
        walked = [0]
        real = netkat.policy_nodes

        def counting(p, *skip):
            for q in real(p, *skip):
                walked[0] += 1
                yield q

        monkeypatch.setattr(netkat, "policy_nodes", counting)
        # 99 ``~`` and the test's parentheses are 100 levels, the nesting limit.
        for k in (50, 99):
            walked[0] = 0
            p = parse_policy("~" * k + "(a = 1)")
            assert walked[0] == 0
            for _ in range(k):
                assert type(p) is Neg
                p = p.pred
            assert shape(p) == shape(Test("a", "1"))
        with pytest.raises(PolicySyntaxError) as exc:
            parse_policy("~" * 99 + "(a <- 1)")
        assert (str(exc.value), exc.value.pos) == (
            "negation applies only to predicates (at offset 98)", 98
        )

    def test_equal_policies_are_one_object(self):
        text = "((a = 1) . (b <- 2))* + ~(a = 1) . (b <- 2)"
        p = parse_policy(text)
        starred, negated = p.left.body, p.right
        assert starred.left is negated.left.pred
        assert starred.right is negated.right
        # Two parses build distinct objects of equal text and shape.
        again = parse_policy(text)
        assert again is not p
        assert render_policy(again) == render_policy(p)
        assert shape(again) == shape(p)
        # Policies parsed into one table share their equal nodes.
        interned = {}
        first = parse_policy("(a = 1) . (b <- 2)", interned)
        assert parse_policy("((a = 1) . (b <- 2))*", interned).body is first

    def test_make_interns_within_one_parser(self):
        parser = netkat._PolicyParser("")
        seq = parser.make(Seq, parser.make(Test, "a", "1"), parser.make(Assign, "b", "2"))
        assert parser.make(Seq, parser.make(Test, "a", "1"), parser.make(Assign, "b", "2")) is seq
        assert parser.interned[(Seq, seq.left, seq.right)] is seq
        # A record built directly, or by another parser, is a new object.
        assert Seq(seq.left, seq.right) is not seq
        assert netkat._PolicyParser("").make(Test, "a", "1") is not seq.left

    def test_render_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_policy(rng, PT, 4)
            assert shape(parse_policy(render_policy(p))) == shape(p)

    def test_negation_accepts_exactly_the_predicates(self):
        # Each random policy is negated alone, under a second ``~`` and as
        # the right operand of a ``.`` whose left operand may assign or
        # star: the parser's count must judge the operand alone.
        rng = random.Random(11)
        verdicts = []
        for _ in range(3000):
            dom = random_domains(rng)
            policy = random_policy(rng, dom, 4)
            text, left = render_policy(policy), render_policy(random_policy(rng, dom, 2))
            pure = oracle_is_predicate(policy)
            verdicts.append(pure)
            cases = [
                (f"~({text})", 0),
                (f"~~({text})", 1),
                (f"({left}) . ~({text})", len(left) + 5),
            ]
            for negated, offset in cases:
                if pure:
                    parse_policy(negated)
                    continue
                with pytest.raises(PolicySyntaxError) as exc:
                    parse_policy(negated)
                assert (str(exc.value), exc.value.pos) == (
                    f"negation applies only to predicates (at offset {offset})", offset
                )
        assert 500 < sum(verdicts) < 2500  # both outcomes are checked often


class TestEval:
    def test_forward_regular(self, sw_dom):
        p = parse_policy("(flag = regular) . (pt = 1) . (pt <- 2)")
        sigma = pkt(sw_dom, flag="regular", pt=1)
        assert outputs(p, sigma, sw_dom) == {pkt(sw_dom, flag="regular", pt=2)}

    def test_one_is_identity(self, sw_dom):
        for sigma in itertools.product(*sw_dom.values):
            assert outputs(parse_policy("1"), sigma, sw_dom) == {sigma}

    def test_star_fixpoint(self):
        p = parse_policy("((pt = 1) . (pt <- 2) + (pt = 2) . (pt <- 1))*")
        assert outputs(p, pkt(PT, pt=1), PT) == {pkt(PT, pt=1), pkt(PT, pt=2)}

    def test_neg(self, sw_dom):
        p = parse_policy("~(flag = blocking)")
        assert outputs(p, pkt(sw_dom, flag="blocking", pt=1), sw_dom) == set()
        sigma = pkt(sw_dom, flag="regular", pt=1)
        assert outputs(p, sigma, sw_dom) == {sigma}


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
        # The domains refuse a packet space above the cap when they are
        # built, so no normal form is ever taken over one.
        fields = tuple(f"f{i}" for i in range(21))  # 2^21 packets
        message = f"^packet space has {2 ** 21} packets, cap is {PACKET_CAP}$"
        with pytest.raises(DynaraceError, match=message):
            FieldDomains(fields, (("0", "1"),) * 21)
        dom = FieldDomains(fields[:20], (("0", "1"),) * 20)
        assert dom.packet_count == PACKET_CAP
        p = parse_policy(" . ".join(f"({f} = 0)" for f in dom.fields))
        assert normal_form(p, dom) == ((("0",) * 20, ("0",) * 20),)

    def test_canonical_order_and_determinism(self, sw_dom):
        p = parse_policy("(pt <- 1) + (pt <- 2) + (flag <- regular)")
        nf1 = normal_form(p, sw_dom)
        nf2 = normal_form(p, sw_dom)
        assert nf1 == nf2
        keys = [(sw_dom.packet_key(a), sw_dom.packet_key(b)) for a, b in nf1]
        assert keys == sorted(keys)
        assert len(set(nf1)) == len(nf1)

    @pytest.fixture
    def ev_calls(self, monkeypatch):
        """Counts the calls of the symbolic evaluator's ``ev`` method,
        recursive ones included.

        A runaway kernel fails at a million calls instead of running on.
        """
        calls = [0]
        evaluate = netkat._Evaluator.ev

        def counted(*args):
            calls[0] += 1
            if calls[0] > 1_000_000:
                raise AssertionError("more than a million evaluator calls")
            return evaluate(*args)

        monkeypatch.setattr(netkat._Evaluator, "ev", counted)
        return calls

    def test_nested_star(self, ev_calls):
        values = tuple(str(i) for i in range(12))
        dom = FieldDomains(("a", "b"), (values, values))

        def increments(f):
            return " + ".join(
                f"({f} = {i}) . ({f} <- {i + 1})" for i in range(len(values) - 1)
            )

        p = parse_policy(f"(({increments('a')})* . ({increments('b')}))*")
        assert set(normal_form(p, dom)) == oracle_relation(p, dom)
        # Star-body steps are memoized within the call: the evaluator runs
        # about 10 000 times here, and about 760 000 times without the memo.
        assert ev_calls[0] < 20_000

    def test_work_follows_output_not_space(self, ev_calls):
        values = tuple(str(i) for i in range(32))
        dom = FieldDomains(("a", "b", "c", "d"), (values,) * 4)
        assert dom.packet_count == PACKET_CAP
        table = " + ".join(
            f"(b = {i}) . (c = {3 * i}) . (d <- {i + 10})" for i in range(10)
        )
        p = parse_policy(f"~((a = 1) + (a = 2)) . ({table})")
        expected = tuple(
            ((a, str(i), str(3 * i), d), (a, str(i), str(3 * i), str(i + 10)))
            for a in values
            if a not in ("1", "2")
            for i in range(10)
            for d in values
        )
        assert normal_form(p, dom) == expected
        assert len(expected) == 9600
        # Evaluating at every packet would take about a million calls.
        assert ev_calls[0] < 1000

    def test_star_of_negations_stays_polynomial(self, ev_calls):
        # Each body step excludes one more value of ``a``.  A kernel that kept
        # every set of excluded values apart would reach about k * 2^(k-1)
        # symbolic pairs here (half a million); the result has under k^3.
        k = 16
        values = tuple(str(i) for i in range(k))
        dom = FieldDomains(("a", "c"), (values, values))
        body = " + ".join(f"~(a = {j}) . (c <- {j})" for j in range(k))
        p = parse_policy(f"({body})*")
        start = time.perf_counter()
        nf = normal_form(p, dom)
        elapsed = time.perf_counter() - start
        expected = {((a, c), (a, c)) for a in values for c in values} | {
            ((a, c), (a, j)) for a in values for c in values for j in values if j != a
        }
        assert set(nf) == expected
        assert len(nf) == 3856
        # One body step per reachable output: about 19 000 calls.
        assert ev_calls[0] < 40_000
        assert elapsed < 2.0

    @pytest.mark.parametrize(
        "text",
        [
            "(pt <- 1)" + "*" * (MAX_NESTING - 1),
            "~" * (MAX_NESTING - 1) + "(pt = 1)",
            right_nested("(pt = {i}) . (pt <- {j}) + ({rest})"),
            right_nested("(pt <- {i}) . ({rest})"),
        ],
        ids=["star", "negation", "right-nested-union", "right-nested-seq"],
    )
    def test_two_frames_per_nesting_level(self, text):
        # Evaluation spends at most two frames per level (``ev`` and
        # ``step``), as ``MAX_NESTING`` assumes: the deepest shapes are
        # normalised with that many frames to spare, and eight more.  The
        # star and ``.`` chains need all but five of them, so one frame
        # more per level fails here.
        p = parse_policy(text)
        values = dict.fromkeys(v for _, v in policy_literals(p, set()))
        dom = FieldDomains(("pt",), ((*values, "other"),))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(recursion_depth() + 2 * MAX_NESTING + 8)
        try:
            nf = normal_form(p, dom)
        finally:
            sys.setrecursionlimit(limit)
        assert set(nf) == oracle_relation(p, dom)


class TestEquivalence:
    def test_union_commutes(self, sw_dom):
        p = parse_policy("(pt = 1) + (flag <- blocking)")
        q = parse_policy("(flag <- blocking) + (pt = 1)")
        assert normal_form(p, sw_dom) == normal_form(q, sw_dom)

    def test_test_idempotent(self, sw_dom):
        assert normal_form(
            parse_policy("(pt = 1) . (pt = 1)"), sw_dom
        ) == normal_form(parse_policy("pt = 1"), sw_dom)

    def test_zero_not_one(self, sw_dom):
        assert normal_form(parse_policy("0"), sw_dom) != normal_form(
            parse_policy("1"), sw_dom
        )


class TestOracleAgreement:
    def test_random_policies_match_independent_evaluator(self, sw_dom):
        rng = random.Random(42)
        for _ in range(100):
            p = random_policy(rng, sw_dom, 4)
            for sigma in itertools.product(*sw_dom.values):
                assert outputs(p, sigma, sw_dom) == set(
                    oracle_eval(p, sigma, sw_dom)
                )

    def test_normal_form_slices_match_eval(self, sw_dom):
        # Each input's outputs form one contiguous, sorted block, in
        # packet order, and equal what the oracle computes for that input.
        rng = random.Random(43)
        for _ in range(50):
            p = random_policy(rng, sw_dom, 4)
            blocks = {
                alpha: [pi for _, pi in group]
                for alpha, group in itertools.groupby(
                    normal_form(p, sw_dom), key=lambda pair: pair[0]
                )
            }
            assert list(blocks) == [
                alpha for alpha in itertools.product(*sw_dom.values) if alpha in blocks
            ]
            for sigma in itertools.product(*sw_dom.values):
                expected = oracle_eval(p, sigma, sw_dom)
                assert blocks.get(sigma, []) == sorted(expected, key=sw_dom.packet_key)
