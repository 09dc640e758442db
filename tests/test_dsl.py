"""Expression language: tokens, grammar, evaluation, canonical text."""

import random
import time
from fractions import Fraction

import pytest

from partrans import (
    BasicTransformation,
    Divisor,
    ExtendedCompositionError,
    ExtendedTransformation,
    JacobianElement,
    LineBundleClass,
    ParseError,
    ResultTooLarge,
    ShapeMismatch,
    UnknownAutomorphism,
    UnknownPoint,
    compose,
    default_ref_det,
    divisor_form,
    eval_expression,
    ext_inverse,
    format_canonical,
    identity_transform,
    inverse,
    lift_basic,
    make_basic,
    of_divisor,
    parse_expression,
)
from partrans import automorphism_group_report, dsl, t_d_quotient_reps
from partrans.dsl import (
    MAX_INT_DIGITS, MAX_NESTING, MAX_RESULT_DIGITS, _solved_divisor_form, tokenize,
)
from conftest import build_model, rand_basic, rand_generic_weights, rand_tilde

from test_extended import model_r3n4, rand_ext


# -- tokens --------------------------------------------------------------


def test_tokenize_basics():
    toks = tokenize("D- * T(O(2*p))")
    kinds = [t[0] for t in toks]
    assert kinds == ["DMINUS", "*", "NAME", "(", "NAME", "(", "INT", "*", "NAME", ")", ")", "EOF"]
    assert toks[0][2] == 0  # positions are byte offsets
    assert toks[2][1] == "T"


def test_tokenize_rejects_stray_characters():
    with pytest.raises(ParseError) as exc:
        tokenize("id @ id")
    assert exc.value.pos == 3


def test_dual_token_requires_adjacent_minus(elliptic2):
    # "D -" is a name then an operator, never the dualization generator
    with pytest.raises(ParseError):
        eval_expression("D -", elliptic2)


# -- grammar errors ------------------------------------------------------


def test_parse_error_positions(elliptic2):
    with pytest.raises(ParseError):
        parse_expression("id id")  # trailing input
    with pytest.raises(ParseError):
        parse_expression("* id")
    with pytest.raises(ParseError):
        parse_expression("Q(p)")
    with pytest.raises(ParseError):
        parse_expression("T(0, [1/0])")
    with pytest.raises(ParseError):
        parse_expression("(id")
    with pytest.raises(ParseError):
        parse_expression("")


def test_zero_denominator_points_at_the_denominator():
    # the 0 is at offset 8; the comma after it, at 9, is not the fault
    with pytest.raises(ParseError) as exc:
        parse_expression("T(0, [1/0, 0])")
    assert exc.value.pos == 8
    assert str(exc.value) == "at position 8: zero denominator"


def test_nesting_limit(elliptic2):
    ok = "(" * MAX_NESTING + "H(p)^2" + ")" * MAX_NESTING
    assert format_canonical(eval_expression(ok, elliptic2)) == "T(O(-1*p))"
    too_deep = "(" + ok + ")"
    with pytest.raises(ParseError) as exc:
        parse_expression(too_deep)
    assert exc.value.pos == MAX_NESTING
    # sibling groups do not add up, only nesting counts
    assert parse_expression(" * ".join([ok] * 3))


def test_integer_literal_limit(elliptic2):
    assert tokenize("9" * MAX_INT_DIGITS)[0] == ("INT", int("9" * MAX_INT_DIGITS), 0)
    for text in ("id^" + "1" * (MAX_INT_DIGITS + 1), "T(0, [1/" + "7" * 5000 + ", 0])"):
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert f"exceeds the limit of {MAX_INT_DIGITS}" in str(exc.value)


def test_result_limit(elliptic2):
    """Evaluation stops at the first value or partial product carrying an
    integer of more than MAX_RESULT_DIGITS digits."""
    big = "1" + "0" * (MAX_INT_DIGITS - 1)  # 10^(MAX_INT_DIGITS - 1)
    levels = MAX_RESULT_DIGITS // (MAX_INT_DIGITS - 1)

    def nested(k):
        return "(" * k + "T(1, [0, 0])" + "".join(f")^{big}" for _ in range(k))

    t = eval_expression(nested(levels), elliptic2)
    assert t.line.degree == 10 ** ((MAX_INT_DIGITS - 1) * levels)
    for text in (
        nested(levels + 1),
        "A[[0,1],[1,2]]^" + big,  # entries grow exponentially in the exponent
        "A[[0,1],[1,2]]^-" + big,
        " * ".join(f"T(0, [1/{int(big) + k}, 0])" for k in (1, 3, 7, 9, 13)),
    ):
        with pytest.raises(ResultTooLarge, match=f"more than {MAX_RESULT_DIGITS} digits"):
            eval_expression(text, elliptic2)
    # a Jacobian part of finite order stays small under any power
    e = eval_expression("A[[-1,0],[0,-1]]^" + big[:-1] + "1", elliptic2)
    assert e.rho.tilde == ((-1, 0), (0, -1))


def _nilpotent(dim):
    """A[...] of tilde rows (1, -1, 1, ...): N^2 = 0, so rho^n = 1 + n r N."""
    row = "[" + ",".join(["1", "-1"] * (dim // 2)) + "]"
    return "A[" + ",".join([row] * dim) + "]"


def test_power_work_limit(elliptic2, monkeypatch):
    """The squarings of one evaluation's powers take at most MAX_POWER_WORK
    word products, estimated before each squaring (the genus-6 refusal is
    in tests/test_cli.py)."""
    big = "1" + "0" * (MAX_INT_DIGITS - 1)
    # at genus 1 a linear growth to the largest exponent fits
    e = eval_expression(_nilpotent(2) + "^" + big, elliptic2)
    assert e.rho.tilde == ((10 ** (MAX_INT_DIGITS - 1), -(10 ** (MAX_INT_DIGITS - 1))),) * 2
    # the budget is one per evaluation, not one per power: two powers that
    # each fit alone are refused together
    single = _nilpotent(2) + "^" + "1" + "0" * 40
    work = []
    real = dsl._squaring_work
    monkeypatch.setattr(dsl, "_squaring_work", lambda x: work.append(real(x)) or work[-1])
    eval_expression(single, elliptic2)
    limit = sum(work)
    monkeypatch.setattr(dsl, "MAX_POWER_WORK", limit)
    eval_expression(single, elliptic2)
    with pytest.raises(ResultTooLarge, match=f"powers would take more than {limit} products of 64-bit words") as exc:
        eval_expression(f"{single} * {single}", elliptic2)
    assert exc.value.bound == limit


def test_squaring_work_estimates(elliptic2):
    # a basic element: n = 2 coordinates over a one-word denominator
    assert dsl._squaring_work(eval_expression("T(0, [1/3, 0])", elliptic2)) == 2
    assert dsl._squaring_work(eval_expression("T(0, [1/" + "7" * 40 + ", 0])", elliptic2)) == 2 * 3
    # a Jacobian part: n**2 more per nonzero row and word squared of its largest entry
    assert dsl._squaring_work(eval_expression("A[[0,0],[0,0]]", elliptic2)) == 2
    assert dsl._squaring_work(eval_expression("A[[0,0],[1,-1]]", elliptic2)) == 2 + 4
    h = 2**130  # three words
    assert dsl._squaring_work(eval_expression(f"A[[{h},-{h}],[{h},-{h}]]", elliptic2)) == 2 + 2 * 4 * 9


def test_name_resolution_needs_model(cyclic3):
    parse_expression("S(missing) * H(nowhere)")  # fine without a model
    with pytest.raises(UnknownAutomorphism):
        parse_expression("S(missing)", cyclic3)
    with pytest.raises(UnknownPoint):
        parse_expression("H(nowhere)", cyclic3)
    with pytest.raises(UnknownPoint):
        parse_expression("T(O(nowhere))", cyclic3)


def test_vector_length_checked(elliptic2):
    with pytest.raises(ShapeMismatch):
        eval_expression("T(0, [1/2])", elliptic2)


# -- evaluation ----------------------------------------------------------


def test_eval_generators(cyclic3):
    m = cyclic3
    assert eval_expression("id", m) == identity_transform(m)
    d = eval_expression("D-", m)
    assert d.s == -1 and d.line.is_trivial() and d.hecke.is_zero()
    s = eval_expression("S(tau)", m)
    assert s.sigma == "tau"
    t = eval_expression("T(O(q))", m)
    assert t.line == m.point_class("q")
    h = eval_expression("H(2*p + q)", m)
    assert h.hecke == Divisor({"p": 2, "q": 1})


def test_eval_line_class_forms(elliptic2):
    m = elliptic2
    want = LineBundleClass(0, JacobianElement([Fraction(1, 2), 0]))
    assert eval_expression("T(0, [1/2, 0])", m).line == want
    assert eval_expression("T((0, [1/2, 0]))", m).line == want
    assert eval_expression("T(-3, [0, 0])", m).line.degree == -3


def test_eval_mixed_divisor(cyclic3):
    t = eval_expression("T(O(2*p - q + s))", cyclic3)
    assert t.line.degree == 2


def test_eval_out_of_range_hecke_normalizes(elliptic2):
    m = elliptic2
    t = eval_expression("H(-1*p)", m)
    assert t == make_basic(m.identity_name, 1, m.point_class("p"), {"p": 1}, m)
    sq = eval_expression("H(p)^2", m)
    assert sq.line.degree == -1 and sq.hecke.is_zero()


def test_eval_word_matches_compose(cyclic3, rng=random.Random(110)):
    m = cyclic3
    for _ in range(25):
        a, b = rand_basic(rng, m), rand_basic(rng, m)
        text = f"({format_canonical(a)}) * ({format_canonical(b)})"
        assert eval_expression(text, m) == compose(a, b)


def test_eval_powers(elliptic2):
    m = elliptic2
    t = eval_expression("T(O(p))", m)
    assert eval_expression("T(O(p))^3", m) == compose(compose(t, t), t)
    assert eval_expression("T(O(p))^0", m) == identity_transform(m)
    assert eval_expression("(D- * H(p))^-1", m) == inverse(eval_expression("D- * H(p)", m))


def test_eval_huge_powers_are_fast(elliptic2):
    m = elliptic2
    n = 100000000
    start = time.perf_counter()
    up = eval_expression(f"T(O(1*q))^{n}", m)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    down = eval_expression(f"T(O(1*q))^-{n}", m)
    assert time.perf_counter() - start < 1.0
    assert up.line == of_divisor(m, {"q": n})
    assert down.line == of_divisor(m, {"q": -n})


def test_eval_parenthesized_grouping(cyclic3):
    m = cyclic3
    left = eval_expression("(S(tau) * D-) * H(q)", m)
    right = eval_expression("S(tau) * (D- * H(q))", m)
    assert left == right == eval_expression("S(tau) * D- * H(q)", m)


def test_eval_extended_atoms(elliptic2):
    m = elliptic2
    e = eval_expression("A[[0,1],[0,0]]", m)
    assert isinstance(e, ExtendedTransformation)
    assert e.rho.tilde == ((0, 1), (0, 0))
    assert e.ref_det == default_ref_det(m)
    assert eval_expression("A([[0,1],[0,0]])", m) == e
    word = eval_expression("A[[0,1],[0,0]] * D-", m)
    assert word.basic.s == -1
    inv = eval_expression("A[[0,1],[0,0]]^-1", m)
    assert inv == ext_inverse(e)
    assert inv.rho.tilde == ((0, -1), (0, 0))


def test_eval_extended_degree_obstruction(elliptic2):
    with pytest.raises(ExtendedCompositionError):
        eval_expression("H(p) * A[[0,1],[0,0]]", elliptic2)


# -- canonical text ------------------------------------------------------


def test_format_worked_values(elliptic2):
    m = elliptic2
    assert format_canonical(identity_transform(m)) == "id"
    sq = eval_expression("H(p)^2", m)
    assert format_canonical(sq) == "T(O(-1*p))"
    t = make_basic(m.identity_name, 1, m.point_class("q"), {}, m)
    assert format_canonical(t) == "T(O(1*q))"
    bare = eval_expression("D- * T(0, [0, 1/2]) * H(p)", m)
    assert format_canonical(bare) == "D- * T(0, [0, 1/2]) * H(1*p)"


def test_format_prefers_small_divisors(elliptic2):
    m = elliptic2
    cls = LineBundleClass(1, JacobianElement([Fraction(1, 2), 0]))  # the class of q
    assert divisor_form(m, cls) == {"q": 1}


@pytest.mark.parametrize("coords", [[0, 0, 0, 0], [Fraction(1, 2)], []])
def test_divisor_form_refuses_a_class_of_the_wrong_length(elliptic2, g1r3n0, coords):
    for m in (elliptic2, g1r3n0):
        with pytest.raises(ShapeMismatch, match=f"class coordinate length {len(coords)} does not match 2g = 2"):
            divisor_form(m, LineBundleClass(1, JacobianElement(coords)))


def test_divisor_form_high_degree_uses_solver(order4):
    m = order4
    cls = LineBundleClass(20, JacobianElement([0, 0]))
    assert divisor_form(m, cls) == {"p": 20}
    t = make_basic(m.identity_name, 1, cls, {}, m)
    assert format_canonical(t) == "T(O(20*p))"


def test_divisor_form_unreachable(elliptic2, g1r3n0):
    off_span = LineBundleClass(0, JacobianElement([0, Fraction(1, 2)]))
    assert divisor_form(elliptic2, off_span) is None
    assert divisor_form(g1r3n0, LineBundleClass(1, JacobianElement([0, 0]))) is None


def test_divisor_form_off_span_at_seven_points_is_fast():
    coords = ["0", "1/2", "1/3", "2/3", "1/6", "5/6", "1/2"]
    m = build_model(1, 2, [(f"x{i}", [c, "0"]) for i, c in enumerate(coords)])
    line = LineBundleClass(0, JacobianElement([Fraction(1, 7), 0]))
    t = make_basic(m.identity_name, 1, line, {}, m)
    start = time.perf_counter()
    assert divisor_form(m, line) is None
    assert format_canonical(t) == "T(0, [1/7, 0])"
    assert time.perf_counter() - start < 0.05


def test_divisor_form_at_and_beyond_the_bound():
    m = build_model(1, 2, [("x0", ["0", "0"]), ("x1", ["1/97", "0"])])
    # a corner of the box [-6, 6]^2; the solver alone gives -91*x0 + 91*x1
    assert divisor_form(m, of_divisor(m, {"x0": 6, "x1": -6})) == {"x0": 6, "x1": -6}
    # every form has |n_x1| >= 47, past the coefficient bound 6
    cls = of_divisor(m, {"x0": 50, "x1": -50})
    got = divisor_form(m, cls)
    assert got == _solved_divisor_form(m, cls)
    assert of_divisor(m, got) == cls
    assert max(abs(v) for v in got.values()) > 6


def test_round_trip_random_basics(elliptic2, cyclic3, involution):
    rng = random.Random(111)
    for m in (elliptic2, cyclic3, involution):
        for _ in range(50):
            t = rand_basic(rng, m)
            text = format_canonical(t)
            assert eval_expression(text, m) == t
            assert format_canonical(eval_expression(text, m)) == text


def test_round_trip_random_extended(elliptic2, g2r3):
    rng = random.Random(112)
    for m in (elliptic2, g2r3):
        ref = default_ref_det(m)
        for _ in range(25):
            e = rand_ext(rng, m, ref)
            text = format_canonical(e)
            got = eval_expression(text, m)
            if isinstance(got, BasicTransformation):
                # a degenerate draw: trivial Jacobian part prints plainly
                assert e.rho.is_identity() and got == e.basic
            else:
                assert got == e


def test_round_trip_lifted_basic(elliptic2, rng=random.Random(113)):
    m = elliptic2
    t = rand_basic(rng, m)
    e = lift_basic(t)
    # a trivial Jacobian part formats as the plain word
    assert format_canonical(e) == format_canonical(t)


# -- the line-text memo ----------------------------------------------------


def test_line_memo_is_bounded(elliptic2):
    dsl._line_atom.cache_clear()
    maxsize = dsl._line_atom.cache_info().maxsize
    assert maxsize == dsl.MAX_LINE_TEXTS and 0 < maxsize < 10**6
    m = elliptic2
    for k in range(1, maxsize + 50):
        t = make_basic(m.identity_name, 1, LineBundleClass(k, JacobianElement([0, 0])), {}, m)
        assert eval_expression(format_canonical(t), m) == t
        assert dsl._line_atom.cache_info().currsize <= maxsize
    assert dsl._line_atom.cache_info().currsize == maxsize


def test_line_memo_keeps_models_apart():
    """Two models with the same point names print one class differently,
    whichever comes first, and a model freed before the next is built
    (so the next may take its id) lends it no text."""
    docs = {"T(O(1*q))": ["1/2", "0"], "T(1, [1/2, 0])": ["0", "1/2"]}
    line = LineBundleClass(1, JacobianElement([Fraction(1, 2), 0]))

    def text(q_jac):
        m = build_model(1, 2, [("p", ["0", "0"]), ("q", q_jac)])
        return format_canonical(make_basic(m.identity_name, 1, line, {}, m))

    for order in (list(docs), list(reversed(docs))):
        dsl._line_atom.cache_clear()
        for want in order * 3:
            assert text(docs[want]) == want


def test_line_memo_searches_each_class_once_over_many_reports(monkeypatch):
    dsl._line_atom.cache_clear()
    calls = []
    real = dsl.divisor_form
    monkeypatch.setattr(dsl, "divisor_form", lambda m, cls: calls.append(cls) or real(m, cls))
    m = model_r3n4()
    rng = random.Random(104)
    lines = set()
    for _ in range(40):
        alpha, d = rand_generic_weights(rng, m), rng.randint(-3, 3)
        automorphism_group_report(d, alpha, m)
        lines |= {t.line for t in t_d_quotient_reps(d, m) if not t.line.is_trivial()}
    assert len(calls) == len(set(calls)) == len(lines)
    assert set(calls) == lines
