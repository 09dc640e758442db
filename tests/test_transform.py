"""Group law, normal forms, actions and stabilizers."""

import random
import time
from fractions import Fraction

import pytest

from partrans import (
    BasicTransformation,
    Divisor,
    EnumerationCapExceeded,
    HeckeOutOfRange,
    JacobianElement,
    LineBundleClass,
    NotGeneric,
    ParabolicInvariant,
    ShapeMismatch,
    UnknownAutomorphism,
    WeightSystem,
    act_degree,
    act_det,
    act_invariant,
    act_weights,
    compose,
    identity_transform,
    inverse,
    lincomb,
    make_basic,
    normalize_word,
    pullback,
    same_chamber,
    stabilizer_d_alpha_quotient,
    stabilizer_xi,
    subgroup_membership,
    t_d_quotient_reps,
)
from conftest import (
    brute_stabilizer_count,
    build_model,
    rand_basic,
    rand_generic_weights,
    rand_invariant,
    rand_line,
    model_worked6,
)


def triv(model):
    return LineBundleClass.trivial(2 * model.genus)


def basic(model, sigma=None, s=1, line=None, hecke=None):
    return make_basic(
        sigma if sigma is not None else model.identity_name,
        s,
        line if line is not None else triv(model),
        Divisor(hecke or {}),
        model,
    )


# -- divisors ------------------------------------------------------------


def test_divisor_arithmetic():
    a = Divisor({"p": 1, "q": 2})
    b = Divisor({"q": -2, "r": 1})
    assert (a + b) == Divisor({"p": 1, "r": 1})
    assert (-a) == Divisor({"p": -1, "q": -2})
    assert a.scale(3) == Divisor({"p": 3, "q": 6})
    assert a.degree() == 3
    assert a.get("p") == 1 and a.get("missing") == 0
    assert Divisor({"p": 0}).is_zero()
    assert a.support() == ("p", "q")
    assert hash(a) == hash(Divisor({"q": 2, "p": 1}))


# -- constructors --------------------------------------------------------


def test_make_basic_validation(elliptic2, cyclic3):
    m = elliptic2
    basic(m)  # happy path
    with pytest.raises(UnknownAutomorphism):
        basic(m, sigma="nope")
    with pytest.raises(ShapeMismatch):
        basic(m, s=2)
    with pytest.raises(ShapeMismatch):
        make_basic(m.identity_name, 1, "O", Divisor(), m)
    with pytest.raises(ShapeMismatch):
        basic(m, line=LineBundleClass(0, JacobianElement([0, 0, 0])))
    with pytest.raises(HeckeOutOfRange):
        basic(m, hecke={"p": 2})
    with pytest.raises(HeckeOutOfRange):
        basic(m, hecke={"p": -1})
    # rank 3 admits multiplicity 2
    basic(cyclic3, hecke={"p": 2})
    # plain dicts are accepted for the Hecke part
    t = make_basic(m.identity_name, 1, triv(m), {"q": 1}, m)
    assert t.hecke == Divisor({"q": 1})


def test_identity_transform(elliptic2):
    e = identity_transform(elliptic2)
    assert e.is_identity()
    assert not basic(elliptic2, s=-1).is_identity()


# -- rewrite rules, one at a time ----------------------------------------


def test_sigma_merge(cyclic3):
    m = cyclic3
    t = compose(basic(m, sigma="tau"), basic(m, sigma="tau"))
    assert t == basic(m, sigma="tau2")
    assert compose(t, basic(m, sigma="tau")).is_identity()


def test_dual_square_drops(elliptic2):
    d = basic(elliptic2, s=-1)
    assert compose(d, d).is_identity()


def test_tensor_merge(elliptic2, rng=random.Random(71)):
    m = elliptic2
    a, b = rand_line(rng, 2), rand_line(rng, 2)
    t = compose(basic(m, line=a), basic(m, line=b))
    assert t == basic(m, line=lincomb([(a, 1), (b, 1)]))


def test_hecke_merge_in_range(cyclic3):
    m = cyclic3
    t = compose(basic(m, hecke={"p": 1}), basic(m, hecke={"q": 1}))
    assert t == basic(m, hecke={"p": 1, "q": 1})


def test_hecke_merge_overflow_rank2(elliptic2):
    # the r-fold relation: squaring a simple Hecke yields a twist down
    m = elliptic2
    h = basic(m, hecke={"p": 1})
    want = basic(m, line=lincomb([(m.point_class("p"), -1)]))
    assert compose(h, h) == want


def test_hecke_merge_overflow_rank3(cyclic3):
    # 2 + 2 = 3 + 1 at rank 3: one full twist plus a remainder
    m = cyclic3
    t = compose(basic(m, hecke={"p": 2}), basic(m, hecke={"p": 2}))
    want = basic(
        m,
        line=lincomb([(m.point_class("p"), -1)]),
        hecke={"p": 1},
    )
    assert t == want


def test_negative_hecke_splits(elliptic2):
    # words may carry out-of-range multiplicities; the normal form may not
    m = elliptic2
    t = normalize_word(m, [("H", Divisor({"p": -1}))])
    want = basic(m, line=m.point_class("p"), hecke={"p": 1})
    assert t == want


def test_dual_tensor_interchange(elliptic2, rng=random.Random(72)):
    m = elliptic2
    line = rand_line(rng, 2)
    lhs = compose(basic(m, s=-1), basic(m, line=line))
    rhs = compose(basic(m, line=lincomb([(line, -1)])), basic(m, s=-1))
    assert lhs == rhs


def test_tensor_past_sigma_pulls_back(cyclic3, rng=random.Random(73)):
    m = cyclic3
    line = rand_line(rng, 2)
    got = compose(basic(m, line=line), basic(m, sigma="tau"))
    inv = m.automorphism(m.inverse_auto("tau"))
    assert got == compose(basic(m, sigma="tau"), basic(m, line=pullback(inv, line)))


def test_normal_form_kind_order(cyclic3, rng=random.Random(74)):
    # every product collapses to at most one factor of each kind, in order
    m = cyclic3
    for _ in range(40):
        t = compose(rand_basic(rng, m), rand_basic(rng, m))
        assert all(0 <= v <= m.rank - 1 for v in t.hecke.mult.values())
        assert t.s in (1, -1)
        assert len(t.line.jac) == 2 * m.genus


def test_compose_associative(cyclic3, involution, order4):
    rng = random.Random(75)
    for m in (cyclic3, involution, order4):
        for _ in range(60):
            a, b, c = (rand_basic(rng, m) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_rejects_mixed_models(elliptic2, cyclic3):
    with pytest.raises(ShapeMismatch):
        compose(basic(elliptic2), basic(cyclic3))


def test_inverse_round_trip(cyclic3, involution, order4):
    rng = random.Random(76)
    for m in (cyclic3, involution, order4):
        for _ in range(60):
            t = rand_basic(rng, m)
            assert compose(inverse(t), t).is_identity()
            assert compose(t, inverse(t)).is_identity()


def test_mul_operator_is_compose(elliptic2):
    m = elliptic2
    a = basic(m, s=-1)
    b = basic(m, hecke={"p": 1})
    assert a * b == compose(a, b)


# -- actions -------------------------------------------------------------


def test_act_degree_formula(elliptic2):
    m = elliptic2
    t = basic(m, s=-1, line=LineBundleClass(3, JacobianElement([0, 0])), hecke={"p": 1})
    # s * (r * deg L + d - |H|) = -(6 + d - 1)
    assert act_degree(t, 0) == -5
    assert act_degree(t, 2) == -7
    assert act_degree(identity_transform(m), 11) == 11


def test_act_det_generators(cyclic3, rng=random.Random(77)):
    m = cyclic3
    xi = rand_line(rng, 2)
    line = rand_line(rng, 2)
    # tensor: the determinant moves by the r-th power of the twist
    assert act_det(basic(m, line=line), xi) == lincomb([(line, m.rank), (xi, 1)])
    # Hecke: drops one point class
    assert act_det(basic(m, hecke={"q": 1}), xi) == lincomb(
        [(xi, 1), (m.point_class("q"), -1)]
    )
    # dual: inverts
    assert act_det(basic(m, s=-1), xi) == lincomb([(xi, -1)])
    # relabeling: pulls back
    assert act_det(basic(m, sigma="tau"), xi) == pullback(m.automorphism("tau"), xi)


def test_act_det_degree_consistency(cyclic3, rng=random.Random(78)):
    m = cyclic3
    for _ in range(80):
        t = rand_basic(rng, m)
        xi = rand_line(rng, 2)
        assert act_det(t, xi).degree == act_degree(t, xi.degree)


def test_act_weights_hecke_single_point(elliptic2):
    w = WeightSystem({"p": (0, Fraction(1, 3)), "q": (0, Fraction(1, 4))}, 2)
    out = act_weights(basic(elliptic2, hecke={"q": 1}), w)
    assert out.vector("p") == (0, Fraction(1, 3))
    assert out.vector("q") == (0, Fraction(3, 4))


def test_act_weights_dual_rank2_fixes(elliptic2):
    w = WeightSystem({"p": (0, Fraction(1, 3)), "q": (0, Fraction(1, 5))}, 2)
    assert act_weights(basic(elliptic2, s=-1), w) == w


def test_act_weights_relabel_reads_fiber_at_image(cyclic3):
    # tau sends p -> q -> s -> p; the new weights at y sit over tau(y)
    m = cyclic3
    w = WeightSystem(
        {
            "p": (0, Fraction(1, 7), Fraction(2, 7)),
            "q": (0, Fraction(1, 11), Fraction(2, 11)),
            "s": (0, Fraction(1, 13), Fraction(2, 13)),
        },
        3,
    )
    out = act_weights(basic(m, sigma="tau"), w)
    perm = m.automorphism("tau").point_perm
    for y in ("p", "q", "s"):
        assert out.vector(y) == w.vector(perm[y])


def test_act_invariant_homomorphism(cyclic3, involution, order4):
    rng = random.Random(79)
    for m in (cyclic3, involution, order4):
        for _ in range(40):
            a, b = rand_basic(rng, m), rand_basic(rng, m)
            v = rand_invariant(rng, m)
            left = act_invariant(compose(a, b), v)
            right = act_invariant(a, act_invariant(b, v))
            assert left.det == right.det
            assert left.weights == right.weights


def test_act_invariant_inverse_undoes(cyclic3):
    rng = random.Random(80)
    m = cyclic3
    for _ in range(30):
        t = rand_basic(rng, m)
        v = rand_invariant(rng, m)
        back = act_invariant(inverse(t), act_invariant(t, v))
        assert back == v


def test_act_invariant_rank_guard(elliptic2, cyclic3, rng=random.Random(81)):
    v = rand_invariant(rng, cyclic3)
    with pytest.raises(ShapeMismatch):
        act_invariant(basic(elliptic2), v)


def test_invariant_equality_ignores_label(elliptic2, rng=random.Random(82)):
    v = rand_invariant(rng, elliptic2)
    relabeled = ParabolicInvariant(v.rank, v.det, v.weights, "other")
    assert v == relabeled
    assert hash(v) == hash(relabeled)


# -- membership flags ----------------------------------------------------


def test_subgroup_membership_flags(elliptic2, rng=random.Random(83)):
    m = elliptic2
    alpha = rand_generic_weights(rng, m)
    xi = rand_line(rng, 2)
    e = identity_transform(m)
    assert subgroup_membership(e, 0, xi=xi, alpha=alpha) == {
        "in_T_plus": True,
        "in_T_d": True,
        "in_T_xi": True,
        "in_T_alpha": True,
    }
    flags = subgroup_membership(basic(m, s=-1), 3)
    assert flags["in_T_plus"] is False
    assert flags["in_T_d"] is False  # degree 3 -> -3
    assert flags["in_T_xi"] is None and flags["in_T_alpha"] is None
    twist = basic(m, line=LineBundleClass(1, JacobianElement([0, 0])))
    flags = subgroup_membership(twist, 0, xi=xi, alpha=alpha)
    assert flags["in_T_d"] is False
    assert flags["in_T_xi"] is False
    assert flags["in_T_alpha"] is True  # twists never move weights


# -- stabilizers ---------------------------------------------------------


def test_stabilizer_xi_worked_count(elliptic2):
    rep = stabilizer_xi(triv(elliptic2), elliptic2)
    assert rep["total"] == 16
    assert len(rep["sectors"]) == 4
    assert all(s["torsor_size"] == 4 for s in rep["sectors"])
    seen = {(s["sigma"], s["s"], tuple(sorted(s["H"].items()))) for s in rep["sectors"]}
    assert seen == {
        ("id", 1, ()),
        ("id", -1, ()),
        ("id", 1, (("p", 1), ("q", 1))),
        ("id", -1, (("p", 1), ("q", 1))),
    }


def test_stabilizer_xi_matches_brute_force(elliptic2):
    xi = triv(elliptic2)
    assert stabilizer_xi(xi, elliptic2)["total"] == brute_stabilizer_count(
        elliptic2, xi
    )


def test_stabilizer_xi_roots_fix_xi(elliptic2, cyclic3, rng=random.Random(84)):
    from partrans import r_torsion

    for m, xi in (
        (elliptic2, triv(elliptic2)),
        (elliptic2, rand_line(rng, 2, den=4)),
        (cyclic3, rand_line(rng, 2, den=3)),
    ):
        rep = stabilizer_xi(xi, m)
        for sec in rep["sectors"]:
            coords = JacobianElement(Fraction(c) for c in sec["root"])
            root = LineBundleClass(sec["L_degree"], coords)
            t = BasicTransformation(m, sec["sigma"], sec["s"], root, Divisor(sec["H"]))
            assert act_det(t, xi) == xi
            # the whole torsor works, not just the canonical root
            for j in list(r_torsion(m.genus, m.rank))[:4]:
                shifted = LineBundleClass(root.degree, root.jac + j)
                tj = BasicTransformation(m, sec["sigma"], sec["s"], shifted, Divisor(sec["H"]))
                assert act_det(tj, xi) == xi


def test_stabilizer_xi_worked_genus6(worked6):
    rep = stabilizer_xi(triv(worked6), worked6)
    assert rep["total"] == 16384
    assert len(rep["sectors"]) == 4
    assert all(s["torsor_size"] == 4096 for s in rep["sectors"])


def test_stabilizer_xi_odd_twist():
    # one marked point, determinant of odd degree: the Hecke sector dies
    for g in (1, 2):
        m = build_model(g, 2, [("p", [0] * 2 * g)])
        xi = LineBundleClass(1, JacobianElement([0] * 2 * g))
        rep = stabilizer_xi(xi, m)
        assert rep["total"] == 2 * 2 ** (2 * g)
        assert {(s["s"], tuple(s["H"].items())) for s in rep["sectors"]} == {
            (1, ()),
            (-1, ()),
        }


def test_stabilizer_cap(cyclic3):
    with pytest.raises(EnumerationCapExceeded):
        stabilizer_xi(triv(cyclic3), cyclic3, cap=5)  # 3^3 = 27 Hecke vectors


def test_t_d_quotient_reps(elliptic2):
    m = elliptic2
    for d in (0, 1):
        reps = t_d_quotient_reps(d, m)
        assert len(reps) == 4
        for t in reps:
            assert act_degree(t, d) == d
            assert t.line.jac.is_zero()
        assert len(set(reps)) == len(reps)


def test_d_alpha_quotient_worked_example(worked6):
    m = worked6
    alpha = WeightSystem({"p": (0, Fraction(1, 3)), "q": (0, Fraction(1, 5))}, 2)
    reps = stabilizer_d_alpha_quotient(0, alpha, m)
    assert len(reps) == 2
    assert identity_transform(m) in reps
    dual_only = BasicTransformation(m, "id", -1, triv(m), Divisor())
    assert dual_only in reps
    # the rejected Hecke sector really does land in another chamber
    hecke_rep = make_basic(
        "id", 1, LineBundleClass(1, JacobianElement([0] * 12)), {"p": 1, "q": 1}, m
    )
    moved = act_weights(hecke_rep, alpha)
    assert moved.vector("p") == (0, Fraction(2, 3))
    assert moved.vector("q") == (0, Fraction(4, 5))
    assert not same_chamber(moved, alpha)


def test_d_alpha_quotient_requires_generic(elliptic2):
    on_wall = WeightSystem({"p": (0, Fraction(1, 2)), "q": (0, Fraction(1, 2))}, 2)
    with pytest.raises(NotGeneric):
        stabilizer_d_alpha_quotient(0, on_wall, elliptic2)


def test_d_alpha_quotient_members_preserve_chamber(elliptic2, rng=random.Random(85)):
    m = elliptic2
    alpha = rand_generic_weights(rng, m)
    for t in stabilizer_d_alpha_quotient(0, alpha, m):
        assert act_degree(t, 0) == 0
        assert same_chamber(act_weights(t, alpha), alpha)


def _best_per_call_ms(fn, make, calls=20, repeat=3):
    """Best of `repeat` batches, each on `calls` freshly built argument tuples."""
    best = float("inf")
    for _ in range(repeat):
        args = [make() for _ in range(calls)]
        start = time.perf_counter()
        for a in args:
            fn(*a)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1000


def test_genus6_group_law_is_fast():
    m = model_worked6()
    rng = random.Random(61)
    assert _best_per_call_ms(act_det, lambda: (rand_basic(rng, m), rand_line(rng, 12))) < 0.3
    assert _best_per_call_ms(compose, lambda: (rand_basic(rng, m), rand_basic(rng, m))) < 0.2
