"""Group law, normal forms, actions and stabilizers."""

import itertools
import json
import math
import random
import time
from collections import Counter
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from partrans import (
    BasicTransformation,
    CurveAutomorphism,
    CurveModel,
    Divisor,
    EnumerationCapExceeded,
    HeckeOutOfRange,
    JacobianElement,
    LineBundleClass,
    ModuliDescriptor,
    NotGeneric,
    ParabolicInvariant,
    ShapeMismatch,
    UnknownAutomorphism,
    UnknownPoint,
    WeightSystem,
    act_degree,
    act_det,
    act_invariant,
    act_weights,
    automorphism_group_report,
    chamber_fingerprint,
    compose,
    curves_isomorphic,
    divide_by_r,
    identity_transform,
    inverse,
    lincomb,
    load_config,
    make_basic,
    normalize_word,
    of_divisor,
    pullback,
    r_torsion,
    same_chamber,
    stabilizer_d_alpha_quotient,
    stabilizer_xi,
    subgroup_membership,
    t_d_quotient_reps,
)
from partrans import transform, weights
from partrans.transform import _word_of
from partrans.weights import dual_weights, hecke_weights, is_generic
from conftest import (
    brute_stabilizer_count,
    build_model,
    full_is_generic,
    full_same_chamber,
    model_cyclic,
    model_cyclic3,
    model_elliptic2,
    model_g1r3n0,
    model_g2r3,
    model_involution,
    model_order4,
    model_rotation,
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


def _golden_g1():
    return load_config((Path(__file__).parent / "golden" / "model_g1.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("mult", [1, 2, 0, -1])
def test_normalize_word_refuses_hecke_points_outside_the_model(mult):
    # a multiplicity below the rank carries nothing into L, and is refused all the same
    m = _golden_g1()
    with pytest.raises(UnknownPoint) as err:
        normalize_word(m, [("H", {"zz": mult})])
    assert err.value.name == "zz"
    with pytest.raises(UnknownPoint):
        normalize_word(m, [("H", Divisor({"p": 1})), ("D",), ("H", {"p": 1, "zz": mult})])


def test_normalize_word_refuses_unknown_automorphisms():
    m = _golden_g1()
    with pytest.raises(UnknownAutomorphism):
        normalize_word(m, [("S", "bogus")])
    # words from a generator are read once
    assert normalize_word(m, iter([("D",), ("D",)])).is_identity()


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


# -- the rewrite engine, the oracle of the fold ----------------------------


def _split_hecke(model, dv):
    """Replace an out-of-range Hecke divisor by a tensor atom plus an
    in-range one, through the r-fold identity H_x^r = T_O(-x)."""
    r = model.rank
    floor_part = {x: v // r for x, v in dv.items() if v // r}
    rem = Divisor({x: v - r * (v // r) for x, v in dv.items()})
    atoms = []
    if floor_part:
        cls = lincomb(
            [(model.point_class(x), -n) for x, n in floor_part.items()],
            dim=2 * model.genus,
        )
        if not cls.is_trivial():
            atoms.append(("T", cls))
    if not rem.is_zero():
        atoms.append(("H", rem))
    return atoms


def _rewrite_step(model, word, i):
    """Apply one rule at position i; return (consumed, replacement) or None.
    Each rule merges neighbours of one kind or moves an atom of smaller kind
    (S < D < T < H) leftward."""
    a = word[i]
    if a[0] == "H" and not all(0 <= v < model.rank for v in a[1].mult.values()):
        return 1, _split_hecke(model, a[1])
    if i + 1 >= len(word):
        return None
    b = word[i + 1]
    ka, kb = a[0], b[0]
    if ka == "S" and kb == "S":
        merged = model.compose_autos(a[1], b[1])
        return 2, ([] if merged == model.identity_name else [("S", merged)])
    if ka == "D" and kb == "D":
        return 2, []
    if ka == "T" and kb == "T":
        cls = lincomb([(a[1], 1), (b[1], 1)])
        return 2, ([] if cls.is_trivial() else [("T", cls)])
    if ka == "H" and kb == "H":
        return 2, _split_hecke(model, a[1] + b[1])
    if ka == "D" and kb == "S":
        return 2, [b, a]
    if ka == "T" and kb == "S":
        inv = model.automorphism(model.inverse_auto(b[1]))
        return 2, [b, ("T", pullback(inv, a[1]))]
    if ka == "H" and kb == "S":
        perm = model.automorphism(b[1]).point_perm
        moved = Divisor({perm.get(x, x): v for x, v in a[1].items()})
        return 2, [b, ("H", moved)]
    if ka == "T" and kb == "D":
        return 2, [b, ("T", lincomb([(a[1], -1)]))]
    if ka == "H" and kb == "D":
        # pointwise dual interchange, only points actually touched by H
        support = a[1].support()
        comp = Divisor({x: model.rank - a[1].get(x) for x in support})
        cls = lincomb(
            [(model.point_class(x), -1) for x in support], dim=2 * model.genus
        )
        out = []
        if not cls.is_trivial():
            out.append(("T", cls))
        out.append(b)
        if not comp.is_zero():
            out.append(("H", comp))
        return 2, out
    if ka == "H" and kb == "T":
        return 2, [b, a]
    return None


def oracle_normalize_word(model, atoms):
    """The rewrite loop that rescans from position 0 after every rewrite."""
    word = list(atoms)
    steps = 0
    limit = 10000 + 100 * (len(word) + 1) ** 2
    progress = True
    while progress:
        progress = False
        for i in range(len(word)):
            hit = _rewrite_step(model, word, i)
            if hit is not None:
                consumed, rep = hit
                word[i : i + consumed] = rep
                progress = True
                break
        steps += 1
        if steps > limit:
            raise AssertionError("oracle rewrite did not terminate")
    parts = {"S": model.identity_name, "D": 1, "T": triv(model), "H": Divisor()}
    for atom in word:
        parts[atom[0]] = -1 if atom[0] == "D" else atom[1]
    return tuple(parts.values())


def oracle_inverse_word(t):
    """The word the rewrite engine normalized for inverse(t)."""
    model = t.model
    support = t.hecke.support()
    atoms = []
    if support:
        cls = lincomb([(model.point_class(x), 1) for x in support], dim=2 * model.genus)
        atoms.append(("T", cls))
        atoms.append(("H", Divisor({x: model.rank - t.hecke.get(x) for x in support})))
    if not t.line.is_trivial():
        atoms.append(("T", lincomb([(t.line, -1)])))
    if t.s == -1:
        atoms.append(("D",))
    if t.sigma != model.identity_name:
        atoms.append(("S", model.inverse_auto(t.sigma)))
    return atoms


def _random_atom(rng, model):
    kind = rng.choice("SDTH")
    if kind == "S":
        return ("S", rng.choice(model.automorphisms).name)
    if kind == "D":
        return ("D",)
    if kind == "T":
        return ("T", rand_line(rng, 2 * model.genus))
    names = rng.sample(model.point_names, min(rng.randint(1, 4), len(model.points)))
    return ("H", Divisor({x: rng.randint(-3, 2 * model.rank) for x in names}))


def _parts(t):
    """The tuple's fields, with the Hecke entries in their dict order."""
    return t.sigma, t.s, t.line, t.hecke, list(t.hecke.items())


def _oracle_parts(model, atoms):
    sigma, s, line, hecke = oracle_normalize_word(model, atoms)
    return sigma, s, line, hecke, list(hecke.items())


def test_normalize_word_matches_restart_oracle():
    m = model_cyclic(2, 12)
    rng = random.Random(75)
    for _ in range(150):
        word = [_random_atom(rng, m) for _ in range(rng.randint(0, 10))]
        got = normalize_word(m, word)
        assert (got.sigma, got.s, got.line, got.hecke) == oracle_normalize_word(m, word)


_FOLD_MODELS = (
    model_elliptic2, model_cyclic3, model_involution, model_order4, model_g2r3,
    model_g1r3n0, lambda: model_cyclic(2, 12), lambda: model_cyclic(1, 5, rank=3),
    lambda: model_rotation(1, 3), lambda: model_rotation(1, 4), lambda: model_rotation(2, 6),
)


@pytest.mark.parametrize("build", _FOLD_MODELS)
def test_fold_matches_rewrite_oracle(build):
    """normalize_word, compose and inverse agree with the rewrite engine on
    random words of 0-12 atoms, Hecke entries from -3 to 2r included, down
    to the order of the Hecke entries."""
    m = build()
    rng = random.Random(931 + m.genus * 10 + m.rank + len(m.points))
    for _ in range(60):
        word = [_random_atom(rng, m) for _ in range(rng.randint(0, 12))]
        assert _parts(normalize_word(m, word)) == _oracle_parts(m, word)
        t1, t2 = rand_basic(rng, m), rand_basic(rng, m)
        assert _parts(compose(t1, t2)) == _oracle_parts(m, _word_of(t1) + _word_of(t2))
        assert _parts(inverse(t1)) == _oracle_parts(m, oracle_inverse_word(t1))


def oracle_act_det(t, xi):
    """act_det through lincomb, of_divisor and pullback, as it was written."""
    model = t.model
    inner = lincomb([(t.line, model.rank), (xi, 1), (of_divisor(model, t.hecke), -1)])
    if t.s == -1:
        inner = lincomb([(inner, -1)])
    return pullback(model.automorphism(t.sigma), inner)


@pytest.mark.parametrize("build", _FOLD_MODELS)
def test_act_det_matches_lincomb_oracle(build):
    m = build()
    rng = random.Random(941 + m.genus * 10 + m.rank + len(m.points))
    for _ in range(60):
        t, xi = rand_basic(rng, m), rand_line(rng, 2 * m.genus)
        assert act_det(t, xi) == oracle_act_det(t, xi)
    with pytest.raises(ShapeMismatch, match="mixed coordinate lengths"):
        act_det(t, rand_line(rng, 2 * m.genus + 2))


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


# -- the integer weight action against the stepwise Fraction action ---------


def oracle_hecke_step(w, x):
    """One Hecke step at x, rebuilding the whole weight system."""
    vec = w.vector(x)
    shifted = vec[1:] + (1 + vec[0],)
    base = shifted[0]
    return WeightSystem(
        tuple((n, tuple(v - base for v in shifted) if n == x else u) for n, u in w.entries),
        w.rank,
    )


def oracle_dual(w):
    entries = []
    for name, vec in w.entries:
        rev = tuple(1 - v for v in reversed(vec))
        entries.append((name, tuple(v - rev[0] for v in rev)))
    return WeightSystem(entries, w.rank)


def oracle_act_weights(t, w):
    """The stepwise action: one new WeightSystem per Hecke step, then the
    dual, then the relabeling by sigma."""
    out = w
    for x, mult in t.hecke.items():
        for _ in range(mult):
            out = oracle_hecke_step(out, x)
    if t.s == -1:
        out = oracle_dual(out)
    perm = t.model.automorphism(t.sigma).point_perm
    if any(perm.get(x, x) != x for x in w.point_names):
        out = WeightSystem(tuple((y, out.vector(perm.get(y, y))) for y in w.point_names), w.rank)
    return out


def oracle_chamber_filter(reps, alpha, cap=10**6):
    """The representatives whose stepwise action keeps alpha's chamber,
    compared over every subrank."""
    return [rep for rep in reps if full_same_chamber(oracle_act_weights(rep, alpha), alpha, cap)]


def full_scan_chamber_filter(d, alpha, model, cap=10**6):
    """The representatives the chamber filter keeps, found by looking every
    Hecke tuple up at a pivot wall: per (automorphism, sign) sector, each
    of the r^n tuples in its degree bucket is tested there, in order, and
    those that pass are compared a block of walls at a time. It raises
    what stabilizer_d_alpha_quotient raises first, at r^n steps per
    sector."""
    transform._check_weights_rank(alpha, model)
    transform._check_generic_alpha(alpha, model, cap)
    tuples = transform._hecke_tuples(model, cap)
    q, r, n, count = alpha.q, model.rank, len(alpha.rows), weights._wall_count(alpha)
    if count > cap:
        raise EnumerationCapExceeded(count, cap, "walls")
    index = {x: i for i, x in enumerate(model.point_names)}
    groups = []
    if count:
        rows1 = weights._walls(alpha).rows(1)
        phi = [v // q for v in weights._sums([[v + q * i for i, v in enumerate(row)] for row in rows1])]
        place, h = [r ** (n - 1 - a) for a in range(n)], n // 2
        blocks = [phi[j:j + r ** (n - h)] for j in range(0, len(phi), r ** (n - h))]
        top, levels = n * (r - 1) - 1, Counter(phi)
        tables = {1: phi, -1: [top - v for v in phi]}
        pivots = {1: phi.index(min(levels, key=levels.get)),
                  -1: phi.index(min(levels, key=lambda v: levels.get(top - v, 0)))}
    for auto, s, group in transform._degree_sectors(model, d, tuples):
        positions = [index[model.point(auto.point_perm.get(y, y)).name] for y in model.point_names]
        if count:
            table, pivot = tables[s], pivots[s]
            # lanes[a][k][D_a]: the place of sigma(y_a) in E times its digit there after k steps
            lanes = [[row[j:] + row[:j] for j in range(0, s * r, s)]
                     for row in (list(range(0, r * place[i], place[i]))[::s] for i in positions)]
            columns = [[0] * r for _ in positions]
            for a, (i, lane) in enumerate(zip(positions, lanes)):
                columns[i] = [row[pivot // place[a] % r] for row in lane]
            at_pivot = weights._sums(columns)
        kept = []
        for k, _, mults in group:
            if not count or table[at_pivot[k]] != phi[pivot]:
                kept.append(not count)
                continue
            steps = [mults[i] for i in positions]
            rows = list(map(list.__getitem__, lanes, steps))
            tails = weights._sums(rows[h:])
            keeps = all([table[a + t] for t in tails] == block for a, block in zip(weights._sums(rows[:h]), blocks))
            if keeps and r > 3:
                acted = tuple(tuple(weights._act_vector(alpha.rows[i], step, s, q))
                              for i, step in zip(positions, steps))
                keeps = acted == alpha.rows or same_chamber(
                    WeightSystem._of_rows(alpha.point_names, q, acted, alpha.rank), alpha, cap)
            kept.append(keeps)
        groups.append((auto, s, list(itertools.compress(group, kept))))
    return list(transform._sector_transforms(model, groups))


# point-relabelling tables at ranks 2-4, and a trivial one
_ACTION_MODELS = {}


def _action_model(key):
    if key not in _ACTION_MODELS:
        kind, a, b = key
        if kind == "cyclic":
            _ACTION_MODELS[key] = model_cyclic(1, a, rank=b)
        elif kind == "rotation":
            _ACTION_MODELS[key] = model_rotation(1, a, rank=b)
        else:
            _ACTION_MODELS[key] = build_model(
                1, b, [(f"x{k}", [f"{k}/{a + 1}", "0"]) for k in range(a)]
            )
    return _ACTION_MODELS[key]


@st.composite
def acted_pairs(draw):
    """A tuple over a rank 2-4 model and a canonical weight system on its
    points with mixed denominators, generic or not."""
    key = draw(st.sampled_from([
        ("cyclic", 3, 2), ("cyclic", 3, 3), ("cyclic", 2, 4), ("cyclic", 4, 3),
        ("rotation", 3, 2), ("rotation", 4, 2), ("plain", 3, 3), ("plain", 2, 4),
    ]))
    m = _action_model(key)
    r = m.rank
    entries = {}
    for x in m.point_names:
        den = draw(st.sampled_from((5, 6, 7, 8, 12, 97)))
        nums = draw(st.lists(st.integers(1, den - 1), min_size=r - 1, max_size=r - 1, unique=True))
        entries[x] = (Fraction(0),) + tuple(Fraction(k, den) for k in sorted(nums))
    hecke = {x: draw(st.integers(0, r - 1)) for x in m.point_names}
    sigma = draw(st.sampled_from([a.name for a in m.automorphisms]))
    t = BasicTransformation(m, sigma, draw(st.sampled_from((1, -1))), triv(m), Divisor(hecke))
    return t, WeightSystem(entries, r)


@settings(max_examples=80, deadline=None)
@given(acted_pairs())
def test_act_weights_matches_stepwise_oracle(pair):
    t, w = pair
    got = act_weights(t, w)
    assert got == oracle_act_weights(t, w)
    assert repr(got) == repr(oracle_act_weights(t, w))
    x = t.model.point_names[0]
    assert hecke_weights(w, x) == oracle_hecke_step(w, x)
    assert dual_weights(w) == oracle_dual(w)


@settings(max_examples=80, deadline=None)
@given(acted_pairs())
def test_act_weights_trusted_system_matches_the_validating_one(pair):
    """act_weights skips WeightSystem's conversion and checks; the system
    it builds equals the validating constructor's on the same entries."""
    t, w = pair
    got = act_weights(t, w)
    want = WeightSystem(got.entries, w.rank)
    assert got.entries == want.entries and got.point_names == want.point_names
    assert got.rank == want.rank and got == want and hash(got) == hash(want)
    assert repr(got) == repr(want) and got.to_json() == want.to_json()
    assert all(type(x) is Fraction for _, vec in got.entries for x in vec)
    assert all(type(vec) is tuple for _, vec in got.entries)


def _verdict(fn):
    try:
        return fn()
    except NotGeneric as exc:
        return exc.witness.to_json()


@settings(max_examples=60, deadline=None)
@given(acted_pairs())
def test_chamber_membership_matches_stepwise_oracle(pair):
    t, w = pair
    for rep in [t] + t_d_quotient_reps(0, t.model):
        want = _verdict(lambda: full_same_chamber(oracle_act_weights(rep, w), w))
        assert _verdict(lambda: subgroup_membership(rep, 0, alpha=w)["in_T_alpha"]) == want


def test_d_alpha_filter_matches_stepwise_oracle(rng=random.Random(86)):
    keys = [("plain", 4, 3), ("plain", 3, 4), ("cyclic", 3, 3), ("cyclic", 4, 3),
            ("rotation", 4, 2), ("cyclic", 2, 4), ("cyclic", 3, 4), ("cyclic", 2, 5), ("plain", 3, 5)]
    for key in keys:
        m = _action_model(key)
        for d in (-1, 0, 2):
            alpha = rand_generic_weights(rng, m)
            want = oracle_chamber_filter(t_d_quotient_reps(d, m), alpha)
            got = stabilizer_d_alpha_quotient(d, alpha, m)
            assert [t.to_json() for t in got] == [t.to_json() for t in want]
    # a non-generic alpha: the filter raises the wall the stepwise action meets
    m = _action_model(("cyclic", 3, 3))
    on_wall = WeightSystem({x: (0, Fraction(1, 3), Fraction(2, 3)) for x in m.point_names}, 3)
    with pytest.raises(NotGeneric):
        stabilizer_d_alpha_quotient(0, on_wall, m)
    for rep in t_d_quotient_reps(0, m):
        want = _verdict(lambda: full_same_chamber(oracle_act_weights(rep, on_wall), on_wall))
        assert _verdict(lambda: subgroup_membership(rep, 0, alpha=on_wall)["in_T_alpha"]) == want


def test_act_weights_unknown_points_raise_like_oracle(cyclic3):
    w = WeightSystem({"p": (0, Fraction(1, 3), Fraction(1, 2))}, 3)
    for t in (basic(cyclic3, hecke={"q": 1}), basic(cyclic3, sigma="tau")):
        with pytest.raises(UnknownPoint) as got:
            act_weights(t, w)
        with pytest.raises(UnknownPoint) as want:
            oracle_act_weights(t, w)
        assert got.value.name == want.value.name


def test_d_alpha_quotient_rank3_six_points_is_fast():
    m = build_model(1, 3, [(f"x{k}", [f"{k}/7", f"{k * k % 5}/5"]) for k in range(6)])
    rng = random.Random(87)
    best = _best_per_call_ms(
        lambda alpha: stabilizer_d_alpha_quotient(0, alpha, m),
        lambda: (rand_generic_weights(rng, m),),
        calls=1,
    )
    assert best < 60


def test_d_alpha_quotient_keeps_a_large_stabilizer_fast():
    # nine of ten points on (0, 1/3, 2/3), which every Hecke step keeps: the
    # 3^8 sectors with |H| = 0 mod 3 on those points act as the identity on
    # alpha and are kept without a wall scan. About 0.35 s on a shared
    # 2-core host with Python 3.11, against 24 s for the full scan, which
    # checks each kept tuple over all 3^10 walls
    m = _action_model(("plain", 10, 3))
    first, *rest = m.point_names
    alpha = WeightSystem({first: (0, Fraction(3, 101), Fraction(10, 101)),
                          **{x: (0, Fraction(1, 3), Fraction(2, 3)) for x in rest}}, 3)
    start = time.perf_counter()
    kept = stabilizer_d_alpha_quotient(0, alpha, m)
    assert time.perf_counter() - start < 5
    assert len(kept) == 3**8
    assert all(t.s == 1 and not t.hecke.get(first) and t.hecke.degree() % 3 == 0 for t in kept)


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


def test_cap_errors_name_what_hit_the_cap(cyclic3):
    m = cyclic3  # rank 3, three points: 27 Hecke sectors, 2 * 3^3 = 54 walls
    alpha = rand_generic_weights(random.Random(88), m)
    cases = [
        (lambda: stabilizer_xi(triv(m), m, cap=26), 27, 26, "hecke sectors"),
        (lambda: stabilizer_d_alpha_quotient(0, alpha, m, cap=30), 54, 30, "walls"),
        (lambda: same_chamber(alpha, alpha, cap=53), 54, 53, "walls"),
        (lambda: chamber_fingerprint(alpha, cap=1), 54, 1, "walls"),
        (lambda: list(r_torsion(2, 3, cap=80)), 81, 80, "r-torsion"),
        (lambda: curves_isomorphic(m, m, cap=10), 18, 10, "isomorphism candidates"),
    ]
    for call, count, cap, what in cases:
        with pytest.raises(EnumerationCapExceeded) as err:
            call()
        assert (err.value.count, err.value.cap, err.value.what) == (count, cap, what)
        assert str(err.value) == f"enumeration of {count} elements exceeds cap {cap} ({what})"


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


# -- the sector loop against the loops it replaced ---------------------------


def oracle_hecke_sectors(model, cap):
    """All in-range Hecke divisors in lexicographic multiplicity order."""
    n = len(model.points)
    count = model.rank**n
    if count > cap:
        raise EnumerationCapExceeded(count, cap, "hecke sectors")
    for mults in itertools.product(range(model.rank), repeat=n):
        yield Divisor(dict(zip(model.point_names, mults)))


def oracle_t_d_quotient_reps(d, model, cap=10**6):
    """One fresh Divisor per (automorphism, sign, sector), then the
    admissibility test on its degree."""
    r = model.rank
    dim = 2 * model.genus
    reps = []
    for auto in model.automorphisms:
        for s in (1, -1):
            for hecke in oracle_hecke_sectors(model, cap):
                num = s * d - d + hecke.degree()
                if num % r != 0:
                    continue
                line = LineBundleClass(num // r, JacobianElement.zero(dim))
                reps.append(BasicTransformation(model, auto.name, s, line, hecke))
    return reps


def oracle_stabilizer_xi(xi, model, cap=10**6):
    """The determinant stabilizer with one lincomb and one of_divisor per
    sector."""
    r = model.rank
    dim = 2 * model.genus
    sectors = []
    for auto in model.automorphisms:
        inv = model.automorphism(model.inverse_auto(auto.name))
        for s in (1, -1):
            for hecke in oracle_hecke_sectors(model, cap):
                size = hecke.degree()
                num = s * xi.degree - xi.degree + size
                if num % r != 0:
                    continue
                rhs = lincomb(
                    [(pullback(inv, xi), s), (xi, -1), (of_divisor(model, hecke), 1)]
                )
                root, torsor = divide_by_r(rhs.jac, r)
                sectors.append(
                    {
                        "sigma": auto.name,
                        "s": s,
                        "H": hecke.to_json(),
                        "L_degree": num // r,
                        "root": root.to_json(),
                        "torsor_size": torsor,
                    }
                )
    return {"total": len(sectors) * r**dim, "sectors": sectors}


def two_reduction_stabilizer_xi(xi, model, cap=10**6):
    """stabilizer_xi reducing each sector's class by from_nums and then its
    root again in divide_by_r."""
    r = model.rank
    dim = 2 * model.genus
    tuples = transform._hecke_tuples(model, cap)
    q, sums = transform._hecke_class_sums(model)
    names = model.point_names
    by_name = sorted(range(len(names)), key=names.__getitem__)
    sectors = []
    for auto, s, group in transform._degree_sectors(model, xi.degree, tuples):
        inv = model.automorphism(model.inverse_auto(auto.name))
        jac = lincomb([(pullback(inv, xi), s), (xi, -1)]).jac
        den = math.lcm(jac.den, q)
        base = [x * (den // jac.den) for x in jac.nums]
        scale = den // q
        for k, ldeg, mults in group:
            rhs = JacobianElement.from_nums([a + scale * b for a, b in zip(base, sums[k])], den)
            root, torsor = divide_by_r(rhs, r)
            sectors.append({
                "sigma": auto.name,
                "s": s,
                "H": {names[i]: mults[i] for i in by_name if mults[i]},
                "L_degree": ldeg,
                "root": root.to_json(),
                "torsor_size": torsor,
            })
    return {"total": len(sectors) * r**dim, "sectors": sectors}


def test_stabilizer_roots_match_the_two_reduction_path(elliptic2, worked6, rng=random.Random(85)):
    """The paper's two worked models at the trivial class, then random
    classes of several denominators on them and on the sector models."""
    cases = [(elliptic2, triv(elliptic2)), (worked6, triv(worked6))]
    models = [elliptic2, worked6] + [_action_model(key) for key in _SECTOR_MODELS]
    for m in models:
        for den in (1, 2, 3, 5, 12, 35):
            jac = JacobianElement(Fraction(rng.randrange(den), den) for _ in range(2 * m.genus))
            cases.append((m, LineBundleClass(rng.randint(-4, 4), jac)))
    nonzero = 0
    for m, xi in cases:
        got = stabilizer_xi(xi, m)
        assert json.dumps(got) == json.dumps(two_reduction_stabilizer_xi(xi, m))
        nonzero += sum(any(x != "0" for x in sec["root"]) for sec in got["sectors"])
    assert nonzero > 1000  # most roots are not zero


def _rep_texts(reps):
    return [(repr(t), json.dumps(t.to_json()), list(t.hecke.items())) for t in reps]


_SECTOR_MODELS = [
    ("plain", 3, 2), ("plain", 3, 3), ("plain", 2, 4),
    ("cyclic", 3, 2), ("cyclic", 3, 3), ("cyclic", 2, 4), ("cyclic", 4, 3),
    ("rotation", 3, 2), ("rotation", 4, 2), ("rotation", 3, 3), ("rotation", 4, 4),
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SECTOR_MODELS),
    st.integers(-3, 3),
    st.sampled_from((1, 2, 3, 4, 6, 12)),
    st.data(),
)
def test_sector_loop_matches_old_loops(key, d, den, data):
    m = _action_model(key)
    nums = data.draw(st.lists(st.integers(0, den - 1), min_size=2 * m.genus, max_size=2 * m.genus))
    xi = LineBundleClass(d, JacobianElement(Fraction(k, den) for k in nums))
    want = oracle_t_d_quotient_reps(d, m)
    got = t_d_quotient_reps(d, m)
    assert got == want
    assert _rep_texts(got) == _rep_texts(want)
    assert json.dumps(stabilizer_xi(xi, m)) == json.dumps(oracle_stabilizer_xi(xi, m))
    # the filter on sector tuples against the filter on the old representatives
    alpha = rand_generic_weights(random.Random(data.draw(st.integers(0, 2**16))), m)
    kept = stabilizer_d_alpha_quotient(d, alpha, m)
    assert _rep_texts(kept) == _rep_texts(
        [t for t in want if subgroup_membership(t, 0, alpha=alpha)["in_T_alpha"]]
    )


_FILTER_MODELS = [
    ("plain", 1, 2), ("plain", 6, 2), ("plain", 1, 3), ("plain", 4, 3), ("plain", 1, 4),
    ("plain", 3, 4), ("cyclic", 3, 2), ("cyclic", 3, 3), ("cyclic", 2, 4), ("rotation", 3, 3),
    ("cyclic", 3, 4), ("plain", 1, 5), ("cyclic", 2, 5), ("plain", 3, 5),
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_FILTER_MODELS), st.integers(-3, 3), st.integers(0, 2**16))
def test_chamber_filter_matches_oracle_filter(key, d, seed):
    """The lifted-floor filter against same_chamber on the stepwise
    action, at ranks 2-5 on 1-6 points: for a generic alpha the kept
    representatives, and for weights over one small denominator, often on
    a wall, each verdict or NotGeneric wall."""
    m = _action_model(key)
    rng = random.Random(seed)
    alpha = rand_generic_weights(rng, m)
    want = oracle_chamber_filter(t_d_quotient_reps(d, m), alpha)
    assert _rep_texts(stabilizer_d_alpha_quotient(d, alpha, m)) == _rep_texts(want)
    assert _rep_texts(full_scan_chamber_filter(d, alpha, m)) == _rep_texts(want)
    den = rng.choice((2, 3, 4)) * m.rank
    w = WeightSystem(
        {x: (0,) + tuple(Fraction(k, den) for k in sorted(rng.sample(range(1, den), m.rank - 1)))
         for x in m.point_names},
        m.rank,
    )
    for rep in t_d_quotient_reps(d, m):
        want = _verdict(lambda: full_same_chamber(oracle_act_weights(rep, w), w))
        assert _verdict(lambda: subgroup_membership(rep, 0, alpha=w)["in_T_alpha"]) == want


def _outcome(fn):
    try:
        return _rep_texts(fn())
    except (NotGeneric, UnknownPoint, EnumerationCapExceeded) as exc:
        return type(exc).__name__, str(exc)


def _wall_weights(rng, model):
    """Weights on the model's points over one small denominator, drawn
    until they lie on a wall."""
    r = model.rank
    for _ in range(200):
        alpha = WeightSystem(
            {x: (0,) + tuple(Fraction(k, den) for k in sorted(rng.sample(range(1, den), r - 1)))
             for x in model.point_names for den in [rng.choice((2, 3, 4)) * r]},
            r,
        )
        if not is_generic(alpha)[0]:
            return alpha
    raise AssertionError("no weights on a wall drawn")


def _capped_cases(rng):
    """(model, alpha) pairs on the model's points: per model a generic
    alpha, one on a wall and one whose points share a row, and the
    pointless model with the empty alpha."""
    cases = []
    for key in (("cyclic", 3, 3), ("cyclic", 2, 4), ("plain", 3, 3), ("plain", 3, 2), ("rotation", 4, 2),
                ("cyclic", 4, 3), ("plain", 1, 3)):
        m = _action_model(key)
        cases += [(m, rand_generic_weights(rng, m)), (m, _wall_weights(rng, m)),
                  (m, _symmetric_weights(rng, m, 0))]
    return cases + [(model_g1r3n0(), WeightSystem((), 3))]


def test_sector_filter_raises_like_the_old_loop(rng=random.Random(89)):
    """Weights on the model's points, generic, on a wall or symmetric, the
    pointless model, and caps of 1, 26 and r^n, which stop the Hecke
    tuples or the walls: the filter keeps the same representatives as the
    stepwise action over the old representatives and as the full scan, or
    raises the same first error, by type and message, at every degree
    -3..3."""
    outcomes = []
    for m, alpha in _capped_cases(rng):
        for d in range(-3, 4):
            # r^n passes the Hecke tuples; past rank 2 the walls are more
            for cap in (10**6, 1, 26, m.rank ** len(m.points)):
                want = _outcome(lambda: full_scan_chamber_filter(d, alpha, m, cap))
                assert _outcome(lambda: stabilizer_d_alpha_quotient(d, alpha, m, cap)) == want
                # a wall is refused before any cap, so the stepwise oracle meets it uncapped
                ocap = cap if full_is_generic(alpha)[0] else 10**6
                stepwise = _outcome(lambda: oracle_chamber_filter(oracle_t_d_quotient_reps(d, m, ocap), alpha, ocap))
                assert stepwise == want
                outcomes.append(want if isinstance(want, tuple) else ("kept", len(want)))
    # every refusal shows up, and kept lists of one representative and of more
    kinds = {o[0] for o in outcomes}
    assert {"NotGeneric", "EnumerationCapExceeded", "kept"} <= kinds
    assert any("(walls)" in o[1] for o in outcomes if o[0] == "EnumerationCapExceeded")
    assert any("(hecke sectors)" in o[1] for o in outcomes if o[0] == "EnumerationCapExceeded")
    assert {1, 2} <= {o[1] for o in outcomes if o[0] == "kept"}
    # weights of another rank are refused before any sector is tested
    m = _action_model(("cyclic", 3, 3))
    for rank in (2, 4):
        other = _action_model(("cyclic", 3, rank))
        alpha = rand_generic_weights(rng, other)
        for d in (0, 2):
            with pytest.raises(ShapeMismatch, match=f"weights rank {rank} does not match model rank 3"):
                stabilizer_d_alpha_quotient(d, alpha, m)
    alpha = rand_generic_weights(rng, m)
    with pytest.raises(EnumerationCapExceeded) as err:
        stabilizer_d_alpha_quotient(0, alpha, m, cap=26)
    assert (err.value.count, err.value.what) == (27, "hecke sectors")
    with pytest.raises(EnumerationCapExceeded) as err:
        stabilizer_d_alpha_quotient(0, alpha, m, cap=27)
    assert (err.value.count, err.value.what) == (2 * 3**3, "walls")


_OFF_POINTS = "^weight system points do not match the model points$"


def test_chamber_filter_refuses_alpha_off_the_model_points(rng=random.Random(98)):
    """The stabilizer of (d, alpha) is defined for alpha on the model's
    points only. Both entry points refuse alpha missing a point, with an
    extra point or with the model's points reordered, with the
    ShapeMismatch a ModuliDescriptor raises: after the rank check and
    before NotGeneric, whatever the cap."""
    for key in (("cyclic", 3, 3), ("plain", 3, 2), ("rotation", 4, 2), ("plain", 1, 3)):
        m = _action_model(key)
        r, names = m.rank, list(m.point_names)
        entries = rand_generic_weights(rng, m).entries
        wall = _wall_weights(rng, m).entries
        shapes = [entries[:-1], entries + (("zy", entries[0][1]),), wall[:-1], wall + (("zz", wall[0][1]),)]
        if len(names) > 1:
            shapes += [entries[::-1], wall[::-1]]
        for sub in shapes:
            alpha = WeightSystem(sub, r)
            with pytest.raises(ShapeMismatch, match=_OFF_POINTS):
                ModuliDescriptor(m, r, 0, alpha)
            for fn in (stabilizer_d_alpha_quotient, automorphism_group_report):
                for d, cap in ((0, 10**6), (1, 1)):
                    with pytest.raises(ShapeMismatch, match=_OFF_POINTS):
                        fn(d, alpha, m, cap)
        # the rank is checked first
        other = rand_generic_weights(rng, _action_model(("plain", len(names) + 1, r + 1)))
        with pytest.raises(ShapeMismatch, match=f"weights rank {r + 1} does not match model rank {r}"):
            stabilizer_d_alpha_quotient(0, other, m)
    # a sigma-image off the model's points, which only a hand-built model
    # can hold, is refused by name
    m = _action_model(("plain", 2, 3))
    zero = JacobianElement.zero(2)
    one = ((1, 0), (0, 1))
    stray = CurveModel(1, 3, 0, m.points, [CurveAutomorphism("id", {}, one, zero),
                                          CurveAutomorphism("tau", {"x0": "x1", "x1": "zz"}, one, zero)])
    alpha = rand_generic_weights(rng, m)
    for fn in (stabilizer_d_alpha_quotient, automorphism_group_report):
        with pytest.raises(UnknownPoint) as err:
            fn(0, alpha, stray)
        assert err.value.name == "zz"


def test_chamber_filter_refuses_a_wall_as_is_generic_does(rng=random.Random(97)):
    """alpha on a wall at ranks 2 and 3, on the model's points (one point
    at rank 3 only, as one point of rank 2 lies on no wall): the filter
    raises NotGeneric with is_generic's witness at every degree -3..3,
    before any cap, and so does the full scan."""
    for key in (("plain", 1, 3), ("plain", 3, 2), ("rotation", 4, 2), ("plain", 3, 3), ("cyclic", 3, 3),
                ("rotation", 3, 3)):
        m = _action_model(key)
        alpha = _wall_weights(rng, m)
        want = ("NotGeneric", str(NotGeneric(is_generic(alpha)[1])))
        for d in range(-3, 4):
            for cap in (10**6, 1):
                assert _outcome(lambda: stabilizer_d_alpha_quotient(d, alpha, m, cap)) == want
                assert _outcome(lambda: full_scan_chamber_filter(d, alpha, m, cap)) == want


def _symmetric_weights(rng, model, invariant):
    """A generic alpha on the model's points: the first on a row over a
    prime near 100, the next `invariant` on (0, 1/r, ..., (r - 1)/r),
    which Hecke steps and the dual keep, and the rest on one shared row
    over 7. Its stabilizer keeps about r^invariant representatives."""
    r = model.rank

    def row(den):
        return (0,) + tuple(Fraction(k, den) for k in sorted(rng.sample(range(1, den), r - 1)))

    first, *rest = model.point_names
    for _ in range(200):
        shared = row(7)
        alpha = WeightSystem({first: row(rng.choice((97, 101, 103))),
                              **{x: tuple(Fraction(k, r) for k in range(r)) if i < invariant else shared
                                 for i, x in enumerate(rest)}}, r)
        if is_generic(alpha)[0]:
            return alpha
    raise AssertionError("no generic symmetric system drawn")


# past the stepwise oracle's reach: rank 3 at 9-12 points, rank 4 at 6-7
# and rank 5 at 5-6, on trivial and permuting tables; (model, generic
# draws, symmetric draws), each symmetric one with two invariant points.
# Rank 3 at 12 points and rank 5 at 6 have over 10^6 walls, so both
# sides run under a cap of 10^7
_LARGE_FILTER_MODELS = [
    (("plain", 9, 3), 2, 2), (("plain", 10, 3), 2, 1), (("plain", 11, 3), 1, 0), (("cyclic", 9, 3), 1, 1),
    (("plain", 6, 4), 2, 1), (("plain", 7, 4), 1, 1), (("cyclic", 6, 4), 1, 1), (("orbits", 4, 3), 2, 1),
    (("plain", 12, 3), 1, 0), (("plain", 5, 5), 1, 1), (("plain", 6, 5), 1, 0),
]


def test_chamber_filter_matches_full_scan_on_large_models(rng=random.Random(93)):
    """The level candidates against the full scan of every Hecke tuple, on
    generic and on symmetric weights: the same kept representatives. The
    draws are not vacuous: every symmetric one keeps several."""
    for key, generic, symmetric in _LARGE_FILTER_MODELS:
        m = _cyclic_orbits_model(3, 2, key[1]) if key[0] == "orbits" else _action_model(key)
        alphas = [rand_generic_weights(rng, m) for _ in range(generic)]
        alphas += [_symmetric_weights(rng, m, 2) for _ in range(symmetric)]
        for k, alpha in enumerate(alphas):
            d = rng.randint(-3, 3)
            want = full_scan_chamber_filter(d, alpha, m, 10**7)
            assert _rep_texts(stabilizer_d_alpha_quotient(d, alpha, m, 10**7)) == _rep_texts(want)
            assert len(want) >= (2 if k >= generic else 1)


def test_chamber_filter_keeps_no_dual_when_no_wall_reflects_the_least_floor():
    """A generic alpha on rank 3 at 4 points where no wall has the lifted
    floor top - least (least the least lifted floor, top = n(r - 1) - 1):
    no s = -1 tuple can keep the chamber, and at every degree the filter
    keeps what the full scan and the stepwise action keep."""
    m = _action_model(("plain", 4, 3))
    alpha = rand_generic_weights(random.Random(2), m)
    q = alpha.q
    lifted = [[v + q * i for i, v in enumerate(row)] for row in weights._walls(alpha).rows(1)]
    floors = {v // q for v in weights._sums(lifted)}
    top = 4 * (3 - 1) - 1
    assert top - min(floors) not in floors
    for d in range(-3, 4):
        want = full_scan_chamber_filter(d, alpha, m)
        assert _rep_texts(stabilizer_d_alpha_quotient(d, alpha, m)) == _rep_texts(want)
        assert _rep_texts(oracle_chamber_filter(t_d_quotient_reps(d, m), alpha)) == _rep_texts(want)
        assert want and all(t.s == 1 for t in want)


# ranks 2-6 on plain, cyclic and rotation tables, small enough for the oracle
_SYMMETRIC_MODELS = [
    ("plain", 4, 2), ("cyclic", 4, 2), ("rotation", 4, 2), ("plain", 4, 3), ("cyclic", 3, 3),
    ("cyclic", 4, 3), ("rotation", 3, 3), ("plain", 3, 4), ("cyclic", 2, 4), ("cyclic", 3, 4),
    ("plain", 2, 5), ("cyclic", 2, 5), ("plain", 2, 6), ("cyclic", 2, 6),
]


@st.composite
def symmetric_filter_cases(draw):
    """A model, a degree and a generic alpha on the model's points, which
    mostly share one row over a small denominator, so that relabelling,
    Hecke steps and the dual often keep its chamber. In about half the
    draws the first point takes a row over a prime near 100, which keeps
    them off the walls; in the rest every point may share the one row."""
    m = _action_model(draw(st.sampled_from(_SYMMETRIC_MODELS)))
    r = m.rank
    first = m.point_names[0] if draw(st.booleans()) else None

    def row(den):
        nums = draw(st.lists(st.integers(1, den - 1), min_size=r - 1, max_size=r - 1, unique=True))
        return (0,) + tuple(Fraction(k, den) for k in sorted(nums))

    shared = row(draw(st.sampled_from((r + 1, r + 2, 2 * r + 1))))
    alpha = WeightSystem(
        {x: row(draw(st.sampled_from((97, 101, 103)))) if x == first
         else row(draw(st.sampled_from((7, 11, 13)))) if draw(st.integers(0, 4)) == 0 else shared
         for x in m.point_names},
        r,
    )
    assume(is_generic(alpha)[0])
    return m, draw(st.integers(-3, 3)), alpha


def test_chamber_filter_matches_oracle_on_symmetric_weights():
    """The lifted-floor filter against the stepwise action over the old
    representatives, on symmetric weights at ranks 2-6: the same kept
    representatives, or the same first error by type and message. The
    draws are not vacuous: several keep two representatives or more, and
    some keep one whose sigma moves the points. About one draw in eight
    does; the rotation table's example always does, so that the permuted
    kept tuples are checked on every run."""
    kept, moved = [], []
    rotation = _action_model(("rotation", 3, 3))
    fixed = ("0", "10/103", "30/103")
    orbit = ("0", "2/7", "4/7")

    @settings(max_examples=60, deadline=None)
    @given(symmetric_filter_cases())
    @example((rotation, 0, WeightSystem({x: fixed if x == "z" else orbit for x in rotation.point_names}, 3)))
    def check(case):
        m, d, alpha = case
        want = _outcome(lambda: oracle_chamber_filter(oracle_t_d_quotient_reps(d, m), alpha))
        assert _outcome(lambda: stabilizer_d_alpha_quotient(d, alpha, m)) == want
        assert _outcome(lambda: full_scan_chamber_filter(d, alpha, m)) == want
        kept.append(len(want) if isinstance(want, list) else 0)
        moved.append(isinstance(want, list)
                     and any(json.loads(js)["sigma"] != m.identity_name for _, js, _ in want))

    check()
    assert sum(k >= 2 for k in kept) >= 5
    assert any(moved)


def _cyclic_orbits_model(rank, order, orbits):
    """An order-`order` translation along the first coordinate permuting
    each of `orbits` orbits of points, at genus 1."""
    names = [[f"c{o}_{k}" for k in range(order)] for o in range(orbits)]
    points = [
        (names[o][k], [str(Fraction(-k, order) % 1), str(Fraction(o, orbits))])
        for o in range(orbits)
        for k in range(order)
    ]
    autos = [
        {
            "name": "id" if j == 0 else f"tau{j}",
            "perm": {names[o][k]: names[o][(k + j) % order]
                     for o in range(orbits) for k in range(order)},
            "matrix": [[1, 0], [0, 1]],
            "translation": [str(Fraction(j, order)), "0"],
        }
        for j in range(order)
    ]
    return build_model(1, rank, points, autos=autos)


def test_d_alpha_quotient_rank3_cyclic_six_points_is_fast():
    # rank 3, an order-2 table on three orbits: 729 Hecke tuples, 972
    # sectors per call, each looked up once at the pivot wall of the lifted
    # floors. Best of 3 about 1.1 ms on a shared 2-core host with Python
    # 3.11, against 2.4-2.7 ms with a meet-in-the-middle wall scan per
    # tuple and 33 ms with one Divisor per sector and the sigma
    # permutation read per tuple
    m = _cyclic_orbits_model(3, 2, 3)
    rng = random.Random(90)
    best = _best_per_call_ms(
        lambda d, alpha: stabilizer_d_alpha_quotient(d, alpha, m),
        lambda: (rng.randint(-3, 3), rand_generic_weights(rng, m)),
        calls=1,
    )
    assert best < 20


def test_d_alpha_quotient_rank3_twelve_points_is_fast():
    # rank 3 at 12 points, alpha over 1,000,003: 3^12 Hecke tuples and
    # 2 * 3^12 walls, past the default cap. The level of the least lifted
    # floor is met in the middle over 3^6 head and 3^6 tail sums. Best of 3
    # about 1.7 ms on a shared 2-core host with Python 3.11, against 44-77 ms
    # with a table of all 3^12 lifted floors
    m = _action_model(("plain", 12, 3))
    rng = random.Random(94)

    def alpha():
        while True:
            w = WeightSystem({x: (0,) + tuple(Fraction(k, 1000003) for k in sorted(rng.sample(range(1, 1000003), 2)))
                              for x in m.point_names}, 3)
            if is_generic(w)[0]:
                return (w,)

    best = _best_per_call_ms(lambda w: stabilizer_d_alpha_quotient(0, w, m, 10**7), alpha, calls=1)
    assert best < 15


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
