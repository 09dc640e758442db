"""Extended transformations: Jacobian part, interchange, group report."""

import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from partrans import (
    BasicTransformation,
    Divisor,
    ExtendedCompositionError,
    ExtendedTransformation,
    JacobianAutomorphism,
    JacobianElement,
    LineBundleClass,
    NotGeneric,
    ParabolicInvariant,
    ShapeMismatch,
    WeightSystem,
    act_A,
    act_det,
    act_ext,
    act_invariant,
    apply_jac_aut_line,
    automorphism_group_report,
    compose,
    compose_ext,
    conjugate_tilde,
    default_ref_det,
    describe,
    describe_ext,
    eval_expression,
    ext_inverse,
    frac_to_str,
    identity_ext,
    identity_transform,
    inverse,
    jac_aut_inverse,
    lift_basic,
    lincomb,
    load_config,
    make_basic,
    make_jac_aut,
    stabilizer_d_alpha_quotient,
    subgroup_membership,
    t_d_quotient_reps,
    tilde_compose,
)
from partrans import curve, picard
from partrans.dsl import divisor_form, format_canonical
from partrans.errors import NotInvertible
from partrans.intmat import (
    identity_matrix,
    inverse_unimodular,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    zero_matrix,
)
from partrans.transform import _coordinate_text, _divisor_text, _word_of
from partrans.weights import is_generic
from test_transform import oracle_normalize_word
from conftest import (
    build_model,
    model_cyclic,
    model_order4,
    rand_generic_weights,
    rand_basic,
    rand_invariant,
    rand_jac,
    rand_line,
    rand_tilde,
)


def rand_rho(rng, model, moves=3):
    return make_jac_aut(rand_tilde(rng, 2 * model.genus, model.rank, moves), model.rank)


def rand_deg_preserving_basic(rng, model, d=0):
    """Random tuple fixing degree d, so the Jacobian part interchange is
    defined over a degree-d reference class."""
    r = model.rank
    names = model.point_names
    while True:
        mults = {x: rng.randrange(r) for x in names}
        if sum(mults.values()) % r == 0:
            break
    s = rng.choice((1, -1))
    size = sum(mults.values())
    # s * (r * dl + d - size) = d forces dl = (s*d - d + size) / r
    dl = (s * d - d + size) // r if (s * d - d + size) % r == 0 else None
    if dl is None:
        return rand_deg_preserving_basic(rng, model, d)
    line = LineBundleClass(dl, rand_jac(rng, 2 * model.genus))
    sigma = rng.choice([a.name for a in model.automorphisms])
    return make_basic(sigma, s, line, Divisor(mults), model)


def rand_ext(rng, model, ref):
    return ExtendedTransformation(
        rand_rho(rng, model), rand_deg_preserving_basic(rng, model, ref.degree), ref
    )


# -- construction --------------------------------------------------------


def test_extended_validation(elliptic2, g2r3):
    ref = default_ref_det(elliptic2)
    rho2 = make_jac_aut(zero_matrix(2), 2)
    ExtendedTransformation(rho2, identity_transform(elliptic2), ref)
    with pytest.raises(ShapeMismatch):
        ExtendedTransformation(
            make_jac_aut(zero_matrix(4), 2), identity_transform(elliptic2), ref
        )
    with pytest.raises(ShapeMismatch):
        ExtendedTransformation(
            make_jac_aut(zero_matrix(2), 3), identity_transform(elliptic2), ref
        )
    with pytest.raises(ShapeMismatch):
        ExtendedTransformation(
            rho2,
            identity_transform(elliptic2),
            LineBundleClass(0, JacobianElement([0, 0, 0])),
        )


def test_identity_and_lift(elliptic2, rng=random.Random(90)):
    e = identity_ext(elliptic2)
    assert e.is_identity()
    assert describe_ext(e) == "id"
    t = rand_basic(rng, elliptic2)
    lifted = lift_basic(t)
    assert lifted.basic == t and lifted.rho.is_identity()
    assert describe_ext(lifted) == describe(t)


def test_describe_ext_prefix(elliptic2):
    rho = make_jac_aut([[0, 1], [0, 0]], 2)
    e = ExtendedTransformation(rho, identity_transform(elliptic2), default_ref_det(elliptic2))
    assert describe_ext(e) == "A[[0,1],[0,0]] * id"


# -- the Jacobian-part action --------------------------------------------


def test_act_A_hand_value(elliptic2):
    # inversion at rank 2: tilde = -I, so (0, 1/5) goes to (0, -1/5)
    m = elliptic2
    rho = make_jac_aut([[-1, 0], [0, -1]], 2)
    xi = default_ref_det(m)
    v = ParabolicInvariant(
        2,
        LineBundleClass(0, JacobianElement([Fraction(1, 5), 0])),
        WeightSystem({"p": (0, Fraction(1, 3)), "q": (0, Fraction(1, 7))}, 2),
    )
    out = act_A(rho, xi, v)
    assert out.det == LineBundleClass(0, JacobianElement([Fraction(4, 5), 0]))
    assert out.weights == v.weights


def test_act_A_fixes_reference(elliptic2, rng=random.Random(91)):
    m = elliptic2
    xi = LineBundleClass(0, rand_jac(rng, 2))
    v = rand_invariant(rng, m, degree=0)
    v = ParabolicInvariant(v.rank, xi, v.weights)
    for _ in range(10):
        out = act_A(rand_rho(rng, m), xi, v)
        assert out.det == xi


def test_act_A_guards(elliptic2, rng=random.Random(92)):
    m = elliptic2
    rho = rand_rho(rng, m)
    v = rand_invariant(rng, m, degree=1)
    with pytest.raises(ShapeMismatch):
        act_A(rho, default_ref_det(m), v)  # degree 1 vs reference degree 0
    v0 = rand_invariant(rng, m, degree=0)
    with pytest.raises(ShapeMismatch):
        act_A(make_jac_aut(zero_matrix(2), 3), default_ref_det(m), v0)


def test_act_A_composition_law(elliptic2, g2r3, rng=random.Random(93)):
    for m in (elliptic2, g2r3):
        xi = default_ref_det(m)
        for _ in range(30):
            a, b = rand_rho(rng, m), rand_rho(rng, m)
            v = rand_invariant(rng, m, degree=0)
            left = act_A(a, xi, act_A(b, xi, v))
            ab = make_jac_aut(tilde_compose(a.tilde, b.tilde, m.rank), m.rank)
            right = act_A(ab, xi, v)
            assert left.det == right.det and left.weights == right.weights


def test_act_A_tensor_commutation(elliptic2, rng=random.Random(94)):
    # pushing the Jacobian part past a degree-zero twist rescales the twist
    m = elliptic2
    xi = default_ref_det(m)
    for _ in range(30):
        rho = rand_rho(rng, m)
        line = LineBundleClass(0, rand_jac(rng, 2))
        t = make_basic(m.identity_name, 1, line, Divisor(), m)
        moved = apply_jac_aut_line(rho, line)
        t_moved = make_basic(m.identity_name, 1, moved, Divisor(), m)
        v = rand_invariant(rng, m, degree=0)
        left = act_A(rho, xi, act_invariant(t, v))
        right = act_invariant(t_moved, act_A(rho, xi, v))
        assert left.det == right.det and left.weights == right.weights


def test_act_A_base_change(elliptic2, rng=random.Random(95)):
    # changing the reference class costs one twist by tilde of the change
    m = elliptic2
    xi = default_ref_det(m)
    for _ in range(30):
        rho = rand_rho(rng, m)
        change = rand_jac(rng, 2)
        xi_prime = LineBundleClass(0, change)
        v = rand_invariant(rng, m, degree=0)
        tilde_of_change = LineBundleClass(
            0,
            JacobianElement(
                sum(Fraction(rho.tilde[i][j]) * change.coords[j] for j in range(2))
                for i in range(2)
            ),
        )
        t = make_basic(m.identity_name, 1, tilde_of_change, Divisor(), m)
        left = act_A(rho, xi, v)
        right = act_invariant(t, act_A(rho, xi_prime, v))
        assert left.det == right.det and left.weights == right.weights


# -- composition and inversion -------------------------------------------


def test_compose_ext_matches_sequential_action(elliptic2, g2r3, order4):
    rng = random.Random(96)
    for m in (elliptic2, g2r3, order4):
        ref = default_ref_det(m)
        for _ in range(25):
            e1, e2 = rand_ext(rng, m, ref), rand_ext(rng, m, ref)
            v = rand_invariant(rng, m, degree=ref.degree)
            prod = compose_ext(e1, e2)
            left = act_ext(prod, v)
            right = act_ext(e1, act_ext(e2, v))
            assert left.det == right.det and left.weights == right.weights


def test_compose_ext_identity_rho_shortcut(elliptic2, rng=random.Random(97)):
    m = elliptic2
    ref = default_ref_det(m)
    a, b = rand_basic(rng, m), rand_basic(rng, m)
    prod = compose_ext(lift_basic(a, ref), lift_basic(b, ref))
    assert prod.basic == compose(a, b) and prod.rho.is_identity()


def test_compose_ext_associative(g2r3, rng=random.Random(98)):
    m = g2r3
    ref = default_ref_det(m)
    for _ in range(15):
        e1, e2, e3 = (rand_ext(rng, m, ref) for _ in range(3))
        assert compose_ext(compose_ext(e1, e2), e3) == compose_ext(
            e1, compose_ext(e2, e3)
        )


def test_compose_ext_degree_obstruction(elliptic2, rng=random.Random(99)):
    m = elliptic2
    ref = default_ref_det(m)
    mover = make_basic(
        m.identity_name, 1, LineBundleClass(1, JacobianElement([0, 0])), Divisor(), m
    )
    e1 = lift_basic(mover, ref)
    e2 = ExtendedTransformation(rand_rho(rng, m), identity_transform(m), ref)
    with pytest.raises(ExtendedCompositionError):
        compose_ext(e1, e2)


def test_compose_ext_reference_mismatch(elliptic2):
    m = elliptic2
    a = identity_ext(m, default_ref_det(m, 0))
    b = identity_ext(m, default_ref_det(m, 1))
    with pytest.raises(ShapeMismatch):
        compose_ext(a, b)


def test_ext_inverse_round_trip(elliptic2, g2r3):
    rng = random.Random(100)
    for m in (elliptic2, g2r3):
        ref = default_ref_det(m)
        for _ in range(20):
            e = rand_ext(rng, m, ref)
            assert compose_ext(ext_inverse(e), e).is_identity()
            assert compose_ext(e, ext_inverse(e)).is_identity()


def test_ext_inverse_of_basic_lift(elliptic2, rng=random.Random(101)):
    m = elliptic2
    for _ in range(20):
        t = rand_basic(rng, m)
        assert ext_inverse(lift_basic(t)).basic == inverse(t)


def test_conjugate_tilde_formula(order4, rng=random.Random(102)):
    m = order4
    a = m.automorphism("r1")
    ms = [list(row) for row in a.matrix]
    for _ in range(10):
        rho = rand_rho(rng, m)
        conj = conjugate_tilde(m, "r1", rho)
        want = mat_mul(mat_mul(ms, [list(r) for r in rho.tilde]), inverse_unimodular(ms))
        assert [list(r) for r in conj.tilde] == want
        assert conj.r == m.rank


# -- the layered report --------------------------------------------------


def worked_alpha():
    return WeightSystem({"p": (0, Fraction(1, 3)), "q": (0, Fraction(1, 5))}, 2)


def test_report_worked_example(worked6):
    rep = automorphism_group_report(0, worked_alpha(), worked6)
    assert rep["degree"] == 0
    assert rep["jacobian_layer"]["model"] == "(Q/Z)^12"
    assert rep["jacobian_layer"]["genus"] == 6
    assert rep["aut_j_layer"]["endo_ring"] == "scalar"
    assert len(rep["discrete_3bir"]) == 4
    regular = rep["discrete_regular"]
    assert [(e["sigma"], e["s"], e["H"], e["L_degree"]) for e in regular] == [
        ("id", 1, {}, 0),
        ("id", -1, {}, 0),
    ]
    assert regular[0]["text"] == "id"
    assert regular[1]["text"] == "D-"
    assert regular[1]["redundant_at_rank_2"] is True
    assert "rank 2" in regular[1]["note"]
    assert "redundant_at_rank_2" not in regular[0]


def test_report_requires_generic(elliptic2):
    wall = WeightSystem({"p": (0, Fraction(1, 2)), "q": (0, Fraction(1, 2))}, 2)
    with pytest.raises(NotGeneric):
        automorphism_group_report(0, wall, elliptic2)


def test_report_no_points_chamber_vacuous(g1r3n0):
    m = g1r3n0
    rep = automorphism_group_report(0, WeightSystem((), 3), m)
    kinds = [(e["s"], e["H"]) for e in rep["discrete_regular"]]
    assert kinds == [(1, {}), (-1, {})]
    # rank 3: no redundancy marks anywhere
    assert all("redundant_at_rank_2" not in e for e in rep["discrete_3bir"])


def test_report_asymmetric_weights_can_kill_duals(g2r3):
    # weights chosen so that no nontrivial representative survives
    m = g2r3
    alpha = WeightSystem({"p": (0, Fraction(1, 97), Fraction(5, 97))}, 3)
    rep = automorphism_group_report(0, alpha, m)
    texts = [e["text"] for e in rep["discrete_regular"]]
    assert texts == ["id"]


def test_report_endo_ring_echo(elliptic2):
    rep = automorphism_group_report(0, worked_alpha(), elliptic2)
    assert rep["aut_j_layer"]["endo_ring"] == "scalar"
    assert "scalar" in rep["aut_j_layer"]["description"]


def oracle_report(d, alpha, model, cap=10**6):
    """The report as built before: the representatives of the old sector
    loop, and every entry formatted afresh, a chamber-preserving one twice."""
    from test_transform import oracle_t_d_quotient_reps

    ok, witness = is_generic(alpha, cap)
    if not ok:
        raise NotGeneric(witness)
    reps = oracle_t_d_quotient_reps(d, model, cap)
    regular = [subgroup_membership(t, 0, alpha=alpha, cap=cap)["in_T_alpha"] for t in reps]

    def entry(t):
        rec = {
            "sigma": t.sigma,
            "s": t.s,
            "H": t.hecke.to_json(),
            "L_degree": t.line.degree,
            "text": format_canonical(t),
        }
        if model.rank == 2 and t.s == -1:
            rec["redundant_at_rank_2"] = True
            rec["note"] = (
                "at rank 2 the inversion Jacobian part turns dualization into "
                "tensoring by the reference class, so s = -1 adds nothing new"
            )
        return rec

    if model.endo_ring == "matrix":
        ring_desc = "all integer matrices M with det(I + rM) = +-1"
    else:
        ring_desc = "scalar matrices m*I with det(I + rm*I) = +-1"
    return {
        "degree": d,
        "jacobian_layer": {
            "description": "tensoring by degree-zero classes, always present",
            "model": f"(Q/Z)^{2 * model.genus}",
            "genus": model.genus,
        },
        "aut_j_layer": {
            "endo_ring": model.endo_ring,
            "description": "Jacobian automorphisms id + r*M fixing the r-torsion; " + ring_desc,
        },
        "discrete_3bir": [entry(t) for t in reps],
        "discrete_regular": [entry(t) for t, ok in zip(reps, regular) if ok],
    }


def model_r3n4():
    """Rank 3, four points at torsion classes with small denominators."""
    jacs = [["0", "0"], ["1/3", "1/4"], ["1/2", "5/6"], ["2/3", "1/12"]]
    return build_model(1, 3, [(f"x{k}", j) for k, j in enumerate(jacs)])


def test_report_formats_each_entry_once_like_the_old_report(
    elliptic2, worked6, g2r3, cyclic3, rng=random.Random(103)
):
    models = [elliptic2, worked6, g2r3, cyclic3, model_cyclic(1, 4, rank=2), model_r3n4()]
    for m in models:
        for d in range(-3, 4):
            alpha = rand_generic_weights(rng, m)
            rep = automorphism_group_report(d, alpha, m)
            assert json.dumps(rep, indent=2) == json.dumps(oracle_report(d, alpha, m), indent=2)
            # the regular layer is the kept subset of the very same entries
            ids = [id(e) for e in rep["discrete_3bir"]]
            kept = [ids.index(id(e)) for e in rep["discrete_regular"]]
            assert kept == sorted(set(kept))


def _chambers_models(max_tuples=1000):
    """The fixed models of the benchmark's chambers workload, built by its
    generator, that have at most max_tuples Hecke tuples."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import chambers
        import gen
    finally:
        sys.path.remove(bench)
    rng = gen.rng_for("fixed", "chambers", "models")
    docs = {key: build(rng, *args) for key, (build, args) in chambers.SHAPES.items()}
    models = {key: load_config(json.dumps(doc)) for key, doc in docs.items()}
    return {key: m for key, m in models.items() if m.rank ** len(m.point_names) <= max_tuples}


def test_report_texts_are_describes_on_the_chambers_models(rng=random.Random(109)):
    """Each entry is describe's text of its representative, with the line
    part written from divisor_form's form (its coordinates when there is
    none) without the memo of format_canonical, and its tuple's to_json()."""
    models = _chambers_models()
    assert {"r3n4", "r3c2x2", "r3c2x3", "r4n4"} <= set(models)
    for m in models.values():
        alpha = rand_generic_weights(rng, m)
        lines = {}

        def line_text(line):
            if line not in lines:
                dv = divisor_form(m, line)
                lines[line] = _coordinate_text(line) if dv is None else f"T(O({_divisor_text(m, dv)}))"
            return lines[line]

        for d in range(-3, 4):
            rep = automorphism_group_report(d, alpha, m)
            reps = t_d_quotient_reps(d, m)
            assert len(rep["discrete_3bir"]) == len(reps)
            for e, t in zip(rep["discrete_3bir"], reps):
                assert (e["sigma"], e["s"], e["L_degree"]) == (t.sigma, t.s, t.line.degree)
                assert e["H"] == t.hecke.to_json()
                assert e["text"] == describe(t, line_text)


def test_report_r3n4_is_fast():
    # 54 entries; format_canonical searches each line class once per model
    # and process, not once per report: about 0.7 ms on a shared 2-core
    # host with Python 3.11, against 1.0-1.4 ms with a memo per report and
    # 14 ms when every entry ran divisor_form and kept ones ran it twice
    m = model_r3n4()
    rng = random.Random(104)
    times = []
    for _ in range(7):
        alpha, d = rand_generic_weights(rng, m), rng.randint(-3, 3)
        start = time.perf_counter()
        automorphism_group_report(d, alpha, m)
        times.append(time.perf_counter() - start)
    assert statistics.median(times) * 1000 < 8


def test_derived_jacobian_parts_take_no_determinant(g2r3, order4, monkeypatch, rng=random.Random(105)):
    """Composites, conjugates and inverses are built on the trusted path:
    no det_int call, and the same automorphisms make_jac_aut accepts."""
    cases = []
    for m in (g2r3, order4):
        ref = default_ref_det(m)
        for _ in range(10):
            cases.append((m, rand_ext(rng, m, ref), rand_ext(rng, m, ref)))
    calls = []
    real = picard.det_int
    monkeypatch.setattr(picard, "det_int", lambda a: calls.append(a) or real(a))
    results = []
    for m, e1, e2 in cases:
        for e in (compose_ext(e1, e2), ext_inverse(e1), identity_ext(m), lift_basic(e1.basic)):
            results.append((m, e.rho))
        sigma = m.automorphisms[-1].name
        results.append((m, conjugate_tilde(m, sigma, e2.rho)))
    assert calls == []
    monkeypatch.undo()
    for m, rho in results:
        assert make_jac_aut(rho.tilde, m.rank) == rho


def test_user_jacobian_parts_are_still_checked(elliptic2):
    with pytest.raises(NotInvertible) as err:
        make_jac_aut([[1, 0], [0, 0]], 2)
    assert err.value.det == 3  # det [[3, 0], [0, 1]]
    with pytest.raises(NotInvertible):
        eval_expression("A[[1,0],[0,0]] * D-", elliptic2)


# -- the integer paths against the code they replaced ----------------------


def oracle_conjugate_tilde(model, sigma_name, rho):
    """M_sigma . tilde . M_sigma^{-1}, inverting M_sigma on every call."""
    ms = [list(row) for row in model.automorphism(sigma_name).matrix]
    m = mat_mul(mat_mul(ms, [list(row) for row in rho.tilde]), inverse_unimodular(ms))
    return JacobianAutomorphism(m, rho.r)


def oracle_jac_aut_inverse(rho):
    """-M (id + r M)^{-1} through the full matrix id + r M."""
    m = [list(row) for row in rho.tilde]
    full = mat_add(identity_matrix(len(m)), mat_scale(rho.r, m))
    return JacobianAutomorphism(mat_scale(-1, mat_mul(m, inverse_unimodular(full))), rho.r)


def composed(ts):
    """The product of the tuples ts, by compose calls from the right."""
    out = ts[-1]
    for t in reversed(ts[:-1]):
        out = compose(t, out)
    return out


def rewritten(ts):
    """The product of the tuples ts, by the rewrite engine on their
    concatenated words."""
    model = ts[0].model
    word = [atom for t in ts for atom in _word_of(t)]
    return BasicTransformation(model, *oracle_normalize_word(model, word))


def oracle_compose_ext(e1, e2, product=composed):
    """The interchange step by step: the correction tilde(rho_c)(xi - T1(xi)),
    pulled inside by applying rho_c^{-1}, then the product of the correction
    tensor, e1's basic part and e2's."""
    model, xi, t1 = e1.model, e1.ref_det, e1.basic
    if e2.rho.is_identity():
        return ExtendedTransformation(e1.rho, product([t1, e2.basic]), xi)
    txi = act_det(t1, xi)
    rho_c = oracle_conjugate_tilde(model, t1.sigma, e2.rho)
    delta = lincomb([(xi, 1), (txi, -1)])
    correction = LineBundleClass(
        0, JacobianElement.from_nums(mat_vec(rho_c.tilde, delta.jac.nums), delta.jac.den)
    )
    pulled_in = apply_jac_aut_line(oracle_jac_aut_inverse(rho_c), correction)
    t_corr = BasicTransformation(model, model.identity_name, 1, pulled_in, Divisor())
    new_rho = make_jac_aut(tilde_compose(e1.rho.tilde, rho_c.tilde, model.rank), model.rank)
    return ExtendedTransformation(new_rho, product([t_corr, t1, e2.basic]), xi)


def oracle_ext_inverse(e):
    left = lift_basic(inverse(e.basic), e.ref_det)
    right = ExtendedTransformation(
        oracle_jac_aut_inverse(e.rho), identity_transform(e.model), e.ref_det
    )
    return oracle_compose_ext(left, right)


def oracle_coords(cls):
    return [frac_to_str(c) for c in cls.jac.coords]


def oracle_describe_ext(e):
    """describe_ext with every coordinate written by frac_to_str."""
    t = e.basic
    parts = []
    if t.sigma != t.model.identity_name:
        parts.append(f"S({t.sigma})")
    if t.s == -1:
        parts.append("D-")
    if not t.line.is_trivial():
        parts.append(f"T({t.line.degree}, [{', '.join(oracle_coords(t.line))}])")
    if not t.hecke.is_zero():
        terms = " + ".join(
            f"{t.hecke.get(x)}*{x}" for x in t.model.point_names if t.hecke.get(x)
        )
        parts.append(f"H({terms})")
    base = " * ".join(parts) if parts else "id"
    rows = ",".join("[" + ",".join(str(x) for x in row) + "]" for row in e.rho.tilde)
    return base if e.rho.is_identity() else f"A[{rows}] * {base}"


def oracle_json(e):
    def line(c):
        return {"degree": c.degree, "jac": oracle_coords(c)}

    t = e.basic
    return {
        "rho_tilde": [list(row) for row in e.rho.tilde],
        "basic": {"sigma": t.sigma, "s": t.s, "line": line(t.line), "hecke": t.hecke.to_json()},
        "ref_det": line(e.ref_det),
    }


def oracle_act_ext(e, v):
    moved = act_invariant(e.basic, v)
    if e.rho.is_identity():
        return moved
    delta = lincomb([(moved.det, 1), (e.ref_det, -1)])
    twist = LineBundleClass(
        0, JacobianElement.from_nums(mat_vec(e.rho.tilde, delta.jac.nums), delta.jac.den)
    )
    note = "A-twist(0, [" + ", ".join(oracle_coords(twist)) + "])"
    label = moved.label + "|" + note if moved.label else note
    return ParabolicInvariant(
        v.rank, lincomb([(moved.det, 1), (twist, v.rank)]), moved.weights, label
    )


def assert_same_ext(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.to_json() == oracle_json(want)
    assert describe_ext(got) == oracle_describe_ext(want)
    assert repr(got) == f"ExtendedTransformation({oracle_describe_ext(want)!r})"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(3)), st.integers(0, 2**32 - 1), st.booleans())
def test_extended_group_matches_the_oracles(g2r3, order4, elliptic2, which, seed, memo):
    """compose_ext, ext_inverse, act_ext and their texts agree with the
    replaced code, on fresh Jacobian parts and on parts whose inverse is
    already memoized."""
    m = (g2r3, order4, elliptic2)[which]
    rng = random.Random(seed)
    ref = default_ref_det(m)
    e1, e2 = rand_ext(rng, m, ref), rand_ext(rng, m, ref)
    if memo:
        jac_aut_inverse(e1.rho)
        jac_aut_inverse(e2.rho)
    for a in m.automorphisms:
        conj = conjugate_tilde(m, a.name, e2.rho)
        assert conj == oracle_conjugate_tilde(m, a.name, e2.rho)
        assert jac_aut_inverse(conj) == oracle_jac_aut_inverse(conj)
    assert_same_ext(compose_ext(e1, e2), oracle_compose_ext(e1, e2))
    assert_same_ext(compose_ext(e1, e2), oracle_compose_ext(e1, e2, rewritten))
    assert_same_ext(compose_ext(e1, lift_basic(e2.basic, ref)),
                    oracle_compose_ext(e1, lift_basic(e2.basic, ref), rewritten))
    assert_same_ext(ext_inverse(e1), oracle_ext_inverse(e1))
    assert_same_ext(ext_inverse(e1), oracle_ext_inverse(e1))  # now through the memo
    v = rand_invariant(rng, m, degree=ref.degree)
    got, want = act_ext(e1, v), oracle_act_ext(e1, v)
    assert got == want and got.to_json() == want.to_json() and got.label == want.label


def _count_inversions(monkeypatch):
    calls = []
    for module in (picard, curve):
        real = module.inverse_unimodular
        monkeypatch.setattr(
            module, "inverse_unimodular", lambda a, real=real: calls.append(a) or real(a)
        )
    return calls


def test_extended_group_inverts_each_matrix_once(g2r3, order4, monkeypatch, rng=random.Random(106)):
    """Counted work, not timed: once a model's conjugators are built,
    ext_inverse on a fresh element inverts at most one matrix and none on
    an element whose inverse is known, and compose_ext at most one."""
    calls = _count_inversions(monkeypatch)
    for m in (g2r3, order4):
        for a in m.automorphisms:
            m.conjugator(a.name)
        ref = default_ref_det(m)
        for _ in range(10):
            e1, e2 = rand_ext(rng, m, ref), rand_ext(rng, m, ref)
            calls.clear()
            ext_inverse(e1)
            assert len(calls) <= 1
            calls.clear()
            ext_inverse(e1)
            assert calls == []
            calls.clear()
            compose_ext(e1, e2)
            assert len(calls) <= 1


def test_conjugators_are_built_once_per_automorphism(monkeypatch, rng=random.Random(107)):
    m = model_order4()
    calls = _count_inversions(monkeypatch)
    rho = rand_rho(rng, m)
    for _ in range(3):
        for a in m.automorphisms:
            conjugate_tilde(m, a.name, rho)
    assert len(calls) == len(m.automorphisms) - 1  # the identity needs none
    assert conjugate_tilde(m, m.identity_name, rho) is rho


def test_inverse_memo_is_invisible(g2r3, order4, rng=random.Random(108)):
    for m in (g2r3, order4):
        ref = default_ref_det(m)
        for _ in range(10):
            rho = rand_rho(rng, m)
            twin = make_jac_aut(rho.tilde, m.rank)
            inv = jac_aut_inverse(rho)
            assert jac_aut_inverse(inv) is rho and jac_aut_inverse(rho) is inv
            assert rho == twin and hash(rho) == hash(twin) and repr(rho) == repr(twin)
            t = rand_deg_preserving_basic(rng, m, ref.degree)
            e, e_twin = (ExtendedTransformation(x, t, ref) for x in (rho, twin))
            assert e == e_twin and e.to_json() == e_twin.to_json() and repr(e) == repr(e_twin)


def test_weights_of_another_rank_are_refused(g2r3):
    """A rank-2 system on the rank-3 model: every chamber filter raises
    before it looks at a sector."""
    alpha = WeightSystem({"p": (0, Fraction(1, 3))})
    t = identity_transform(g2r3)
    calls = [
        lambda: stabilizer_d_alpha_quotient(0, alpha, g2r3),
        lambda: automorphism_group_report(0, alpha, g2r3),
        lambda: subgroup_membership(t, 0, alpha=alpha),
    ]
    for call in calls:
        with pytest.raises(ShapeMismatch, match="weights rank 2 does not match model rank 3"):
            call()
