"""Property tests over generated words, classes and weight systems."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from partrans import (
    Divisor,
    JacobianElement,
    LineBundleClass,
    act_invariant,
    canonicalize,
    compose,
    dual_weights,
    eval_expression,
    format_canonical,
    hecke_weights,
    identity_transform,
    is_generic,
    make_basic,
    normalize_word,
    ParabolicInvariant,
    WeightSystem,
    divisor_form,
    of_divisor,
)
from partrans.dsl import _solved_divisor_form
from partrans.transform import _word_of
from conftest import build_model, model_cyclic3, model_involution

MODEL = model_cyclic3()
INVOL = model_involution()


def frac(den):
    return st.integers(min_value=0, max_value=den - 1).map(
        lambda n: Fraction(n, den)
    )


def jac(model, den=12):
    dim = 2 * model.genus
    return st.tuples(*[frac(den)] * dim).map(JacobianElement)


def line(model):
    return st.tuples(st.integers(min_value=-4, max_value=4), jac(model)).map(
        lambda t: LineBundleClass(t[0], t[1])
    )


def atom(model):
    sigmas = [a.name for a in model.automorphisms]
    return st.one_of(
        st.sampled_from(sigmas).map(lambda n: ("S", n)),
        st.just(("D",)),
        line(model).map(lambda c: ("T", c)),
        st.fixed_dictionaries(
            {x: st.integers(min_value=0, max_value=model.rank - 1) for x in model.point_names}
        ).map(lambda d: ("H", Divisor(d))),
    )


def word(model, max_size=6):
    return st.lists(atom(model), min_size=0, max_size=max_size)


def atom_tuple(model, a):
    triv = LineBundleClass.trivial(2 * model.genus)
    if a[0] == "S":
        return make_basic(a[1], 1, triv, {}, model)
    if a[0] == "D":
        return make_basic(model.identity_name, -1, triv, {}, model)
    if a[0] == "T":
        return make_basic(model.identity_name, 1, a[1], {}, model)
    return make_basic(model.identity_name, 1, triv, a[1], model)


def weights(model):
    r = model.rank

    def vec(den):
        return st.sets(
            st.integers(min_value=1, max_value=den - 1), min_size=r - 1, max_size=r - 1
        ).map(lambda ks: (Fraction(0),) + tuple(Fraction(k, den) for k in sorted(ks)))

    per_point = st.sampled_from((97, 101, 103)).flatmap(vec)
    return st.tuples(*[per_point for _ in model.point_names]).map(
        lambda vs: WeightSystem(dict(zip(model.point_names, vs)), r)
    )


@settings(max_examples=60, deadline=None)
@given(word(MODEL), word(MODEL))
def test_normalization_is_a_homomorphism(w1, w2):
    left = normalize_word(MODEL, w1 + w2)
    right = compose(normalize_word(MODEL, w1), normalize_word(MODEL, w2))
    assert left == right


@settings(max_examples=60, deadline=None)
@given(word(INVOL, max_size=5), jac(INVOL), st.integers(-3, 3))
def test_normalized_action_matches_atomwise_action(w, j, deg):
    v_weights = WeightSystem(
        {"p": (0, Fraction(1, 97)), "q": (0, Fraction(5, 101))}, 2
    )
    v = ParabolicInvariant(2, LineBundleClass(deg, j), v_weights)
    stepwise = v
    for a in reversed(w):
        stepwise = act_invariant(atom_tuple(INVOL, a), stepwise)
    folded = act_invariant(normalize_word(INVOL, w), v)
    assert folded.det == stepwise.det
    assert folded.weights == stepwise.weights


@settings(max_examples=60, deadline=None)
@given(word(MODEL))
def test_words_round_trip_through_text(w):
    t = normalize_word(MODEL, w)
    assert eval_expression(format_canonical(t), MODEL) == t


@settings(max_examples=60, deadline=None)
@given(word(MODEL))
def test_normal_form_is_stable(w):
    t = normalize_word(MODEL, w)
    assert normalize_word(MODEL, _word_of(t)) == t
    assert compose(t, identity_transform(MODEL)) == t
    assert compose(identity_transform(MODEL), t) == t


@settings(max_examples=50, deadline=None)
@given(weights(MODEL))
def test_dual_is_an_involution(w):
    assert dual_weights(dual_weights(w)) == w


@settings(max_examples=50, deadline=None)
@given(weights(MODEL), st.sampled_from(MODEL.point_names))
def test_hecke_order_divides_rank(w, x):
    out = w
    for _ in range(MODEL.rank):
        out = hecke_weights(out, x)
    assert out == w


@settings(max_examples=50, deadline=None)
@given(weights(MODEL), st.sampled_from(MODEL.point_names))
def test_genericity_preserved_by_moves(w, x):
    before = is_generic(w)[0]
    assert is_generic(hecke_weights(w, x))[0] == before
    assert is_generic(dual_weights(w))[0] == before


@settings(max_examples=50, deadline=None)
@given(weights(MODEL))
def test_canonicalize_fixes_canonical_systems(w):
    assert canonicalize({x: w.vector(x) for x in w.point_names}) == w


# -- divisor forms against the product-loop reference ----------------------


def oracle_bounded_search(model, cls):
    """Every coefficient tuple of the box in product order, each tested
    on the Fraction coordinates of its class mod 1; the least (l1 norm,
    tuple) key wins."""
    n = len(model.points)
    if n == 0:
        return None
    bound = max(6, 2 * model.rank)
    while bound >= 1 and (2 * bound + 1) ** n > 100000:
        bound -= 1
    if bound < 1:
        return None
    names = model.point_names
    coords = [model.point(x).jac_class.coords for x in names]
    best = None
    for combo in itertools.product(range(-bound, bound + 1), repeat=n):
        if sum(combo) != cls.degree:
            continue
        key = (sum(abs(c) for c in combo), combo)
        if best is not None and key >= best[0]:
            continue
        if all(
            (sum(c * p[i] for c, p in zip(combo, coords)) - t) % 1 == 0
            for i, t in enumerate(cls.jac.coords)
        ):
            best = (key, {k: v for k, v in zip(names, combo) if v})
    return None if best is None else best[1]


def oracle_divisor_form(model, cls):
    """Search the box first and fall back on the solver."""
    found = oracle_bounded_search(model, cls)
    return found if found is not None else _solved_divisor_form(model, cls)


DENOMINATORS = (1, 2, 3, 4, 6, 7, 97)


def coord():
    return st.sampled_from(DENOMINATORS).flatmap(frac)


@st.composite
def marked_model(draw, min_points, max_points):
    genus = draw(st.integers(1, 2))
    rank = draw(st.integers(2, 4))
    n = draw(st.integers(min_points, max_points))
    points = [
        (f"x{i}", [str(draw(coord())) for _ in range(2 * genus)]) for i in range(n)
    ]
    return build_model(genus, rank, points)


@st.composite
def model_and_class(draw, min_points, max_points):
    """A model and a line class: the class of a small divisor (a form
    exists), a free class (mostly none), or the class of a divisor with
    large coefficients (often a form only beyond the search bound)."""
    m = draw(marked_model(min_points, max_points))
    kind = draw(st.sampled_from(("small", "free", "large")))
    if kind == "free":
        jac = JacobianElement([draw(coord()) for _ in range(2 * m.genus)])
        return m, LineBundleClass(draw(st.integers(-6, 6)), jac)
    lim = 3 if kind == "small" else 60
    return m, of_divisor(m, {x: draw(st.integers(-lim, lim)) for x in m.point_names})


# the reference takes about 0.1 s on a 5-point class with no form
@settings(max_examples=60, deadline=None)
@given(model_and_class(1, 6))
def test_divisor_form_matches_product_loop_oracle(case):
    m, cls = case
    got = divisor_form(m, cls)
    assert got == oracle_divisor_form(m, cls)
    if got is not None:
        assert of_divisor(m, got) == cls


@settings(max_examples=60, deadline=None)
@given(model_and_class(3, 6), st.sampled_from((1, -1)), st.data())
def test_canonical_text_round_trips_on_many_points(case, s, data):
    m, line = case
    hecke = {x: data.draw(st.integers(0, m.rank - 1)) for x in m.point_names}
    t = make_basic(m.identity_name, s, line, hecke, m)
    assert eval_expression(format_canonical(t), m) == t
