import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from partrans import (
    JacobianElement,
    LineBundleClass,
    divide_by_r,
    frac_to_str,
    jac_aut_inverse,
    lincomb,
    make_jac_aut,
    of_divisor,
    point_class,
    pullback,
    r_torsion,
    tilde_compose,
)
from partrans.curve import CurveAutomorphism
from partrans.errors import NotInvertible, ShapeMismatch
from partrans.intmat import det_int, identity_matrix, inverse_unimodular, mat_add, mat_scale
from partrans.picard import JacobianAutomorphism, apply_jac_aut, apply_jac_aut_line

from conftest import model_cyclic3, model_elliptic2, model_order4, rand_jac, rand_tilde


def test_jacobian_element_reduces_mod_one():
    a = JacobianElement((Fraction(3, 2), Fraction(-1, 4)))
    assert a.coords == (Fraction(1, 2), Fraction(3, 4))


def test_jacobian_arithmetic():
    a = JacobianElement((Fraction(1, 2), Fraction(1, 3)))
    b = JacobianElement((Fraction(1, 2), Fraction(2, 3)))
    assert (a + b).is_zero()
    assert (a - a).is_zero()
    assert ((-a) + a).is_zero()
    assert a.scale(6).coords == (Fraction(0), Fraction(0))
    assert a.scale(2) == JacobianElement((Fraction(0), Fraction(2, 3)))


def test_frac_to_str_exact():
    assert frac_to_str(Fraction(1, 3)) == "1/3"
    assert frac_to_str(Fraction(2)) == "2"
    assert frac_to_str(Fraction(-5, 4)) == "-5/4"


def test_texts_write_reduced_coordinates():
    j = JacobianElement.from_nums([0, 2, 3, 1, 6], 6)
    assert j.texts() == ["0", "1/3", "1/2", "1/6", "0"]
    assert JacobianElement.zero(3).texts() == ["0", "0", "0"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8), st.integers(1, 10**5))
def test_texts_match_frac_to_str(nums, den):
    j = JacobianElement.from_nums(nums, den)
    assert j.texts() == [frac_to_str(c) for c in j.coords]
    assert repr(j) == "JacobianElement(%s)" % ", ".join(frac_to_str(c) for c in j.coords)


def test_lincomb_degrees_and_torsion():
    a = LineBundleClass(2, JacobianElement((Fraction(1, 3), Fraction(0))))
    b = LineBundleClass(-1, JacobianElement((Fraction(1, 3), Fraction(1, 2))))
    c = lincomb([(a, 2), (b, 3)])
    assert c.degree == 1
    assert c.jac == JacobianElement((Fraction(2, 3), Fraction(1, 2)))
    assert lincomb([], dim=2) == LineBundleClass.trivial(2)


def test_of_divisor_matches_point_classes():
    m = model_elliptic2()
    c = of_divisor(m, {"p": 2, "q": -1})
    want = lincomb([(point_class(m, "p"), 2), (point_class(m, "q"), -1)])
    assert c == want
    assert c.degree == 1
    assert c.jac == JacobianElement((Fraction(1, 2), Fraction(0)))


def test_divide_by_r_root_and_torsor_size():
    rng = random.Random(5)
    for r in (2, 3):
        for _ in range(50):
            j = rand_jac(rng, 2, den=12)
            root, size = divide_by_r(j, r)
            assert size == r ** 2
            assert root.scale(r) == j


def test_r_torsion_enumeration():
    for g, r in ((1, 2), (1, 3), (2, 2)):
        elems = list(r_torsion(g, r))
        assert len(elems) == r ** (2 * g)
        assert len(set(elems)) == len(elems)
        for e in elems:
            assert e.scale(r).is_zero()


def test_pullback_affine_law():
    m = model_cyclic3()
    tau = m.automorphism("tau")
    c = LineBundleClass(2, JacobianElement((Fraction(1, 6), Fraction(0))))
    out = pullback(tau, c)
    assert out.degree == 2
    # M = I, t = (1/3, 0): j + deg * t
    assert out.jac == JacobianElement((Fraction(1, 6) + 2 * Fraction(1, 3), Fraction(0)))


def test_pullback_functoriality_over_table():
    rng = random.Random(17)
    for m in (model_cyclic3(), model_order4()):
        names = [a.name for a in m.automorphisms]
        for _ in range(50):
            a = m.automorphism(rng.choice(names))
            b = m.automorphism(rng.choice(names))
            c = LineBundleClass(rng.randint(-3, 3), rand_jac(rng, 2))
            composed = m.automorphism(m.compose_autos(a.name, b.name))
            assert pullback(a, pullback(b, c)) == pullback(composed, c)


def test_pullback_sends_marked_point_class_to_preimage_point():
    m = model_cyclic3()
    tau = m.automorphism("tau")
    inv = tau.perm_inverse()
    for x in m.point_names:
        assert pullback(tau, point_class(m, x)) == point_class(m, inv[x])


def test_make_jac_aut_validates_determinant():
    make_jac_aut([[0, 1], [0, 0]], 2)
    make_jac_aut([[-1, 0], [0, -1]], 2)
    with pytest.raises(NotInvertible):
        make_jac_aut([[1, 0], [0, 0]], 2)
    with pytest.raises(ShapeMismatch):
        make_jac_aut([[0, 1], [0]], 2)


def test_jac_aut_identity_and_apply():
    rho = make_jac_aut([[0, 0], [0, 0]], 3)
    assert rho.is_identity()
    x = JacobianElement((Fraction(1, 7), Fraction(2, 7)))
    assert apply_jac_aut(rho, x) == x


def test_apply_jac_aut_affine_formula():
    # rho = id + 2M with M = [[0,1],[0,0]]: (x, y) -> (x + 2y, y)
    rho = make_jac_aut([[0, 1], [0, 0]], 2)
    x = JacobianElement((Fraction(1, 8), Fraction(1, 3)))
    got = apply_jac_aut(rho, x)
    assert got == JacobianElement((Fraction(1, 8) + Fraction(2, 3), Fraction(1, 3)))


def test_apply_jac_aut_line_requires_degree_zero():
    rho = make_jac_aut([[0, 1], [0, 0]], 2)
    c = LineBundleClass(0, JacobianElement((Fraction(1, 4), Fraction(0))))
    assert apply_jac_aut_line(rho, c).degree == 0
    with pytest.raises(ShapeMismatch):
        apply_jac_aut_line(rho, LineBundleClass(1, c.jac))


def test_tilde_compose_matches_map_composition():
    rng = random.Random(23)
    for r in (2, 3):
        for _ in range(60):
            m1 = rand_tilde(rng, 2, r)
            m2 = rand_tilde(rng, 2, r)
            r1 = make_jac_aut(m1, r)
            r2 = make_jac_aut(m2, r)
            r12 = make_jac_aut(tilde_compose(m1, m2, r), r)
            x = rand_jac(rng, 2, den=30)
            assert apply_jac_aut(r12, x) == apply_jac_aut(r1, apply_jac_aut(r2, x))


def test_jac_aut_inverse_roundtrip():
    rng = random.Random(29)
    for r in (2, 3):
        for _ in range(60):
            rho = make_jac_aut(rand_tilde(rng, 2, r), r)
            inv = jac_aut_inverse(rho)
            x = rand_jac(rng, 2, den=30)
            assert apply_jac_aut(inv, apply_jac_aut(rho, x)) == x
            assert apply_jac_aut(rho, apply_jac_aut(inv, x)) == x


def test_jac_aut_inverse_solves_on_the_nonzero_rows_like_the_whole_inverse():
    """Against ((id + rM)^{-1} - id) / r over the whole matrix, on parts
    with and without zero rows up to 2g = 12; a trusted part whose id + rM
    is not unimodular is refused with the whole matrix's determinant."""
    rng = random.Random(33)
    refused = 0
    for _ in range(300):
        dim, r = rng.choice((2, 4, 6, 12)), rng.choice((2, 3, 5))
        m = rand_tilde(rng, dim, r, rng.choice((0, 3, 4 * dim)))
        if rng.randrange(4) == 0:  # most likely not unimodular
            m[rng.randrange(dim)][rng.randrange(dim)] += rng.choice((-1, 1))
        full = mat_add(identity_matrix(dim), mat_scale(r, m))
        try:
            inv = inverse_unimodular(full)
        except NotInvertible as err:
            refused += 1
            with pytest.raises(NotInvertible) as got:
                jac_aut_inverse(JacobianAutomorphism(m, r))
            assert got.value.det == err.det == det_int(full)
            continue
        want = [[(x - (i == j)) // r for j, x in enumerate(row)] for i, row in enumerate(inv)]
        assert jac_aut_inverse(JacobianAutomorphism(m, r)).tilde == tuple(map(tuple, want))
    assert refused > 20


def test_fixed_r_torsion_pointwise():
    rng = random.Random(31)
    for g, r in ((1, 2), (1, 3), (2, 2), (2, 3)):
        rho = make_jac_aut(rand_tilde(rng, 2 * g, r), r)
        for x in r_torsion(g, r):
            assert apply_jac_aut(rho, x) == x


# -- the Fraction element as a differential oracle -----------------------


class FractionElement:
    """Reference torsion vector: a tuple of Fractions, each reduced with % 1.
    The integer JacobianElement must agree with it on every operation."""

    def __init__(self, coords):
        self.coords = tuple(Fraction(c) % 1 for c in coords)

    def __add__(self, other):
        return FractionElement(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        return FractionElement(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return FractionElement(-a for a in self.coords)

    def scale(self, n):
        return FractionElement(n * a for a in self.coords)

    def is_zero(self):
        return all(a == 0 for a in self.coords)

    def to_json(self):
        return [frac_to_str(c) for c in self.coords]

    def __repr__(self):
        return "JacobianElement(%s)" % (", ".join(frac_to_str(c) for c in self.coords))


def ref_mat_vec(m, v):
    return [sum(Fraction(x) * y for x, y in zip(row, v)) for row in m]


def ref_lincomb(terms, dim):
    degree, acc = 0, FractionElement([0] * dim)
    for (deg, jac), n in terms:
        degree += n * deg
        acc = acc + jac.scale(n)
    return degree, acc


DENS = list(range(1, 13)) + [97]


def write(den, num, kind, k):
    """The rational num/den written as an int, a Fraction or an unreduced string."""
    if kind == 0:
        return num
    if kind == 1:
        return Fraction(num, den)
    return f"{num * k}/{den * k}"


written_coord = st.builds(
    write, st.sampled_from(DENS), st.integers(-300, 300), st.integers(0, 2), st.integers(1, 3)
)


def vectors(dim, count):
    return st.lists(st.lists(written_coord, min_size=dim, max_size=dim),
                    min_size=count, max_size=count)


def agree(elem, ref):
    assert elem.coords == ref.coords
    assert elem.to_json() == ref.to_json()
    assert repr(elem) == repr(ref)
    assert elem.is_zero() == ref.is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 12))
def test_integer_element_matches_fraction_oracle(data, dim):
    vecs = data.draw(vectors(dim, 4))
    elems = [JacobianElement(v) for v in vecs]
    refs = [FractionElement(v) for v in vecs]
    for e, f in zip(elems, refs):
        agree(e, f)
    (a, b, c, d), (ra, rb, rc, rd) = elems, refs
    n = data.draw(st.integers(-30, 30))
    agree(a + b, ra + rb)
    agree(a - b, ra - rb)
    agree(-a, -ra)
    agree(a.scale(n), ra.scale(n))

    degs = data.draw(st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    mults = data.draw(st.lists(st.integers(-7, 7), min_size=4, max_size=4))
    k = data.draw(st.integers(0, 4))
    classes = [LineBundleClass(g, e) for g, e in zip(degs, elems)]
    got = lincomb(list(zip(classes, mults))[:k], dim=dim)
    want = ref_lincomb(list(zip(zip(degs, refs), mults))[:k], dim)
    assert got.degree == want[0]
    agree(got.jac, want[1])

    rng = random.Random(data.draw(st.integers(0, 2**32)))
    matrix = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
    sigma = CurveAutomorphism("s", {}, matrix, c)
    got = pullback(sigma, classes[0])
    want = FractionElement(
        x + degs[0] * y for x, y in zip(ref_mat_vec(matrix, ra.coords), rc.coords)
    )
    assert got.degree == degs[0]
    agree(got.jac, want)

    r = data.draw(st.integers(2, 5))
    rho = JacobianAutomorphism(matrix, r)
    agree(apply_jac_aut(rho, d),
          FractionElement(x + r * y for x, y in zip(rd.coords, ref_mat_vec(matrix, rd.coords))))
    root, size = divide_by_r(d, r)
    agree(root, FractionElement(x / r for x in rd.coords))
    assert size == r ** dim


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(2, 12))
def test_equal_classes_written_differently_hash_alike(data, dim):
    vec = data.draw(vectors(dim, 1))[0]
    shifts = data.draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
    factor = data.draw(st.integers(1, 5))
    rewritten = []
    for c, s in zip(vec, shifts):
        f = Fraction(c) + s
        rewritten.append(f"{f.numerator * factor}/{f.denominator * factor}")
    a, b = JacobianElement(vec), JacobianElement(rewritten)
    assert a == b and hash(a) == hash(b)
    assert (a - b).is_zero() and a - b == JacobianElement.zero(dim)
    assert hash(LineBundleClass(1, a)) == hash(LineBundleClass(1, b))
