"""Exact arithmetic in the Picard model Z + (Q/Z)^{2g}.

A line bundle class is an integer degree plus a torsion coordinate vector.
Only finite-order Jacobian data is representable; an infinite-order class
appears as its degree plus a torsion part.

A torsion vector is stored as integer numerators over one denominator, so
every move of the group law (sums, pullbacks, Jacobian automorphisms,
division by r) is an integer pass followed by a single reduction.
"""

import itertools
import math
from fractions import Fraction
from operator import add

from .errors import NotInvertible, ShapeMismatch, charge
from .intmat import (
    det_int,
    identity_matrix,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    solve_unimodular,
)

DEFAULT_ENUM_CAP = 10**6


def frac_to_str(f):
    return str(Fraction(f))


def fraction_texts(nums, den):
    """Each n / den for n in nums, 0 <= n < den, as str(Fraction) writes
    it, from the integers."""
    gcds = map(math.gcd, nums, itertools.repeat(den))
    return [f"{n // g}/{den // g}" if n else "0" for n, g in zip(nums, gcds)]


class JacobianElement:
    """Vector in (Q/Z)^{2g} as numerators `nums` over one denominator `den`.

    Invariant: every numerator lies in [0, den) and gcd(den, *nums) == 1,
    so each class has exactly one representation (zero has den == 1) and
    `==` and `hash` compare the pair. `coords` is the derived tuple of
    Fractions in [0, 1).
    """

    __slots__ = ("nums", "den")

    def __init__(self, coords):
        fracs = [Fraction(c) for c in coords]
        den = math.lcm(*(f.denominator for f in fracs))
        self._set([f.numerator * (den // f.denominator) for f in fracs], den)

    @classmethod
    def from_nums(cls, nums, den):
        """Element with numerators `nums` over `den` > 0, not yet reduced."""
        self = object.__new__(cls)
        self._set(nums, den)
        return self

    def _set(self, nums, den):
        nums = [x % den for x in nums]
        g = math.gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
        self.nums = tuple(nums)
        self.den = den

    @staticmethod
    def zero(dim):
        return JacobianElement.from_nums([0] * dim, 1)

    @property
    def coords(self):
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __len__(self):
        return len(self.nums)

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, JacobianElement)
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        self._check(other)
        return JacobianElement.from_nums(*add_nums(self.nums, self.den, sign, other))

    def __neg__(self):
        return JacobianElement.from_nums([-a for a in self.nums], self.den)

    def scale(self, n):
        return JacobianElement.from_nums([n * a for a in self.nums], self.den)

    def is_zero(self):
        return self.den == 1

    def _check(self, other):
        if len(self.nums) != len(other.nums):
            raise ShapeMismatch(
                f"coordinate lengths differ: {len(self.nums)} vs {len(other.nums)}"
            )

    def texts(self):
        """Each coordinate as str(Fraction) writes it, from the integers."""
        return fraction_texts(self.nums, self.den)

    to_json = texts

    def __repr__(self):
        return "JacobianElement(%s)" % ", ".join(self.texts())


def add_nums(nums, den, k, j):
    """nums / den + k j, as numerators over the lcm of the two
    denominators, not reduced."""
    if den % j.den:
        lcm = math.lcm(den, j.den)
        f = lcm // den
        nums = [f * a for a in nums]
        den = lcm
    k *= den // j.den
    return [a + k * b for a, b in zip(nums, j.nums)], den


def affine_nums(matrix, nums, den, t, k=1):
    """M (nums / den) + k t for an integer matrix M, as numerators over
    the lcm of the two denominators, not reduced."""
    lcm = math.lcm(den, t.den)
    kj, kt = lcm // den, k * (lcm // t.den)
    return [kj * x + kt * y for x, y in zip(mat_vec(matrix, nums), t.nums)], lcm


def affine_image(matrix, j, t, k=1):
    """M j + k t for an integer matrix M: one integer pass over the common
    denominator of j and t, then one reduction."""
    return JacobianElement.from_nums(*affine_nums(matrix, j.nums, j.den, t, k))


class LineBundleClass:
    """Degree plus Jacobian coordinate; the model of every line bundle symbol."""

    __slots__ = ("degree", "jac")

    def __init__(self, degree, jac):
        self.degree = int(degree)
        self.jac = jac if isinstance(jac, JacobianElement) else JacobianElement(jac)

    @staticmethod
    def trivial(dim):
        return LineBundleClass(0, JacobianElement.zero(dim))

    def is_trivial(self):
        return self.degree == 0 and self.jac.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, LineBundleClass)
            and self.degree == other.degree
            and self.jac == other.jac
        )

    def __hash__(self):
        return hash((self.degree, self.jac))

    def to_json(self):
        return {"degree": self.degree, "jac": self.jac.to_json()}

    def __repr__(self):
        return f"LineBundleClass({self.degree}, {self.jac!r})"


def lincomb(terms, dim=None):
    """Integer combination sum(n_i * c_i) of line bundle classes.

    dim is only needed for an empty combination, where the ambient
    coordinate length cannot be inferred.
    """
    terms = list(terms)
    if not terms:
        if dim is None:
            raise ShapeMismatch("empty combination needs an explicit dimension")
        return LineBundleClass.trivial(dim)
    d = len(terms[0][0].jac)
    if any(len(cls.jac) != d for cls, _ in terms):
        raise ShapeMismatch("mixed coordinate lengths in combination")
    den = math.lcm(*(cls.jac.den for cls, _ in terms))
    degree = 0
    acc = [0] * d
    for cls, n in terms:
        degree += n * cls.degree
        k = n * (den // cls.jac.den)
        if k:
            acc = [a + k * x for a, x in zip(acc, cls.jac.nums)]
    return LineBundleClass(degree, JacobianElement.from_nums(acc, den))


def of_divisor(model, divisor):
    """Class of an integer divisor supported on the marked points."""
    items = divisor.items() if hasattr(divisor, "items") else divisor
    return lincomb(
        [(model.point_class(name), mult) for name, mult in items],
        dim=2 * model.genus,
    )


def divide_by_r(j, r):
    """Canonical r-th root of a torsion element plus the torsor size.

    The full solution set is root + J[r]; only its size r^{2g} is returned,
    never the enumeration.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    return JacobianElement.from_nums(j.nums, j.den * r), r ** len(j)


def r_torsion(g, r, cap=DEFAULT_ENUM_CAP):
    """All r-torsion elements of (Q/Z)^{2g} in lexicographic coordinate order."""
    if r < 1:
        raise ValueError("r must be at least 1")
    charge(r ** (2 * g), cap, "r-torsion")
    return (JacobianElement.from_nums(combo, r) for combo in itertools.product(range(r), repeat=2 * g))


def pullback(sigma, c):
    """Affine pullback action of a curve automorphism on a class:
    (deg, j) -> (deg, M j + deg * t)."""
    return LineBundleClass(
        c.degree, affine_image(sigma.matrix, c.jac, sigma.translation, c.degree)
    )


class JacobianAutomorphism:
    """rho = id + r * tilde, an automorphism of (Q/Z)^{2g} fixing J[r].

    The constructor is the trusted path: it takes rows of ints and r as
    they are, with no determinant. Its callers build unimodular id + r * tilde
    by construction (the zero matrix, tilde_compose, a conjugate in
    extended.conjugate_tilde, jac_aut_inverse); user input goes through
    make_jac_aut, which checks. `_inv` memoizes the inverse; it is not part
    of ==, hash, repr or to_json.
    """

    __slots__ = ("tilde", "r", "_inv")

    def __init__(self, tilde, r):
        self.tilde, self.r, self._inv = tuple(map(tuple, tilde)), r, None

    @property
    def dim(self):
        return len(self.tilde)

    def is_identity(self):
        return not any(map(any, self.tilde))

    def __eq__(self, other):
        return (
            isinstance(other, JacobianAutomorphism)
            and self.tilde == other.tilde
            and self.r == other.r
        )

    def __hash__(self):
        return hash((self.tilde, self.r))

    def __repr__(self):
        return f"JacobianAutomorphism(tilde={self.tilde}, r={self.r})"


def make_jac_aut(m, r):
    """Build rho = id + r*M from an untrusted matrix, rejecting M where
    id + r*M is not unimodular (NotInvertible with its determinant)."""
    if r < 2:
        raise ValueError("r must be at least 2")
    entries = [list(map(int, row)) for row in m]
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ShapeMismatch(f"matrix must be square, got rows {[len(r_) for r_ in entries]}")
    full = mat_add(identity_matrix(n), mat_scale(r, entries))
    d = det_int(full)
    if d not in (1, -1):
        raise NotInvertible(d)
    return JacobianAutomorphism(entries, int(r))


def apply_jac_aut(rho, j):
    """rho(j) = j + r * (M j) in (Q/Z)^{2g}."""
    mj = mat_vec(rho.tilde, j.nums)
    return JacobianElement.from_nums([a + rho.r * b for a, b in zip(j.nums, mj)], j.den)


def apply_jac_aut_line(rho, c):
    """rho applied to a degree-zero line bundle class."""
    if c.degree != 0:
        raise ShapeMismatch("Jacobian automorphisms act on degree-zero classes")
    return LineBundleClass(0, apply_jac_aut(rho, c.jac))


def tilde_compose(m1, m2, r):
    """Tilde matrix of rho1 o rho2 where m1 belongs to the outer factor:
    M1 + M2 + r * M1 M2, as a tuple of integer rows; a zero row of M1
    leaves M2's row."""
    return tuple(
        tuple(map(add, rb, map(add, ra, map(r.__mul__, rp)))) if any(ra) else rb
        for ra, rb, rp in zip(m1, m2, mat_mul(m1, m2))
    )


def _neg_inverse_times(rho, mx):
    """-(id + rM)^{-1} M X for M = tilde(rho), given the rows mx of M X. A zero
    row of M is one of the result; the rest is one unimodular solve over the
    block of id + rM on M's nonzero rows and columns (of the same determinant)."""
    t, r = rho.tilde, rho.r
    live = [i for i, row in enumerate(t) if any(row)]
    block = [[r * t[i][j] + (i == j) for j in live] for i in live]
    out = [[0] * len(row) for row in mx]
    for i, row in zip(live, solve_unimodular(block, [mx[i] for i in live])):
        out[i] = [-x for x in row]
    return out


def jac_aut_inverse(rho):
    """Inverse automorphism, memoized both ways; its tilde is
    (rho^{-1} - id) / r = -M (id + rM)^{-1} for M = tilde(rho)."""
    if rho._inv is None:
        inv = JacobianAutomorphism(_neg_inverse_times(rho, rho.tilde), rho.r)
        rho._inv, inv._inv = inv, rho
    return rho._inv


def _inverse_tilde_vec(rho, v):
    """tilde(rho^{-1}) v: through rho's inverse when it is memoized, else
    as -(id + rM)^{-1} M v (M commutes with id + rM), inverting nothing."""
    if rho._inv is not None:
        return mat_vec(rho._inv.tilde, v)
    return [x for x, in _neg_inverse_times(rho, [[x] for x in mat_vec(rho.tilde, v)])]
