"""Extended transformations: a Jacobian-automorphism part wrapped around a
basic transformation, relative to a fixed reference determinant.

Normal form keeps the Jacobian part outermost. Pushing it through a basic
part conjugates its matrix by the sigma-pullback's linear part and emits a
degree-zero correction tensor; both steps are exact.
"""

from itertools import compress
from operator import mul

from .errors import ExtendedCompositionError, ShapeMismatch
from .intmat import mat_vec, zero_matrix
from .picard import (
    DEFAULT_ENUM_CAP,
    JacobianAutomorphism,
    JacobianElement,
    LineBundleClass,
    jac_aut_inverse,
    lincomb,
    tilde_compose,
)
from .transform import (
    ParabolicInvariant,
    act_det,
    act_invariant,
    _chamber_sectors,
    _coordinate_text,
    compose,
    describe,
    identity_transform,
    inverse,
    _fold,
    _sector_transforms,
    _word_of,
)


class ExtendedTransformation:
    """Pair (rho, basic) read as rho-part applied after the basic part,
    over a fixed reference determinant class."""

    __slots__ = ("rho", "basic", "ref_det")

    def __init__(self, rho, basic, ref_det):
        model = basic.model
        if rho.dim != 2 * model.genus:
            raise ShapeMismatch(
                f"Jacobian part dimension {rho.dim} does not match 2g = {2 * model.genus}"
            )
        if rho.r != model.rank:
            raise ShapeMismatch(
                f"Jacobian part modulus {rho.r} does not match rank {model.rank}"
            )
        if len(ref_det.jac) != 2 * model.genus:
            raise ShapeMismatch("reference determinant has wrong coordinate length")
        self.rho = rho
        self.basic = basic
        self.ref_det = ref_det

    @property
    def model(self):
        return self.basic.model

    def is_identity(self):
        return self.rho.is_identity() and self.basic.is_identity()

    def __eq__(self, other):
        return (
            isinstance(other, ExtendedTransformation)
            and self.rho == other.rho
            and self.basic == other.basic
            and self.ref_det == other.ref_det
        )

    def __hash__(self):
        return hash((self.rho, self.basic, self.ref_det))

    def __mul__(self, other):
        return compose_ext(self, other)

    def __repr__(self):
        return f"ExtendedTransformation({describe_ext(self)!r})"

    def to_json(self):
        return {
            "rho_tilde": [list(row) for row in self.rho.tilde],
            "basic": self.basic.to_json(),
            "ref_det": self.ref_det.to_json(),
        }


def describe_ext(e, line_text=_coordinate_text):
    """describe with the Jacobian part, when not the identity, as an A atom in front."""
    base = describe(e.basic, line_text)
    if e.rho.is_identity():
        return base
    rows = ",".join("[" + ",".join(str(x) for x in row) + "]" for row in e.rho.tilde)
    return f"A[{rows}] * {base}"


def default_ref_det(model, d=None):
    """Degree-d class with zero torsion part, the session reference."""
    if d is None:
        d = model.degree_context
    return LineBundleClass(d, JacobianElement.zero(2 * model.genus))


def identity_ext(model, ref_det=None):
    return lift_basic(identity_transform(model), ref_det)


def lift_basic(t, ref_det=None):
    """Embed a basic transformation with trivial Jacobian part."""
    if ref_det is None:
        ref_det = default_ref_det(t.model)
    rho = JacobianAutomorphism(zero_matrix(2 * t.model.genus), t.model.rank)
    return ExtendedTransformation(rho, t, ref_det)


def act_A(rho, xi, v):
    """Twist the determinant by the r-th power of tilde(det v - xi);
    rank and weights are untouched, the label records the twist."""
    if v.det.degree != xi.degree:
        raise ShapeMismatch(
            f"determinant degree {v.det.degree} does not match reference degree {xi.degree}"
        )
    if rho.r != v.rank:
        raise ShapeMismatch(f"Jacobian part modulus {rho.r} does not match rank {v.rank}")
    delta = lincomb([(v.det, 1), (xi, -1)])
    twist = LineBundleClass(
        0, JacobianElement.from_nums(mat_vec(rho.tilde, delta.jac.nums), delta.jac.den)
    )
    det_new = lincomb([(v.det, 1), (twist, v.rank)])
    note = "A-twist(0, [" + ", ".join(twist.jac.texts()) + "])"
    label = v.label + "|" + note if v.label else note
    return ParabolicInvariant(v.rank, det_new, v.weights, label)


def act_ext(e, v):
    """Apply an extended transformation to a parabolic invariant: the
    basic part first, then the Jacobian twist relative to ref_det."""
    moved = act_invariant(e.basic, v)
    if e.rho.is_identity():
        return moved
    return act_A(e.rho, e.ref_det, moved)


def conjugate_tilde(model, sigma_name, rho):
    """Jacobian part of sigma-pullback conjugation: tilde becomes
    M_sigma . tilde . M_sigma^{-1} (translations cancel on degree zero).
    Only rho is conjugated; compose_ext reaches the conjugate's inverse
    through rho's."""
    pair = model.conjugator(sigma_name)
    if pair is None:
        return rho
    ms, inv = pair
    left = [[sum(map(mul, row, col)) for col in zip(*rho.tilde)] for row in ms]
    inv_cols = list(zip(*inv))
    return JacobianAutomorphism([[sum(map(mul, row, col)) for col in inv_cols] for row in left], rho.r)


def _conjugated_mat_vec(pair, m, v):
    """M_sigma . m . M_sigma^{-1} . v for pair = model.conjugator(sigma),
    as three matrix-vector products."""
    if pair is None:
        return mat_vec(m, v)
    ms, inv = pair
    return mat_vec(ms, mat_vec(m, mat_vec(inv, v)))


def compose_ext(e1, e2):
    """Normal form of e1 after e2.

    The inner Jacobian part is conjugated through e1's basic part; the
    interchange emits the correction tensor tilde(rho_c)(xi - T1(xi)),
    which is well defined only when T1 fixes the reference degree. Pulled
    inside, rho_c^{-1}(M delta) with M = tilde(rho_c) commuting with
    (id + rM)^{-1} is M (id + rM)^{-1} delta = tilde(rho_c^{-1}) (T1(xi) - xi),
    where tilde(rho_c^{-1}) = M_sigma . tilde(rho_2^{-1}) . M_sigma^{-1}
    goes through e2's memoized inverse.
    """
    if e1.basic.model is not e2.basic.model:
        raise ShapeMismatch("cannot compose extended transformations over different models")
    if e1.ref_det != e2.ref_det:
        raise ShapeMismatch("mismatched reference determinant")
    model = e1.basic.model
    xi = e1.ref_det
    t1 = e1.basic
    if e2.rho.is_identity():
        return ExtendedTransformation(e1.rho, compose(t1, e2.basic), xi)
    txi = act_det(t1, xi)
    if txi.degree != xi.degree:
        raise ExtendedCompositionError(
            "cannot push a Jacobian part through a basic part moving the reference "
            f"degree ({xi.degree} -> {txi.degree})"
        )
    rho_c = conjugate_tilde(model, t1.sigma, e2.rho)
    moved = txi.jac - xi.jac
    # no correction when T1 fixes xi, and then no inverse to compute
    pulled_in = moved.nums if moved.den == 1 else _conjugated_mat_vec(
        model.conjugator(t1.sigma), jac_aut_inverse(e2.rho).tilde, moved.nums)
    new_rho = rho_c if e1.rho.is_identity() else JacobianAutomorphism(
        tilde_compose(e1.rho.tilde, rho_c.tilde, model.rank), model.rank)
    new_basic = _fold(model, (None, 1, 0, pulled_in, moved.den, {}), _word_of(t1) + _word_of(e2.basic))
    return ExtendedTransformation(new_rho, new_basic, xi)


def ext_inverse(e):
    """Inverse in the extended group, via basic inversion and the
    interchange in compose_ext."""
    left = lift_basic(inverse(e.basic), e.ref_det)
    right = ExtendedTransformation(
        jac_aut_inverse(e.rho), identity_transform(e.basic.model), e.ref_det
    )
    return compose_ext(left, right)


def automorphism_group_report(d, alpha, model, cap=DEFAULT_ENUM_CAP):
    """Layered description of the moduli automorphisms the engine sees.

    The continuous Jacobian layer and the configured Jacobian-automorphism
    layer are always present; the finite layer lists the degree-stabilizer
    representatives, unfiltered (3-birational) and chamber-filtered
    (regular). At rank 2 every s = -1 representative is marked redundant:
    composing with the inversion Jacobian part realizes it as a tensor
    operation.

    Each entry is built once; the regular layer holds the same entry
    dicts as the 3-birational one. The chamber verdicts are all taken
    before any entry is formatted.
    """
    from .dsl import format_canonical

    sectors = list(_chamber_sectors(d, alpha, model, cap))
    regular = [verdict for *_, kept in sectors for verdict in kept]

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

    entries = [entry(t) for t in _sector_transforms(model, (sector[:3] for sector in sectors))]
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
        "discrete_3bir": entries,
        "discrete_regular": list(compress(entries, regular)),
    }
