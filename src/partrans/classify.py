"""Classification predicates on moduli descriptors.

A descriptor carries the discrete data (model, rank, degree, weights) of a
moduli family. The 3-birational equivalence decision compares rank and the
marked-curve structure only; degree and weights do not enter. Curve
isomorphism is decided against the symbolic model: a witness is a point
relabeling together with an affine class map carrying point classes and
the automorphism table across. Two models encoding the same curve in
incompatible coordinates can therefore be reported non-isomorphic.
"""

import itertools
import math

from .errors import (
    ModelError,
    ShapeMismatch,
    UnknownPoint,
    charge,
)
from .curve import _affine, _names, _object, _rationals
from .extended import default_ref_det
from .intmat import (
    det_int,
    identity_matrix,
    inverse_unimodular,
    mat_mul,
    mat_vec,
)
from .picard import DEFAULT_ENUM_CAP, JacobianElement, affine_image, lincomb
from .transform import BasicTransformation, Divisor, _check_generic_alpha, act_degree, act_weights, describe
from .weights import WeightSystem, canonicalize, same_chamber


def weight_system_for(model, raw, loc=(None,)):
    """Canonical weight system over exactly the model's points, in model order.

    raw is a WeightSystem, or maps point name to a list of rationals
    (strings, ints or Fractions); loc is where raw sits, for errors (see
    curve._where).
    """
    if hasattr(raw, "point_names"):
        entries = {name: raw.vector(name) for name in raw.point_names}
    else:
        entries = {
            name: _rationals(vec, None, loc + (name,)) for name, vec in _object(raw, (), loc).items()
        }
    for name in entries:
        model.point(name)
    missing = [n for n in model.point_names if n not in entries]
    if missing:
        raise UnknownPoint(missing[0])
    return canonicalize([(name, entries[name]) for name in model.point_names])


class ModuliDescriptor:
    """Discrete invariants (rank, degree, generic weights) over a model.

    The rank is the descriptor's own; the ambient model's rank governs
    transformation tuples, not this family.
    """

    __slots__ = ("model", "rank", "degree", "weights")

    def __init__(self, model, rank, degree, weights, cap=DEFAULT_ENUM_CAP):
        if rank < 2:
            raise ShapeMismatch(f"rank must be at least 2, got {rank}")
        if weights.rank is not None and weights.rank != rank:
            raise ShapeMismatch(
                f"weight vectors have length {weights.rank}, descriptor rank is {rank}"
            )
        _check_generic_alpha(weights, model, cap)
        self.model = model
        self.rank = rank
        self.degree = degree
        self.weights = weights

    def __repr__(self):
        return (
            f"ModuliDescriptor(rank={self.rank}, degree={self.degree}, "
            f"points={list(self.model.point_names)})"
        )


def _check_witness(model_a, model_b, points, matrix, translation, p_inv=None):
    """Validate an isomorphism witness; return None if valid, else the
    first failed equation as text. p_inv is the class map's inverse when
    the caller knows the map to be unimodular, else None."""
    names_a = model_a.point_names
    names_b = model_b.point_names
    if sorted(points) != sorted(names_a):
        return "point map is not defined on exactly the source points"
    if sorted(points[x] for x in points) != sorted(names_b):
        return "point map is not a bijection onto the target points"
    if p_inv is None:
        # Bareiss first: on a dense matrix that is not unimodular, the Euclid
        # inverse's entries grow exponentially before its rejecting pivot
        det = det_int(matrix)
        if det not in (1, -1):
            return f"class-map matrix determinant is {det}, not +-1"
        p_inv = inverse_unimodular(matrix)
    for x in names_a:
        image = affine_image(matrix, model_a.point(x).jac_class, translation)
        if image != model_b.point(points[x]).jac_class:
            return (
                f"class map sends the class of {x} to "
                f"{image!r}, not to the class of {points[x]}"
            )
    if len(model_a.automorphisms) != len(model_b.automorphisms):
        return (
            f"automorphism tables have sizes {len(model_a.automorphisms)} "
            f"and {len(model_b.automorphisms)}"
        )
    for a in model_a.automorphisms:
        perm_b = {points[x]: points[a.point_perm.get(x, x)] for x in names_a}
        m_b = mat_mul(mat_mul(matrix, a.matrix), p_inv)
        # t_b = P t_a + (I - M_b) t, the conjugated affine translation
        mbt = JacobianElement.from_nums(mat_vec(m_b, translation.nums), translation.den)
        t_b = affine_image(matrix, a.translation, translation) - mbt
        entry = model_b.find_entry(perm_b, tuple(tuple(r) for r in m_b), t_b)
        if entry is None:
            return (
                f"conjugate of automorphism {a.name!r} is missing from the "
                "target table"
            )
    return None


def _witness_candidates(model_a, model_b, cap):
    """Deterministic witness search space: all point bijections crossed
    with the identity class map and the pullback maps of both tables, each
    yielded with the map's inverse. A map that is not unimodular, which
    _check_witness would refuse, is passed over."""
    n = len(model_a.points)
    dim = 2 * model_a.genus
    identity = tuple(tuple(r) for r in identity_matrix(dim))
    maps = [(identity, JacobianElement.zero(dim))]
    for table in (model_b.automorphisms, model_a.automorphisms):
        for a in table:
            cand = (a.matrix, a.translation)
            if cand not in maps:
                maps.append(cand)
    charge(math.factorial(n) * len(maps), cap, "isomorphism candidates")
    # matrix -> its inverse, or None when it is not unimodular; worked out
    # once, for the first bijection, and reused by the rest
    inverses = {identity: identity}
    for perm in itertools.permutations(model_b.point_names, n):
        points = dict(zip(model_a.point_names, perm))
        for matrix, translation in maps:
            if matrix not in inverses:
                unimodular = det_int(matrix) in (1, -1)
                inverses[matrix] = inverse_unimodular(matrix) if unimodular else None
            if inverses[matrix] is not None:
                yield points, matrix, translation, inverses[matrix]


def curves_isomorphic(model_a, model_b, witness=None, cap=DEFAULT_ENUM_CAP, loc=(None,)):
    """Structural marked-curve isomorphism decision.

    With a witness, a document {"points": {...}, "matrix": [...],
    "translation": [...]} at loc (see curve._where): read it, then validate
    it, raising ModelError on the first failed equation. Without: search
    relabelings crossed with the known affine maps; a miss means no witness
    in the search space, not a proof.
    """
    if witness is not None:
        witness = _object(witness, ("points",), loc, ("matrix", "translation"))
        points = _names(witness["points"], loc + ("points",))
        matrix, translation = _affine(witness, 2 * model_a.genus, loc)
    result = {
        "genus_equal": model_a.genus == model_b.genus,
        "n_equal": len(model_a.points) == len(model_b.points),
        "isomorphic": False,
        "witness": None,
        "witness_source": None,
        "search_exhausted": False,
    }
    if not (result["genus_equal"] and result["n_equal"]):
        return result
    if witness is not None:
        failure = _check_witness(model_a, model_b, points, matrix, translation)
        if failure is not None:
            raise ModelError(f"invalid isomorphism witness: {failure}")
        result["isomorphic"] = True
        result["witness"] = _witness_json(points, matrix, translation)
        result["witness_source"] = "supplied"
        return result
    for points, matrix, translation, p_inv in _witness_candidates(model_a, model_b, cap):
        if _check_witness(model_a, model_b, points, matrix, translation, p_inv) is None:
            result["isomorphic"] = True
            result["witness"] = _witness_json(points, matrix, translation)
            result["witness_source"] = "search"
            return result
    result["search_exhausted"] = True
    return result


def _witness_json(points, matrix, translation):
    return {
        "points": dict(points),
        "matrix": [list(r) for r in matrix],
        "translation": translation.to_json(),
    }


def torelli_3birational(a, b, iso=None, cap=DEFAULT_ENUM_CAP, loc=(None,)):
    """3-birational equivalence of two moduli descriptors: equal rank and
    isomorphic marked curves; degree and weights play no role. iso is a
    witness at loc, as curves_isomorphic takes it."""
    warnings = []
    for side, desc in (("first", a), ("second", b)):
        if desc.model.genus < 4:
            warnings.append(
                f"{side} descriptor has genus {desc.model.genus} < 4; the "
                "underlying theorem assumes genus at least 4"
            )
    rank_equal = a.rank == b.rank
    curve = curves_isomorphic(a.model, b.model, witness=iso, cap=cap, loc=loc)
    return {
        "is_3birational": rank_equal and curve["isomorphic"],
        "rank_equal": rank_equal,
        "ranks": [a.rank, b.rank],
        "curves_isomorphic": curve["isomorphic"],
        "witness": curve["witness"],
        "witness_source": curve["witness_source"],
        "search_exhausted": curve["search_exhausted"],
        "warnings": warnings,
    }


def bridge_transformation(model, d, d_prime, x):
    """Tuple T = T_O(m*x) o H_{k*x} with d' - d = r*m - k and 0 <= k < r,
    so that act_degree(T, d) = d'."""
    model.point(x)
    r = model.rank
    delta = d_prime - d
    m = -((-delta) // r)
    k = r * m - delta
    line = lincomb([(model.point_class(x), m)], dim=2 * model.genus)
    return BasicTransformation(
        model, model.identity_name, 1, line, Divisor({x: k})
    )


def verify_decomposition(source, target, sigma, transform, rho, xi, claim, cap=DEFAULT_ENUM_CAP,
                         loc=(None,)):
    """Check a proposed decomposition of a map between two moduli families.

    sigma is an isomorphism witness between the models, at loc (None means
    the identity witness on a shared model); transform and rho are the basic
    and Jacobian parts; xi the reference determinant (None means
    default_ref_det of the source degree). claim selects how
    much is required: degree transport and the witness for 3birational,
    plus the chamber condition for isomorphism.
    """
    if claim not in ("3birational", "isomorphism"):
        raise ShapeMismatch(f"claim must be '3birational' or 'isomorphism', got {claim!r}")
    if source.rank != target.rank:
        raise ShapeMismatch(
            f"rank mismatch: source {source.rank}, target {target.rank}"
        )
    checks = []
    warnings = []

    if xi is None:
        xi = default_ref_det(source.model, source.degree)
    ref_ok = xi.degree == source.degree
    checks.append(
        {
            "name": "reference_degree",
            "pass": ref_ok,
            "details": f"deg xi = {xi.degree}, source degree = {source.degree}",
        }
    )

    moved = act_degree(transform, source.degree)
    checks.append(
        {
            "name": "degree_transport",
            "pass": moved == target.degree,
            "details": f"T moves {source.degree} to {moved}, target degree is {target.degree}",
        }
    )

    points_map = {x: x for x in source.model.point_names}
    if sigma is None:
        if source.model is target.model:
            witness_ok = True
            detail = "identity witness on the shared model"
        else:
            witness_ok = False
            detail = "no witness supplied and the models are distinct"
    else:
        try:
            curve = curves_isomorphic(source.model, target.model, sigma, cap, loc)
            witness_ok = curve["isomorphic"]
            detail = "witness validated"
            points_map = dict(sigma["points"])
        except ModelError as exc:
            witness_ok = False
            detail = str(exc)
    checks.append({"name": "structural_witness", "pass": witness_ok, "details": detail})

    if claim == "isomorphism":
        if source.rank == 2 and transform.s == -1:
            warnings.append(
                "rank 2 with s = -1: a plus-part representative exists; compose "
                "with the inversion Jacobian part to trade dualization for tensoring"
            )
        try:
            relabeled = WeightSystem(
                tuple(
                    (x, target.weights.vector(points_map.get(x, x)))
                    for x in source.model.point_names
                ),
                target.weights.rank,
            )
            moved_w = act_weights(transform, source.weights)
            chamber_ok = same_chamber(moved_w, relabeled, cap)
            detail_w = "transformed source weights against relabeled target weights"
        except UnknownPoint as exc:
            chamber_ok = False
            detail_w = f"no point correspondence for the weight comparison: {exc}"
        checks.append(
            {
                "name": "chamber_match",
                "pass": chamber_ok,
                "details": detail_w,
            }
        )

    return {
        "claim": claim,
        "transform": describe(transform),
        "rho_tilde": [list(r) for r in rho.tilde] if rho is not None else None,
        "checks": checks,
        "warnings": warnings,
        "overall": all(c["pass"] for c in checks),
    }
