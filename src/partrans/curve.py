"""Symbolic marked-curve context (X, D) shared by every other module.

A model is immutable after load: genus, rank, ambient degree, marked points
with their Picard coordinates, and a finite automorphism table acting on
classes through the affine map (deg, j) -> (deg, M j + deg t).
"""

import json
from fractions import Fraction

from .errors import ConfigError, DimensionMismatch, ModelError, UnknownAutomorphism, UnknownPoint
from .intmat import det_int, identity_matrix, inverse_unimodular, mat_mul
from .picard import JacobianElement, LineBundleClass, affine_image, pullback


class MarkedPoint:
    __slots__ = ("name", "jac_class")

    def __init__(self, name, jac_class):
        self.name = name
        self.jac_class = jac_class

    def __repr__(self):
        return f"MarkedPoint({self.name!r})"


class CurveAutomorphism:
    __slots__ = ("name", "point_perm", "matrix", "translation")

    def __init__(self, name, point_perm, matrix, translation):
        self.name = name
        self.point_perm = dict(point_perm)
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        self.translation = translation

    def perm_inverse(self):
        return {v: k for k, v in self.point_perm.items()}

    def __repr__(self):
        return f"CurveAutomorphism({self.name!r})"


class ValidationReport:
    def __init__(self):
        self.errors = []
        self.warnings = []

    @property
    def ok(self):
        return not self.errors

    def is_empty(self):
        return not self.errors and not self.warnings

    def to_json(self):
        return {"ok": self.ok, "errors": list(self.errors), "warnings": list(self.warnings)}

    def __repr__(self):
        return f"ValidationReport(errors={self.errors}, warnings={self.warnings})"


class CurveModel:
    """An immutable marked-curve model with its automorphism table compiled.

    `__init__` builds the Cayley table of the automorphism entries once.
    Entries are keyed by their structure (point permutation over
    `point_names`, matrix, translation); when two entries share a key, the
    first in table order wins. `_compose[i][j]` is the entry realizing
    entry i composed with entry j, or None where the table is not closed;
    `_inverse[i]` is the first entry whose composite with entry i is
    structurally the identity (whether or not the table holds an identity
    entry), or None. Names resolve to the last entry carrying them.
    """

    def __init__(self, genus, rank, degree_context, points, automorphisms, endo_ring="scalar"):
        self.genus = genus
        self.rank = rank
        self.degree_context = degree_context
        self.points = tuple(points)
        self.automorphisms = tuple(automorphisms)
        self.endo_ring = endo_ring
        self.point_names = tuple(p.name for p in self.points)
        self._point_index = {p.name: p for p in self.points}
        self._auto_pos = {a.name: i for i, a in enumerate(self.automorphisms)}
        self._by_key = {}
        for a in self.automorphisms:
            self._by_key.setdefault(self._key(a.point_perm, a.matrix, a.translation), a)
        dim = 2 * genus
        identity_key = self._key(
            {}, tuple(map(tuple, identity_matrix(dim))), JacobianElement.zero(dim)
        )
        identity = self._by_key.get(identity_key)
        self._identity_name = identity.name if identity is not None else None
        self._compose = []
        self._inverse = []
        self._conjugators = {}
        for a in self.automorphisms:
            row = []
            inverse = None
            for b in self.automorphisms:
                key = self._key(*self.composed_data(a, b))
                row.append(self._by_key.get(key))
                if inverse is None and key == identity_key:
                    inverse = b
            self._compose.append(row)
            self._inverse.append(inverse)

    # -- lookups ---------------------------------------------------------

    def point(self, name):
        try:
            return self._point_index[name]
        except KeyError:
            raise UnknownPoint(name) from None

    def point_class(self, name):
        return LineBundleClass(1, self.point(name).jac_class)

    def _position(self, name):
        try:
            return self._auto_pos[name]
        except KeyError:
            raise UnknownAutomorphism(name) from None

    def automorphism(self, name):
        return self.automorphisms[self._position(name)]

    def has_automorphism(self, name):
        return name in self._auto_pos

    def conjugator(self, name):
        """(M, columns of M^{-1}) for the named automorphism's linear part,
        None for the identity; built once per name."""
        if name not in self._conjugators:
            m = self.automorphism(name).matrix
            identity = m == tuple(map(tuple, identity_matrix(len(m))))
            self._conjugators[name] = None if identity else (m, list(zip(*inverse_unimodular(m))))
        return self._conjugators[name]

    # -- structural identity and table arithmetic ------------------------

    def _key(self, perm, matrix, translation):
        return (tuple(perm.get(x, x) for x in self._point_index), matrix, translation)

    @property
    def identity_name(self):
        if self._identity_name is None:
            raise ModelError("automorphism table has no identity entry")
        return self._identity_name

    def composed_data(self, outer, inner):
        """Table data of the element acting as outer-then-inner pullback.

        The composed geometric automorphism applies outer's permutation
        first; its pullback is pullback_outer o pullback_inner.
        """
        perm = {}
        for x in self._point_index:
            y = outer.point_perm.get(x, x)
            perm[x] = inner.point_perm.get(y, y)
        matrix = mat_mul(outer.matrix, inner.matrix)
        translation = affine_image(outer.matrix, inner.translation, outer.translation)
        return perm, tuple(map(tuple, matrix)), translation

    def find_entry(self, perm, matrix, translation):
        return self._by_key.get(self._key(perm, matrix, translation))

    def compose_autos(self, outer_name, inner_name):
        """Name of the table entry realizing Sigma_outer o Sigma_inner."""
        i = self._position(outer_name)
        j = self._position(inner_name)
        entry = self._compose[i][j]
        if entry is None:
            raise ModelError(
                f"automorphism table is not closed: {outer_name} composed with {inner_name}"
            )
        return entry.name

    def inverse_auto(self, name):
        entry = self._inverse[self._position(name)]
        if entry is None:
            raise ModelError(f"automorphism {name!r} has no inverse in the table")
        return entry.name


def point_class(model, name):
    return model.point_class(name)


# -- configuration loading ----------------------------------------------


def _reject_float(_):
    raise ConfigError("floating point literals are not allowed; write rationals as strings")


def _parse_fraction(value, location):
    if isinstance(value, bool):
        raise ConfigError("expected a rational, got a boolean", location)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"malformed rational {value!r}", location) from None
    raise ConfigError(f"expected a rational string, got {type(value).__name__}", location)


def _require_int(value, location):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", location)
    return value


def _check_identifier(name, location):
    if not isinstance(name, str) or not name.isidentifier():
        raise ConfigError(f"name {name!r} is not an identifier", location)
    return name


def load_config(text):
    """Parse a configuration document into a CurveModel.

    Structural checks only (shapes, ranges, name resolution); group axioms
    are the business of validate_model.
    """
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON: {e.msg}", f"line {e.lineno} column {e.colno}") from None
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")

    genus = _require_int(doc.get("genus"), "genus")
    if genus < 1:
        raise ConfigError(f"genus must be positive, got {genus}", "genus")
    rank = _require_int(doc.get("rank"), "rank")
    if rank < 2:
        raise ConfigError(f"rank must be at least 2, got {rank}", "rank")
    degree = _require_int(doc.get("degree", 0), "degree")
    dim = 2 * genus

    points = []
    seen = set()
    for i, entry in enumerate(doc.get("points", [])):
        loc = f"points[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError("point entry must be an object", loc)
        name = _check_identifier(entry.get("name"), f"{loc}.name")
        if name in seen:
            raise ConfigError(f"duplicate point name {name!r}", loc)
        seen.add(name)
        jac = entry.get("jac")
        if not isinstance(jac, list):
            raise ConfigError("jac must be an array of rationals", f"{loc}.jac")
        if len(jac) != dim:
            raise DimensionMismatch(
                f"coordinate length {len(jac)} does not match 2g = {dim}", f"{loc}.jac"
            )
        coords = [_parse_fraction(v, f"{loc}.jac[{k}]") for k, v in enumerate(jac)]
        points.append(MarkedPoint(name, JacobianElement(coords)))
    point_names = [p.name for p in points]

    autos = []
    raw_autos = doc.get("automorphisms")
    if not raw_autos:
        autos.append(
            CurveAutomorphism(
                "id",
                {n: n for n in point_names},
                identity_matrix(dim),
                JacobianElement.zero(dim),
            )
        )
    else:
        seen_autos = set()
        for i, entry in enumerate(raw_autos):
            loc = f"automorphisms[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError("automorphism entry must be an object", loc)
            name = _check_identifier(entry.get("name"), f"{loc}.name")
            if name in seen_autos:
                raise ConfigError(f"duplicate automorphism name {name!r}", loc)
            seen_autos.add(name)
            raw_perm = entry.get("perm", {})
            if not isinstance(raw_perm, dict):
                raise ConfigError("perm must be an object mapping point names", f"{loc}.perm")
            perm = {}
            for k, v in raw_perm.items():
                if k not in seen or v not in seen:
                    raise ConfigError(f"perm names unknown point {k!r} -> {v!r}", f"{loc}.perm")
                perm[k] = v
            for n in point_names:
                perm.setdefault(n, n)
            if sorted(perm.values()) != sorted(point_names):
                raise ConfigError("perm is not a permutation of the points", f"{loc}.perm")
            matrix = entry.get("matrix")
            if matrix is None:
                matrix = identity_matrix(dim)
            if not isinstance(matrix, list) or len(matrix) != dim or any(
                not isinstance(row, list) or len(row) != dim for row in matrix
            ):
                raise DimensionMismatch(f"matrix must be {dim}x{dim}", f"{loc}.matrix")
            matrix = [
                [_require_int(x, f"{loc}.matrix[{a}][{b}]") for b, x in enumerate(row)]
                for a, row in enumerate(matrix)
            ]
            if det_int(matrix) not in (1, -1):
                raise ConfigError("matrix is not invertible over the integers", f"{loc}.matrix")
            raw_t = entry.get("translation", [0] * dim)
            if not isinstance(raw_t, list) or len(raw_t) != dim:
                raise DimensionMismatch(f"translation must have length {dim}", f"{loc}.translation")
            translation = JacobianElement(
                _parse_fraction(v, f"{loc}.translation[{k}]") for k, v in enumerate(raw_t)
            )
            autos.append(CurveAutomorphism(name, perm, matrix, translation))

    endo_ring = doc.get("endomorphisms", "scalar")
    if endo_ring not in ("scalar", "matrix"):
        raise ConfigError("endomorphisms must be 'scalar' or 'matrix'", "endomorphisms")

    return CurveModel(genus, rank, degree, points, autos, endo_ring)


def validate_model(m):
    """Check the group axioms and pullback consistency of the table.

    Pure and idempotent; every finding is a report entry, nothing raises.
    """
    report = ValidationReport()
    if m.genus < 6:
        report.warnings.append(
            f"genus {m.genus} < 6: small-genus model, fine for computation"
        )
    if m._identity_name is None:
        report.errors.append("automorphism table has no identity entry")
    for a, row in zip(m.automorphisms, m._compose):
        for b, entry in zip(m.automorphisms, row):
            if entry is None:
                report.errors.append(
                    f"table not closed: composition of {a.name} with {b.name} is missing"
                )
    for a, inverse in zip(m.automorphisms, m._inverse):
        if inverse is None:
            report.errors.append(f"automorphism {a.name} has no inverse in the table")
    for a in m.automorphisms:
        inv_perm = a.perm_inverse()
        for x in m.point_names:
            got = pullback(a, m.point_class(x))
            want = m.point_class(inv_perm[x])
            if got != want:
                report.errors.append(
                    f"pullback of {a.name} sends the class of {x} to "
                    f"{got.jac.to_json()} instead of the class of {inv_perm[x]}"
                )
    return report
