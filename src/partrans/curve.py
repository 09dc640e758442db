"""Symbolic marked-curve context (X, D) shared by every other module.

A model is immutable after load: genus, rank, ambient degree, marked points
with their Picard coordinates, and a finite automorphism table acting on
classes through the affine map (deg, j) -> (deg, M j + deg t).
"""

import json
import re
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
        self._identity_matrix = tuple(map(tuple, identity_matrix(dim)))
        identity_key = self._key({}, self._identity_matrix, JacobianElement.zero(dim))
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

    def conjugator(self, name):
        """(M, M^{-1}) for the named automorphism's linear part, None for
        the identity; built once per name."""
        if name not in self._conjugators:
            m = self.automorphism(name).matrix
            identity = m == self._identity_matrix
            self._conjugators[name] = None if identity else (m, inverse_unimodular(m))
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
        first; its pullback is pullback_outer o pullback_inner. A factor
        whose matrix is the identity leaves the other's matrix, with no
        product.
        """
        perm = {}
        for x in self._point_index:
            y = outer.point_perm.get(x, x)
            perm[x] = inner.point_perm.get(y, y)
        if outer.matrix == self._identity_matrix:
            matrix = inner.matrix
        elif inner.matrix == self._identity_matrix:
            matrix = outer.matrix
        else:
            matrix = tuple(map(tuple, mat_mul(outer.matrix, inner.matrix)))
        translation = affine_image(outer.matrix, inner.translation, outer.translation)
        return perm, matrix, translation

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


# -- reading JSON input ---------------------------------------------------
#
# Every JSON document a user hands over (a model, weights, a class, a
# descriptor, a witness, a matrix) is read by these readers. A location is
# a tuple (source, key, ...): the file or option the document came from
# (None when there is none), then the path of keys and indices to a value.

# the most digits of an integer, of a JSON document or of an expression,
# and of either part of a rational; Python itself refuses to convert a
# decimal string of more than 4300 digits
MAX_INT_DIGITS = 1000
_INT_BOUND = 10**MAX_INT_DIGITS
_TOO_LONG = f"integer of more than {MAX_INT_DIGITS} digits"
# the most integer products loading may spend on the automorphism table:
# (2g)^2 for the identity, (2g)^3 per entry's determinant and per pair
MAX_TABLE_WORK = 10**7
_RATIONAL = re.compile(r"[+-]?([0-9]+)(?:/(0*[1-9][0-9]*))?")


def _where(loc):
    """Text of a location, as `source: key.key[index]`, or None for the
    root of a document without a source."""
    source, *keys = loc
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
    path = path[1:] if path.startswith(".") else path
    return ": ".join(x for x in (source, path) if x) or None


def _fail(loc, message, error=ConfigError):
    raise error(message, _where(loc))


def _float_at(doc, loc):
    """The location of the first float in doc at loc, in document order
    (loc itself when a repeated key dropped every float)."""
    stack = [(doc, loc)]
    while stack:
        value, at = stack.pop()
        if isinstance(value, float):
            return at
        items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
        stack.extend(reversed([(v, at + (k,)) for k, v in items]))
    return loc


def _read_json(text, source=None):
    """The JSON document in text. Floats (NaN and Infinity too) are refused,
    as are integers Python cannot convert and nesting it cannot recurse
    into; every error names source."""
    floats = []

    def as_float(literal):
        floats.append(literal)
        return float(literal)

    try:
        doc = json.loads(text, parse_float=as_float, parse_constant=as_float)
    except json.JSONDecodeError as e:
        _fail((source, f"line {e.lineno} column {e.colno}"), f"invalid JSON: {e.msg}")
    except ValueError as e:
        _fail((source,), f"invalid JSON: {e}")
    except RecursionError:
        _fail((source,), "invalid JSON: nested too deeply")
    if floats:
        _fail(_float_at(doc, (source,)),
              f"floating point literal {floats[0]} is not allowed; write integers, and rationals as strings")
    return doc


def _object(value, keys, loc, optional=None):
    """A JSON object holding every key of keys. Unless optional is None it
    is a record, and a key in neither keys nor optional is refused."""
    if not isinstance(value, dict):
        _fail(loc, f"expected an object, got {type(value).__name__}")
    for key in keys:
        if key not in value:
            _fail(loc, f"missing key {key!r}")
    if optional is not None:
        for key in value:
            if key not in keys and key not in optional:
                _fail(loc, f"unknown key {key!r}")
    return value


def _list(value, n, loc, what):
    """A JSON array, of length n unless n is None."""
    if not isinstance(value, list):
        _fail(loc, f"expected an array of {what}, got {type(value).__name__}")
    if n is not None and len(value) != n:
        _fail(loc, f"expected {n} {what}, got {len(value)}", DimensionMismatch)
    return value


def _int(value, loc):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(loc, f"expected an integer, got {value!r}")
    if abs(value) >= _INT_BOUND:
        _fail(loc, _TOO_LONG)
    return value


def _rational(value, loc):
    """An int (not a bool), a rational string ([+-]digits or
    [+-]digits/digits) or a Fraction, as a Fraction."""
    if isinstance(value, str):
        m = _RATIONAL.fullmatch(value)
        if m is None:
            _fail(loc, f"malformed rational {value!r}")
        if max(map(len, m.groups(""))) > MAX_INT_DIGITS:
            _fail(loc, _TOO_LONG)
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(loc, f"expected a rational string, got {type(value).__name__}")
    return Fraction(_int(value, loc))


def _rationals(value, n, loc):
    """A list of n rationals (of any length when n is None), as Fractions."""
    return [_rational(v, loc + (k,)) for k, v in enumerate(_list(value, n, loc, "rationals"))]


def _int_matrix(value, n, loc):
    """An n x n matrix of integers, as a tuple of rows."""
    return tuple(
        tuple(_int(x, loc + (i, j)) for j, x in enumerate(_list(row, n, loc + (i,), "integers")))
        for i, row in enumerate(_list(value, n, loc, "rows"))
    )


def _string(value, loc):
    if not isinstance(value, str):
        _fail(loc, f"expected a string, got {type(value).__name__}")
    return value


def _identifier(value, loc):
    if not isinstance(value, str) or not value.isidentifier():
        _fail(loc, f"name {value!r} is not an identifier")
    return value


def _names(value, loc):
    """An object mapping names to names."""
    return {k: _string(v, loc + (k,)) for k, v in _object(value, (), loc).items()}


def _affine(obj, dim, loc):
    """The class map of obj: its "matrix", a dim x dim integer matrix (the
    identity when absent), and its "translation", dim rationals (zero when
    absent), as a JacobianElement."""
    matrix = obj.get("matrix")
    if matrix is None:
        matrix = tuple(map(tuple, identity_matrix(dim)))
    else:
        matrix = _int_matrix(matrix, dim, loc + ("matrix",))
    translation = obj.get("translation")
    if translation is None:
        return matrix, JacobianElement.zero(dim)
    return matrix, JacobianElement(_rationals(translation, dim, loc + ("translation",)))


def load_config(text, source=None):
    """Parse a configuration document into a CurveModel; errors name
    source, the file the text came from, when given.

    Structural checks only (shapes, ranges, name resolution); group axioms
    are the business of validate_model.
    """
    loc = (source,)
    doc = _object(_read_json(text, source), ("genus", "rank"), loc,
                  ("degree", "points", "automorphisms", "endomorphisms"))
    genus = _int(doc["genus"], loc + ("genus",))
    if genus < 1:
        _fail(loc + ("genus",), f"genus must be positive, got {genus}")
    rank = _int(doc["rank"], loc + ("rank",))
    if rank < 2:
        _fail(loc + ("rank",), f"rank must be at least 2, got {rank}")
    degree = _int(doc.get("degree", 0), loc + ("degree",))
    dim = 2 * genus

    points = []
    seen = set()
    for i, entry in enumerate(_list(doc.get("points", []), None, loc + ("points",), "points")):
        at = loc + ("points", i)
        entry = _object(entry, ("name", "jac"), at, ())
        name = _identifier(entry["name"], at + ("name",))
        if name in seen:
            _fail(at, f"duplicate point name {name!r}")
        seen.add(name)
        points.append(MarkedPoint(name, JacobianElement(_rationals(entry["jac"], dim, at + ("jac",)))))
    point_names = [p.name for p in points]

    autos = []
    raw_autos = _list(doc.get("automorphisms") or [], None, loc + ("automorphisms",), "automorphisms")
    work = dim**2 + (len(raw_autos) + len(raw_autos) ** 2) * dim**3
    if work > MAX_TABLE_WORK:
        _fail(loc, f"the automorphism table takes {work} products, more than MAX_TABLE_WORK ({MAX_TABLE_WORK})")
    if not raw_autos:
        autos.append(CurveAutomorphism("id", {n: n for n in point_names}, *_affine({}, dim, loc)))
    seen_autos = set()
    for i, entry in enumerate(raw_autos):
        at = loc + ("automorphisms", i)
        entry = _object(entry, ("name",), at, ("perm", "matrix", "translation"))
        name = _identifier(entry["name"], at + ("name",))
        if name in seen_autos:
            _fail(at, f"duplicate automorphism name {name!r}")
        seen_autos.add(name)
        perm = _names(entry.get("perm", {}), at + ("perm",))
        for k, v in perm.items():
            if k not in seen or v not in seen:
                _fail(at + ("perm",), f"perm names unknown point {k!r} -> {v!r}")
        for n in point_names:
            perm.setdefault(n, n)
        if sorted(perm.values()) != sorted(point_names):
            _fail(at + ("perm",), "perm is not a permutation of the points")
        matrix, translation = _affine(entry, dim, at)
        if det_int(matrix) not in (1, -1):
            _fail(at + ("matrix",), "matrix is not invertible over the integers")
        autos.append(CurveAutomorphism(name, perm, matrix, translation))

    endo_ring = doc.get("endomorphisms", "scalar")
    if endo_ring not in ("scalar", "matrix"):
        _fail(loc + ("endomorphisms",), "endomorphisms must be 'scalar' or 'matrix'")

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
            source = inv_perm.get(x, x)  # a point the perm leaves out is fixed
            want = m.point_class(source)
            if got != want:
                report.errors.append(
                    f"pullback of {a.name} sends the class of {x} to "
                    f"{got.jac.to_json()} instead of the class of {source}"
                )
    return report
