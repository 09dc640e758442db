"""Canonical full-flag weight systems and the wall-and-chamber calculus.

A weight system holds, per marked point, a strictly increasing vector of r
rationals in [0, 1) whose first entry is 0. Chambers are identified by the
floor vector of all wall values, enumerated in a fixed lexicographic order:
subrank r' from 1 to r-1, then per-point index subsets lexicographically,
with the last point varying fastest.

The walls are computed on integers. Each weight system is scaled once by
q, the lcm of its denominators, into one small table per point and
subrank (see _wall_tables); a wall's value times q is a sum of one table
entry per point. Walls are streamed in wall order from the product of the
tables, and a WallDatum is built only for a wall that is reported: a
genericity witness or the wall a NotGeneric error carries.
"""

import itertools
import math
from fractions import Fraction

from .errors import EnumerationCapExceeded, NotGeneric, ShapeMismatch, UnknownPoint
from .picard import DEFAULT_ENUM_CAP, frac_to_str

WALL_ORDER_HEADER = (
    "wall order: subrank r' = 1..r-1, per-point index subsets of size r' "
    "in lexicographic order, last point fastest"
)


class WeightSystem:
    """Canonical per-point weight vectors; immutable."""

    __slots__ = ("rank", "entries", "_walls")

    def __init__(self, entries, rank=None):
        if hasattr(entries, "items"):
            entries = entries.items()
        entries = tuple((name, tuple(Fraction(v) for v in vec)) for name, vec in entries)
        for name, vec in entries:
            if rank is None:
                rank = len(vec)
            if len(vec) != rank:
                raise ShapeMismatch(f"weight vector at {name!r} has length {len(vec)}, expected {rank}")
            if vec[0] != 0:
                raise ShapeMismatch(f"weights at {name!r} are not canonical (first entry {vec[0]})")
            for a, b in zip(vec, vec[1:]):
                if not a < b:
                    raise ShapeMismatch(f"weights at {name!r} are not strictly increasing")
            if vec[-1] >= 1:
                raise ShapeMismatch(f"weights at {name!r} leave [0, 1)")
        self.entries = entries
        self.rank = rank
        self._walls = None

    @property
    def point_names(self):
        return tuple(name for name, _ in self.entries)

    def vector(self, name):
        for n, vec in self.entries:
            if n == name:
                return vec
        raise UnknownPoint(name)

    def replace(self, name, vec):
        if name not in self.point_names:
            raise UnknownPoint(name)
        return WeightSystem(
            tuple((n, vec if n == name else v) for n, v in self.entries), self.rank
        )

    def total(self):
        return sum((sum(vec) for _, vec in self.entries), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, WeightSystem)
            and self.entries == other.entries
            and self.rank == other.rank
        )

    def __hash__(self):
        return hash((self.entries, self.rank))

    def to_json(self):
        return {name: [frac_to_str(v) for v in vec] for name, vec in self.entries}

    def __repr__(self):
        inner = ", ".join(
            "%s=(%s)" % (name, ", ".join(frac_to_str(v) for v in vec))
            for name, vec in self.entries
        )
        return f"WeightSystem({inner})"


class WallDatum:
    """One wall: a subrank r' and a size-r' index subset at every point.

    value = r' * sum(all weights) - r * sum(selected weights).
    Indices are 1-based.
    """

    __slots__ = ("subrank", "subsets", "value")

    def __init__(self, subrank, subsets, value):
        self.subrank = subrank
        self.subsets = tuple((name, tuple(sub)) for name, sub in subsets)
        self.value = Fraction(value)

    def is_integral(self):
        return self.value.denominator == 1

    def to_json(self):
        return {
            "subrank": self.subrank,
            "subsets": {name: list(sub) for name, sub in self.subsets},
            "value": frac_to_str(self.value),
        }

    def __str__(self):
        subs = ", ".join(
            "I(%s)={%s}" % (name, ",".join(map(str, sub))) for name, sub in self.subsets
        )
        return f"r'={self.subrank}, {subs}, value={frac_to_str(self.value)}"

    def __repr__(self):
        return f"WallDatum({self})"


class ChamberFingerprint:
    """Floor vector of every wall value, in the fixed wall order."""

    __slots__ = ("floors",)

    def __init__(self, floors):
        self.floors = tuple(int(f) for f in floors)

    def __eq__(self, other):
        return isinstance(other, ChamberFingerprint) and self.floors == other.floors

    def __hash__(self):
        return hash(self.floors)

    def to_json(self):
        return {"wall_order": WALL_ORDER_HEADER, "floors": list(self.floors)}

    def __str__(self):
        return "%s\n(%s)" % (WALL_ORDER_HEADER, ", ".join(map(str, self.floors)))

    def __repr__(self):
        return f"ChamberFingerprint{self.floors}"


def canonicalize(raw, rank=None):
    """Shift every per-point vector so its first weight is 0.

    Accepts a mapping name -> sequence or an iterable of (name, sequence).
    Requires strictly increasing entries with spread below 1.
    """
    items = raw.items() if hasattr(raw, "items") else raw
    entries = []
    for name, vec in items:
        vec = [Fraction(v) for v in vec]
        if not vec:
            raise ShapeMismatch(f"empty weight vector at {name!r}")
        for a, b in zip(vec, vec[1:]):
            if not a < b:
                raise ShapeMismatch(f"weights at {name!r} are not strictly increasing")
        if vec[-1] - vec[0] >= 1:
            raise ShapeMismatch(f"weights at {name!r} spread over 1 or more")
        base = vec[0]
        entries.append((name, tuple(v - base for v in vec)))
    return WeightSystem(entries, rank)


def parabolic_degree(d, w):
    return d + w.total()


def _wall_count(w):
    n = len(w.entries)
    if n == 0:
        return 0
    return sum(math.comb(w.rank, rp) ** n for rp in range(1, w.rank))


def _scaled_ints(w):
    """(q, ints): q is the lcm of all weight denominators of w, and ints
    holds each point's vector times q, in point order."""
    q = math.lcm(*(v.denominator for _, vec in w.entries for v in vec))
    return q, [[v.numerator * (q // v.denominator) for v in vec] for _, vec in w.entries]


def _wall_rows(ints, r):
    """One point's wall-table rows, one per subrank r' = 1..r-1: the
    integers r' * sum(ints) - r * sum(ints[I]) over the size-r' index
    subsets I in lexicographic order."""
    total = sum(ints)
    return tuple(
        tuple(rp * total - r * s for s in map(sum, itertools.combinations(ints, rp)))
        for rp in range(1, r)
    )


def _wall_tables(w):
    """The integer form of w's walls, built once per weight system.

    Returns (q, tables): q is the lcm of all weight denominators, and
    tables[r' - 1] holds, per point, the _wall_rows entries of that
    point's vector scaled by q. A wall's value times q is the sum of one
    entry per point, so it is integral when that sum is divisible by q,
    and its floor is the sum // q.
    """
    if w._walls is None:
        q, scaled = _scaled_ints(w)
        w._walls = (q, tuple(zip(*(_wall_rows(ints, w.rank) for ints in scaled))))
    return w._walls


def _scaled_walls(tables):
    """q times every wall value of one subrank, streamed in wall order."""
    return map(sum, itertools.product(*tables))


def _wall(w, rp, digits):
    """The WallDatum of subrank rp taking the digits[k]-th subset at point k."""
    q, tables = _wall_tables(w)
    subsets = list(itertools.combinations(range(1, w.rank + 1), rp))
    value = sum(table[d] for table, d in zip(tables[rp - 1], digits))
    return WallDatum(rp, zip(w.point_names, (subsets[d] for d in digits)), Fraction(value, q))


def _wall_at(w, rp, index):
    """The index-th wall of subrank rp: a mixed-radix decode, last point fastest."""
    base = math.comb(w.rank, rp)
    digits = []
    for _ in w.entries:
        index, d = divmod(index, base)
        digits.append(d)
    return _wall(w, rp, digits[::-1])


def _first_integral_wall(w):
    """The first wall in wall order with an integral value, or None."""
    q, tables = _wall_tables(w)
    for rp, per_point in enumerate(tables, 1):
        for i, v in enumerate(_scaled_walls(per_point)):
            if v % q == 0:
                return _wall_at(w, rp, i)
    return None


def _dp_witness(w):
    """Residue dynamic program deciding whether some wall value is integral.

    Returns a witness WallDatum or None. Avoids enumerating the full
    product of per-point subsets: point by point it tracks the residues
    mod q reachable by the scaled wall tables, each with the
    lexicographically least path of subset indices reaching it. A prefix
    of a least path is least for its own residue, so the witness is the
    first integral wall that enumeration finds.
    """
    q, tables = _wall_tables(w)
    for rp, per_point in enumerate(tables, 1):
        # Both dicts keep insertion order: moves holds the least digit per
        # residue in increasing digit order, and paths stays in increasing
        # path order because the pairs (path, d) are visited in
        # lexicographic order and the first one to reach a residue claims it.
        paths = {0: ()}
        for table in per_point:
            moves = {}
            for d, v in enumerate(table):
                moves.setdefault(v % q, d)
            nxt = {}
            for res, path in paths.items():
                for c, d in moves.items():
                    nr = (res + c) % q
                    if nr not in nxt:
                        nxt[nr] = path + (d,)
            paths = nxt
        if 0 in paths:
            return _wall(w, rp, paths[0])
    return None


def is_generic(w, cap=DEFAULT_ENUM_CAP):
    """(True, None) when no wall value is integral, else (False, witness).

    Walls are enumerated on the integer tables of _wall_tables; past cap
    walls the residue DP decides instead. Both give the first integral
    wall in wall order as the witness.
    """
    if not w.entries:
        return True, None
    if _wall_count(w) > cap:
        witness = _dp_witness(w)
    else:
        witness = _first_integral_wall(w)
    return witness is None, witness


def chamber_fingerprint(w, cap=DEFAULT_ENUM_CAP):
    if not w.entries:
        return ChamberFingerprint(())
    count = _wall_count(w)
    if count > cap:
        raise EnumerationCapExceeded(count, cap, "walls")
    wall = _first_integral_wall(w)
    if wall is not None:
        raise NotGeneric(wall)
    q, tables = _wall_tables(w)
    return ChamberFingerprint(v // q for t in tables for v in _scaled_walls(t))


def same_chamber(w1, w2, cap=DEFAULT_ENUM_CAP):
    """Lazy floor-by-floor comparison; aborts at the first differing wall.

    At each wall, an integral value of w1 and then of w2 raises NotGeneric
    before the floors are compared. Both systems are compared on their own
    integer wall tables.
    """
    if w1.point_names != w2.point_names or w1.rank != w2.rank:
        if w1.point_names == w2.point_names == ():
            return True
        raise ShapeMismatch("weight systems live on different point sets or ranks")
    if not w1.entries:
        return True
    count = _wall_count(w1)
    if count > cap:
        raise EnumerationCapExceeded(count, cap, "walls")
    hit = _first_wall_difference(*_wall_tables(w1), *_wall_tables(w2))
    if hit is None:
        return True
    rp, i, side = hit
    if side:
        raise NotGeneric(_wall_at(w1 if side == 1 else w2, rp, i))
    return False


def _first_wall_difference(q1, tables1, q2, tables2):
    """Where two same-shape systems, given by their scaled wall tables,
    first part in wall order: (r', index, side) with side 1 or 2 when that
    system's wall is integral there, checked in that order, and 0 when the
    floors differ; None when every floor agrees."""
    for rp, (t1, t2) in enumerate(zip(tables1, tables2), 1):
        for i, (v1, v2) in enumerate(zip(_scaled_walls(t1), _scaled_walls(t2))):
            f1, m1 = divmod(v1, q1)
            if not m1:
                return rp, i, 1
            f2, m2 = divmod(v2, q2)
            if not m2:
                return rp, i, 2
            if f1 != f2:
                return rp, i, 0
    return None


def _act_vector(vec, k, s, one):
    """A canonical vector after k Hecke steps and then, when s == -1, the dual.

    k steps rotate (a_1, ..., a_r) to (a_{k+1}, ..., a_r, one + a_1, ...,
    one + a_k) and shift it by a_{k+1}; k counts modulo r, since r steps
    give back the vector. The dual of a canonical b is b_r - reversed(b).
    Works on Fractions with one = 1 and on a vector scaled by q with one = q.
    """
    k %= len(vec)
    if k:
        base = vec[k]
        vec = [v - base for v in vec[k:]] + [one + v - base for v in vec[:k]]
    if s == -1:
        top = vec[-1]
        vec = [top - v for v in reversed(vec)]
    return vec


def hecke_weights(w, x):
    """One elementary modification step at x:
    (0, a2, ..., ar) -> (0, a3 - a2, ..., ar - a2, 1 - a2)."""
    return w.replace(x, tuple(_act_vector(w.vector(x), 1, 1, 1)))


def dual_weights(w):
    """Reverse and reflect every vector: canonical form of (1 - ar, ..., 1 - a1)."""
    return WeightSystem(
        [(name, tuple(_act_vector(vec, 0, -1, 1))) for name, vec in w.entries], w.rank
    )
