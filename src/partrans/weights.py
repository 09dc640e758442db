"""Canonical full-flag weight systems and the wall-and-chamber calculus.

A weight system holds, per marked point, a strictly increasing vector of r
rationals in [0, 1) whose first entry is 0, as integers over one denominator
(see WeightSystem). Chambers are identified by the floor vector of all wall
values, enumerated in a fixed lexicographic order: subrank r' from 1 to r-1,
then per-point index subsets lexicographically, last point fastest.

Walls are computed on the same integers (see _Walls). Per subrank, the wall
with index j * len(tails) + i is heads[j] + tails[i]: sums over the first
half of the points and over the rest. A block of walls sharing a head is
compared in one step; genericity meets in the middle (Horowitz & Sahni, 1974).
"""

import itertools
import math
from fractions import Fraction
from operator import itemgetter, lt

from .errors import EnumerationCapExceeded, NotGeneric, ShapeMismatch, UnknownPoint
from .picard import DEFAULT_ENUM_CAP, frac_to_str, fraction_texts

WALL_ORDER_HEADER = (
    "wall order: subrank r' = 1..r-1, per-point index subsets of size r' "
    "in lexicographic order, last point fastest"
)


def _ratios(vecs):
    """Per vector, (numerator, denominator) of each rational, read once."""
    vecs = list(map(tuple, vecs))
    try:
        return [[v.as_integer_ratio() for v in vec] for vec in vecs]
    except AttributeError:
        return [[Fraction(v).as_integer_ratio() for v in vec] for vec in vecs]


class WeightSystem:
    """Canonical per-point weight vectors; immutable. rows[k] holds the vector at point_names[k]
    as numerators over q, the lcm of the denominators, so gcd(q, every entry) == 1 and == can
    compare integers. Fractions and texts are derived only for output."""

    __slots__ = ("rank", "point_names", "q", "rows", "_walls")

    def __init__(self, entries, rank=None):
        names, vecs = tuple(zip(*(entries.items() if hasattr(entries, "items") else entries))) or ((), ())
        self._set(names, _ratios(vecs), rank)

    def _set(self, names, ratios, rank):
        """Per-point (numerator, denominator) pairs as rows over their lcm q, checked."""
        q = math.lcm(*{d for pairs in ratios for _, d in pairs})
        rows = [tuple([n * (q // d) for n, d in pairs]) for pairs in ratios]
        for name, row in zip(names, rows):
            if not row:
                raise ShapeMismatch(f"empty weight vector at {name!r}")
            rank = len(row) if rank is None else rank
            if len(row) != rank:
                raise ShapeMismatch(f"weight vector at {name!r} has length {len(row)}, expected {rank}")
            if row[0]:
                raise ShapeMismatch(f"weights at {name!r} are not canonical (first entry {Fraction(row[0], q)})")
            if not all(map(lt, row, row[1:])):
                raise ShapeMismatch(f"weights at {name!r} are not strictly increasing")
            if row[-1] >= q:
                raise ShapeMismatch(f"weights at {name!r} leave [0, 1)")
        self.point_names, self.q, self.rows, self.rank, self._walls = tuple(names), q, tuple(rows), rank, None
        return self

    @classmethod
    def _of_rows(cls, point_names, q, rows, rank):
        """From canonical tuple rows over q in reduced form, nothing checked."""
        self = object.__new__(cls)
        self.point_names, self.q, self.rows, self.rank, self._walls = point_names, q, rows, rank, None
        return self

    @property
    def entries(self):
        return tuple(zip(self.point_names, map(self._fractions, self.rows)))

    def _fractions(self, row):
        return tuple(Fraction(x, self.q) for x in row)

    def _index(self, name):
        if name in self.point_names:
            return self.point_names.index(name)
        raise UnknownPoint(name)

    def vector(self, name):
        return self._fractions(self.rows[self._index(name)])

    def total(self):
        return Fraction(sum(map(sum, self.rows)), self.q)

    def _key(self):
        return self.point_names, self.q, self.rows, self.rank

    def __eq__(self, other):
        return isinstance(other, WeightSystem) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _texts(self):
        return [(name, fraction_texts(row, self.q)) for name, row in zip(self.point_names, self.rows)]

    def to_json(self):
        return dict(self._texts())

    def __repr__(self):
        return "WeightSystem(%s)" % ", ".join("%s=(%s)" % (n, ", ".join(t)) for n, t in self._texts())


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
        self.floors = tuple(floors)

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
    names, ratios = [], []
    for name, vec in items:
        (pairs,) = _ratios([vec])
        if not pairs:
            raise ShapeMismatch(f"empty weight vector at {name!r}")
        d = math.lcm(*[e for _, e in pairs])
        row = [n * (d // e) for n, e in pairs]
        if not all(map(lt, row, row[1:])):
            raise ShapeMismatch(f"weights at {name!r} are not strictly increasing")
        if row[-1] - row[0] >= d:
            raise ShapeMismatch(f"weights at {name!r} spread over 1 or more")
        g = math.gcd(d, *[x - row[0] for x in row])
        names.append(name)
        ratios.append([((x - row[0]) // g, d // g) for x in row])
    return object.__new__(WeightSystem)._set(names, ratios, rank)


def parabolic_degree(d, w):
    return d + w.total()


def _wall_count(w):
    n = len(w.rows)
    return sum(math.comb(w.rank, rp) ** n for rp in range(1, w.rank)) if n else 0


def _wall_row(ints, r, rp):
    """One point's wall-table row of subrank rp: rp * sum(ints) - r * sum(ints[I])
    over the size-rp index subsets I in lexicographic order."""
    total = rp * sum(ints)
    return [total - r * s for s in map(sum, itertools.combinations(ints, rp))]


def _sums(rows):
    """Every sum of one entry per row, in lexicographic order, last row fastest."""
    sums = [0]
    for row in rows:
        sums = [a + v for a in sums for v in row]
    return sums


class _Walls:
    """A weight system's walls times its q: per subrank, built on first use,
    each point's _wall_row and the tails."""

    __slots__ = ("points", "rank", "_rows", "_tails")

    def __init__(self, w):
        self.points, self.rank, self._rows, self._tails = w.rows, w.rank, {}, {}

    def rows(self, rp):
        if rp not in self._rows:
            self._rows[rp] = [_wall_row(row, self.rank, rp) for row in self.points]
        return self._rows[rp]

    def halves(self):
        """Per subrank, (head rows, tails): the rows of the first n // 2
        points, and the _sums of the others; heads are the head rows' _sums."""
        h = len(self.points) // 2
        for rp in range(1, self.rank):
            rows = self.rows(rp)
            if rp not in self._tails:
                self._tails[rp] = _sums(rows[h:])
            yield rows[:h], self._tails[rp]


def _walls(w):
    w._walls = w._walls or _Walls(w)
    return w._walls


def _wall(w, rp, digits):
    """The WallDatum of subrank rp taking the digits[k]-th subset at point k."""
    subsets = list(itertools.combinations(range(1, w.rank + 1), rp))
    value = Fraction(sum(row[d] for row, d in zip(_walls(w).rows(rp), digits)), w.q)
    return WallDatum(rp, zip(w.point_names, (subsets[d] for d in digits)), value)


def _wall_at(w, rp, index):
    """The index-th wall of subrank rp: a mixed-radix decode, last point fastest."""
    base, n = math.comb(w.rank, rp), len(w.rows)
    return _wall(w, rp, [index // base ** (n - 1 - k) % base for k in range(n)])


def _least_paths(rows, q):
    """Each residue mod q of a sum of one entry per row, mapped to the least
    digit path reaching it, in path order: per row, the first (path, least
    digit of a residue) in order to reach a residue claims it."""
    paths = {0: ()}
    for row in rows:
        moves = {}
        for d, v in enumerate(row):
            moves.setdefault(v % q, d)
        moves = list(moves.items())
        nxt = {}
        for res, path in paths.items():
            for c, d in moves:
                nr = (res + c) % q
                if nr not in nxt:
                    nxt[nr] = path + (d,)
        paths = nxt
    return paths


def is_generic(w, cap=DEFAULT_ENUM_CAP):
    """(True, None) when no wall value is integral, else (False, witness).

    One algorithm, which cap does not bound: per subrank, the first head
    residue of _least_paths whose complement a tail reaches gives the first
    integral wall in wall order, the witness. Work and memory are about the
    square root of the wall count, and at most q residues per half.
    """
    if not w.rows:
        return True, None
    walls = _walls(w)
    q, h = w.q, len(w.rows) // 2
    for rp in range(1, w.rank):
        rows = walls.rows(rp)
        tails = _least_paths(rows[h:], q)
        for res, path in _least_paths(rows[:h], q).items():
            tail = tails.get(-res % q)
            if tail is not None:
                return False, _wall(w, rp, path + tail)
    return True, None


def chamber_fingerprint(w, cap=DEFAULT_ENUM_CAP):
    if not w.rows:
        return ChamberFingerprint(())
    count = _wall_count(w)
    if count > cap:
        raise EnumerationCapExceeded(count, cap, "walls")
    q, floors = w.q, []
    for rp, (rows, tails) in enumerate(_walls(w).halves(), 1):
        residues = {t % q for t in tails}
        for j, a in enumerate(_sums(rows)):
            if -a % q in residues:
                i = next(i for i, t in enumerate(tails) if not (a + t) % q)
                raise NotGeneric(_wall_at(w, rp, j * len(tails) + i))
            floors += [(a + t) // q for t in tails]
    return ChamberFingerprint(floors)


def same_chamber(w1, w2, cap=DEFAULT_ENUM_CAP):
    """Lazy floor-by-floor comparison; aborts at the first differing wall.

    At each wall, an integral value of w1 and then of w2 raises NotGeneric
    before the floors are compared.
    """
    if w1.point_names == w2.point_names == ():
        return True
    if w1.point_names != w2.point_names or w1.rank != w2.rank:
        raise ShapeMismatch("weight systems live on different point sets or ranks")
    count = _wall_count(w1)
    if count > cap:
        raise EnumerationCapExceeded(count, cap, "walls")
    hit = _first_wall_difference(w1.q, _walls(w1).halves(), w2.q, _walls(w2).halves())
    if hit is None:
        return True
    rp, i, side = hit
    if side:
        raise NotGeneric(_wall_at(w1 if side == 1 else w2, rp, i))
    return False


def _first_wall_difference(q1, halves1, q2, halves2):
    """Where two same-shape systems, given by their _Walls.halves, first
    part in wall order: (r', index, side) with side 1 or 2 when that
    system's wall is integral there, checked in that order, and 0 when the
    floors differ; None when every floor agrees. Block 0, where most
    differing systems part, is scanned wall by wall; a later block passes
    whole when no tail reaches its head's complement mod q and its floors
    agree, and is scanned otherwise."""
    for rp, ((rows1, tails1), (rows2, tails2)) in enumerate(zip(halves1, halves2), 1):
        a1, a2 = sum(map(itemgetter(0), rows1)), sum(map(itemgetter(0), rows2))
        hit = _block_difference(q1, a1, tails1, q2, a2, tails2)
        if hit is not None:
            return rp, *hit
        res1, res2 = {t % q1 for t in tails1}, {t % q2 for t in tails2}
        for j, (a1, a2) in enumerate(zip(_sums(rows1), _sums(rows2))):
            if j and (-a1 % q1 in res1 or -a2 % q2 in res2
                      or [(a1 + t) // q1 for t in tails1] != [(a2 + t) // q2 for t in tails2]):
                i, side = _block_difference(q1, a1, tails1, q2, a2, tails2)
                return rp, j * len(tails1) + i, side
    return None


def _block_difference(q1, a1, tails1, q2, a2, tails2):
    """(i, side) at a block's first wall a + tails[i] where the systems part."""
    for i, (t1, t2) in enumerate(zip(tails1, tails2)):
        v1, v2 = a1 + t1, a2 + t2
        if not v1 % q1 or not v2 % q2 or v1 // q1 != v2 // q2:
            return i, 1 if not v1 % q1 else 2 if not v2 % q2 else 0
    return None


def _act_vector(row, k, s, q):
    """A canonical row over q after k Hecke steps and then, when s == -1, the dual.
    k steps rotate (a_1, ..., a_r) to (a_{k+1}, ..., a_r, q + a_1, ..., q + a_k) and shift
    it by a_{k+1}; k counts modulo r. The dual of a canonical b is b_r - reversed(b). Both
    keep the group the entries generate with q, so an acted system keeps q, reduced."""
    k %= len(row)
    if k:
        base = row[k]
        row = [v - base for v in row[k:]] + [q + v - base for v in row[:k]]
    if s == -1:
        row = [row[-1] - v for v in reversed(row)]
    return row


def hecke_weights(w, x):
    """One elementary modification step at x:
    (0, a2, ..., ar) -> (0, a3 - a2, ..., ar - a2, 1 - a2)."""
    acted = tuple(_act_vector(w.rows[w._index(x)], 1, 1, w.q))
    rows = tuple(acted if name == x else row for name, row in zip(w.point_names, w.rows))
    return WeightSystem._of_rows(w.point_names, w.q, rows, w.rank)


def dual_weights(w):
    """Reverse and reflect every vector: canonical form of (1 - ar, ..., 1 - a1)."""
    rows = tuple(tuple(_act_vector(row, 0, -1, w.q)) for row in w.rows)
    return WeightSystem._of_rows(w.point_names, w.q, rows, w.rank)
