"""Canonical full-flag weight systems and the wall-and-chamber calculus.

A weight system holds, per marked point, a strictly increasing vector of r
rationals in [0, 1) whose first entry is 0. Chambers are identified by the
floor vector of all wall values, enumerated in a fixed lexicographic order:
subrank r' from 1 to r-1, then per-point index subsets lexicographically,
with the last point varying fastest.

Walls are computed on integers (see _Walls). Per subrank, the wall with
index j * len(tails) + i is heads[j] + tails[i]: sums over the first half
of the points and over the rest. A block of walls sharing a head is compared
in one step; genericity meets in the middle (Horowitz & Sahni, 1974).
"""

import itertools
import math
from fractions import Fraction
from operator import itemgetter

from .errors import EnumerationCapExceeded, NotGeneric, ShapeMismatch, UnknownPoint
from .picard import DEFAULT_ENUM_CAP, frac_to_str

WALL_ORDER_HEADER = (
    "wall order: subrank r' = 1..r-1, per-point index subsets of size r' "
    "in lexicographic order, last point fastest"
)


class WeightSystem:
    """Canonical per-point weight vectors; immutable."""

    __slots__ = ("rank", "entries", "point_names", "_walls")

    def __init__(self, entries, rank=None):
        if hasattr(entries, "items"):
            entries = entries.items()
        entries = tuple((name, tuple(Fraction(v) for v in vec)) for name, vec in entries)
        for name, vec in entries:
            if not vec:
                raise ShapeMismatch(f"empty weight vector at {name!r}")
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
        self.point_names = tuple(name for name, _ in entries)
        self.rank = rank
        self._walls = None

    @classmethod
    def _trusted(cls, entries, rank):
        """From canonical entries, with nothing converted or checked."""
        self = object.__new__(cls)
        self.entries, self.rank, self._walls = entries, rank, None
        self.point_names = tuple(name for name, _ in entries)
        return self

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
        self.floors = tuple(map(int, floors))

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
    """A weight system's walls times q, the lcm of its denominators: per
    subrank, built on first use, each point's _wall_row and the tails."""

    __slots__ = ("q", "ints", "rank", "_rows", "_tails")

    def __init__(self, w):
        self.q = q = math.lcm(*(v.denominator for _, vec in w.entries for v in vec))
        self.ints = [[v.numerator * (q // v.denominator) for v in vec] for _, vec in w.entries]
        self.rank, self._rows, self._tails = w.rank, {}, {}

    def rows(self, rp):
        if rp not in self._rows:
            self._rows[rp] = [_wall_row(ints, self.rank, rp) for ints in self.ints]
        return self._rows[rp]

    def halves(self):
        """Per subrank, (head rows, tails): the rows of the first n // 2
        points, and the _sums of the others; heads are the head rows' _sums."""
        h = len(self.ints) // 2
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
    value = Fraction(sum(row[d] for row, d in zip(_walls(w).rows(rp), digits)), _walls(w).q)
    return WallDatum(rp, zip(w.point_names, (subsets[d] for d in digits)), value)


def _wall_at(w, rp, index):
    """The index-th wall of subrank rp: a mixed-radix decode, last point fastest."""
    base, n = math.comb(w.rank, rp), len(w.entries)
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
    if not w.entries:
        return True, None
    walls = _walls(w)
    q, h = walls.q, len(w.entries) // 2
    for rp in range(1, w.rank):
        rows = walls.rows(rp)
        tails = _least_paths(rows[h:], q)
        for res, path in _least_paths(rows[:h], q).items():
            tail = tails.get(-res % q)
            if tail is not None:
                return False, _wall(w, rp, path + tail)
    return True, None


def chamber_fingerprint(w, cap=DEFAULT_ENUM_CAP):
    if not w.entries:
        return ChamberFingerprint(())
    count = _wall_count(w)
    if count > cap:
        raise EnumerationCapExceeded(count, cap, "walls")
    q, floors = _walls(w).q, []
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
    if w1.point_names != w2.point_names or w1.rank != w2.rank:
        if w1.point_names == w2.point_names == ():
            return True
        raise ShapeMismatch("weight systems live on different point sets or ranks")
    if not w1.entries:
        return True
    count = _wall_count(w1)
    if count > cap:
        raise EnumerationCapExceeded(count, cap, "walls")
    walls1, walls2 = _walls(w1), _walls(w2)
    hit = _first_wall_difference(walls1.q, walls1.halves(), walls2.q, walls2.halves())
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
