"""Canonical full-flag weight systems and the wall-and-chamber calculus.

A weight system holds, per marked point, a strictly increasing vector of r
rationals in [0, 1) whose first entry is 0, as integers over one denominator
(see WeightSystem). Chambers are identified by the floor vector of all wall
values, enumerated in a fixed lexicographic order: subrank r' from 1 to r-1,
then per-point index subsets lexicographically, last point fastest.

Walls come in complementary pairs. The quotient E/F of a rank-r' subbundle
F has rank r - r' and lies on F's wall with the opposite sign: the
complement of the k-th size-r' index subset, in lexicographic order, is the
(C - 1 - k)-th size-(r - r') subset, C = comb(r, r'), so wall j of subrank
r - r' is minus wall C^n - 1 - j of subrank r'. A wall is integral exactly
when its partner is, and for a non-integral x, floor(-x) = -1 - floor(x):
two systems part at a wall exactly when they part at its partner. Every
wall decision therefore reads subranks 1..r // 2 only, which come first in
wall order, and the fingerprint mirrors the other blocks.

Walls are computed on the same integers (see _Walls). Per subrank, the wall
with index j * len(tails) + i is heads[j] + tails[i]: sums over the first
half of the points and over the rest. Genericity meets in the middle
(Horowitz & Sahni, 1974). Two systems are compared a block of walls sharing
a head at a time: a block whose walls all lie nearer each other than the
first system's walls lie to an integer passes on one bisect over the
tails' residues (see _first_wall_difference); the others are checked
exactly.
"""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter, lt

from .errors import NotGeneric, ShapeMismatch, UnknownPoint, charge
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
        """Per-point (numerator, denominator) pairs as rows over their lcm q, checked;
        each point name at most once."""
        q = math.lcm(*{d for pairs in ratios for _, d in pairs})
        rows = [tuple([n * (q // d) for n, d in pairs]) for pairs in ratios]
        seen = set()
        for name, row in zip(names, rows):
            if name in seen:
                raise ShapeMismatch(f"point {name!r} is given more than once")
            seen.add(name)
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
    """Sum of comb(r, r')^n over r' = 1..r-1, each binomial from the last."""
    n, c, count = len(w.rows), 1, 0
    for rp in range(1, w.rank):
        c = c * (w.rank - rp + 1) // rp
        count += c**n
    return count if n else 0


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
    each point's _wall_row and the tails. Only subranks up to r // 2 are
    ever built for a wall decision: the walls of subrank r - r' are those of
    r' negated, in reverse order (see the module docstring)."""

    __slots__ = ("points", "rank", "_rows", "_tails")

    def __init__(self, w):
        self.points, self.rank, self._rows, self._tails = w.rows, w.rank, {}, {}

    def rows(self, rp):
        if rp not in self._rows:
            self._rows[rp] = [_wall_row(row, self.rank, rp) for row in self.points]
        return self._rows[rp]

    def halves(self):
        """Per subrank r' = 1..r // 2, (head rows, tails): the rows of the
        first n // 2 points, and the _sums of the others; heads are the head
        rows' _sums. Two systems part at a wall of a higher subrank exactly
        when they part at its partner, which comes earlier in wall order."""
        h = len(self.points) // 2
        for rp in range(1, self.rank // 2 + 1):
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

    Per subrank, the first head residue of _least_paths whose complement a
    tail reaches gives the first integral wall in wall order, the witness.
    Only subranks up to r // 2 are searched: a wall of subrank r - r' is
    integral exactly when its partner of subrank r' is, and that partner
    comes first in wall order.

    Before any table is built, the sum over those subranks of
    n * c * min(q, c^e) is charged against max(cap, DEFAULT_ENUM_CAP): n
    points, c entries in a point's wall row, e = n - n // 2 - 1. It bounds
    the entries of _Walls.rows and the residue steps of _least_paths on
    both halves, and stays within the larger of the wall count and 40, so
    whatever walls cap admits is answered; cap=1 keeps the default budget.
    """
    if not w.rows:
        return True, None
    q, n, r = w.q, len(w.rows), w.rank
    h, e, steps, c = n // 2, n - n // 2 - 1, 0, 1
    for rp in range(1, r // 2 + 1):
        c = c * (r - rp + 1) // rp
        steps += c * min(q, c**e)
    charge(n * steps, max(cap, DEFAULT_ENUM_CAP), "residue steps")
    for rp in range(1, r // 2 + 1):
        rows = _walls(w).rows(rp)
        tails = _least_paths(rows[h:], q)
        for res, path in _least_paths(rows[:h], q).items():
            tail = tails.get(-res % q)
            if tail is not None:
                return False, _wall(w, rp, path + tail)
    return True, None


def chamber_fingerprint(w, cap=DEFAULT_ENUM_CAP):
    """The floors of every wall, or NotGeneric at the first integral wall.
    The blocks of subranks 1..r // 2 are computed; the block of each higher
    subrank r - r' is that of r' reversed, each floor f as -1 - f."""
    if not w.rows:
        return ChamberFingerprint(())
    charge(_wall_count(w), cap, "walls")
    q, blocks = w.q, []
    for rp, (rows, tails) in enumerate(_walls(w).halves(), 1):
        residues = {t % q for t in tails}
        floors = []
        for j, a in enumerate(_sums(rows)):
            if -a % q in residues:
                i = next(i for i, t in enumerate(tails) if not (a + t) % q)
                raise NotGeneric(_wall_at(w, rp, j * len(tails) + i))
            floors += [(a + t) // q for t in tails]
        blocks.append(floors)
    for rp in range(len(blocks) + 1, w.rank):
        blocks.append([-1 - f for f in reversed(blocks[w.rank - rp - 1])])
    return ChamberFingerprint(itertools.chain.from_iterable(blocks))


def same_chamber(w1, w2, cap=DEFAULT_ENUM_CAP):
    """Lazy floor-by-floor comparison; aborts at the first differing wall.

    At each wall, an integral value of w1 and then of w2 raises NotGeneric
    before the floors are compared.
    """
    if w1.point_names == w2.point_names == ():
        return True
    if w1.point_names != w2.point_names or w1.rank != w2.rank:
        raise ShapeMismatch("weight systems live on different point sets or ranks")
    charge(_wall_count(w1), cap, "walls")
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
    floors differ; None when every floor agrees. The halves stop at subrank
    r // 2, and the answer is still exact over all walls: a wall of subrank
    r - r' is integral exactly when its partner of subrank r' is, and its
    floors differ exactly when its partner's do (floor(-x) = -1 - floor(x)
    for a non-integral x), so the first difference is never past r // 2.

    Block 0, where most differing systems part, is scanned wall by wall.
    A later block with heads a1, a2 has walls x_i = (a1 + t1[i]) / q1 and
    y_i = (a2 + t2[i]) / q2. When every x_i is farther from the integers
    than |y_i - x_i|, each y_i lies in the open unit interval that holds
    x_i: no wall is integral and every floor agrees, which is what a scan
    would find, so the block passes whole. Any other block gets the exact
    check of _block_difference. The screen is integer and costs one
    bisect: q1 times the distance of the nearest x_i to an integer is the
    ring distance from -a1 mod q1 to the tails' residues mod q1, and
    q1 * q2 * (y_i - x_i) = s + m_i with s = a2 * q1 - a1 * q2 and
    m_i = t2[i] * q1 - t1[i] * q2, largest in size at the least or the
    greatest m_i. Its tables are built only once block 0 passes."""
    for rp, ((rows1, tails1), (rows2, tails2)) in enumerate(zip(halves1, halves2), 1):
        a1, a2 = sum(map(itemgetter(0), rows1)), sum(map(itemgetter(0), rows2))
        hit = _block_difference(q1, a1, tails1, q2, a2, tails2)
        if hit is not None:
            return rp, *hit
        if not rows1:
            continue
        residues = {t % q1 for t in tails1}, {t % q2 for t in tails2}
        # the residues mod q1 in order, each end repeated one turn away
        ring = sorted(residues[0])
        ring = [ring[-1] - q1, *ring, ring[0] + q1]
        moves = [t2 * q1 - t1 * q2 for t1, t2 in zip(tails1, tails2)]
        low, high = min(moves), max(moves)
        heads = zip(_sums(rows1), _sums(rows2))
        next(heads)
        for j, (a1, a2) in enumerate(heads, 1):
            c = -a1 % q1
            k = bisect_left(ring, c)
            up, down = ring[k] - c, c - ring[k - 1]
            near = (up if up < down else down) * q2
            if -near - low < a2 * q1 - a1 * q2 < near - high:
                continue
            hit = _block_difference(q1, a1, tails1, q2, a2, tails2, residues)
            if hit is not None:
                return rp, j * len(tails1) + hit[0], hit[1]
    return None


def _block_difference(q1, a1, tails1, q2, a2, tails2, residues=None):
    """(i, side) at a block's first wall a + tails[i] where the systems
    part, or None. Given the residue sets of both tails, the block is first
    tested whole: no tail reaches its head's complement and the floor lists
    agree."""
    if residues is not None:
        res1, res2 = residues
        if (-a1 % q1 not in res1 and -a2 % q2 not in res2
                and [(a1 + t) // q1 for t in tails1] == [(a2 + t) // q2 for t in tails2]):
            return None
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
