"""Checks computed apart from the program, in exact integer arithmetic.

Nothing here imports partrans. A model is read from its JSON document; a
torsion class is an integer degree plus a vector of integer numerators
over one common denominator D per model, reduced mod D; a weight system
is a vector of integer numerators per point over one denominator Q.
The closed forms are the definitions stated in the program's docs:

- degree action      s * (r * deg L + d - |H|)
- determinant action sigma-pullback of (L^r (x) xi(-H))^s, where the
  pullback is (deg, j) -> (deg, M j + deg * t)
- weight action      Hecke steps, optional dualization, then relabeling
- wall values        r' * sum(all weights) - r * sum(selected weights)
- composition        the tuple (sigma, s, L, H) is Sigma_sigma D^s T_L H_H;
  the composite moves the right factor's Sigma and D outward through the
  left factor's T and H (see Curve.compose)

Every check raises Mismatch with a one-line reason.
"""

import itertools
import math
from fractions import Fraction


# wall count up to which generic_verdict enumerates; the residue DP above it
ORACLE_ENUM_LIMIT = 60000


class Mismatch(Exception):
    """A program result disagrees with the independent computation."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def _lcm(values):
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def identity_matrix(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _is_zero(m):
    return not any(any(row) for row in m)


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_vec(m, v):
    return [sum(a * x for a, x in zip(row, v)) for row in m]


def _inverse_unimodular(m):
    """Integer inverse of a matrix of determinant +-1, by Gauss-Jordan
    elimination over the rationals."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    out = [row[n:] for row in aug]
    expect(all(x.denominator == 1 for row in out for x in row), "matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


class Curve:
    """Oracle view of a model document."""

    def __init__(self, doc, extra_dens=(12,)):
        self.genus = doc["genus"]
        self.rank = doc["rank"]
        self.dim = 2 * self.genus
        self.degree = doc.get("degree", 0)
        self.names = [p["name"] for p in doc["points"]]
        raw_autos = doc.get("automorphisms") or [
            {"name": "id", "perm": {}, "translation": ["0"] * self.dim}
        ]
        dens = [Fraction(x).denominator for p in doc["points"] for x in p["jac"]]
        dens += [Fraction(x).denominator for a in raw_autos for x in a.get("translation", [])]
        self.D = _lcm(dens + list(extra_dens)) * self.rank
        self.pts = {p["name"]: self.vec(p["jac"]) for p in doc["points"]}
        ident = identity_matrix(self.dim)
        self.autos = {}
        for a in raw_autos:
            perm = {x: a.get("perm", {}).get(x, x) for x in self.names}
            mat = [list(map(int, row)) for row in a.get("matrix") or ident]
            trans = self.vec(a.get("translation") or ["0"] * self.dim)
            self.autos[a["name"]] = (perm, mat, trans)
        self.auto_order = [a["name"] for a in raw_autos]
        self._auto_by_data = {self._auto_key(*v): k for k, v in self.autos.items()}
        self.id_name = self._auto_by_data[self._auto_key({}, ident, (0,) * self.dim)]
        self.identity = (self.id_name, 1, (0, (0,) * self.dim), {})
        self.ext_identity = ([[0] * self.dim for _ in range(self.dim)], self.identity)

    def _auto_key(self, perm, mat, trans):
        return (tuple(perm.get(x, x) for x in self.names), tuple(map(tuple, mat)), tuple(trans))

    def vec(self, coords):
        """Fractions (or their strings) to numerators over D, reduced."""
        out = []
        for c in coords:
            f = Fraction(c)
            if self.D % f.denominator:
                raise Mismatch(f"coordinate {f} is not in the 1/{self.D} lattice")
            out.append(f.numerator * (self.D // f.denominator) % self.D)
        return tuple(out)

    def cls(self, deg, coords):
        return (int(deg), self.vec(coords))

    def frac_vec(self, v):
        return [Fraction(x, self.D) for x in v]

    # -- the closed forms ------------------------------------------------

    def pullback(self, sigma, c):
        _, mat, trans = self.autos[sigma]
        deg, v = c
        return (deg, tuple(
            (sum(a * x for a, x in zip(row, v)) + deg * t) % self.D
            for row, t in zip(mat, trans)
        ))

    def divisor_class(self, mult):
        deg = sum(mult.values())
        v = [0] * self.dim
        for x, k in mult.items():
            for i, c in enumerate(self.pts[x]):
                v[i] += k * c
        return (deg, tuple(c % self.D for c in v))

    def combine(self, terms):
        deg = 0
        v = [0] * self.dim
        for (d, w), k in terms:
            deg += k * d
            for i, c in enumerate(w):
                v[i] += k * c
        return (deg, tuple(c % self.D for c in v))

    # -- the table and the group law --------------------------------------

    def compose_autos(self, outer, inner):
        """Table entry of Sigma_outer o Sigma_inner: the point map applies
        outer's permutation first, the pullback is outer's after inner's."""
        po, mo, to = self.autos[outer]
        pi, mi, ti = self.autos[inner]
        perm = {x: pi[po[x]] for x in self.names}
        trans = [(a + b) % self.D for a, b in zip(mat_vec(mo, ti), to)]
        key = self._auto_key(perm, mat_mul(mo, mi), trans)
        expect(key in self._auto_by_data, f"table is not closed: {outer} after {inner}")
        return self._auto_by_data[key]

    def inverse_auto(self, name):
        return next(b for b in self.auto_order if self.compose_autos(name, b) == self.id_name)

    def canonical(self, t):
        """Hecke multiplicities reduced into 0..r-1 by H_x^r = T_O(-x)."""
        sigma, s, line, hecke = t
        r = self.rank
        floors = {x: k // r for x, k in hecke.items()}
        line = self.combine([(line, 1), (self.divisor_class(floors), -1)])
        return (sigma, s, line, {x: k % r for x, k in hecke.items() if k % r})

    def compose(self, t1, t2):
        """Canonical tuple of t1 after t2. The right factor's Sigma and D
        move outward through the left factor's T and H:
        T_L Sigma = Sigma T_(sigma^-1 pullback of L), H_h Sigma = Sigma H_(sigma(h)),
        T_L D = D T_(-L), H_h D = T_(-P) D H_(r - h) with P the support of h;
        then T and H commute and merge, and H_x^r = T_O(-x)."""
        sigma1, s1, line1, h1 = t1
        sigma2, s2, line2, h2 = t2
        perm = self.autos[sigma2][0]
        line = self.pullback(self.inverse_auto(sigma2), line1)
        hecke = {perm[x]: k for x, k in h1.items()}
        if s2 == -1:
            support = self.divisor_class({x: 1 for x in hecke})
            line = self.combine([(support, 1), (line, -1)])
            hecke = {x: self.rank - k for x, k in hecke.items()}
        for x, k in h2.items():
            hecke[x] = hecke.get(x, 0) + k
        return self.canonical((self.compose_autos(sigma1, sigma2), s1 * s2,
                               self.combine([(line, 1), (line2, 1)]), hecke))

    def compose_all(self, seq):
        """Canonical tuple of a word of (not necessarily canonical) tuples,
        the left factor acting last."""
        out = self.identity
        for t in seq:
            out = self.compose(out, self.canonical(t))
        return out

    def compose_ext(self, e1, e2, ref):
        """(tilde, tuple) of e1 after e2, Jacobian parts outermost, over the
        reference determinant ref. e2's Jacobian part M2 is conjugated
        through e1's automorphism, Mc = M_sigma1 M2 M_sigma1^-1; pushing it
        through t1 leaves the degree-zero tensor (I + r Mc)^-1 Mc (ref - t1(ref))
        inside, and the Jacobian parts compose as M1 + Mc + r M1 Mc."""
        m1, t1 = e1
        m2, t2 = e2
        if _is_zero(m2):
            return m1, self.compose(t1, t2)
        ms = self.autos[t1[0]][1]
        mc = mat_mul(mat_mul(ms, m2), self.autos[self.inverse_auto(t1[0])][1])
        moved = self.act_det(t1, ref)
        expect(moved[0] == ref[0], "extended composition through a degree-moving part")
        corr = mat_vec(mc, [a - b for a, b in zip(ref[1], moved[1])])
        full = [[int(i == j) + self.rank * x for j, x in enumerate(row)] for i, row in enumerate(mc)]
        inside = (0, tuple(x % self.D for x in mat_vec(_inverse_unimodular(full), corr)))
        m1mc = mat_mul(m1, mc)
        m = [[a + b + self.rank * c for a, b, c in zip(*rows)] for rows in zip(m1, mc, m1mc)]
        return m, self.compose((self.id_name, 1, inside, {}), self.compose(t1, t2))

    # -- the actions -------------------------------------------------------

    def act_degree(self, t, d):
        sigma, s, line, hecke = t
        return s * (self.rank * line[0] + d - sum(hecke.values()))

    def act_det(self, t, xi):
        sigma, s, line, hecke = t
        inner = self.combine([(line, self.rank), (xi, 1), (self.divisor_class(hecke), -1)])
        if s == -1:
            inner = self.combine([(inner, -1)])
        return self.pullback(sigma, inner)

    def act_weights(self, t, w):
        """w = (Q, {name: numerators}); same shape out."""
        sigma, s, _, hecke = t
        q, vecs = w
        out = dict(vecs)
        for x, k in hecke.items():
            vec = out[x]
            for _ in range(k):
                shifted = vec[1:] + (vec[0] + q,)
                vec = tuple(a - shifted[0] for a in shifted)
            out[x] = vec
        if s == -1:
            out = {x: tuple(vec[-1] - a for a in reversed(vec)) for x, vec in out.items()}
        perm = self.autos[sigma][0]
        return (q, {y: out[perm[y]] for y in vecs})

    def twist(self, tilde, ref, det):
        """Jacobian part id + r*tilde on a determinant of the reference
        degree: det + r * tilde(det - ref)."""
        if not any(any(row) for row in tilde):
            return det
        expect(det[0] == ref[0], "extended action on a class of another degree")
        delta = [(a - b) % self.D for a, b in zip(det[1], ref[1])]
        tw = [sum(m * x for m, x in zip(row, delta)) for row in tilde]
        return (det[0], tuple((a + self.rank * b) % self.D for a, b in zip(det[1], tw)))

    def act_ext(self, tilde, basic, ref, inv):
        """inv = (det, weights); the basic part first, then the twist."""
        det, w = inv
        return (self.twist(tilde, ref, self.act_det(basic, det)), self.act_weights(basic, w))

    # -- sectors ---------------------------------------------------------

    def sectors(self, d):
        """Admissible (sigma, s, H, L degree) in table, sign, Hecke-lex order."""
        r = self.rank
        out = []
        for sigma in self.auto_order:
            for s in (1, -1):
                for mults in itertools.product(range(r), repeat=len(self.names)):
                    num = s * d - d + sum(mults)
                    if num % r == 0:
                        hecke = {x: k for x, k in zip(self.names, mults) if k}
                        out.append((sigma, s, hecke, num // r))
        return out


# -- reading program objects ----------------------------------------------


def tuple_of(curve, t):
    """Oracle tuple of a program BasicTransformation, checking it is canonical."""
    expect(t.sigma in curve.autos, f"unknown sigma {t.sigma!r}")
    expect(t.s in (1, -1), f"sign {t.s!r}")
    hecke = dict(t.hecke.mult)
    for x, k in hecke.items():
        expect(x in curve.pts and 1 <= k <= curve.rank - 1, f"Hecke entry {x}:{k} out of range")
    return (t.sigma, t.s, curve.cls(t.line.degree, t.line.jac.coords), hecke)


def tuple_of_json(curve, obj):
    """Oracle tuple of a tuple's JSON form (the CLI's "element")."""
    expect(obj["sigma"] in curve.autos, f"unknown sigma {obj['sigma']!r}")
    expect(obj["s"] in (1, -1), f"sign {obj['s']!r}")
    for x, k in obj["hecke"].items():
        expect(x in curve.pts and 1 <= k <= curve.rank - 1, f"Hecke entry {x}:{k} out of range")
    line = obj["line"]
    return (obj["sigma"], obj["s"], curve.cls(line["degree"], line["jac"]), dict(obj["hecke"]))


def class_of(curve, c):
    return curve.cls(c.degree, c.jac.coords)


def class_of_json(curve, obj):
    return curve.cls(obj["degree"], obj["jac"])


def weights_of_program(w, q):
    """(Q, {name: numerators}) of a program WeightSystem over denominator Q."""
    out = {}
    for x, vec in w.entries:
        scaled = [v * q for v in vec]
        expect(all(v.denominator == 1 for v in scaled), f"weight at {x} outside the 1/{q} lattice")
        out[x] = tuple(int(v) for v in scaled)
    return (q, out)


# -- walls -----------------------------------------------------------------


def wform(w):
    """{name: fractions} -> (Q, {name: numerators}), the oracle's one form
    of a weight system: every weight over the common denominator Q."""
    q = _lcm(Fraction(v).denominator for vec in w.values() for v in vec)
    return (q, {x: tuple(int(Fraction(v) * q) for v in vec) for x, vec in w.items()})


def _rank(vecs):
    return len(next(iter(vecs.values())))


def wall_count(w):
    _, vecs = w
    r = _rank(vecs)
    return sum(math.comb(r, rp) ** len(vecs) for rp in range(1, r))


def _contribs(vecs, rp):
    r = _rank(vecs)
    subsets = list(itertools.combinations(range(r), rp))
    return [[r * sum(vec[i] for i in sub) for sub in subsets] for vec in vecs.values()]


def wall_values(w):
    """Scaled wall values Q * value, in the program's wall order."""
    _, vecs = w
    total = sum(sum(vec) for vec in vecs.values())
    for rp in range(1, _rank(vecs)):
        base = rp * total
        for cs in itertools.product(*_contribs(vecs, rp)):
            yield base - sum(cs)


def _residues_hit(w):
    """Whether some wall value is integral, by residue reachability."""
    q, vecs = w
    total = sum(sum(vec) for vec in vecs.values())
    for rp in range(1, _rank(vecs)):
        reach = {0}
        for contrib in _contribs(vecs, rp):
            cs = {c % q for c in contrib}
            reach = {(a + c) % q for a in reach for c in cs}
        if (rp * total) % q in reach:
            return True
    return False


def generic_verdict(w):
    if wall_count(w) <= ORACLE_ENUM_LIMIT:
        return all(v % w[0] for v in wall_values(w))
    return not _residues_hit(w)


def floors(w):
    q = w[0]
    out = []
    for v in wall_values(w):
        expect(v % q, "integral wall in a system the program fingerprinted")
        out.append(v // q)
    return out


def same_chamber(w1, w2):
    """Floor-by-floor comparison, stopping at the first difference."""
    q1, q2 = w1[0], w2[0]
    for v1, v2 in zip(wall_values(w1), wall_values(w2)):
        if v1 // q1 != v2 // q2:
            return False
    return True


def check_wall(w, subrank, subsets, value):
    """A reported wall is a wall of w, in point order, and its value is
    integral and equal to the reported one."""
    q, vecs = w
    r = _rank(vecs)
    expect(1 <= subrank <= r - 1, f"wall subrank {subrank}")
    subsets = [(x, tuple(sub)) for x, sub in subsets]
    expect([x for x, _ in subsets] == list(vecs), "wall does not name every point in order")
    total = sum(sum(vec) for vec in vecs.values())
    sel = 0
    for vec, (_, sub) in zip(vecs.values(), subsets):
        expect(len(sub) == subrank and len(set(sub)) == len(sub), "wall subset size")
        expect(all(1 <= i <= r for i in sub), "wall index out of range")
        sel += sum(vec[i - 1] for i in sub)
    scaled = subrank * total - r * sel
    expect(scaled % q == 0, "witness wall is not integral")
    expect(Fraction(scaled, q) == Fraction(value), "witness wall value")
