"""The group of basic transformations and its actions.

An element is the canonical tuple (sigma, s, L, H) realizing the operator
Sigma_sigma o D^s o T_L o H_H, applied innermost first. The group law is a
fold: a product is the canonical tuple right-multiplied by one generator
at a time, each in closed form (the merge of neighbours of one kind, or
the move of a generator left past the factors of larger kind), so a word
of n generators takes exactly n steps.

The stabilizers run over the Hecke sectors: _degree_sectors is the one
loop over (automorphism, sign, Hecke tuple) for the listings, and
_chamber_sectors keeps the sectors of the chamber of a generic weight
system alpha without it, on integers. Like the paper's stabilizer of
(d, alpha), it is defined only for alpha a parabolic weight at every
marked point: alpha on any other point set is refused with the
ShapeMismatch ModuliDescriptor raises. A representative that keeps
alpha's chamber permutes the walls so as to keep alpha's lifted floors
(each subrank-1 floor plus its digit sum), reflected as n(r - 1) - 1 - v
by the dual. A sector's Hecke tuples send a pivot wall to distinct walls,
so only the tuples that send it into the level of the least lifted floor
are candidates, and same_chamber decides each (see _chamber_sectors).
"""

from .errors import (
    HeckeOutOfRange,
    NotGeneric,
    ShapeMismatch,
    UnknownPoint,
    charge,
)
from .picard import (
    DEFAULT_ENUM_CAP,
    JacobianElement,
    LineBundleClass,
    add_nums,
    affine_nums,
    lincomb,
    pullback,
)
from .weights import (
    WeightSystem,
    _act_vector,
    _sums,
    _wall_count,
    _walls,
    is_generic,
    same_chamber,
)

import itertools
import math
from bisect import bisect_left
from functools import partial


class Divisor:
    """Integer multiplicities on the marked points; zero entries dropped."""

    __slots__ = ("mult",)

    def __init__(self, mult=None):
        d = {}
        for k, v in dict(mult or {}).items():
            v = int(v)
            if v:
                d[k] = v
        self.mult = d

    def items(self):
        return self.mult.items()

    def get(self, name):
        return self.mult.get(name, 0)

    def support(self):
        return tuple(self.mult)

    def degree(self):
        return sum(self.mult.values())

    def is_zero(self):
        return not self.mult

    def __add__(self, other):
        out = dict(self.mult)
        for k, v in other.mult.items():
            out[k] = out.get(k, 0) + v
        return Divisor(out)

    def __neg__(self):
        return Divisor({k: -v for k, v in self.mult.items()})

    def scale(self, n):
        return Divisor({k: n * v for k, v in self.mult.items()})

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.mult == other.mult

    def __hash__(self):
        return hash(frozenset(self.mult.items()))

    def to_json(self):
        return {k: self.mult[k] for k in sorted(self.mult)}

    def __repr__(self):
        if not self.mult:
            return "Divisor(0)"
        return "Divisor(%s)" % " + ".join(f"{v}*{k}" for k, v in sorted(self.mult.items()))


class BasicTransformation:
    """Canonical tuple (sigma, s, line, hecke) over a fixed model."""

    __slots__ = ("model", "sigma", "s", "line", "hecke")

    def __init__(self, model, sigma, s, line, hecke):
        self.model = model
        self.sigma = sigma
        self.s = s
        self.line = line
        self.hecke = hecke

    def is_identity(self):
        return (
            self.sigma == self.model.identity_name
            and self.s == 1
            and self.line.is_trivial()
            and self.hecke.is_zero()
        )

    def __eq__(self, other):
        return (
            isinstance(other, BasicTransformation)
            and self.sigma == other.sigma
            and self.s == other.s
            and self.line == other.line
            and self.hecke == other.hecke
        )

    def __hash__(self):
        return hash((self.sigma, self.s, self.line, self.hecke))

    def __mul__(self, other):
        return compose(self, other)

    def __repr__(self):
        return f"BasicTransformation({describe(self)!r})"

    def to_json(self):
        return {
            "sigma": self.sigma,
            "s": self.s,
            "line": self.line.to_json(),
            "hecke": self.hecke.to_json(),
        }


class ParabolicInvariant:
    """Discrete shadow (rank, determinant class, weights) of a parabolic bundle.

    The label is provenance only and is ignored by equality. The actions
    pass it as (previous invariant, note), written on first read as the
    previous label, "|" and note().
    """

    __slots__ = ("rank", "det", "weights", "_label")

    def __init__(self, rank, det, weights, label=""):
        if weights.rank is not None and weights.rank != rank:
            raise ShapeMismatch(f"weights have rank {weights.rank}, invariant has rank {rank}")
        self.rank = rank
        self.det = det
        self.weights = weights
        self._label = label

    @property
    def label(self):
        if isinstance(self._label, tuple):
            v, note = self._label
            note = note()
            self._label = v.label + "|" + note if v.label else note
        return self._label

    def __eq__(self, other):
        return (
            isinstance(other, ParabolicInvariant)
            and self.rank == other.rank
            and self.det == other.det
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.rank, self.det, self.weights))

    def to_json(self):
        return {
            "rank": self.rank,
            "det": self.det.to_json(),
            "weights": self.weights.to_json(),
            "label": self.label,
        }

    def __repr__(self):
        return f"ParabolicInvariant(rank={self.rank}, det={self.det!r}, weights={self.weights!r})"


def _divisor_text(model, mult):
    """Multiplicities in the model's point order, as 1*p + 2*q - 1*x."""
    parts = []
    for name in model.point_names:
        c = mult.get(name, 0)
        if not c:
            continue
        if not parts:
            parts.append(f"{c}*{name}")
        elif c > 0:
            parts.append(f"+ {c}*{name}")
        else:
            parts.append(f"- {-c}*{name}")
    return " ".join(parts)


def _coordinate_text(line):
    return f"T({line.degree}, [{', '.join(line.jac.texts())}])"


def describe(t, line_text=_coordinate_text):
    """Canonical text of a tuple, its atoms in S D T H order; line_text
    writes a nontrivial line part, by default as its coordinates."""
    parts = []
    if t.sigma != t.model.identity_name:
        parts.append(f"S({t.sigma})")
    if t.s == -1:
        parts.append("D-")
    if not t.line.is_trivial():
        parts.append(line_text(t.line))
    if not t.hecke.is_zero():
        parts.append(f"H({_divisor_text(t.model, t.hecke.mult)})")
    return " * ".join(parts) or "id"


def make_basic(sigma, s, line, hecke, model):
    """Validated tuple constructor."""
    model.automorphism(sigma)  # raises UnknownAutomorphism
    if s not in (1, -1):
        raise ShapeMismatch(f"s must be +1 or -1, got {s!r}")
    if not isinstance(line, LineBundleClass):
        raise ShapeMismatch("line part must be a LineBundleClass")
    if len(line.jac) != 2 * model.genus:
        raise ShapeMismatch(
            f"line coordinate length {len(line.jac)} does not match 2g = {2 * model.genus}"
        )
    if not isinstance(hecke, Divisor):
        hecke = Divisor(hecke)
    for name, mult in hecke.items():
        model.point(name)
        if not 0 <= mult <= model.rank - 1:
            raise HeckeOutOfRange(name, mult, model.rank)
    return BasicTransformation(model, sigma, s, line, hecke)


def identity_transform(model):
    return BasicTransformation(
        model,
        model.identity_name,
        1,
        LineBundleClass.trivial(2 * model.genus),
        Divisor(),
    )


# -- the group law: a fold over generators ------------------------------


def _word_of(t):
    atoms = []
    if t.sigma != t.model.identity_name:
        atoms.append(("S", t.sigma))
    if t.s == -1:
        atoms.append(("D",))
    if not t.line.is_trivial():
        atoms.append(("T", t.line))
    if not t.hecke.is_zero():
        atoms.append(("H", t.hecke))
    return atoms


def _fold(model, state, atoms):
    """The canonical tuple of the product of `state` and the generator
    word `atoms`, right-multiplied one atom at a time.

    The state is (sigma, s, deg, nums, den, hecke): sigma is None when
    there is no S factor, the line L is the degree deg with numerators
    nums over den, and hecke maps points to multiplicities in [0, r). Each
    atom has a closed form, the rewrite rules of moving it left to its
    place in S D T H order:
    - T(M): L + M;
    - H(H'): H + H', each floor((H + H')(x) / r) moving into L as -[x]
      through H_x^r = T_O(-x);
    - D: s -> -s, L -> [supp H] - L, and H -> r - H on its support;
    - S(tau): sigma -> sigma tau, L -> the pullback of L by tau^-1, and
      H moved by tau's point permutation.
    So the fold takes exactly len(atoms) steps. L stays unreduced
    integers until the one reduction at the end.
    """
    sigma, s, deg, nums, den, hecke = state
    r = model.rank
    for atom in atoms:
        kind = atom[0]
        if kind == "T":
            c = atom[1]
            deg += c.degree
            nums, den = add_nums(nums, den, 1, c.jac)
        elif kind == "H":
            merged = dict(hecke)
            for x, v in atom[1].items():
                merged[x] = merged.get(x, 0) + v
            hecke = {}
            for x, v in merged.items():
                k, rem = divmod(v, r)
                if k:
                    deg -= k
                    nums, den = add_nums(nums, den, -k, model.point(x).jac_class)
                if rem:
                    hecke[x] = rem
        elif kind == "D":
            s = -s
            deg = len(hecke) - deg
            nums = [-a for a in nums]
            for x in hecke:
                nums, den = add_nums(nums, den, 1, model.point(x).jac_class)
            hecke = {x: r - v for x, v in hecke.items()}
        else:
            tau = atom[1]
            if sigma is None:
                sigma = tau
            else:
                sigma = model.compose_autos(sigma, tau)
                if sigma == model.identity_name:
                    sigma = None
            if hecke:
                perm = model.automorphism(tau).point_perm
                hecke = {perm.get(x, x): v for x, v in hecke.items()}
            if deg or any(a % den for a in nums):
                nums, den = _pullback_nums(model, model.inverse_auto(tau), nums, den, deg)
    return BasicTransformation(
        model,
        model.identity_name if sigma is None else sigma,
        s,
        LineBundleClass(deg, JacobianElement.from_nums(nums, den)),
        Divisor(hecke),
    )


def normalize_word(model, atoms):
    """The canonical tuple of an arbitrary generator word, folded from the
    identity one atom at a time (see _fold); atoms may carry out-of-range
    Hecke multiplicities. Every point an H atom names and every
    automorphism an S atom names must be the model's, whatever the
    multiplicity, else UnknownPoint or UnknownAutomorphism."""
    atoms = list(atoms)
    for atom in atoms:
        if atom[0] == "H":
            for x, _ in atom[1].items():
                model.point(x)
        elif atom[0] == "S":
            model.automorphism(atom[1])
    return _fold(model, (None, 1, 0, (0,) * (2 * model.genus), 1, {}), atoms)


def compose(t1, t2):
    """Tuple acting as t1 after t2: t2's word folded onto t1."""
    model = t1.model
    if t2.model is not model:
        raise ShapeMismatch("cannot compose transformations over different models")
    sigma = None if t1.sigma == model.identity_name else t1.sigma
    jac = t1.line.jac
    return _fold(model, (sigma, t1.s, t1.line.degree, jac.nums, jac.den, t1.hecke.mult), _word_of(t2))


def inverse(t):
    """Group inverse: T_{-L} folded with H_{-h}, D^s and S_{sigma^-1}; the
    H rule turns -h into T_O([supp h]) o H_{r - h}."""
    model = t.model
    jac = t.line.jac
    atoms = [("H", {x: -v for x, v in t.hecke.items()})]
    if t.s == -1:
        atoms.append(("D",))
    if t.sigma != model.identity_name:
        atoms.append(("S", model.inverse_auto(t.sigma)))
    return _fold(model, (None, 1, -t.line.degree, [-a for a in jac.nums], jac.den, {}), atoms)


# -- actions -------------------------------------------------------------


def act_degree(t, d):
    """s * (r * deg L + d - |H|)."""
    return t.s * (t.model.rank * t.line.degree + d - t.hecke.degree())


def act_det(t, xi):
    """sigma-pullback of (L^r tensor xi(-H))^s, as one integer pass and
    one reduction."""
    model = t.model
    deg = model.rank * t.line.degree + xi.degree
    nums, den = add_nums(xi.jac.nums, xi.jac.den, model.rank, t.line.jac)
    for x, v in t.hecke.items():
        deg -= v
        nums, den = add_nums(nums, den, -v, model.point(x).jac_class)
    if len(xi.jac) != len(t.line.jac):
        raise ShapeMismatch("mixed coordinate lengths in combination")
    if t.s == -1:
        deg = -deg
        nums = [-a for a in nums]
    nums, den = _pullback_nums(model, t.sigma, nums, den, deg)
    return LineBundleClass(deg, JacobianElement.from_nums(nums, den))


def _pullback_nums(model, name, nums, den, deg):
    """affine_nums for the named automorphism's (M, t), with no product
    when M is the identity."""
    auto = model.automorphism(name)
    if model.conjugator(name) is None:
        return add_nums(nums, den, deg, auto.translation)
    return affine_nums(auto.matrix, nums, den, auto.translation, deg)


def _weight_sources(t, points):
    """Per point y of `points` (in order), the pair (sigma(y), Hecke
    multiplicity there): the output weights at y are the processed weights
    at sigma(y). Raises UnknownPoint for the first Hecke point outside
    `points`, else for the first sigma-image outside it."""
    for x, mult in t.hecke.items():
        if mult > 0 and x not in points:
            raise UnknownPoint(x)
    perm = t.model.automorphism(t.sigma).point_perm
    sources = []
    for y in points:
        x = perm.get(y, y)
        if x not in points:
            raise UnknownPoint(x)
        sources.append((x, max(t.hecke.get(x), 0)))
    return sources


def act_weights(t, w):
    """Hecke steps at every point, optional dualization, then relabeling.

    The output weights at y are the processed weights at sigma(y), matching
    the fiber of the pullback bundle and the determinant convention. Rows
    come out canonical over w's q from weights._act_vector, so
    WeightSystem._of_rows holds them.
    """
    rows, q = dict(zip(w.point_names, w.rows)), w.q
    return WeightSystem._of_rows(
        tuple(rows),
        q,
        tuple(tuple(_act_vector(rows[x], k, t.s, q)) for x, k in _weight_sources(t, rows)),
        w.rank,
    )


def _check_weights_rank(alpha, model):
    if alpha.rank is not None and alpha.rank != model.rank:
        raise ShapeMismatch(f"weights rank {alpha.rank} does not match model rank {model.rank}")


def _check_generic_alpha(alpha, model, cap):
    """The paper's alpha: a weight at every marked point, in the model's
    order, and generic (see is_generic)."""
    if tuple(alpha.point_names) != model.point_names:
        raise ShapeMismatch("weight system points do not match the model points")
    ok, witness = is_generic(alpha, cap)
    if not ok:
        raise NotGeneric(witness)


def act_invariant(t, v):
    if v.rank != t.model.rank:
        raise ShapeMismatch(f"invariant rank {v.rank} does not match model rank {t.model.rank}")
    return ParabolicInvariant(v.rank, act_det(t, v.det), act_weights(t, v.weights), (v, partial(describe, t)))


def subgroup_membership(t, d, xi=None, alpha=None, cap=DEFAULT_ENUM_CAP):
    """Membership flags for the sign, degree, determinant and chamber
    subgroups; t is in T_alpha when it keeps alpha in its chamber."""
    flags = {
        "in_T_plus": t.s == 1,
        "in_T_d": act_degree(t, d) == d,
        "in_T_xi": None,
        "in_T_alpha": None,
    }
    if xi is not None:
        flags["in_T_xi"] = act_det(t, xi) == xi
    if alpha is not None:
        _check_weights_rank(alpha, t.model)
        flags["in_T_alpha"] = same_chamber(act_weights(t, alpha), alpha, cap)
    return flags


# -- stabilizers ---------------------------------------------------------


def _hecke_tuples(model, cap):
    """Every in-range Hecke multiplicity tuple over model.point_names, in
    lexicographic order, once its r^n tuples are charged against cap."""
    n = len(model.points)
    charge(model.rank**n, cap, "hecke sectors")
    return list(itertools.product(range(model.rank), repeat=n))


def _degree_sectors(model, d, tuples):
    """The admissible sectors (sigma, s, H) of the degree-d stabilizer, as
    (automorphism, s, group) in table order, s = 1 before s = -1. The group
    lists (index k of H in `tuples`, forced L degree, tuples[k]) in the
    order of `tuples`, and is the same list for every automorphism.

    A sector is admissible when r divides s * d - d + |H|, and the
    quotient is the L degree; that depends only on s, d and |H|, so the
    tuples of _hecke_tuples (|H| the _sums of one range(r) per point) are
    bucketed by |H| mod r once, and each sign's group is one bucket.
    """
    r = model.rank
    sizes = _sums([range(r)] * len(tuples[0]))
    buckets = [[] for _ in range(r)]
    for k, size in enumerate(sizes):
        buckets[size % r].append(k)
    groups = {s: [(k, (s * d - d + sizes[k]) // r, tuples[k]) for k in buckets[(d - s * d) % r]]
              for s in (1, -1)}
    for auto in model.automorphisms:
        for s in (1, -1):
            yield auto, s, groups[s]


def _sector_transforms(model, sectors):
    """The representative of each sector of each (automorphism, s, group)
    in `sectors`: the forced L degree with zero torsion part. Each Divisor
    is built once per tuple and each L once per degree, shared by the
    representatives that carry them."""
    names = model.point_names
    dim = 2 * model.genus
    divisors = {}
    lines = {}
    for auto, s, group in sectors:
        for k, ldeg, mults in group:
            hecke = divisors.get(k)
            if hecke is None:
                hecke = divisors[k] = Divisor(zip(names, mults))
            line = lines.get(ldeg)
            if line is None:
                line = lines[ldeg] = LineBundleClass(ldeg, JacobianElement.zero(dim))
            yield BasicTransformation(model, auto.name, s, line, hecke)


def _hecke_class_sums(model):
    """(q, sums): q is the lcm of the points' Jacobian denominators, and
    sums[k] holds the numerators over q of the torsion part of
    of_divisor(H) for the k-th tuple of _hecke_tuples. The sums are built
    point by point from the prefix sums, in the same lexicographic order."""
    jacs = [model.point(x).jac_class for x in model.point_names]
    q = math.lcm(*(j.den for j in jacs))
    sums = [(0,) * (2 * model.genus)]
    for j in jacs:
        step = [x * (q // j.den) for x in j.nums]
        sums = [
            tuple(a + m * b for a, b in zip(acc, step))
            for acc in sums
            for m in range(model.rank)
        ]
    return q, sums


def stabilizer_xi(xi, model, cap=DEFAULT_ENUM_CAP):
    """Sector report of the determinant stabilizer.

    A sector (sigma, s, H) is admissible when the forced degree of L is an
    integer; its L solutions then form a torsor under J[r] around the
    canonical r-th root of pullback_{sigma^{-1}}(xi)^s tensor xi^{-1}(H).
    The class of H is read from integer prefix sums of the points'
    numerators, the rest of the root depends only on (sigma, s), and
    the root is reduced once, as divide_by_r of the class in [0, 1).
    """
    r = model.rank
    dim = 2 * model.genus
    tuples = _hecke_tuples(model, cap)
    q, sums = _hecke_class_sums(model)
    names = model.point_names
    by_name = sorted(range(len(names)), key=names.__getitem__)  # Divisor.to_json order
    sectors = []
    for auto, s, group in _degree_sectors(model, xi.degree, tuples):
        inv = model.automorphism(model.inverse_auto(auto.name))
        jac = lincomb([(pullback(inv, xi), s), (xi, -1)]).jac
        den = math.lcm(jac.den, q)
        base = [x * (den // jac.den) for x in jac.nums]
        scale = den // q
        for k, ldeg, mults in group:
            root = JacobianElement.from_nums([(a + scale * b) % den for a, b in zip(base, sums[k])], den * r)
            sectors.append(
                {
                    "sigma": auto.name,
                    "s": s,
                    "H": {names[i]: mults[i] for i in by_name if mults[i]},
                    "L_degree": ldeg,
                    "root": root.to_json(),
                    "torsor_size": r**dim,
                }
            )
    return {"total": len(sectors) * r**dim, "sectors": sectors}


def t_d_quotient_reps(d, model, cap=DEFAULT_ENUM_CAP):
    """Representatives of the degree-d stabilizer modulo tensoring by
    degree-zero classes: one tuple per admissible (sigma, s, H) sector,
    with the forced L degree and zero torsion part."""
    return list(_sector_transforms(model, _degree_sectors(model, d, _hecke_tuples(model, cap))))


def _chamber_sectors(d, alpha, model, cap):
    """The sectors of the degree-d stabilizer that keep alpha's chamber: per
    (automorphism, s) of _degree_sectors, in order, (automorphism, s, kept),
    where kept holds the (k, L degree, tuple) of the group whose
    representative t has same_chamber(act_weights(t, alpha), alpha, cap),
    in the group's order; a line part does not act on weights. alpha is a
    parabolic weight at every marked point: alpha of another rank, alpha on
    other points than the model's (in its order), an alpha that is_generic
    finds on a wall or refuses (its budget admits every alpha whose walls
    cap admits), too many Hecke tuples and too many walls raise first, in
    that order (rank 3 at 12 points has 2 * 3^12 walls, past the default
    cap of 10^6).

    The lifted-floor rule: with rows1 alpha's subrank-1 wall rows over q
    and D a wall's digits, one per point, the lifted floor
    (sum over y of rows1[y][D_y] + q * D_y) // q is the wall's floor plus
    its digit sum. k Hecke steps turn a row at digit i into
    rows1[(i + k) % r] + q * ((i + k) % r - i), and the dual into
    -rows1[r - 1 - i]. So a tuple (sigma, s, H) that keeps the chamber
    sends every wall D to a wall E of lifted floor v (s = 1) or top - v
    (s = -1), v that of D, where E[sigma(y)] is D_y + H[sigma(y)] mod r, or
    r - 1 - D_y + H[sigma(y)] mod r, and top is n(r - 1) - 1, as no acted
    wall is integral (0 on no points, whose one empty sum is).

    Only the tuples a pivot wall admits are candidates. For a fixed
    (sigma, s), H -> E is one-to-one at any wall D0, so the tuples that
    keep the chamber send D0 into the level its image needs. That level is
    the one of the least lifted floor for both signs, listed once per call
    by meeting in the middle: per head sum, two bisects over the sorted
    tail sums. D0 is a wall of that floor (s = 1), or of top less it
    (s = -1), and when no wall has that floor no tuple of the sign keeps
    the chamber. Per automorphism, each member whose digit sum puts |H| in
    the sign's bucket decodes into its one tuple, which is tested at the
    walls one digit away from the pivot, their floors read off the
    member's lifted sum; one that passes is kept if its acted rows are
    alpha's, and else when same_chamber says so.
    """
    _check_weights_rank(alpha, model)
    _check_generic_alpha(alpha, model, cap)
    names, r, q, n = model.point_names, model.rank, alpha.q, len(model.points)
    charge(r**n, cap, "hecke sectors")
    charge(_wall_count(alpha), cap, "walls")
    index = {x: i for i, x in enumerate(names)}
    lifted = [[v + q * i for i, v in enumerate(row)] for row in _walls(alpha).rows(1)]
    places = [r ** a for a in range(n - 1, -1, -1)]
    top, h = max(n * (r - 1) - 1, 0), n // 2
    heads = _sums(lifted[:h])
    tails = sorted((t, i) for i, t in enumerate(_sums(lifted[h:])))
    ends = [t for t, _ in tails]

    def level(v):
        # the walls of lifted floor v, as (lifted sum, digits)
        for j, a in enumerate(heads):
            for t, i in tails[bisect_left(ends, v * q - a):bisect_left(ends, (v + 1) * q - a)]:
                e = j * len(ends) + i
                yield a + t, [e // p % r for p in places]

    least = (min(heads) + ends[0]) // q
    lowest = list(level(least))
    pivots = {}
    for s, rot, shift in ((1, list(range(r)), 0), (-1, list(range(r - 1, -1, -1)), top)):
        pivot = next(level(shift + s * least), None)
        if pivot is None:  # no wall can be sent onto the lowest level: none is kept
            pivots[s] = (), (), ()
            continue
        total0, digits0 = pivot
        at0 = [rot[g] for g in digits0]
        # |H| is E's digit sum less at0's, mod r
        residue = (d - s * d + sum(at0)) % r
        members = [m for m in lowest if sum(m[1]) % r == residue]
        # the walls one digit away from the pivot: the point, the digit
        # there, turned as the sign turns it, and the floor its image must have
        near = [(a, rot[t], shift + s * ((total0 - row[g] + row[t]) // q))
                for a, (row, g) in enumerate(zip(lifted, digits0)) for t in range(r) if t != g]
        pivots[s] = at0, members, near
    for auto in model.automorphisms:
        pos = [index.get(auto.point_perm.get(y, y)) for y in names]
        if None in pos:  # only a hand-built model's permutation leaves its points
            raise UnknownPoint(auto.point_perm[names[pos.index(None)]])
        rows = [lifted[j] for j in pos]
        for s in (1, -1):
            kept = []
            at0, members, near = pivots[s]
            for total, digits in members:
                at = [digits[j] for j in pos]
                steps = [(g - c) % r for g, c in zip(at, at0)]
                if any((total - rows[a][at[a]] + rows[a][(c + steps[a]) % r]) // q != v for a, c, v in near):
                    continue
                acted = tuple(tuple(_act_vector(alpha.rows[j], k, s, q)) for j, k in zip(pos, steps))
                if acted != alpha.rows and not same_chamber(
                        WeightSystem._of_rows(names, q, acted, alpha.rank), alpha, cap):
                    continue
                hecke = [0] * n
                idx = 0
                for j, k in zip(pos, steps):
                    hecke[j] = k
                    idx += places[j] * k
                kept.append((idx, (s * d - d + sum(steps)) // r, tuple(hecke)))
            kept.sort()
            yield auto, s, kept


def stabilizer_d_alpha_quotient(d, alpha, model, cap=DEFAULT_ENUM_CAP):
    """Chamber-filtered representatives of the degree stabilizer (see
    _chamber_sectors); a representative is built only for a sector the
    filter keeps."""
    return list(_sector_transforms(model, _chamber_sectors(d, alpha, model, cap)))
