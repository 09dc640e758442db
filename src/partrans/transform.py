"""The group of basic transformations and its actions.

An element is the canonical tuple (sigma, s, L, H) realizing the operator
Sigma_sigma o D^s o T_L o H_H, applied innermost first. The group law is a
fold: a product is the canonical tuple right-multiplied by one generator
at a time, each in closed form (the merge of neighbours of one kind, or
the move of a generator left past the factors of larger kind), so a word
of n generators takes exactly n steps.

The stabilizers run over the Hecke sectors: _degree_sectors is the one
loop over (automorphism, sign, Hecke tuple), and _chamber_sectors filters
it by the chamber of a generic weight system, on integers: a representative
keeps alpha's subrank-1 floors exactly when it permutes the walls so as to
keep alpha's lifted floors (each floor plus its digit sum), reflected as
n(r - 1) - 1 - phi by the dual (see _chamber_sectors).
"""

from .errors import (
    EnumerationCapExceeded,
    HeckeOutOfRange,
    NotGeneric,
    ShapeMismatch,
    UnknownPoint,
)
from .picard import (
    DEFAULT_ENUM_CAP,
    JacobianElement,
    LineBundleClass,
    add_nums,
    affine_nums,
    divide_by_r,
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
from collections import Counter


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

    The label is provenance only and is ignored by equality.
    """

    __slots__ = ("rank", "det", "weights", "label")

    def __init__(self, rank, det, weights, label=""):
        if weights.rank is not None and weights.rank != rank:
            raise ShapeMismatch(f"weights have rank {weights.rank}, invariant has rank {rank}")
        self.rank = rank
        self.det = det
        self.weights = weights
        self.label = label

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
                inv = model.automorphism(model.inverse_auto(tau))
                nums, den = affine_nums(inv.matrix, nums, den, inv.translation, deg)
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
    Hecke multiplicities."""
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
    auto = model.automorphism(t.sigma)
    nums, den = affine_nums(auto.matrix, nums, den, auto.translation, deg)
    return LineBundleClass(deg, JacobianElement.from_nums(nums, den))


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


def act_invariant(t, v):
    if v.rank != t.model.rank:
        raise ShapeMismatch(f"invariant rank {v.rank} does not match model rank {t.model.rank}")
    label = v.label + "|" + describe(t) if v.label else describe(t)
    return ParabolicInvariant(
        v.rank, act_det(t, v.det), act_weights(t, v.weights), label
    )


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
    lexicographic order."""
    n = len(model.points)
    count = model.rank**n
    if count > cap:
        raise EnumerationCapExceeded(count, cap, "hecke sectors")
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
    numerators; the rest of the root depends only on (sigma, s).
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
            rhs = JacobianElement.from_nums([a + scale * b for a, b in zip(base, sums[k])], den)
            root, torsor = divide_by_r(rhs, r)
            sectors.append(
                {
                    "sigma": auto.name,
                    "s": s,
                    "H": {names[i]: mults[i] for i in by_name if mults[i]},
                    "L_degree": ldeg,
                    "root": root.to_json(),
                    "torsor_size": torsor,
                }
            )
    return {"total": len(sectors) * r**dim, "sectors": sectors}


def t_d_quotient_reps(d, model, cap=DEFAULT_ENUM_CAP):
    """Representatives of the degree-d stabilizer modulo tensoring by
    degree-zero classes: one tuple per admissible (sigma, s, H) sector,
    with the forced L degree and zero torsion part."""
    return list(_sector_transforms(model, _degree_sectors(model, d, _hecke_tuples(model, cap))))


def _chamber_sectors(d, alpha, model, cap):
    """The sectors of the degree-d stabilizer with their chamber verdicts:
    per (automorphism, s, group) of _degree_sectors, in order,
    (automorphism, s, group, kept) where kept[k] is
    same_chamber(act_weights(t, alpha), alpha, cap) for the representative
    t of group[k]; a line part does not act on weights. alpha of another
    rank, a non-generic alpha and too many Hecke tuples raise first, in
    that order; then each representative raises what act_weights and then
    same_chamber would.

    The lifted-floor rule: with rows1 alpha's subrank-1 wall rows over q
    and D a wall's digits, one per point of alpha, the lifted floor
    phi[D] = (sum over y of rows1[y][D_y] + q * D_y) // q is the wall's
    floor plus its digit sum. k Hecke steps turn a row at digit i into
    rows1[(i + k) % r] + q * ((i + k) % r - i), and the dual into
    -rows1[r - 1 - i]. So (sigma, s, H) keeps every subrank-1 floor
    exactly when, for every D, phi[E] == phi[D] (s = 1) or
    n(r - 1) - 1 - phi[E] == phi[D] (s = -1, as no acted wall is
    integral), where E[sigma(y)] is D_y + H[sigma(y)] mod r, or
    r - 1 - D_y + H[sigma(y)] mod r; alpha's points outside the model take
    no step, and sigma permutes alpha's points (a model's permutations are
    bijections). Subrank 1 is every wall decision at r <= 3; at a higher
    rank a tuple that passes is kept when its acted rows are alpha's, or
    else when same_chamber says so.

    Per (automorphism, s), one _sums pass over the model's points gives
    E's index at a pivot wall D0 for every Hecke tuple, D0 being the first
    wall of the value fewest E can match; the tuples that pass there are
    compared a block of walls sharing a head at a time.
    """
    _check_weights_rank(alpha, model)
    ok, witness = is_generic(alpha, cap)
    if not ok:
        raise NotGeneric(witness)
    tuples = _hecke_tuples(model, cap)
    ints, q, r = dict(zip(alpha.point_names, alpha.rows)), alpha.q, model.rank
    n, count = len(ints), _wall_count(alpha)
    index = {x: i for i, x in enumerate(model.point_names)}
    outside = [(i, x) for x, i in index.items() if x not in ints]
    if 0 < count <= cap:
        rows1 = _walls(alpha).rows(1)
        phi = [v // q for v in _sums([[v + q * i for i, v in enumerate(row)] for row in rows1])]
        place, h = {x: r ** (n - 1 - a) for a, x in enumerate(ints)}, n // 2
        blocks = [phi[j:j + r ** (n - h)] for j in range(0, len(phi), r ** (n - h))]
        top, levels = n * (r - 1) - 1, Counter(phi)
        tables = {1: phi, -1: [top - v for v in phi]}
        pivots = {1: phi.index(min(levels, key=levels.get)),
                  -1: phi.index(min(levels, key=lambda v: levels.get(top - v, 0)))}
    for auto, s, group in _degree_sectors(model, d, tuples):
        src = [auto.point_perm.get(y, y) for y in ints]
        missing = next((x for x in src if x not in ints), None)
        if missing is None and 0 < count <= cap:
            table, pivot = tables[s], pivots[s]
            # lanes[y][k][D_y]: the place of sigma(y) in E times its digit there after k steps
            lanes = [[row[j:] + row[:j] for j in range(0, s * r, s)]
                     for row in (list(range(0, r * place[x], place[x]))[::s] for x in src)]
            positions = [index.get(x) for x in src]
            base, columns = 0, [[0] * r for _ in index]
            for i, lane, y in zip(positions, lanes, ints):
                digit = pivot // place[y] % r
                if i is None:
                    base += lane[0][digit]
                else:
                    columns[i] = [row[digit] for row in lane]
            at_pivot = _sums(columns)
        kept = []
        for k, _, mults in group:
            for i, x in outside:
                if mults[i]:
                    raise UnknownPoint(x)
            if missing is not None:
                raise UnknownPoint(missing)
            if count > cap:
                raise EnumerationCapExceeded(count, cap, "walls")
            if not count or table[base + at_pivot[k]] != phi[pivot]:
                kept.append(not count)
                continue
            steps = [0 if i is None else mults[i] for i in positions]
            rows = list(map(list.__getitem__, lanes, steps))
            tails = _sums(rows[h:])
            keeps = all([table[a + t] for t in tails] == block for a, block in zip(_sums(rows[:h]), blocks))
            if keeps and r > 3:
                acted = tuple(tuple(_act_vector(ints[x], step, s, q)) for x, step in zip(src, steps))
                keeps = acted == alpha.rows or same_chamber(
                    WeightSystem._of_rows(alpha.point_names, q, acted, alpha.rank), alpha, cap)
            kept.append(keeps)
        yield auto, s, group, kept


def stabilizer_d_alpha_quotient(d, alpha, model, cap=DEFAULT_ENUM_CAP):
    """Chamber-filtered representatives of the degree stabilizer (see
    _chamber_sectors); a representative is built only for a sector the
    filter keeps."""
    kept = (
        (auto, s, list(itertools.compress(group, keeps)))
        for auto, s, group, keeps in _chamber_sectors(d, alpha, model, cap)
    )
    return list(_sector_transforms(model, kept))
