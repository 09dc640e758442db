"""Shared models, random generators and oracles for the suite.

Models are built through load_config so the loader is exercised on every
path. Random data uses seeded random.Random instances; genericity of
sampled weights is checked and resampled, never assumed. The wall
calculus over every subrank, which the library no longer runs, is kept
here as the oracle of the complementary pairing.
"""

import itertools
import json
import math
from fractions import Fraction

import pytest

from partrans import (
    BasicTransformation,
    ChamberFingerprint,
    Divisor,
    JacobianElement,
    LineBundleClass,
    ParabolicInvariant,
    WeightSystem,
    act_det,
    is_generic,
    load_config,
)
from partrans import weights
from partrans.errors import EnumerationCapExceeded, NotGeneric, ShapeMismatch
from partrans.intmat import mat_mul
from partrans.picard import DEFAULT_ENUM_CAP


def build_model(genus, rank, point_jacs, degree=0, autos=None, endo=None):
    """point_jacs: list of (name, [coord strings]); autos: raw config list."""
    doc = {
        "genus": genus,
        "rank": rank,
        "degree": degree,
        "points": [{"name": n, "jac": list(j)} for n, j in point_jacs],
    }
    if autos is not None:
        doc["automorphisms"] = autos
    if endo is not None:
        doc["endomorphisms"] = endo
    return load_config(json.dumps(doc))


def _zeros(g):
    return ["0"] * (2 * g)


def _half(g):
    return ["1/2"] + ["0"] * (2 * g - 1)


def model_elliptic2():
    """g=1, r=2, two points, trivial table; the 16-count configuration."""
    return build_model(1, 2, [("p", _zeros(1)), ("q", _half(1))])


def model_worked6():
    """g=6, r=2, two points, trivial table; the 16384-count configuration."""
    return build_model(6, 2, [("p", _zeros(6)), ("q", _half(6))])


def model_g2r3():
    return build_model(2, 3, [("p", ["1/3", "0", "0", "0"])])


def model_g1r3n0():
    return build_model(1, 3, [])


def model_involution():
    """Elliptic involution swapping the two points: M = -I, t = j_p + j_q."""
    autos = [
        {"name": "id", "perm": {}, "matrix": [[1, 0], [0, 1]], "translation": ["0", "0"]},
        {
            "name": "iota",
            "perm": {"p": "q", "q": "p"},
            "matrix": [[-1, 0], [0, -1]],
            "translation": ["1/2", "0"],
        },
    ]
    return build_model(1, 2, [("p", _zeros(1)), ("q", _half(1))], autos=autos)


def model_cyclic3():
    """Order-3 translation p -> q -> s -> p at rank 3."""
    autos = [
        {"name": "id", "perm": {}, "matrix": [[1, 0], [0, 1]], "translation": ["0", "0"]},
        {
            "name": "tau",
            "perm": {"p": "q", "q": "s", "s": "p"},
            "matrix": [[1, 0], [0, 1]],
            "translation": ["1/3", "0"],
        },
        {
            "name": "tau2",
            "perm": {"p": "s", "q": "p", "s": "q"},
            "matrix": [[1, 0], [0, 1]],
            "translation": ["2/3", "0"],
        },
    ]
    return build_model(
        1,
        3,
        [("p", _zeros(1)), ("q", ["2/3", "0"]), ("s", ["1/3", "0"])],
        autos=autos,
    )


def model_order4():
    """One fixed point, automorphism of order 4 acting by a rotation matrix."""
    autos = [
        {"name": "id", "perm": {}, "matrix": [[1, 0], [0, 1]], "translation": ["0", "0"]},
        {"name": "r1", "perm": {}, "matrix": [[0, -1], [1, 0]], "translation": ["0", "0"]},
        {"name": "r2", "perm": {}, "matrix": [[-1, 0], [0, -1]], "translation": ["0", "0"]},
        {"name": "r3", "perm": {}, "matrix": [[0, 1], [-1, 0]], "translation": ["0", "0"]},
    ]
    return build_model(1, 2, [("p", _zeros(1))], autos=autos)


def model_cyclic(genus, order, rank=2):
    """Translation group of the given order along the first coordinate,
    acting on one orbit of `order` points; `order` table entries."""
    dim = 2 * genus
    names = [f"c{k}" for k in range(order)]
    offset = [Fraction(0)] + [Fraction(i, 2 * i + 1) for i in range(1, dim)]
    points = []
    for k in range(order):
        jac = list(offset)
        jac[0] = Fraction(-k, order) % 1
        points.append((names[k], [str(v) for v in jac]))
    autos = []
    for j in range(order):
        t = ["0"] * dim
        t[0] = str(Fraction(j, order))
        autos.append({
            "name": "id" if j == 0 else f"tau{j}",
            "perm": {names[k]: names[(k + j) % order] for k in range(order)},
            "matrix": [[int(a == b) for b in range(dim)] for a in range(dim)],
            "translation": t,
        })
    return build_model(genus, rank, points, autos=autos)


_ROTATIONS = {3: [[0, -1], [1, -1]], 4: [[0, -1], [1, 0]], 6: [[1, -1], [1, 0]]}


def model_rotation(genus, order, rank=2):
    """Block rotation of order 3, 4 or 6 on every genus block: a fixed point
    at 0 and one orbit of `order` points."""
    dim = 2 * genus
    block = _ROTATIONS[order]
    mat = [[0] * dim for _ in range(dim)]
    for g in range(genus):
        for a in range(2):
            for b in range(2):
                mat[2 * g + a][2 * g + b] = block[a][b]
    powers = [[[int(a == b) for b in range(dim)] for a in range(dim)]]
    for _ in range(order - 1):
        powers.append(mat_mul(powers[-1], mat))
    base = [Fraction(i + 1, 5 if i % 2 else 7) for i in range(dim)]
    names = [f"o{k}" for k in range(order)]
    points = [("z", ["0"] * dim)]
    for k in range(order):
        jac = [sum(x * v for x, v in zip(row, base)) % 1 for row in powers[k]]
        points.append((names[k], [str(v) for v in jac]))
    autos = [
        {
            "name": "id" if a == 0 else f"rot{a}",
            # pullback by M^a sends the class of o_k to that of o_{k+a}
            "perm": {names[(k + a) % order]: names[k] for k in range(order)},
            "matrix": powers[a],
            "translation": ["0"] * dim,
        }
        for a in range(order)
    ]
    return build_model(genus, rank, points, autos=autos)


@pytest.fixture(scope="session")
def elliptic2():
    return model_elliptic2()


@pytest.fixture(scope="session")
def worked6():
    return model_worked6()


@pytest.fixture(scope="session")
def g2r3():
    return model_g2r3()


@pytest.fixture(scope="session")
def g1r3n0():
    return model_g1r3n0()


@pytest.fixture(scope="session")
def involution():
    return model_involution()


@pytest.fixture(scope="session")
def cyclic3():
    return model_cyclic3()


@pytest.fixture(scope="session")
def order4():
    return model_order4()


# -- random data ---------------------------------------------------------


def rand_jac(rng, dim, den=12):
    return JacobianElement(Fraction(rng.randrange(den), den) for _ in range(dim))


def rand_line(rng, dim, degmax=4, den=12):
    return LineBundleClass(rng.randint(-degmax, degmax), rand_jac(rng, dim, den))


def rand_basic(rng, model):
    sigma = rng.choice([a.name for a in model.automorphisms])
    s = rng.choice((1, -1))
    line = rand_line(rng, 2 * model.genus)
    hecke = Divisor(
        {x: rng.randrange(model.rank) for x in model.point_names}
    )
    return BasicTransformation(model, sigma, s, line, hecke)


_WEIGHT_PRIMES = (97, 101, 103, 107, 109, 113)


def rand_generic_weights(rng, model, tries=60):
    r = model.rank
    for _ in range(tries):
        entries = {}
        for x in model.point_names:
            den = rng.choice(_WEIGHT_PRIMES)
            nums = sorted(rng.sample(range(1, den), r - 1))
            entries[x] = (Fraction(0),) + tuple(Fraction(k, den) for k in nums)
        w = WeightSystem(entries, r)
        ok, _ = is_generic(w)
        if ok:
            return w
    raise AssertionError("failed to sample a generic weight system")


def rand_invariant(rng, model, degree=None):
    dim = 2 * model.genus
    det = rand_line(rng, dim)
    if degree is not None:
        det = LineBundleClass(degree, det.jac)
    return ParabolicInvariant(model.rank, det, rand_generic_weights(rng, model))


def rand_tilde(rng, dim, r, moves=3):
    """Integer matrix M with det(I + rM) = +-1, via I + rM built from
    elementary row operations congruent to I mod r, optionally negated."""
    v = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(moves):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        k = rng.randint(-2, 2)
        for c in range(dim):
            v[i][c] += r * k * v[j][c]
    if r == 2 and rng.random() < 0.5:
        v = [[-x for x in row] for row in v]
    m = []
    for i in range(dim):
        row = []
        for j in range(dim):
            delta = v[i][j] - (1 if i == j else 0)
            assert delta % r == 0
            row.append(delta // r)
        m.append(row)
    return m


# -- independent oracles -------------------------------------------------


def torsion_denominator(model, extra=()):
    """lcm of all coordinate denominators in the model and extra classes."""
    q = 1
    vals = []
    for p in model.points:
        vals.extend(p.jac_class.coords)
    for a in model.automorphisms:
        vals.extend(a.translation.coords)
    for c in extra:
        vals.extend(c.jac)
    for v in vals:
        q = q * v.denominator // math.gcd(q, v.denominator)
    return q


def brute_stabilizer_count(model, xi, deg_window=8):
    """Exhaustive count of tuples fixing xi under act_det.

    Scans every sector (sigma, s, H), candidate line degrees in a window
    wide enough to contain all solutions, and the full coordinate grid of
    denominator r*q, which contains every r-th root in the torsion model.
    Independent of the sector/root logic under test.
    """
    r = model.rank
    dim = 2 * model.genus
    q = torsion_denominator(model, extra=[xi])
    grid = [Fraction(k, r * q) for k in range(r * q)]
    names = model.point_names
    count = 0
    for a in model.automorphisms:
        for s in (1, -1):
            for hvec in itertools.product(range(r), repeat=len(names)):
                hecke = Divisor(dict(zip(names, hvec)))
                for dl in range(-deg_window, deg_window + 1):
                    for coords in itertools.product(grid, repeat=dim):
                        t = BasicTransformation(
                            model, a.name, s, LineBundleClass(dl, JacobianElement(coords)), hecke
                        )
                        if act_det(t, xi) == xi:
                            assert abs(dl) < deg_window, "window too small"
                            count += 1
    return count


# -- the wall calculus over every subrank ----------------------------------
# Walls of subrank r - r' are those of r' negated in reverse order, so
# partrans.weights reads subranks 1..r // 2 only. These read all of
# 1..r - 1 with the same kernels, as the library did before: the oracle
# the pairing must agree with.


def full_halves(w):
    """weights._Walls.halves over every subrank 1..r - 1."""
    walls = weights._walls(w)
    h = len(w.rows) // 2
    for rp in range(1, w.rank):
        rows = walls.rows(rp)
        yield rows[:h], weights._sums(rows[h:])


def full_is_generic(w):
    if not w.rows:
        return True, None
    walls = weights._walls(w)
    q, h = w.q, len(w.rows) // 2
    for rp in range(1, w.rank):
        rows = walls.rows(rp)
        tails = weights._least_paths(rows[h:], q)
        for res, path in weights._least_paths(rows[:h], q).items():
            tail = tails.get(-res % q)
            if tail is not None:
                return False, weights._wall(w, rp, path + tail)
    return True, None


def full_chamber_fingerprint(w, cap=DEFAULT_ENUM_CAP):
    if not w.rows:
        return ChamberFingerprint(())
    count = weights._wall_count(w)
    if count > cap:
        raise EnumerationCapExceeded(count, cap, "walls")
    q, floors = w.q, []
    for rp, (rows, tails) in enumerate(full_halves(w), 1):
        residues = {t % q for t in tails}
        for j, a in enumerate(weights._sums(rows)):
            if -a % q in residues:
                i = next(i for i, t in enumerate(tails) if not (a + t) % q)
                raise NotGeneric(weights._wall_at(w, rp, j * len(tails) + i))
            floors += [(a + t) // q for t in tails]
    return ChamberFingerprint(floors)


def full_same_chamber(w1, w2, cap=DEFAULT_ENUM_CAP):
    if w1.point_names == w2.point_names == ():
        return True
    if w1.point_names != w2.point_names or w1.rank != w2.rank:
        raise ShapeMismatch("weight systems live on different point sets or ranks")
    count = weights._wall_count(w1)
    if count > cap:
        raise EnumerationCapExceeded(count, cap, "walls")
    hit = weights._first_wall_difference(w1.q, full_halves(w1), w2.q, full_halves(w2))
    if hit is None:
        return True
    rp, i, side = hit
    if side:
        raise NotGeneric(weights._wall_at(w1 if side == 1 else w2, rp, i))
    return False
