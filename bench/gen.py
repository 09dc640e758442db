"""Seeded inputs for the benchmark.

Everything here is plain data (JSON documents, fractions, dicts), so the
same seed always yields the same inputs and the program under test only
ever sees what the generator hands it. Models are built from three table
patterns:

- cyclic translation groups: an order-m translation along one coordinate
  permuting each orbit of m points (the pattern of the three-point cyclic
  test model), with extra orbits shifted apart along another coordinate;
- rotations: a block-diagonal matrix of order 3, 4 or 6 with zero
  translation, permuting one orbit of points and fixing a point at 0;
- involutions: matrix -I with a translation t, swapping pairs (j, t - j).

Weight systems carry their own denominators; genericity and chamber
relations are decided by ``oracle`` and resampled, never assumed.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import oracle
from common import ROOT

GOLDEN = ROOT / "tests" / "golden"


def golden_models():
    """The paper's two worked models, the golden genus-1 and genus-6 files."""
    return {key: json.loads((GOLDEN / f"model_{key}.json").read_text(encoding="utf-8"))
            for key in ("g1", "g6")}


_ROTATIONS = {
    3: [[0, -1], [1, -1]],
    4: [[0, -1], [1, 0]],
    6: [[0, -1], [1, 1]],
}

# Denominators of random torsion coordinates and of generic weights.
TORSION_DENS = (2, 3, 4, 6, 12)
WEIGHT_PRIMES = (97, 101, 103, 107, 109, 113)


def rng_for(seed, *tag):
    """Independent stream for one part of the input, stable across runs."""
    return random.Random(":".join(str(x) for x in (seed,) + tag))


def fstr(x):
    return str(Fraction(x))


def _vec_str(v):
    return [fstr(x) for x in v]


def _rand_vec(rng, dim, dens=TORSION_DENS):
    den = rng.choice(dens)
    return [Fraction(rng.randrange(den), den) for _ in range(dim)]


def _mat_pow(m, k):
    out = oracle.identity_matrix(len(m))
    for _ in range(k):
        out = oracle.mat_mul(out, m)
    return out


def _mat_vec_mod1(m, v):
    return [sum(Fraction(a) * x for a, x in zip(row, v)) % 1 for row in m]


def _block_diag(block, genus):
    dim = 2 * genus
    out = [[0] * dim for _ in range(dim)]
    for b in range(genus):
        for i in range(2):
            for j in range(2):
                out[2 * b + i][2 * b + j] = block[i][j]
    return out


def cyclic_model(rng, genus, rank, order, orbits):
    """Order-`order` translation group acting on `orbits` orbits of points."""
    dim = 2 * genus
    axis = rng.randrange(dim)
    names = [[f"c{o}_{k}" for k in range(order)] for o in range(orbits)]
    points = []
    for o in range(orbits):
        offset = _rand_vec(rng, dim)
        offset[axis] = Fraction(0)
        if dim > 1:
            other = (axis + 1) % dim
            offset[other] = Fraction(o, orbits)
        for k in range(order):
            jac = list(offset)
            jac[axis] = Fraction(-k, order) % 1
            points.append({"name": names[o][k], "jac": _vec_str(jac)})
    autos = []
    for j in range(order):
        t = [Fraction(0)] * dim
        t[axis] = Fraction(j, order)
        perm = {names[o][k]: names[o][(k + j) % order] for o in range(orbits) for k in range(order)}
        autos.append({
            "name": "id" if j == 0 else f"tau{j}",
            "perm": perm,
            "matrix": oracle.identity_matrix(dim),
            "translation": _vec_str(t),
        })
    return {"genus": genus, "rank": rank, "degree": 0, "points": points, "automorphisms": autos}


def rotation_model(rng, genus, rank, order):
    """Block rotation of the given order; one orbit plus a fixed point at 0."""
    dim = 2 * genus
    mat = _block_diag(_ROTATIONS[order], genus)
    base = _rand_vec(rng, dim, dens=(5, 7))
    orbit = [base]
    for _ in range(order - 1):
        orbit.append(_mat_vec_mod1(mat, orbit[-1]))
    names = [f"o{k}" for k in range(order)]
    points = [{"name": "z", "jac": ["0"] * dim}]
    points += [{"name": names[k], "jac": _vec_str(orbit[k])} for k in range(order)]
    autos = []
    for a in range(order):
        # pullback by M^a sends the class of o_k to that of o_{k+a}, so the
        # point map sends o_{k+a} to o_k
        perm = {names[(k + a) % order]: names[k] for k in range(order)}
        autos.append({
            "name": "id" if a == 0 else f"rot{a}",
            "perm": perm,
            "matrix": _mat_pow(mat, a),
            "translation": ["0"] * dim,
        })
    return {"genus": genus, "rank": rank, "degree": 0, "points": points, "automorphisms": autos}


def involution_model(rng, genus, rank, pairs):
    """Matrix -I with translation t, swapping pairs of points (j, t - j)."""
    dim = 2 * genus
    t = _rand_vec(rng, dim)
    points = []
    perm = {}
    for k in range(pairs):
        j = _rand_vec(rng, dim)
        a, b = f"u{k}", f"v{k}"
        points.append({"name": a, "jac": _vec_str(j)})
        points.append({"name": b, "jac": _vec_str([(x - y) % 1 for x, y in zip(t, j)])})
        perm[a], perm[b] = b, a
    ident = oracle.identity_matrix(dim)
    autos = [
        {"name": "id", "perm": {}, "matrix": ident, "translation": ["0"] * dim},
        {"name": "iota", "perm": perm, "matrix": [[-x for x in row] for row in ident],
         "translation": _vec_str(t)},
    ]
    return {"genus": genus, "rank": rank, "degree": 0, "points": points, "automorphisms": autos}


def plain_model(rng, genus, rank, n):
    """Trivial table; the first point sits at 0, the others at random classes."""
    dim = 2 * genus
    points = [{"name": "x0", "jac": ["0"] * dim}]
    for k in range(1, n):
        points.append({"name": f"x{k}", "jac": _vec_str(_rand_vec(rng, dim))})
    return {"genus": genus, "rank": rank, "degree": 0, "points": points}


# -- tuples and classes ---------------------------------------------------


def rand_class(rng, genus):
    return (rng.randint(-4, 4), _rand_vec(rng, 2 * genus))


def rand_tuple(rng, doc):
    """Plain data (sigma, s, (deg, jac), hecke) of a canonical tuple; each
    point carries a Hecke multiplicity with probability 1/2."""
    autos = [a["name"] for a in doc.get("automorphisms") or [{"name": "id"}]]
    hecke = {}
    for p in doc["points"]:
        if rng.random() < 0.5:
            v = rng.randrange(doc["rank"])
            if v:
                hecke[p["name"]] = v
    return (rng.choice(autos), rng.choice((1, -1)), rand_class(rng, doc["genus"]), hecke)


def rand_degree_fixing_tuple(rng, doc):
    """A tuple fixing degree 0, the reference degree of every model: its
    line degree is forced to |H| / r."""
    while True:
        sigma, s, (_, jac), hecke = rand_tuple(rng, doc)
        size = sum(hecke.values())
        if size % doc["rank"] == 0:
            return (sigma, s, (size // doc["rank"], jac), hecke)


def rand_tilde(rng, dim, r):
    """Integer M with det(I + rM) = +-1: I + rM is a product of three
    elementary operations congruent to I mod r, negated half the time at
    r = 2."""
    v = oracle.identity_matrix(dim)
    for _ in range(3):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i != j:
            k = rng.choice((-2, -1, 1, 2))
            for c in range(dim):
                v[i][c] += r * k * v[j][c]
    if r == 2 and rng.random() < 0.5:
        v = [[-x for x in row] for row in v]
    return [[(v[i][j] - int(i == j)) // r for j in range(dim)] for i in range(dim)]


# -- weight systems --------------------------------------------------------


def _weights_over(rng, names, rank, den_choice):
    out = {}
    for x in names:
        den = den_choice()
        nums = sorted(rng.sample(range(1, den), rank - 1))
        out[x] = tuple([Fraction(0)] + [Fraction(k, den) for k in nums])
    return out


def rand_weights(rng, names, rank):
    """Canonical system with prime denominators, generic or not."""
    return _weights_over(rng, names, rank, lambda: rng.choice(WEIGHT_PRIMES))


def generic_weights(rng, names, rank):
    """Generic system with prime denominators, checked by the oracle."""
    while True:
        w = rand_weights(rng, names, rank)
        if oracle.generic_verdict(oracle.wform(w)):
            return w


def nongeneric_weights(rng, names, rank):
    """System on some wall: one common small denominator, checked by the oracle."""
    while True:
        den = rng.randrange(3 * rank, 6 * rank)
        w = _weights_over(rng, names, rank, lambda: den)
        if not oracle.generic_verdict(oracle.wform(w)):
            return w


def dp_weights(rng, names, rank, generic):
    """Small common denominator, for systems too large to enumerate.

    With the denominator a multiple of the rank and the numerator total
    prime to it, r * (selected weights) and r' * total never agree mod 1,
    so the system is generic; otherwise it is resampled until it is not.
    """
    while True:
        den = rank * rng.randrange(6, 16)
        w = _weights_over(rng, names, rank, lambda: den)
        total = sum(int(v * den) for vec in w.values() for v in vec)
        if generic and math.gcd(total, rank) != 1:
            continue
        if oracle.generic_verdict(oracle.wform(w)) == generic:
            return w


def nearby_weights(rng, w):
    """A small perturbation of w in the same chamber (checked, resampled)."""
    ow = oracle.wform(w)
    for shrink in itertools.count():
        den = 1000003 * (1 + shrink)
        out = {}
        for x, vec in w.items():
            out[x] = tuple([Fraction(0)] + [v + Fraction(rng.randint(1, 3), den) for v in vec[1:]])
        if oracle.same_chamber(ow, oracle.wform(out)):
            return out


def differing_weights(rng, w):
    """A generic system in another chamber than w (checked, resampled)."""
    ow = oracle.wform(w)
    rank = len(next(iter(w.values())))
    while True:
        other = generic_weights(rng, list(w), rank)
        if not oracle.same_chamber(ow, oracle.wform(other)):
            return other


def weights_json(w):
    return {x: _vec_str(vec) for x, vec in w.items()}
