import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from partrans import (
    ChamberFingerprint,
    WeightSystem,
    canonicalize,
    chamber_fingerprint,
    dual_weights,
    hecke_weights,
    is_generic,
    parabolic_degree,
    same_chamber,
)
from partrans.errors import (
    EnumerationCapExceeded,
    NotGeneric,
    ShapeMismatch,
    UnknownPoint,
)
from partrans.weights import WallDatum, _dp_witness, _wall_count

from conftest import model_elliptic2, model_g2r3, rand_generic_weights


def ws(rank, **vecs):
    return WeightSystem({k: tuple(Fraction(x) for x in v) for k, v in vecs.items()}, rank)


# -- reference wall calculus ----------------------------------------------
# One Fraction sum and one WallDatum per wall, in the fixed wall order: the
# slow path the integer tables of partrans.weights must agree with.


def oracle_walls(w):
    r = w.rank
    names = w.point_names
    total = w.total()
    for rp in range(1, r):
        subsets = list(itertools.combinations(range(1, r + 1), rp))
        for combo in itertools.product(subsets, repeat=len(names)):
            sel = Fraction(0)
            for (name, vec), sub in zip(w.entries, combo):
                sel += sum(vec[i - 1] for i in sub)
            yield WallDatum(rp, zip(names, combo), rp * total - r * sel)


def oracle_first_integral(w):
    return next((wall for wall in oracle_walls(w) if wall.is_integral()), None)


def oracle_floors(w):
    """Floors of every wall, or the first integral wall."""
    floors = []
    for wall in oracle_walls(w):
        if wall.is_integral():
            return wall
        floors.append(wall.value.__floor__())
    return tuple(floors)


def oracle_same_chamber(w1, w2):
    """The verdict, or the first integral wall of w1 or w2 at the first wall
    that has one (w1 checked first)."""
    for wall1, wall2 in zip(oracle_walls(w1), oracle_walls(w2)):
        if wall1.is_integral():
            return wall1
        if wall2.is_integral():
            return wall2
        if wall1.value.__floor__() != wall2.value.__floor__():
            return False
    return True


W13_14 = lambda: ws(2, p=(0, "1/3"), q=(0, "1/4"))
W13_15 = lambda: ws(2, p=(0, "1/3"), q=(0, "1/5"))
W14_13 = lambda: ws(2, p=(0, "1/4"), q=(0, "1/3"))


def test_weight_system_requires_canonical_input():
    with pytest.raises(ShapeMismatch):
        ws(2, p=("1/4", "1/2"))
    with pytest.raises(ShapeMismatch):
        ws(2, p=(0, 0))
    with pytest.raises(ShapeMismatch):
        ws(2, p=(0, 1))
    with pytest.raises(ShapeMismatch):
        ws(3, p=(0, "1/2"))


def test_canonicalize_shifts_to_zero_base():
    w = canonicalize({"p": ("1/2", "7/8", 1)}, rank=3)
    assert w.vector("p") == (Fraction(0), Fraction(3, 8), Fraction(1, 2))
    with pytest.raises(ShapeMismatch):
        canonicalize({"p": ("1/2", "1/4")})
    with pytest.raises(ShapeMismatch):
        canonicalize({"p": ("0", "1")})


def test_vector_lookup_and_unknown_point():
    w = W13_14()
    assert w.vector("p") == (0, Fraction(1, 3))
    with pytest.raises(UnknownPoint):
        w.vector("zz")


def test_parabolic_degree():
    w = W13_14()
    assert parabolic_degree(2, w) == 2 + Fraction(7, 12)
    n, r = len(w.entries), w.rank
    assert 0 < parabolic_degree(0, w) < n * (r - 1)


def test_wall_count_formula():
    import math

    assert _wall_count(W13_14()) == 4
    w3 = ws(3, p=(0, "1/7", "2/7"))
    assert _wall_count(w3) == math.comb(3, 1) + math.comb(3, 2)
    w32 = ws(3, p=(0, "1/7", "2/7"), q=(0, "1/11", "5/11"))
    assert _wall_count(w32) == 9 + 9


def test_worked_fingerprints():
    assert chamber_fingerprint(W13_14()).floors == (0, 0, -1, -1)
    assert chamber_fingerprint(W13_15()).floors == (0, 0, -1, -1)
    assert chamber_fingerprint(W14_13()).floors == (0, -1, 0, -1)


def test_worked_same_chamber_pairs():
    assert same_chamber(W13_14(), W13_15())
    assert not same_chamber(W13_14(), W14_13())


def test_fingerprint_json_and_str():
    fp = chamber_fingerprint(W13_14())
    js = fp.to_json()
    assert set(js) == {"wall_order", "floors"}
    assert js["floors"] == [0, 0, -1, -1]
    assert "(0, 0, -1, -1)" in str(fp)
    wall = next(oracle_walls(W13_14()))
    assert "r'=1" in str(wall)


def test_fingerprint_raises_on_integral_wall():
    bad = ws(2, p=(0, "1/2"), q=(0, "1/2"))
    ok, witness = is_generic(bad)
    assert not ok and witness is not None
    assert witness.is_integral()
    with pytest.raises(NotGeneric):
        chamber_fingerprint(bad)


def test_generic_examples():
    ok, witness = is_generic(W13_14())
    assert ok and witness is None
    # single point, r=3, equally spaced thirds: wall 1*(1) - 3*(0) = 1 integral
    bad = ws(3, p=(0, "1/3", "2/3"))
    ok, witness = is_generic(bad)
    assert not ok


def test_empty_system_is_generic_with_empty_fingerprint():
    w = WeightSystem({}, rank=3)
    ok, witness = is_generic(w)
    assert ok and witness is None
    assert chamber_fingerprint(w).floors == ()
    assert same_chamber(w, WeightSystem({}, rank=3))


def test_cap_switches_is_generic_to_dp():
    w = W13_14()
    direct = is_generic(w)
    via_dp = is_generic(w, cap=1)
    assert direct[0] == via_dp[0] is True
    bad = ws(2, p=(0, "1/2"), q=(0, "1/2"))
    ok, witness = is_generic(bad, cap=1)
    assert not ok and witness.is_integral()


def test_cap_exceeded_on_fingerprint():
    with pytest.raises(EnumerationCapExceeded):
        chamber_fingerprint(W13_14(), cap=1)


def test_dp_witness_matches_enumeration_on_random_systems():
    rng = random.Random(37)
    for _ in range(120):
        r = rng.choice((2, 3, 4))
        n = rng.randint(1, 4)
        entries = {}
        for i in range(n):
            den = rng.choice((4, 5, 6, 8))
            nums = sorted(rng.sample(range(0, den), r))
            base = nums[0]
            entries[f"x{i}"] = tuple(Fraction(k - base, den) for k in nums)
        w = WeightSystem(entries, r)
        first = oracle_first_integral(w)
        dp = _dp_witness(w)
        assert (dp is not None) == (first is not None)
        if dp is not None:
            assert dp.is_integral()
            assert str(dp) == str(first)
            assert str(is_generic(w, cap=1)[1]) == str(first)


@st.composite
def weight_pairs(draw):
    """A weight system of rank 2-4 on 1-5 points with mixed denominators,
    and a second one on the same points: independent or a small shift."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(1, 5))

    def system():
        entries = {}
        for i in range(n):
            den = draw(st.sampled_from((4, 5, 6, 7, 8, 9, 12, 97)))
            nums = draw(st.lists(st.integers(1, den - 1), min_size=r - 1, max_size=r - 1, unique=True))
            entries[f"x{i}"] = (Fraction(0),) + tuple(Fraction(k, den) for k in sorted(nums))
        return WeightSystem(entries, r)

    w1 = system()
    if draw(st.booleans()):
        return w1, system()
    shifted = {
        x: (Fraction(0),) + tuple(v + Fraction(draw(st.integers(1, 3)), 10007) for v in vec[1:])
        for x, vec in w1.entries
    }
    return w1, WeightSystem(shifted, r)


def _outcome(fn):
    try:
        return fn()
    except NotGeneric as exc:
        return exc.witness


def _same(got, want):
    if isinstance(want, WallDatum):
        return isinstance(got, WallDatum) and got.to_json() == want.to_json()
    return got == want


THIRDS = ws(2, p=(0, "1/3"), q=(0, "1/3"), s=(0, "1/3"))
TWO_THIRDS = ws(2, p=(0, "2/3"), q=(0, "2/3"), s=(0, "2/3"))


@settings(max_examples=40, deadline=None)
@given(weight_pairs())
# both systems sit on their first wall, with values 1 and 2: w1's is raised
@example((THIRDS, TWO_THIRDS))
@example((TWO_THIRDS, THIRDS))
def test_integer_walls_match_fraction_oracle(pair):
    w1, w2 = pair
    ok, witness = is_generic(w1)
    want = oracle_first_integral(w1)
    assert ok == (want is None)
    assert _same(witness, want)
    got = _outcome(lambda: chamber_fingerprint(w1).floors)
    assert _same(got, oracle_floors(w1))
    got = _outcome(lambda: same_chamber(w1, w2))
    assert _same(got, oracle_same_chamber(w1, w2))


def _generic_rank3_eight_points():
    rng = random.Random(53)
    for _ in range(60):
        entries = {}
        for i in range(8):
            den = rng.choice((101, 103, 107, 109))
            nums = sorted(rng.sample(range(1, den), 2))
            entries[f"x{i}"] = (Fraction(0),) + tuple(Fraction(k, den) for k in nums)
        w = WeightSystem(entries, 3)
        if is_generic(w)[0]:
            return w
    raise AssertionError("failed to sample a generic weight system")


def _best_ms(fn, w, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        fresh = WeightSystem(w.entries, w.rank)
        start = time.perf_counter()
        fn(fresh)
        best = min(best, time.perf_counter() - start)
    return best * 1000


def test_rank3_eight_point_walls_are_fast():
    w = _generic_rank3_eight_points()
    assert _wall_count(w) == 2 * 3**8
    assert _best_ms(is_generic, w) < 50
    assert _best_ms(lambda fresh: same_chamber(fresh, fresh), w) < 100


def test_same_chamber_honours_the_cap():
    assert same_chamber(W13_14(), W13_15(), cap=4)
    with pytest.raises(EnumerationCapExceeded):
        same_chamber(W13_14(), W13_15(), cap=3)


def test_hecke_moves_and_identities():
    w = ws(3, x=(0, "1/8", "1/2"))
    assert hecke_weights(w, "x").vector("x") == (0, Fraction(3, 8), Fraction(7, 8))
    got = w
    for _ in range(3):
        got = hecke_weights(got, "x")
    assert got == w
    with pytest.raises(UnknownPoint):
        hecke_weights(w, "zz")


def test_dual_identities():
    w = ws(3, x=(0, "1/8", "1/2"))
    assert dual_weights(w).vector("x") == (0, Fraction(3, 8), Fraction(1, 2))
    assert dual_weights(dual_weights(w)) == w
    sd = ws(3, x=(0, "1/4", "1/2"))
    assert dual_weights(sd) == sd
    r2 = ws(2, p=(0, "1/3"), q=(0, "1/5"))
    assert dual_weights(r2) == r2


def test_dual_hecke_interchange():
    # dual o hecke o dual = hecke^{r-1} pointwise
    w = ws(3, x=(0, "1/8", "1/2"), y=(0, "1/7", "3/7"))
    lhs = dual_weights(hecke_weights(dual_weights(w), "x"))
    rhs = w
    for _ in range(2):
        rhs = hecke_weights(rhs, "x")
    assert lhs == rhs


def test_genericity_equivariance():
    rng = random.Random(41)
    m2, m3 = model_elliptic2(), model_g2r3()
    for m in (m2, m3):
        for _ in range(25):
            w = rand_generic_weights(rng, m)
            assert is_generic(dual_weights(w))[0]
            for x in m.point_names:
                assert is_generic(hecke_weights(w, x))[0]


def test_shift_invariance_of_fingerprint():
    rng = random.Random(43)
    w = W13_14()
    raw = {}
    for name, vec in w.entries:
        c = Fraction(rng.randint(1, 5), 17)
        raw[name] = tuple(v + c for v in vec)
    shifted = canonicalize(raw, rank=2)
    assert shifted == w
    assert chamber_fingerprint(shifted) == chamber_fingerprint(w)


def test_midpoint_convexity_sample():
    rng = random.Random(47)
    m = model_elliptic2()
    for _ in range(40):
        a = rand_generic_weights(rng, m)
        b = rand_generic_weights(rng, m)
        if not same_chamber(a, b):
            continue
        mid = WeightSystem(
            {x: tuple((u + v) / 2 for u, v in zip(a.vector(x), b.vector(x))) for x in m.point_names},
            m.rank,
        )
        assert same_chamber(a, mid)
