import random
from fractions import Fraction

import pytest

from partrans.errors import NotInvertible, ShapeMismatch
from partrans.intmat import (
    det_int,
    identity_matrix,
    inverse_unimodular,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    solve_integer_system,
    zero_matrix,
)


def frac_det(m):
    """Reference determinant via fraction-free-less Gaussian elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    assert det.denominator == 1
    return int(det)


def test_det_small_cases():
    assert det_int([[5]]) == 5
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int(identity_matrix(4)) == 1
    assert det_int(zero_matrix(3)) == 0


def test_det_matches_reference_on_random_matrices():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == frac_det(m)


def test_matrix_helpers():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert mat_add(a, b) == [[1, 3], [4, 4]]
    assert mat_scale(-2, a) == [[-2, -4], [-6, -8]]
    assert mat_mul(a, b) == [[2, 1], [4, 3]]
    assert mat_vec(a, [1, -1]) == [-1, -1]


def test_inverse_unimodular_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = identity_matrix(n)
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            k = rng.randint(-3, 3)
            for c in range(n):
                m[i][c] += k * m[j][c]
        inv = inverse_unimodular(m)
        assert mat_mul(m, inv) == identity_matrix(n)
        assert mat_mul(inv, m) == identity_matrix(n)


def test_inverse_unimodular_rejects_non_unit_determinant():
    with pytest.raises(NotInvertible):
        inverse_unimodular([[2, 0], [0, 1]])


def oracle_inverse_unimodular(a):
    """Reference inverse: Gauss-Jordan elimination on Fractions."""
    n = len(a)
    d = det_int(a)
    if d not in (1, -1):
        raise NotInvertible(d)
    m = [[Fraction(x) for x in row] for row in a]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        inv[col] = [x / p for x in inv[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    assert all(x.denominator == 1 for row in inv for x in row)
    return [[int(x) for x in row] for row in inv]


def random_unimodular(rng, n, moves):
    """Product of elementary moves: row additions, swaps and sign flips."""
    m = identity_matrix(n)
    for _ in range(moves):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            k = rng.randint(-3, 3)
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def test_inverse_unimodular_matches_fraction_oracle():
    rng = random.Random(41)
    for n in range(1, 13):
        for _ in range(12):
            m = random_unimodular(rng, n, rng.randint(0, 3 * n))
            assert inverse_unimodular(m) == oracle_inverse_unimodular(m)


def test_inverse_unimodular_rejects_like_oracle():
    rng = random.Random(43)
    for d in (0, 2, -3):
        for n in (1, 2, 3, 5):
            if d == 0 and n == 1:
                m = [[0]]
            else:
                m = random_unimodular(rng, n, 2 * n)
                # scale one row by d: the determinant becomes +-d
                m[0] = [d * x for x in m[0]]
            dets = []
            for inverse in (inverse_unimodular, oracle_inverse_unimodular):
                with pytest.raises(NotInvertible) as err:
                    inverse(m)
                dets.append(err.value.det)
            assert dets[0] == dets[1] and abs(dets[0]) == abs(d)


def test_inverse_unimodular_reports_the_determinant():
    rng = random.Random(44)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        d = frac_det(m)
        if d in (1, -1):
            assert mat_mul(m, inverse_unimodular(m)) == identity_matrix(n)
        else:
            with pytest.raises(NotInvertible) as err:
                inverse_unimodular(m)
            assert err.value.det == d


def test_solve_integer_system_finds_solutions():
    rng = random.Random(13)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-4, 4) for _ in range(cols)]
        c = mat_vec(a, x)
        sol = solve_integer_system(a, c)
        assert sol is not None
        assert mat_vec(a, sol) == c


def test_solve_integer_system_detects_unsolvable():
    assert solve_integer_system([[2]], [1]) is None
    assert solve_integer_system([[2, 4], [0, 0]], [3, 0]) is None
    assert solve_integer_system([[1, 0], [1, 0]], [0, 1]) is None


def test_solve_integer_system_shape_check():
    with pytest.raises(ShapeMismatch):
        solve_integer_system([[1, 2], [3]], [0, 0])
