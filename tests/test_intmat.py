import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    solve_unimodular,
    zero_matrix,
)
from partrans.picard import make_jac_aut


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


def oracle_mat_mul(a, b):
    """a . b by the triple loop over every index."""
    cols = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)] for row in a]


def sparse_rows(rng, rows, cols, density):
    """Entries in [-5, 5], each nonzero with the given probability; about
    one row in three is zero."""
    out = []
    for _ in range(rows):
        p = 0 if rng.randrange(3) == 0 else density
        out.append([rng.randint(-5, 5) if rng.random() < p else 0 for _ in range(cols)])
    return out


def test_mat_mul_matches_the_triple_loop():
    """Dense, sparse, rectangular and empty shapes, lists and tuples."""
    rng = random.Random(45)
    for _ in range(600):
        m, n, p = rng.randint(0, 6), rng.randint(0, 6), rng.randint(1, 6)
        density = rng.choice((1.0, 0.5, 0.2, 0.0))
        a, b = sparse_rows(rng, m, n, density), sparse_rows(rng, n, p, density)
        want = oracle_mat_mul(a, b)
        assert mat_mul(a, b) == want, (a, b)
        assert mat_mul(tuple(map(tuple, a)), tuple(map(tuple, b))) == want
    assert mat_mul([], [[1, 2]]) == []
    assert mat_mul([[], []], []) == [[], []]
    assert mat_mul([[0, 0]], [[1, 2, 3], [0, 0, 0]]) == [[0, 0, 0]]
    assert mat_mul([[0, 4]], [[1, 2, 3], [0, 0, 0]]) == [[0, 0, 0]]


def test_solve_unimodular_is_the_inverse_times_b():
    rng = random.Random(46)
    for _ in range(400):
        n, k = rng.randint(0, 8), rng.randint(0, 3)
        a = random_unimodular(rng, n, rng.randint(0, 3 * n))
        b = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
        x = solve_unimodular(a, b)
        assert x == oracle_mat_mul(inverse_unimodular(a), b)
        assert oracle_mat_mul(a, x) == b


def test_solve_unimodular_refuses_with_the_inverses_determinant():
    rng = random.Random(47)
    refused = 0
    for _ in range(600):
        n = rng.randint(1, 7)
        a = (sparse_matrix if rng.randrange(2) else rank_deficient)(rng, n, n, rng.choice((1, 2, 5)))
        b = [[rng.randint(-9, 9)] for _ in range(n)]
        want = inverse_or_det(inverse_unimodular, a)
        got = inverse_or_det(lambda m: solve_unimodular(m, b), a)
        if isinstance(want, tuple):
            refused += 1
            assert got == want and want[1] == frac_det(a), a
        else:
            assert got == oracle_mat_mul(want, b)
    assert refused > 300


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
    d = frac_det(a)
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


def test_det_edge_cases():
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[0, 2], [0, 3]]) == 0  # a zero first column
    assert det_int([]) == 1
    assert det_int([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_det_int_stays_fast_on_a_dense_40_matrix():
    """Bareiss entries are minors of the input, at most 121 bits here.
    Euclid down the columns, which leaves the columns it has not reached
    unreduced, grows them to about nine million bits and takes seconds."""
    rng = random.Random(40)
    m = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)]
    start = time.perf_counter()
    d = det_int(m)
    assert time.perf_counter() - start < 0.5
    assert d == frac_det(m)


def dense_unimodular(rng, n, k=2):
    """L U for unitriangular L and U with entries in [-k, k]: every entry
    nonzero or nearly so, determinant 1, entries of at most about n k^2."""
    low = [[rng.randint(-k, k) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    up = [[rng.randint(-k, k) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return oracle_mat_mul(low, up)


def test_mat_mul_stays_fast_on_dense_40_matrices():
    """Skipping zero terms must not cost a dense product its speed."""
    rng = random.Random(41)
    a, b = ([[rng.randint(-3, 3) or 1 for _ in range(40)] for _ in range(40)] for _ in range(2))
    start = time.perf_counter()
    got = mat_mul(a, b)
    assert time.perf_counter() - start < 0.5
    assert got == oracle_mat_mul(a, b)


def test_solve_unimodular_stays_fast_on_a_dense_40_matrix():
    rng = random.Random(42)
    a = dense_unimodular(rng, 40)
    assert sum(x != 0 for row in a for x in row) > 1400
    b = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(40)]
    start = time.perf_counter()
    x = solve_unimodular(a, b)
    assert time.perf_counter() - start < 0.5
    assert oracle_mat_mul(a, x) == b


def test_inverse_unimodular_of_a_singular_matrix_reports_det_0():
    for m in ([[0, 2], [0, 3]], [[1, 2], [2, 4]], zero_matrix(3)):
        with pytest.raises(NotInvertible) as err:
            inverse_unimodular(m)
        assert err.value.det == 0


def test_make_jac_aut_keeps_its_determinant_text():
    # id + 2*[[1, 0], [0, 0]] = [[3, 0], [0, 1]]
    with pytest.raises(NotInvertible) as err:
        make_jac_aut([[1, 0], [0, 0]], 2)
    assert str(err.value) == "id + r*M has determinant 3, expected +1 or -1"
    # id + 2*[[0, 1], [1, 0]] = [[1, 2], [2, 1]]
    with pytest.raises(NotInvertible) as err:
        make_jac_aut([[0, 1], [1, 0]], 2)
    assert str(err.value) == "id + r*M has determinant -3, expected +1 or -1"


# -- the eliminations _clear_column replaced, kept as exact oracles -----


def swap_first_inverse(a):
    """Inverse of an integer matrix with determinant +-1, as an integer matrix.

    Fraction-free: unimodular row operations on [a | I], Euclid down each
    column to an upper triangle, then back-substitution. Each Euclid swap
    negates the determinant and the other operations keep it, so the
    determinant is the signed product of the triangle's diagonal; anything
    but +-1 raises NotInvertible with it. The diagonal is then made
    positive, hence all ones.
    """
    n = len(a)
    m = [list(map(int, row)) + unit for row, unit in zip(a, identity_matrix(n))]
    d = 1
    for col in range(n):
        piv = m[col]
        for i in range(col + 1, n):
            row = m[i]
            while row[col]:
                q = piv[col] // row[col]
                piv, row = row, [x - q * y for x, y in zip(piv, row)]
                d = -d
            m[i] = row
        m[col] = piv
        d *= piv[col]
    if d not in (1, -1):
        raise NotInvertible(d)
    for col in range(n):
        if m[col][col] < 0:
            m[col] = [-x for x in m[col]]
    for col in reversed(range(n)):
        piv = m[col]
        for i in range(col):
            f = m[i][col]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], piv)]
    return [row[n:] for row in m]


def smith_solve(a, c):
    """One integer solution z of a*z = c, or None when unsolvable.

    Diagonalizes via unimodular row and column operations (Smith style,
    without the divisibility chain, which solving does not need).
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ShapeMismatch("ragged coefficient matrix")
    if m == 0:
        return [0] * n
    d = [list(map(int, row)) for row in a]
    u = identity_matrix(m)
    v = identity_matrix(n)
    t = 0
    while t < m and t < n:
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in d:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, m):
                while d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    if q:
                        for k in range(n):
                            d[i][k] -= q * d[t][k]
                        for k in range(m):
                            u[i][k] -= q * u[t][k]
                    if d[i][t] != 0:
                        d[t], d[i] = d[i], d[t]
                        u[t], u[i] = u[i], u[t]
            for j in range(t + 1, n):
                while d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    if q:
                        for row in d:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if d[t][j] != 0:
                        for row in d:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
            if all(d[i][t] == 0 for i in range(t + 1, m)) and all(
                d[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        t += 1
    rhs = mat_vec(u, list(map(int, c)))
    y = [0] * n
    for i in range(m):
        di = d[i][i] if i < n else 0
        if di:
            if rhs[i] % di != 0:
                return None
            y[i] = rhs[i] // di
        elif rhs[i] != 0:
            return None
    return mat_vec(v, y)


def inverse_or_det(inverse, m):
    try:
        return inverse(m)
    except NotInvertible as err:
        return ("NotInvertible", err.det)


def sparse_matrix(rng, rows, cols, k):
    """Entries in [-k, k], about half of them 0, so pivots are often 0."""
    return [[rng.choice((0, rng.randint(-k, k))) for _ in range(cols)] for _ in range(rows)]


def rank_deficient(rng, rows, cols, k):
    """A matrix whose last row is an integer combination of two others."""
    m = sparse_matrix(rng, rows, cols, k)
    if rows >= 3:
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        m[-1] = [s * x + t * y for x, y in zip(m[0], m[1])]
    elif rows == 2:
        m[1] = list(m[0])
    return m


def test_inverse_matches_the_replaced_elimination():
    rng = random.Random(61)
    for _ in range(1500):
        n = rng.randint(1, 7)
        k = rng.choice((1, 2, 5))
        kind = rng.randrange(3)
        if kind == 0:
            m = sparse_matrix(rng, n, n, k)
        elif kind == 1:
            m = rank_deficient(rng, n, n, k)
        else:
            m = random_unimodular(rng, n, rng.randint(0, 3 * n))
        assert det_int(m) == frac_det(m), m
        assert inverse_or_det(inverse_unimodular, m) == inverse_or_det(swap_first_inverse, m), m


def test_solver_returns_the_replaced_solvers_z():
    """The solver's particular z is printed as a divisor form, so it must
    be the same z, not only a solution."""
    rng = random.Random(67)
    solved = 0
    for _ in range(1500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.choice((1, 3, 7))
        a = (sparse_matrix if rng.randrange(2) else rank_deficient)(rng, rows, cols, k)
        if rng.randrange(2):
            c = mat_vec(a, [rng.randint(-3, 3) for _ in range(cols)])
        else:
            c = [rng.randint(-9, 9) for _ in range(rows)]
        z = solve_integer_system(a, c)
        assert z == smith_solve(a, c), (a, c)
        solved += z is not None
    assert 300 < solved < 1400  # both verdicts are exercised


@pytest.mark.parametrize("two_g", [2, 4, 12])
def test_solver_z_on_divisor_form_systems(two_g):
    """[1...1 0...0; p_x | q*I] z = (degree, target): the system behind
    every printed T(O(...)), at up to 12 points."""
    rng = random.Random(71 + two_g)
    for _ in range(150):
        q = rng.choice((2, 3, 4, 6, 12, 60))
        n = rng.randint(1, 12)
        points = [[rng.randrange(q) for _ in range(two_g)] for _ in range(n)]
        a = [[1] * n + [0] * two_g]
        for i in range(two_g):
            a.append([p[i] for p in points] + [q if j == i else 0 for j in range(two_g)])
        c = [rng.randint(-4, 4)] + [rng.randrange(q) for _ in range(two_g)]
        z = solve_integer_system(a, c)
        assert z == smith_solve(a, c), (a, c)
        assert z is None or mat_vec(a, z) == c


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda cols: st.tuples(
            st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), max_size=5),
            st.lists(st.integers(-9, 9), min_size=5, max_size=5),
        )
    )
)
def test_solver_z_matches_on_drawn_systems(system):
    a, c = system
    c = c[: len(a)]
    assert solve_integer_system(a, c) == smith_solve(a, c)
