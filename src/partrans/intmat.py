"""Small exact linear algebra kit for integer matrices.

Matrices are lists (or tuples) of rows of ints, row major; vectors are
sequences of ints. No floats and no Fractions anywhere.
"""

from operator import mul

from .errors import NotInvertible, ShapeMismatch


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(n):
    return [[0] * n for _ in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def det_int(a):
    """Determinant of an integer matrix, fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # division is exact for Bareiss
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def inverse_unimodular(a):
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


def solve_integer_system(a, c):
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
