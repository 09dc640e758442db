"""Small exact linear algebra kit for integer matrices.

Matrices are lists (or tuples) of rows of ints, row major; vectors are
sequences of ints. No floats and no Fractions anywhere.

One elimination step serves the unimodular solve (and so the inverse)
and the integer solver: _clear_column runs Euclid down one column with
unimodular whole-row operations. The determinant is Bareiss elimination,
whose entries are minors of the input: Euclid leaves the columns it has
not reached unreduced, and on dense matrices their entries grow
exponentially.
"""

from itertools import compress
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
    """a . b without zero terms: a row of a with at most a third of its
    entries nonzero gives the sum of those multiples of rows of b, and a
    denser row one dot product per column of b."""
    width, cols, out = len(b[0]) if b else 0, None, []
    for row in a:
        if (len(row) - row.count(0)) * 3 > len(row):
            cols = cols or list(zip(*b))
            out.append([sum(map(mul, row, col)) for col in cols])
            continue
        acc = [0] * width
        for k in compress(range(len(row)), row):
            c = row[k]
            acc = [x + c * y for x, y in zip(acc, b[k])]
        out.append(acc)
    return out


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def det_int(a):
    """Determinant of an integer matrix, fraction-free Bareiss elimination,
    whose intermediate entries are minors of a."""
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


def _clear_column(rows, t):
    """Euclid down column t of rows[t:], in place, over whole rows.

    Each step reduces an entry by the pivot rows[t][t] (q = 0 while the
    pivot is 0) and swaps the two rows when a remainder is left, until
    every entry below the pivot is 0.
    """
    piv = rows[t]
    for i in range(t + 1, len(rows)):
        row = rows[i]
        while row[t]:
            q = row[t] // piv[t] if piv[t] else 0
            if q:
                row = [x - q * y for x, y in zip(row, piv)]
            if row[t]:
                piv, row = row, piv
        rows[i] = row
    rows[t] = piv


def inverse_unimodular(a):
    """Inverse of an integer matrix with determinant +-1, as an integer matrix."""
    return solve_unimodular(a, identity_matrix(len(a)))


def solve_unimodular(a, b):
    """a^{-1} b for a of determinant +-1 and a block b of right-hand columns.

    Fraction-free: _clear_column takes [a | b] to an upper triangle whose
    diagonal is all +-1 exactly when det a is, since its product is +-det a;
    at the first other pivot NotInvertible reports det_int(a). Each row is
    then made to start with +1, and back-substitution clears above the
    diagonal. The rows are n + width(b) wide, not 2n as for an inverse.
    """
    n = len(a)
    m = [[*map(int, row), *rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        _clear_column(m, col)
        if m[col][col] not in (1, -1):
            raise NotInvertible(det_int(a))
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

    Diagonalizes d = u*a*v via unimodular row and column operations (Smith
    style, without the divisibility chain, which solving does not need).
    Per pivot t, _clear_column alternates on the rows of [d | u] and on
    those of the transpose [dT | vT] until both the pivot's column and its
    row are clear. Both run on d's block from (t, t) on: the rows and
    columns before t are clear off the diagonal.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ShapeMismatch("ragged coefficient matrix")
    if m == 0:
        return [0] * n
    # rows holds [d | u] from row t and column t of d on, done (d[t][t], u[t])
    rows = [list(map(int, row)) + unit for row, unit in zip(a, identity_matrix(m))]
    vt = identity_matrix(n)
    done = []
    for t in range(min(m, n)):
        w = n - t
        piv = next(((i, j) for i, row in enumerate(rows) for j in range(w) if row[j]), None)
        if piv is None:
            break
        pi, pj = piv
        rows[0], rows[pi] = rows[pi], rows[0]
        for row in rows:
            row[0], row[pj] = row[pj], row[0]
        vt[t], vt[t + pj] = vt[t + pj], vt[t]
        while True:
            _clear_column(rows, 0)
            # column t is clear now, so a clear row t finishes this pivot
            if not any(rows[0][1:w]):
                break
            cols = [[*col, *vrow] for col, vrow in zip(zip(*rows), vt[t:])]
            _clear_column(cols, 0)
            vt[t:] = [col[len(rows) :] for col in cols]
            for row, drow in zip(rows, zip(*cols)):
                row[:w] = drow
        done.append((rows[0][0], rows[0][w:]))
        rows = [row[1:] for row in rows[1:]]
    w = n - len(done)
    c = list(map(int, c))
    y = [0] * n
    for i, (di, u) in enumerate(done + [(0, row[w:]) for row in rows]):
        ci = sum(map(mul, u, c))
        if di:
            if ci % di:
                return None
            y[i] = ci // di
        elif ci:
            return None
    return mat_vec(list(zip(*vt)), y)
