"""The integer Smith form against the Smith form that tracks inverses.

``reference`` is the elimination written with separate A, U and V
matrices, which pushes U^-1 and V^-1 through every elementary operation
and checks them by products; it shares no row list and no determinant
check with ``nk.linalg.smith_normal_form_int``.  Only the coefficients
of the 2x2 steps come from ``nk.linalg._unimodular_step``, and the
reference checks what they do.
"""

import random

import pytest

from nk.linalg import (Matrix, _ident, _imul, _unimodular_step, inverse_int,
                       matmul, smith_normal_form_int)

from domains import assert_diagonalizes

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def reference(m):
    """(factors, rank, U, V, U^-1, V^-1) for the integer matrix m, as
    lists of rows."""
    A = [[int(e) for e in row] for row in m.entries]
    nr, nc = m.rows, m.cols
    U, Ui, V, Vi = _ident(nr), _ident(nr), _ident(nc), _ident(nc)

    def row_add(i, j, q):  # row_i += q*row_j
        for k in range(nc):
            A[i][k] += q * A[j][k]
        for k in range(nr):
            U[i][k] += q * U[j][k]
            Ui[k][j] -= q * Ui[k][i]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for k in range(nr):
            Ui[k][i], Ui[k][j] = Ui[k][j], Ui[k][i]

    def row_neg(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for k in range(nr):
            Ui[k][i] = -Ui[k][i]

    def col_add(j, k, q):  # col_j += q*col_k
        for i in range(nr):
            A[i][j] += q * A[i][k]
        for i in range(nc):
            V[i][j] += q * V[i][k]
            Vi[k][i] -= q * Vi[j][i]

    def row_mix(t, i):  # (row_t, row_i) <- [[x, y], [u, v]] (row_t, row_i)
        x, y, u, v = _unimodular_step(A[t][t], A[i][t])
        for M in (A, U):
            M[t], M[i] = ([x * a + y * b for a, b in zip(M[t], M[i])],
                          [u * a + v * b for a, b in zip(M[t], M[i])])
        for row in Ui:  # times the inverse [[v, -y], [-u, x]] on the right
            row[t], row[i] = v * row[t] - u * row[i], x * row[i] - y * row[t]
        assert A[i][t] == 0 < A[t][t]

    def col_mix(t, j):  # (col_t, col_j) <- (x col_t + y col_j, u col_t + v col_j)
        x, y, u, v = _unimodular_step(A[t][t], A[t][j])
        for row in A + V:
            row[t], row[j] = x * row[t] + y * row[j], u * row[t] + v * row[j]
        Vi[t], Vi[j] = ([v * a - u * b for a, b in zip(Vi[t], Vi[j])],
                        [x * b - y * a for a, b in zip(Vi[t], Vi[j])])
        assert A[t][j] == 0 < A[t][t]

    def col_swap(j, k):
        for i in range(nr):
            A[i][j], A[i][k] = A[i][k], A[i][j]
        for i in range(nc):
            V[i][j], V[i][k] = V[i][k], V[i][j]
        Vi[j], Vi[k] = Vi[k], Vi[j]

    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if A[i][j] and (best is None
                                or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if A[t][t] < 0:
            row_neg(t)
        while True:
            for i in range(t + 1, nr):
                if A[i][t] % A[t][t]:
                    row_mix(t, i)
                elif A[i][t]:
                    row_add(i, t, -(A[i][t] // A[t][t]))
            for j in range(t + 1, nc):
                if A[t][j] % A[t][t]:
                    col_mix(t, j)
                elif A[t][j]:
                    col_add(j, t, -(A[t][j] // A[t][t]))
            if any(A[i][t] for i in range(t + 1, nr)):
                continue
            bad = next((i for i in range(t + 1, nr) for j in range(t + 1, nc)
                        if A[i][j] % A[t][t]), None)
            if bad is None:
                break
            row_add(t, bad, 1)
        t += 1
    assert _imul(U, Ui) == _ident(nr) and _imul(Vi, V) == _ident(nc)
    return tuple(A[i][i] for i in range(t)), t, U, V, Ui, Vi


small = st.integers(-3, 3)
huge = st.integers(-2 ** 70, 2 ** 70)


@st.composite
def int_matrices(draw):
    """0..8 x 0..8 integer matrices, with zero rows and columns and
    entries up to 2^70 drawn often."""
    nr, nc = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entries = st.one_of(small, huge) if draw(st.booleans()) else small
    rows = [[draw(entries) for _ in range(nc)] for _ in range(nr)]
    for i in draw(st.sets(st.integers(0, 7), max_size=2)) & set(range(nr)):
        rows[i] = [0] * nc
    for j in draw(st.sets(st.integers(0, 7), max_size=2)) & set(range(nc)):
        for row in rows:
            row[j] = 0
    return Matrix(nr, nc, rows)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(int_matrices())
def test_smith_form_matches_the_reference(m):
    res = smith_normal_form_int(m)
    factors, rank, U, V, Ui, Vi = reference(m)
    assert (res.invariant_factors, res.rank) == (factors, rank)
    assert res.U == Matrix(m.rows, m.rows, U)
    assert res.V == Matrix(m.cols, m.cols, V)
    assert inverse_int(res.U) == Matrix(m.rows, m.rows, Ui)
    assert inverse_int(res.V) == Matrix(m.cols, m.cols, Vi)
    assert_diagonalizes(m, res)


def test_wide_entries_keep_the_transforms_small():
    """Random 300-digit entries: U and V stay within 4 times the input's
    bit length (floor remainders alternating between rows and columns
    gave entries of 122,668 bits, 123 times it)."""
    rng = random.Random(300)
    m = Matrix(2, 2, [[rng.randrange(10 ** 299, 10 ** 300) for _ in range(2)]
                      for _ in range(2)])
    res = smith_normal_form_int(m)
    bits = max(abs(x).bit_length() for row in m.entries for x in row)
    assert max(abs(x).bit_length() for t in (res.U, res.V)
               for row in t.entries for x in row) <= 4 * bits
    assert_diagonalizes(m, res)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 4), (4, 0)])
def test_empty_shapes_match_the_reference(rows, cols):
    m = Matrix.zeros(rows, cols)
    res = smith_normal_form_int(m)
    factors, rank, U, V, _, _ = reference(m)
    assert (res.invariant_factors, res.rank, res.U, res.V) == (
        factors, rank, Matrix(rows, rows, U), Matrix(cols, cols, V))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(int_matrices())
def test_inverse_int_inverts_the_transforms(m):
    res = smith_normal_form_int(m)
    for t in (res.U, res.V):
        assert matmul(t, inverse_int(t)) == Matrix.identity(t.rows)
        assert matmul(inverse_int(t), t) == Matrix.identity(t.rows)


@pytest.mark.parametrize("rows", [[[2]], [[1, 2], [2, 4]], [[1, 0, 0]],
                                  [[2, 1], [1, 1], [0, 1]]],
                         ids=["det-2", "singular", "wide", "tall"])
def test_inverse_int_rejects_what_is_not_unimodular(rows):
    with pytest.raises(ValueError, match="not a unimodular integer matrix"):
        inverse_int(Matrix.from_rows(rows))
