"""The packed Schur step against a Schur step on Laurent matrices, and
LaurentPoly arithmetic with int operands.

``reference`` is the Schur step written with Laurent matrix products
(``matmul``), and with its Gauss-Jordan pass run by the LaurentPoly-row
elimination of ``test_bareiss``; it shares no packing, slot width or
unpacking with ``nk.linalg._schur_step``.
"""

import math

import pytest

from nk import linalg
from nk.linalg import Matrix, _laurent_rows, matmul, smith_normal_form_int
from nk.rings import ONE, LaurentPoly, RationalFunction

from test_bareiss import reference as gauss_jordan

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def reference(W, U, V, t):
    """What _schur_step returns and writes into U and V, by Laurent
    matrix products, for a Laurent core W."""
    nr, nc, width = len(W), len(V) - t, len(U)
    ords = [min((p.ord() for p in row if p), default=0) for row in W]
    a0 = Matrix(nr, nc, [[p.coeff(o) for p in row]
                         for row, o in zip(W, ords)])
    if math.gcd(*(x for row in a0.entries for x in row)) != 1:
        return None
    snf = smith_normal_form_int(a0)
    k = snf.invariant_factors.count(1)
    m, n = nr - k, nc - k
    P = matmul(snf.U, Matrix(nr, nc + width, [
        [e.shifted(-o) for e in row] + [ONE.shifted(-o) * e if e else 0
                                        for e in u]
        for row, o, u in zip(W, ords, U[t:])])).entries
    A = matmul(Matrix(nr, nc, [row[:nc] for row in P]), snf.V).entries
    det, sol = gauss_jordan(
        [[LaurentPoly() + e for e in row[:k]]
         + [ONE if i == j else LaurentPoly() for j in range(k)]
         + [LaurentPoly() + e for e in row[k:]]
         for i, row in enumerate(A[:k])], k, jordan=True)
    sol = Matrix(k, nc, sol)
    a21 = Matrix(m, k, [row[:k] for row in A[k:]])
    x = Matrix(k, n, [row[k:] for row in sol.entries])
    s = Matrix(m, n, [row[k:] for row in A[k:]]).scaled(det) - matmul(a21, x)
    top = matmul(Matrix(k, k, [row[:k] for row in sol.entries]),
                 Matrix(k, width, [row[nc:] for row in P[:k]]))
    low = (Matrix(m, width, [row[nc:] for row in P[k:]]).scaled(det)
           - matmul(a21, top))
    U[t:] = [list(row) for row in top.entries + low.entries]
    c = matmul(Matrix(len(V), nc, [row[t:] for row in V]), snf.V).entries
    c1 = Matrix(len(V), k, [row[:k] for row in c])
    c2 = (Matrix(len(V), n, [row[k:] for row in c]).scaled(det)
          - matmul(c1, x))
    for row, new1, new2 in zip(V, c1.entries, c2.entries):
        row[t:] = new1 + new2
    return k, det, [list(r) for r in s.entries]


def sparse(span, lo=(-4, 2), coeffs=st.integers(-3, 3), const=None):
    """A Laurent polynomial with up to 3 terms in a window of the given
    span, optionally with a fixed constant term."""
    @st.composite
    def draw_poly(draw):
        low = draw(st.integers(*lo))
        terms = draw(st.dictionaries(st.integers(low, low + span), coeffs,
                                     max_size=3))
        if const is not None:
            terms = {j: c for j, c in terms.items() if j > 0} | {0: const}
        return LaurentPoly(terms)
    return draw_poly()


@st.composite
def unit_blocks(draw, span=3):
    """A core congruent modulo z to an integer matrix with gcd 1 (so at
    least one unit block peels), often to one with several unit
    factors, and the number t of rows above it: (W, t)."""
    nr, nc, t = (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                 draw(st.integers(0, 2)))
    eye = draw(st.booleans())
    pos = sparse(span, lo=(1, 1))
    W = [[(int(i == j) if eye else draw(st.integers(-3, 3))) + draw(pos)
          for j in range(nc)] for i in range(nr)]
    i, j = draw(st.integers(0, nr - 1)), draw(st.integers(0, nc - 1))
    W[i][j] = draw(sparse(span, lo=(1, 1), const=draw(st.sampled_from(
        [1, -1]))))
    shift = draw(st.integers(-3, 3))
    W[i] = [e.shifted(shift) for e in W[i]]  # a row of order != 0
    return W, t


@st.composite
def rational_rows(draw):
    """A unit block whose rows carry RationalFunction entries, which
    ``cores`` clears by their lcms, as novikov_diagonalize does."""
    W, t = draw(unit_blocks())
    for row in W:
        if draw(st.booleans()):
            d = LaurentPoly({0: 1, 1: draw(st.integers(-2, 2)),
                             2: draw(st.integers(1, 2))})
            j = draw(st.integers(0, len(row) - 1))
            row[j] = RationalFunction(row[j], d)
    return W, t


KINDS = {"unit": unit_blocks(), "rational": rational_rows(),
         "span": unit_blocks(span=1000)}


@st.composite
def cores(draw):
    W, t = draw(KINDS[draw(st.sampled_from(sorted(KINDS)))])
    nr, nc = len(W), len(W[0])
    # transforms of an earlier step: int and Laurent entries, some with
    # coefficients near a slot boundary, so that U or V sets the width
    big = st.sampled_from([2 ** 7, 2 ** 15, 2 ** 40]).flatmap(
        lambda b: st.integers(-b, b))
    def entries(n):
        entry = st.one_of(st.integers(-2, 2), sparse(4),
                          sparse(4, coeffs=big) if draw(st.booleans())
                          else st.integers(-2, 2))
        return [[draw(entry) for _ in range(n)] for _ in range(n)]

    U, V = entries(t + nr), entries(t + nc)
    for i in range(t + nr):
        U[i][i] = U[i][i] or 1  # no zero row
    for i in range(t + nc):
        V[i][i] = V[i][i] or 1  # no zero column
    if draw(st.integers(0, 3)) == 0:  # no peel: every constant term even
        W = [[2 * e for e in row] for row in W]
    return _laurent_rows(W)[0], U, V, t


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(cores())
def test_packed_step_matches_the_reference(case):
    W, U, V, t = case
    U1, V1 = [list(r) for r in U], [list(r) for r in V]
    U2, V2 = [list(r) for r in U], [list(r) for r in V]
    packed = linalg._schur_step([list(r) for r in W], U1, V1, t)
    expected = reference([list(r) for r in W], U2, V2, t)
    assert packed == expected
    assert U1 == U2 and V1 == V2


def test_a_core_of_span_1200_peels_like_the_reference():
    z = LaurentPoly({1: 1})
    W = [[1 + 3 * z ** 1200, z - 2 * z ** 700], [2 * z ** 999, 3 + z]]
    U = [[1, 0], [0, 1]]
    V = [[LaurentPoly({-5: 1}), 0], [0, 1]]
    U1, V1 = [list(r) for r in U], [list(r) for r in V]
    U2, V2 = [list(r) for r in U], [list(r) for r in V]
    assert (linalg._schur_step([list(r) for r in W], U1, V1, 0)
            == reference([list(r) for r in W], U2, V2, 0))
    assert U1 == U2 and V1 == V2


# ---------------------------------------------------------------------------
# LaurentPoly with int operands


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(sparse(6, coeffs=st.integers(-2 ** 70, 2 ** 70)),
                  st.one_of(st.integers(-3, 3),
                            st.integers(-2 ** 70, 2 ** 70)))
def test_int_operands_act_as_constants(p, n):
    c = LaurentPoly({0: n})
    assert p * n == p * c == n * p
    assert p + n == p + c == n + p
    assert p - n == p - c
    assert n - p == c - p
    for value in (p * n, n * p, p + n, n + p):
        assert isinstance(value, LaurentPoly)
        assert value._t[:1] != (0,) and value._t[-1:] != (0,)


@pytest.mark.parametrize("flag", [True, False])
def test_bool_operands_raise(flag):
    p = LaurentPoly({-1: 2, 3: 1})
    for op in (lambda: p * flag, lambda: flag * p, lambda: p + flag,
               lambda: flag + p, lambda: p - flag):
        with pytest.raises(TypeError):
            op()
