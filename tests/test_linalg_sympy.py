"""The integer Smith form and the packed Bareiss kernel against sympy.

``smith_normal_form_int`` is compared with sympy's Smith normal form
over ZZ, and ``linalg._bareiss`` with sympy's ``det`` and ``adjugate``
over ZZ[z]: implementations that share no code with ``nk``.
"""

import pytest

from nk.linalg import Matrix, _bareiss, smith_normal_form_int
from nk.rings import LaurentPoly

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
normalforms = pytest.importorskip("sympy.matrices.normalforms")

Z = sympy.Symbol("z")


def grids(entries, max_rows, max_cols):
    """Lists of rows of the drawn entries, any shape up to the bounds."""
    return st.integers(0, max_cols).flatmap(lambda cols: st.lists(
        st.lists(entries, min_size=cols, max_size=cols), max_size=max_rows))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(grids(st.integers(-12, 12), 4, 4))
def test_invariant_factors_match_sympy(rows):
    cols = len(rows[0]) if rows else 0
    res = smith_normal_form_int(Matrix(len(rows), cols, rows))
    snf = normalforms.smith_normal_form(
        sympy.Matrix(len(rows), cols, [e for row in rows for e in row]),
        domain=sympy.ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
    assert res.invariant_factors == tuple(d for d in diag if d)


def to_sympy(p, shift):
    """z^-shift p as a sympy polynomial expression in z."""
    return sum((c * Z ** (e - shift) for e, c in p.items()), sympy.Integer(0))


laurent = st.dictionaries(st.integers(-4, 3), st.integers(-3, 3),
                          max_size=2).map(LaurentPoly)


@st.composite
def systems(draw):
    """(rows, n): an n x n block M beside up to 2 columns B."""
    n, k = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    return [[draw(laurent) for _ in range(n + k)] for _ in range(n)], n


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(systems())
def test_bareiss_matches_sympy_det_and_adjugate(system):
    # shifting row i by z^-s_i, s_i its lowest order, makes [M | B] a
    # polynomial matrix [P | Q] with det M = z^s det P and
    # adj(M) B = z^s adj(P) Q, s the sum of the shifts
    rows, n = system
    shifts = [min((e.ord() for e in row if e), default=0) for row in rows]
    s = sum(shifts)
    PQ = sympy.Matrix(n, len(rows[0]) if rows else n, [
        to_sympy(e, sh) for row, sh in zip(rows, shifts) for e in row])
    P, Q = PQ[:, :n], PQ[:, n:]
    det, adj_b = _bareiss([list(row) for row in rows], n, jordan=True)
    expected = sympy.expand(P.det(method="berkowitz"))
    assert sympy.expand(to_sympy(det, s) - expected) == 0
    if expected == 0:
        assert adj_b is None
        return
    product = (P.adjugate(method="berkowitz") * Q).expand()
    assert [[sympy.expand(to_sympy(e, s) - product[i, j])
             for j, e in enumerate(row)] for i, row in enumerate(adj_b)] == \
        [[0] * Q.cols for _ in range(n)]
