"""The Schur peel of novikov_diagonalize against the plain heuristic."""

from unittest import mock

import pytest

from nk import linalg
from nk.linalg import Inconclusive, Matrix, associate, novikov_diagonalize
from nk.rings import Direction, LaurentPoly

from domains import assert_diagonalizes

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

laurent = st.builds(
    lambda lo, coeffs: LaurentPoly({lo + i: c for i, c in enumerate(coeffs)}),
    st.integers(-1, 1), st.lists(st.integers(-3, 3), max_size=4))


@st.composite
def laurent_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return Matrix(rows, cols, [[draw(laurent) for _ in range(cols)]
                               for _ in range(rows)])


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(laurent_matrices(), st.sampled_from(list(Direction)))
def test_peel_agrees_with_the_heuristic_as_ideals(m, direction):
    peeled = novikov_diagonalize(m, direction)
    assert_diagonalizes(m, peeled, direction)
    with mock.patch.object(linalg, "_schur_step", lambda *args: None):
        try:
            plain = novikov_diagonalize(m, direction)
        except Inconclusive:
            return
    assert peeled.rank == plain.rank
    assert all(associate(a, b, direction) for a, b in
               zip(peeled.invariant_factors, plain.invariant_factors))


def test_a_matrix_that_does_not_peel_reaches_the_heuristic_as_it_is():
    """Constant terms with gcd 2: no Schur step, and the heuristic sees
    the input itself."""
    z = LaurentPoly({1: 1})
    m = Matrix.from_rows([[2 + z, 4 * z], [2 * z, 6 + z]])
    seen = []
    init = linalg._Reduction.__init__

    def spy(self, grid, *args):
        seen.append([list(row) for row in grid])
        init(self, grid, *args)

    with mock.patch.object(linalg._Reduction, "__init__", spy):
        novikov_diagonalize(m)
    assert seen == [[list(row) for row in m.entries]]
