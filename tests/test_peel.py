"""The Schur peel of novikov_diagonalize against the plain heuristic."""

from unittest import mock

import pytest

from nk import linalg
from nk.linalg import Inconclusive, Matrix, associate, novikov_diagonalize
from nk.rings import Direction, LaurentPoly, RationalFunction

from domains import assert_diagonalizes

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

laurent = st.builds(
    lambda lo, coeffs: LaurentPoly({lo + i: c for i, c in enumerate(coeffs)}),
    st.integers(-1, 1), st.lists(st.integers(-3, 3), max_size=4))


#: denominators in S whose reversal is in S too (both end coefficients
#: +-1), so an entry over them lies in the rational subring of Z((z))
#: and of Z((z^-1))
denominators = st.builds(lambda a, b: LaurentPoly({0: 1, 1: a, 2: b}),
                         st.integers(-2, 2), st.sampled_from([1, -1, 0])
                         ).filter(lambda d: abs(d.highest_coeff()) == 1)


@st.composite
def entries(draw):
    """A Laurent polynomial, or now and then a RationalFunction."""
    if draw(st.integers(0, 4)):
        return draw(laurent)
    return RationalFunction(draw(laurent), draw(denominators))


@st.composite
def laurent_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return Matrix(rows, cols, [[draw(entries()) for _ in range(cols)]
                               for _ in range(rows)])


def _factors(m, direction):
    """(factors, result) of novikov_diagonalize; when the budget runs
    out, the partial factors and None."""
    try:
        res = novikov_diagonalize(m, direction)
    except Inconclusive as e:
        return e.partial_factors, None
    return res.invariant_factors, res


def check_peel_against_the_heuristic(m, direction):
    """The peeled route and the plain heuristic give the same ideals;
    True when either ran out of budget.

    Every finalized pivot divides what is left of the matrix, so it
    generates that position's invariant-factor ideal, and the peeled
    positions are units.  So the factors of a route that ran out of
    budget still agree with the other route's over their common prefix.
    """
    peeled, res = _factors(m, direction)
    if res is not None:
        assert_diagonalizes(m, res, direction)
    with mock.patch.object(linalg, "_schur_step", lambda *args: None):
        plain, plain_res = _factors(m, direction)
    if res is not None and plain_res is not None:
        assert res.rank == plain_res.rank
    assert all(associate(a, b, direction) for a, b in zip(peeled, plain))
    return res is None or plain_res is None


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(laurent_matrices(), st.sampled_from(list(Direction)))
def test_peel_agrees_with_the_heuristic_as_ideals(m, direction):
    check_peel_against_the_heuristic(m, direction)


def p(lo, *coeffs):
    return LaurentPoly({lo + i: c for i, c in enumerate(coeffs)})


#: two 4x4 matrices on which both routes run out of the default budget
#: (after 2-3 s each)
EXHAUSTING = [
    (Matrix.from_rows([
        [p(0, 2, -2, 3, 3), 0, p(1, -1), p(0, -3, 1)],
        [p(-1, -2, 3, 1), p(0, 2, 3, 2), p(-1, -3, 1, -2, 1),
         p(1, -1, -1, 2, 3)],
        [0, 0, p(1, -3), p(1, 3, 0, -3)],
        [p(1, 2, 3), 0, 0, p(1, 3)]]), Direction.PLUS),
    (Matrix.from_rows([
        [p(-1, -1, -3, -2, -3), p(0, 3, 3, -2), p(0, -1, -3, 2, 2),
         p(0, -3, -2, 1)],
        [p(0, -2, 1, 1, 2), p(-1, -3), 0, 0],
        [p(0, 3, -2, -3, 2), p(2, 3), p(1, -2), p(1, 1, -3, -1, 2)],
        [p(-1, 3, 0, -2), p(-1, -1, 0, 3), 0, p(1, -3)]]), Direction.MINUS),
]


@pytest.mark.parametrize("m, direction", EXHAUSTING, ids=["plus", "minus"])
def test_routes_out_of_budget_agree_on_their_partial_factors(
        monkeypatch, m, direction):
    monkeypatch.setattr(linalg, "REDUCTION_BUDGET", 200)
    assert check_peel_against_the_heuristic(m, direction)


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
