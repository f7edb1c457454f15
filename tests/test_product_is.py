"""linalg._product_is, the exact Kronecker check of a matrix product,
against chain equality under ``matmul``."""

import functools

import pytest

from nk import linalg
from nk.linalg import DimensionMismatch, Matrix, _product_is, matmul
from nk.rings import ONE, LaurentPoly

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

z = LaurentPoly({1: 1})


def product(factors):
    return functools.reduce(matmul, factors)


def add_term(m, i, j, term):
    """m with the entry (i, j) plus the polynomial term."""
    rows = [list(row) for row in m.entries]
    rows[i][j] = rows[i][j] + term
    return Matrix(m.rows, m.cols, rows)


@pytest.fixture
def widths(monkeypatch):
    """The slot widths picked since the fixture was set up."""
    picked = []
    real = linalg._slot_width

    def recording(bound):
        picked.append(real(bound))
        return picked[-1]

    monkeypatch.setattr(linalg, "_slot_width", recording)
    return picked


@st.composite
def entries(draw):
    """An int or a sparse Laurent polynomial, with exponents down to -12
    and coefficients small or past 2^64."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.integers(-3, 3))
    lo = draw(st.integers(-12, 4))
    coeffs = st.integers(-3, 3) if draw(st.booleans()) \
        else st.integers(-2 ** 70, 2 ** 70)
    return LaurentPoly(draw(st.dictionaries(
        st.integers(lo, lo + draw(st.sampled_from([0, 2, 8]))), coeffs,
        max_size=4)))


@st.composite
def chains(draw):
    """2 or 3 composable Laurent matrices, each side 0 to 6."""
    dims = draw(st.lists(st.integers(0, 6), min_size=3, max_size=4))
    return [Matrix(r, c, [[draw(entries()) for _ in range(c)]
                          for _ in range(r)])
            for r, c in zip(dims, dims[1:])]


def near_misses(p):
    """Targets one coefficient away from the true product p: +-1 at the
    lowest and the highest coefficient of each entry (its top slot once
    packed) and one past the highest."""
    for i, row in enumerate(p.entries):
        for j, e in enumerate(row):
            e = LaurentPoly({0: e}) if isinstance(e, int) else e
            for k in ({e.ord(), e.deg(), e.deg() + 1} if e else {0}):
                for d in (1, -1):
                    yield add_term(p, i, j, LaurentPoly({k: d}))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(chains())
def test_agrees_with_matmul_on_laurent_chains(chain):
    p = product(chain)
    assert _product_is(chain, p)
    for target in near_misses(p):
        assert not _product_is(chain, target)
    # order below the summed shifts of the factors
    low = min((e.ord() for m in chain for row in m.entries for e in row
               if isinstance(e, LaurentPoly) and e), default=0)
    s = len(chain) * min(low, 0)
    if p.rows and p.cols:
        assert not _product_is(chain, add_term(p, 0, 0,
                                               LaurentPoly({s - 1: 1})))
    # a wrong shape is never the product
    assert not _product_is(chain, Matrix.zeros(p.rows + 1, p.cols))


@pytest.mark.parametrize("shapes", [[(0, 3), (3, 2)], [(2, 0), (0, 3)],
                                    [(3, 0), (0, 0), (0, 2)],
                                    [(0, 0), (0, 0)]])
def test_empty_matrices(shapes):
    chain = [Matrix.from_rows([[z] * c for _ in range(r)], c)
             for r, c in shapes]
    rows, cols = shapes[0][0], shapes[-1][1]
    assert _product_is(chain, Matrix.zeros(rows, cols))
    assert not _product_is(chain, Matrix.zeros(rows, cols + 1))
    if rows and cols:
        assert not _product_is(chain, add_term(Matrix.zeros(rows, cols),
                                               0, 0, z))


def test_shapes_must_compose():
    with pytest.raises(DimensionMismatch):
        _product_is([Matrix.zeros(2, 3), Matrix.zeros(2, 3)],
                    Matrix.zeros(2, 3))


@pytest.mark.parametrize("n, c", [(1, 1), (3, 5), (6, 2 ** 40 + 1)])
@pytest.mark.parametrize("d", [1, -1])
def test_off_by_one_at_the_coefficient_bound(n, c, d):
    """A row of n ones times a column of n entries c: the product n c
    equals the bound (row norms n and c), and n c +- 1 lies past it."""
    row = Matrix(1, n, [[z ** -1] * n])
    col = Matrix(n, 1, [[c * z ** 2] for _ in range(n)])
    assert _product_is([row, col], Matrix(1, 1, [[n * c * z]]))
    assert not _product_is([row, col], Matrix(1, 1, [[(n * c + d) * z]]))


@pytest.mark.parametrize("w, a", [(1, 63), (2, 2 ** 14 - 1),
                                  (8, 2 ** 62 - 1)])
def test_slot_width_at_a_boundary(widths, w, a):
    """(a z^-1 + 1) (z^2) = a z + z^2: the bound (a + 1) + a = 2^(8w-1) - 1
    fits w bytes; a target one more at z pushes it to 2^(8w-1), which
    needs 2w bytes."""
    chain = [Matrix(1, 1, [[LaurentPoly({-1: a, 0: 1})]]),
             Matrix(1, 1, [[z ** 2]])]
    assert _product_is(chain, Matrix(1, 1, [[LaurentPoly({1: a, 2: 1})]]))
    assert not _product_is(chain,
                           Matrix(1, 1, [[LaurentPoly({1: a + 1, 2: 1})]]))
    assert widths == [w, 2 * w]


def test_a_carry_past_the_largest_coefficients():
    """A row of 20 ones times a column of 20 tens is 200; the target
    -56 + z differs by 256 - z, which vanishes at X = 2^8.  The largest
    coefficients (1, 10 and 56) fit one byte, the row norms (20 and 10)
    plus 56 do not."""
    row = Matrix(1, 20, [[ONE] * 20])
    col = Matrix(20, 1, [[LaurentPoly({0: 10})] for _ in range(20)])
    assert _product_is([row, col], Matrix(1, 1, [[200]]))
    assert not _product_is([row, col],
                           Matrix(1, 1, [[LaurentPoly({0: -56, 1: 1})]]))


def test_a_wide_slot_carries_every_coefficient(widths):
    a = Matrix.from_rows([[LaurentPoly({-3: 2 ** 100, 0: -1}), z],
                          [ONE, LaurentPoly({-1: -(2 ** 90)})]])
    b = Matrix.from_rows([[z ** 5, LaurentPoly({2: 2 ** 70})],
                          [LaurentPoly({0: 3, 4: -1}), 0]])
    p = product([a, b, a])
    assert _product_is([a, b, a], p)
    assert not _product_is([a, b, a],
                           add_term(p, 1, 1, LaurentPoly({-2: 2 ** 150})))
    assert min(widths) >= 32


@pytest.mark.parametrize("w", [1, 2, 8])
def test_a_target_coefficient_past_the_slot(w):
    """The factors' bound 1 + c fits w bytes, and at X = 2^(8w) their
    product c z agrees with the constant c X; the bound counts the
    target's coefficient, so the slots are wider."""
    c = (1 << 8 * w - 1) - 2
    chain = [Matrix(1, 2, [[ONE, c * z]]), Matrix(2, 1, [[0], [ONE]])]
    assert _product_is(chain, Matrix(1, 1, [[c * z]]))
    assert not _product_is(chain, Matrix(1, 1, [[c << 8 * w]]))
