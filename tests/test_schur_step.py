"""The packed Schur step against a Schur step on Laurent matrices, the
step's own certificate on its corrupted outputs, and LaurentPoly
arithmetic with int and monomial operands.

``reference`` is the Schur step written with Laurent matrix products
(``matmul``), and with its Gauss-Jordan pass run by the LaurentPoly-row
elimination of ``test_bareiss``; it shares no packing, slot width or
unpacking with ``nk.linalg._schur_step``.  It also writes the step's
transforms into U and V, as ``novikov_diagonalize`` builds them from the
steps taken (``nk.linalg._peel_transforms``).
"""

import math
import random

import pytest

from nk import linalg
from nk.linalg import (Matrix, _laurent_rows, matmul, novikov_diagonalize,
                       novikov_factors, smith_normal_form_int)
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
    """A Laurent core, cleared of denominators, and the number t of rows
    above it: (W, t).  A quarter of them peel nothing."""
    W, t = draw(KINDS[draw(st.sampled_from(sorted(KINDS)))])
    if draw(st.integers(0, 3)) == 0:  # no peel: every constant term even
        W = [[2 * e for e in row] for row in W]
    return _laurent_rows(W)[0], t


def span_core():
    """A 3 x 3 core of span 1000 with coefficients up to 2^40 whose
    constant terms have the factors (1, 1, 2), under t = 2 rows: the step
    eliminates two rows at 32-byte slots, where its bigint divisions take
    longest.  Kept as an explicit example, since the derandomized tier-1
    may not draw one."""
    rng = random.Random("span-1000")
    big = 2 ** 40
    W = [[(i == j) * (1 + (i == 2)) + LaurentPoly({
        rng.randint(1, 1001): rng.randint(-big, big) for _ in range(3)})
        for j in range(3)] for i in range(3)]
    return W, 2


SPAN_CORE = span_core()


def check_step(W, t):
    """The step's (k, det, S) against the reference's, det None for a
    whole peel, and the transforms built from the step against the ones
    the reference writes into identities."""
    nr, nc = len(W), len(W[0])
    U, V = ([[int(i == j) for j in range(n)] for i in range(n)]
            for n in (t + nr, t + nc))
    expected = reference([list(r) for r in W], U, V, t)
    step = linalg._schur_step([list(r) for r in W])
    if expected is None:
        assert step is None
        return
    k, det, S = expected
    assert step == (k, None if k == min(nr, nc) else det, S)
    U2, V2, peeled, scale = linalg._peel_transforms(t + nr, t + nc, [(t, W)])
    assert [list(r) for r in U2] == U and V2 == V
    assert peeled == [det] * k and scale == det


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(cores())
@hypothesis.example(SPAN_CORE)
def test_packed_step_matches_the_reference(case):
    check_step(*case)


def test_a_core_of_span_1200_peels_like_the_reference():
    z = LaurentPoly({1: 1})
    check_step([[1 + 3 * z ** 1200, z - 2 * z ** 700],
                [2 * z ** 999, 3 + z]], 0)


@pytest.mark.parametrize("rows", [
    [[1, 2]], [[1, 2], [3, 5]], [[1, 0], [0, 1], [4, 6]]],
    ids=["1x2", "2x2", "3x2"])
def test_a_whole_peel_does_no_elimination(monkeypatch, rows):
    """Constant terms of full rank whose factors are all 1: the step takes
    every row or column with no Gauss-Jordan pass and no product, and
    every factor is 1 (Nakayama).  The integer Smith form's own forward
    eliminations are all that runs."""
    z = LaurentPoly({1: 1})
    m = Matrix.from_rows([[a + (i + j + 1) * z ** (j + 1) for j, a
                           in enumerate(row)] for i, row in enumerate(rows)])
    eliminate, calls = linalg._eliminate, []

    def spy(M, n, jordan=False):
        calls.append(jordan)
        return eliminate(M, n, jordan)

    def product(*args):
        raise AssertionError("a whole peel multiplies nothing")

    monkeypatch.setattr(linalg, "_eliminate", spy)
    monkeypatch.setattr(linalg._Packed, "product", product)
    monkeypatch.setattr(linalg, "_product_is", product)
    n = min(m.rows, m.cols)
    step = linalg._schur_step(_laurent_rows(m.entries)[0])
    assert step == (n, None, [[]] * (m.rows - n))
    assert novikov_factors(m) == ((ONE,) * n, n)
    assert calls and True not in calls


# ---------------------------------------------------------------------------
# the step's certificate, checked on the unpacked values

z = LaurentPoly({1: 1})
#: one Schur step eliminates the first row, and the heuristic spends
#: nothing on the 1 x 1 core 2 + 450z that it leaves
W150 = [[1 + 150 * z, 150 * z], [150 * z, 2 + 150 * z]]


def spied_paths(monkeypatch, corrupt=None):
    """({path: a run of it on W150}, widths, packed): the slot widths
    picked and the widths packed at are recorded, and the step's
    Gauss-Jordan outputs, X in columns n.. of its rows and det, are
    changed by corrupt(M, n, det, X) -> det, X the slot base."""
    slot_width, kron, eliminate = (linalg._slot_width, linalg._kron,
                                   linalg._eliminate)
    widths, packed = [], set()

    def recording(bound):
        widths.append(slot_width(bound))
        return widths[-1]

    def packing(t, w):
        packed.add(w)
        return kron(t, w)

    def corrupted(M, n, jordan=False):
        r, det = eliminate(M, n, jordan)
        if jordan and corrupt is not None:
            det = corrupt(M, n, det, 1 << 8 * widths[-1])
        return r, det

    monkeypatch.setattr(linalg, "_slot_width", recording)
    monkeypatch.setattr(linalg, "_kron", packing)
    monkeypatch.setattr(linalg, "_eliminate", corrupted)
    m = Matrix.from_rows(W150)
    return {path: (lambda path=path: path(m))
            for path in (novikov_factors, novikov_diagonalize)}, \
        widths, packed


def test_the_check_widens_its_slots_when_the_digits_need_it(monkeypatch):
    """The step bounds its values by its rows' 1-norms, 2^15 < 301 x 302
    = 90,902 < 2^31, so its slots are 4 bytes; its certificate reads its
    width off the unpacked det, X and S, 302 x 151 + 450 < 2^31, and the
    run path picks no other width.  Corrupted digits widen it (below)."""
    run, widths, packed = spied_paths(monkeypatch)
    U, V = [[1, 0], [0, 1]], [[1, 0], [0, 1]]
    k, det, core = reference(W150, U, V, 0)
    assert (k, det, core) == (1, W150[0][0], [[2 + 450 * z]])
    assert run[novikov_factors]() == ((ONE, 2 + 450 * z), 2)
    assert widths == [4, 4] and packed == {4}
    r = run[novikov_diagonalize]()
    assert r.invariant_factors == (ONE, 2 + 450 * z) and r.rank == 2
    assert [list(row) for row in r.U.entries] == U
    assert [list(row) for row in r.V.entries] == V


def add_z_to_x(M, n, det, X):
    M[0][n] += X
    return det


def scale_outputs(M, n, det, X):
    """det and X times c = 1 + (X/2) X^2: the step's identity still holds
    for the integers, so no check at the step's own X sees it, and det
    still unpacks to a unit; but the digits of the products carry, and
    the polynomials unpacked for det, X and S no longer satisfy it."""
    c = 1 + (X // 2) * X ** 2
    for row in M:
        row[n:] = [c * v for v in row[n:]]
    return c * det


#: the widths (step, certificate) under each corruption
CORRUPTED_WIDTHS = {add_z_to_x: [4, 4], scale_outputs: [4, 8]}


@pytest.mark.parametrize("corrupt", [add_z_to_x, scale_outputs])
def test_the_widened_check_catches_a_corrupted_step(monkeypatch, corrupt):
    run, widths, packed = spied_paths(monkeypatch, corrupt)
    for path in run.values():
        widths.clear()
        with pytest.raises(AssertionError,
                           match="Schur step self-check failed"):
            path()
        # the step was certified, on slots at least as wide as its own
        assert widths == CORRUPTED_WIDTHS[corrupt] and widths[1] in packed


# ---------------------------------------------------------------------------
# LaurentPoly with int and monomial operands


def schoolbook(p, q):
    """p q term by term, as an {exponent: coefficient} map without zeros."""
    out = {}
    for i, x in p.items():
        for j, y in q.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {j: n for j, n in out.items() if n}


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.one_of(sparse(6, coeffs=st.integers(-2 ** 70, 2 ** 70)),
                            sparse(3000)),
                  st.integers(-3000, 3000),
                  st.one_of(st.sampled_from([1, -1]),
                            st.integers(-2 ** 70, 2 ** 70).filter(bool)))
def test_monomial_operands_shift_and_scale(p, k, c):
    m = LaurentPoly({k: c})
    for value in (m * p, p * m):
        assert value == LaurentPoly(schoolbook(m, p))
        assert value._t[:1] != (0,) and value._t[-1:] != (0,)


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
