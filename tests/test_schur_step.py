"""The packed Schur step against a Schur step on Laurent matrices, its
packed self-check against ``_product_is`` on the unpacked values, and
LaurentPoly arithmetic with int and monomial operands.

``reference`` is the Schur step written with Laurent matrix products
(``matmul``), and with its Gauss-Jordan pass run by the LaurentPoly-row
elimination of ``test_bareiss``; it shares no packing, slot width or
unpacking with ``nk.linalg._schur_step``.
"""

import math
import random

import pytest

from nk import linalg, rings
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


def span_core():
    """A 3 x 2 core of span 1000 under transforms (t = 2) with
    coefficients up to 2^40: a draw of ``cores`` that packs at 32-byte
    slots, where the bigint divisions of the step take longest.  Kept as
    an explicit example, since the derandomized tier-1 may not draw one."""
    rng = random.Random("span-1000")
    big = 2 ** 40

    def transform(n):
        m = [[LaurentPoly({rng.randint(-4, 2) + k: rng.randint(-big, big)
                           for k in range(3)}) if rng.random() < 0.5
              else rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][i] = m[i][i] or 1
        return m

    W = [[int(i == j) + LaurentPoly({rng.randint(1, 1001): rng.randint(-3, 3)
                                     for _ in range(3)})
          for j in range(2)] for i in range(3)]
    return _laurent_rows(W)[0], transform(5), transform(4), 2


SPAN_CORE = span_core()


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(cores())
@hypothesis.example(SPAN_CORE)
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
# the step's check on its packed integers


def unpacked_verdict(a, sol, det, w):
    """The identity A11 [adj | X] = det [I | A12] on the packed rows
    a = [A11 | A12], sol = [adj | X] and det, decided on Laurent
    matrices: every value unpacked to a LaurentPoly, and one
    ``_product_is`` against zero."""
    k, nc = len(a), len(a[0])

    def unpack(v):
        return LaurentPoly._dense(0, rings._digits(v, w))

    unit = unpack(det)
    a1 = [[unpack(v) for v in row] for row in a]
    x = [[unpack(v) for v in row] for row in sol]
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    return linalg._product_is(
        [Matrix(k, 2 * k, [row[:k] + [-unit * e for e in ident]
                           for row, ident in zip(a1, eye)]),
         Matrix(2 * k, nc, x + [ident + row[k:]
                                for row, ident in zip(a1, eye)])],
        Matrix.zeros(k, nc))


def recorded_checks(W, U, V, t):
    """The arguments of every packed check that _schur_step runs."""
    seen, check = [], linalg._schur_identity

    def recording(a, sol, det, w):
        seen.append(([list(r) for r in a], [list(r) for r in sol], det, w))
        return check(a, sol, det, w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_schur_identity", recording)
        linalg._schur_step([list(r) for r in W], [list(r) for r in U],
                           [list(r) for r in V], t)
    return seen


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(cores(), st.randoms(use_true_random=False))
@hypothesis.example(SPAN_CORE, random.Random(0))
def test_packed_check_agrees_with_product_is(case, moves):
    """On each drawn core, the packed verdict equals ``_product_is`` on
    the unpacked values, for the step's own outputs and for outputs with
    one value moved by +-X^j, X = 2^(8w) the step's slot base."""
    for a, sol, det, w in recorded_checks(*case):
        assert linalg._schur_identity(a, sol, det, w)
        assert unpacked_verdict(a, sol, det, w)
        where = moves.choice(["a", "sol", "det"])
        delta = moves.choice([1, -1]) << 8 * w * moves.randint(0, 3)
        if where == "det":
            det += delta
        else:
            rows = a if where == "a" else sol
            i = moves.randrange(len(rows))
            j = moves.randrange(len(rows[i]))
            rows[i][j] += delta
        verdict = linalg._schur_identity(a, sol, det, w)
        assert verdict == unpacked_verdict(a, sol, det, w)
        assert not verdict


def spied_step(monkeypatch, corrupt=None):
    """_schur_step on W = [[1 + 150z, 150z]] with the slot widths it picks
    and the widths it packs at recorded, and the Gauss-Jordan outputs
    [adj | X] and det changed by corrupt(M, n, det, X) -> det first.

    The step bounds its values by 1-norms, 150 + 150 + 1 = 302 < 2^15,
    so its slots are 2 bytes; the check's bound is |[A11 | -det]| = 302
    times |[[adj | X], [I | A12]]| = 151, which needs 4."""
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
    z = LaurentPoly({1: 1})
    W, U, V = [[1 + 150 * z, 150 * z]], [[1]], [[1, 0], [0, 1]]
    return (lambda: linalg._schur_step(W, U, V, 0)), widths, packed, (W, U, V)


def test_the_check_widens_its_slots_when_the_digits_need_it(monkeypatch):
    step, widths, packed, (W, U, V) = spied_step(monkeypatch)
    U2, V2 = [list(r) for r in U], [list(r) for r in V]
    assert step() == reference(W, U2, V2, 0)
    assert U == U2 and V == V2
    assert widths == [2, 4] and 4 in packed


def add_z_to_adj(M, n, det, X):
    M[0][n] += X
    return det


def scale_outputs(M, n, det, X):
    """det, adj and X times c = 1 + (X/2) X^2: the identity still holds
    for the integers, so no check at the step's own X sees it, but the
    digits of the products carry and the polynomials no longer match."""
    c = 1 + (X // 2) * X ** 2
    for row in M:
        row[n:] = [c * v for v in row[n:]]
    return c * det


@pytest.mark.parametrize("corrupt", [add_z_to_adj, scale_outputs])
def test_the_widened_check_catches_a_corrupted_step(monkeypatch, corrupt):
    step, widths, packed, _ = spied_step(monkeypatch, corrupt)
    with pytest.raises(AssertionError, match="Schur step self-check failed"):
        step()
    # the identity was checked, on slots wider than the step's
    assert len(widths) == 2 and widths[1] > widths[0] and widths[1] in packed


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
