"""The carried bounds of the packed layer, ``nk.linalg._Packed``.

At each entry point -- elimination, a product compared with its target,
and unpacking -- the bound that picks the slot width must be at least
the 1-norm of every value it stands for.  The properties draw random Laurent rows; the
wide-coefficient domains of ``tests/domains.py`` and the span-1000,
``2^40`` Schur-step core are explicit examples.
"""

import contextlib
import functools

import pytest

from nk import linalg
from nk.linalg import Matrix, _Packed, _Slots, matmul
from nk.rings import ONE, LaurentPoly

from domains import wide_coefficient_domains
from test_bareiss import reference as gauss_jordan, systems
from test_product_is import chains
from test_schur_step import SPAN_CORE, cores

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

z = LaurentPoly({1: 1})


def norm1(e):
    """The 1-norm of an int or LaurentPoly: its coefficients' absolute sum."""
    return abs(e) if isinstance(e, int) else sum(abs(c) for _, c in e.items())


def row_norms(rows):
    return [sum(map(norm1, row)) for row in rows]


@contextlib.contextmanager
def unpacked():
    """Yields the (bound, polynomial) of every value unpacked through a
    slot base inside the block, one at a time or by rows."""
    seen, unpack, unpack_rows = [], _Slots.unpack, _Slots.unpack_rows

    def spy(self, v, shift):
        p = unpack(self, v, shift)
        seen.append((self.bound, p))
        return p

    def rows_spy(self, rows, shift):
        out = unpack_rows(self, rows, shift)
        seen.extend((self.bound, p) for row in out for p in row)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Slots, "unpack", spy)
        mp.setattr(_Slots, "unpack_rows", rows_spy)
        yield seen


def solved_system(fd):
    """[(1 - z h_D)^T | h_F^T] as Laurent rows in the lowest degree where
    D is nonzero: the rows ``AlgebraicFundamentalDomain.solved`` packs."""
    i = next(filter(fd.D.rank, fd.D.degrees()))
    n, h_D, h_F = fd.D.rank(i), fd.h_D_at(i).entries, fd.h_F_at(i).entries
    return [[int(k == r) - e * z for k, e in enumerate(col)]
            + [h_F[j][r] for j in range(len(h_F))]
            for r, col in enumerate(zip(*h_D))], n


def cokernel_factors(fd, i):
    """The factors L and R of ``cokernel_iso_check`` in degree i as
    Laurent matrices."""
    D, F = fd.D, fd.F
    (det1, y1), (det0, y0) = (
        fd.solved.get(j, (ONE, Matrix.zeros(F.rank(j), 0))) for j in (i - 1, i))
    m, n, f, g = D.rank(i - 1), D.rank(i), F.rank(i - 1), F.rank(i)
    one_minus_zh = Matrix(m, m, [[int(r == k) - e * z for k, e in enumerate(row)]
                                 for r, row in enumerate(fd.h_D_at(i - 1).entries)])
    L = Matrix.block([[y1.scaled(det0), Matrix.identity(f).scaled(det0 * det1),
                       -fd.numerators[i][1]]], [f], [m, f, g])
    R = Matrix.block([[one_minus_zh, D.differential(i), fd.c.get(i)],
                      [fd.h_F_at(i - 1).scaled(-z), None, F.differential(i)],
                      [None, y0, Matrix.identity(g).scaled(det0)]],
                     [m, f, g], [m, n, g])
    return [L, R]


WIDE = wide_coefficient_domains()
WIDE_SYSTEMS = [solved_system(fd) for fd in WIDE]
WIDE_FACTORS = [cokernel_factors(fd, i) for fd in WIDE
                for i in range(min(fd.D.lo, fd.F.lo) + 1,
                               max(fd.D.hi + 1, fd.F.hi) + 1)
                if fd.F.rank(i - 1)]


def with_examples(cases):
    """Each case an explicit ``@example`` of the decorated property."""
    def decorate(test):
        for case in cases:
            test = hypothesis.example(case)(test)
        return test
    return decorate


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(systems())
@with_examples(WIDE_SYSTEMS)
def test_elimination_bound_holds_every_value(system):
    """The carried row norms are the rows' 1-norms, and det M and every
    entry of adj(M) B, unpacked from the Gauss-Jordan pass, are within
    the product of those norms that picked the width."""
    rows, n = system
    assert _Packed.of(rows).norms == row_norms(rows)
    with unpacked() as seen:
        linalg._bareiss([list(r) for r in rows], n, jordan=True)
    assert all(norm1(p) <= bound for bound, p in seen)
    det, adj = gauss_jordan([[LaurentPoly() + e for e in r] for r in rows],
                            n, jordan=True)
    if adj is not None:
        assert len(seen) == 1 + sum(map(len, adj))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(cores())
@hypothesis.example(SPAN_CORE)
def test_schur_step_bound_holds_every_value(case):
    """Every value a Schur step unpacks (det, S, the new rows of U and
    columns of V) is within the bound of its minors rule, which the step
    carries through U0 and V0."""
    W, U, V, t = case
    with unpacked() as seen:
        linalg._schur_step([list(r) for r in W], [list(r) for r in U],
                           [list(r) for r in V], t)
    assert all(norm1(p) <= bound for bound, p in seen)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(chains())
@with_examples(WIDE_FACTORS)
def test_product_bound_holds_every_entry(chain):
    """Every entry of a product of packed factors, plus the target's
    largest coefficient, is within the product rule's bound."""
    hypothesis.assume(all(m.rows and m.cols for m in chain))
    target = functools.reduce(matmul, chain)
    packed = [_Packed.of(m.entries).one_shift() for m in chain]
    slots, _ = _Packed.product(packed, _Packed.of(target.entries))
    top = max((abs(c) for row in target.entries for e in row
               for c in ((e,) if isinstance(e, int) else e.coeffs.values())),
              default=0)
    assert all(norm1(e) + top <= slots.bound
               for row in target.entries for e in row)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(chains(), st.integers(-3, 3), st.integers(0, 2 ** 40))
def test_transforms_and_blocks_carry_row_bounds(chain, a, b):
    """An integer transform on either side, a block of packed matrices,
    and a range of a leaf's rows times a scalar beside a scaled identity
    and another range carry bounds at least the true row 1-norms."""
    m = chain[0]
    hypothesis.assume(m.rows and m.cols)
    p = _Packed.of(m.entries)
    t = [[a if i == j else b * (i + j) % 5 for j in range(m.rows)]
         for i in range(m.rows)]
    u = [[b % 7 - 3 if i <= j else a for j in range(m.cols)]
         for i in range(m.cols)]
    scalar = m.entries[0][0]
    rows, one = slice(0, m.rows), slice(m.rows, m.rows + 1)
    leaf = _Packed.of([*m.entries, [scalar]])
    cases = [(t @ p, matmul(Matrix.from_rows(t), m)),
             (p @ u, matmul(m, Matrix.from_rows(u))),
             (_Packed.block([[p, p], [p, p]]),
              Matrix.from_rows([list(r) * 2 for r in m.entries] * 2)),
             (_Packed.eye(leaf, rows, one, 3, rows, -2),
              Matrix(m.rows, 2 * m.cols + m.rows,
                     [[scalar * e for e in r]
                      + [3 if i == j else 0 for j in range(m.rows)]
                      + [-2 * e for e in r]
                      for i, r in enumerate(m.entries)]))]
    for packed, laurent in cases:
        assert all(n >= true for n, true in
                   zip(packed.norms, row_norms(laurent.entries)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(systems())
def test_unpack_round_trips_the_rows(system):
    """Rows packed each at its own order at the width of their largest
    norm unpack to themselves."""
    rows, _ = system
    packed = _Packed.of(rows)
    slots = _Slots(max(packed.norms, default=0))
    assert [[slots.unpack(v, s) for v in row]
            for row, s in zip(packed.at(slots.w), packed.shifts)] \
        == [[LaurentPoly() + e for e in row] for row in rows]
