"""
Exact dense matrices over the ring hierarchy, with the three reductions
the homology computations run on:

* Smith normal form over Z, on one list of rows [A | U] over V, so
  each row or column operation updates A and its transform at once;
  the transforms are shown unimodular by the Bareiss kernel below, and
  ``inverse_int`` inverts one when a caller needs it;
* one fraction-free (Bareiss) elimination loop on integers
  (``_eliminate``), run on Kronecker-packed Laurent rows: rows shifted
  to order 0, entries evaluated at X = 2^(8w) with X/2 above a bound on
  every coefficient the elimination holds, so the integers determine
  the polynomials.  Run forward it gives the rank over the function
  field Q(z), which is the free rank over the Novikov ring too; run
  Gauss-Jordan over [M | B] it gives det M and adj(M) B;
* a diagonalization over Z((z)) (resp. Z((z^-1))) of matrices over the
  rational subring: the rows are cleared of denominators once, by lcms
  that are Novikov units, and everything after stays in Z[z,z^-1].
  Schur steps first peel off unit blocks, each packing its block, the
  rows of U and the columns of V it updates once and doing all its
  products on integers; then a fraction-free pivoting heuristic reduces
  the core that is left.  No finite algorithm for the core is known to
  the author to be complete; the heuristic raises ``Inconclusive`` when
  its operation budget runs out.  Its certificate, U (Lambda A) V = D
  and the Schur identities, is always a Laurent identity, checked
  exactly by evaluating both sides at one X = 2^(8w), without Laurent
  products: U (Lambda A) V = D by ``_product_is``, and each Schur
  identity on the integers its step already holds
  (``_schur_identity``), widened only when their digits need it.

Matrix entries are plain ints, LaurentPoly, or RationalFunction; the
arithmetic never leaves exact integer/rational-coefficient land.
"""

from __future__ import annotations

import math
import operator
from functools import cache

from .rings import (
    ONE,
    LaurentPoly,
    NotInRationalSubring,
    RationalFunction,
    Direction,
    Record,
    _cancel,
    _coerce_poly,
    _digits,
    _kron,
    _slot_width,
    is_novikov_unit,
    reverse_variable,
)


class DimensionMismatch(Exception):
    """Shapes do not compose."""


class Inconclusive(Exception):
    """The Z((z)) reduction heuristic exceeded its operation budget.

    ``partial_factors`` holds the normalized invariant factors pinned
    down before the budget ran out: torsion counts derived from them are
    lower bounds, not totals.
    """

    def __init__(self, message, partial_factors=()):
        super().__init__(message)
        self.partial_factors = list(partial_factors)


#: elementary-operation budget for one novikov_diagonalize call
REDUCTION_BUDGET = 10_000


class Matrix:
    """Immutable dense matrix; entry (r, c) is the coefficient of target
    generator r in the image of source generator c (differentials have a
    column per source basis element and a row per target basis element).
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(tuple(r) for r in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionMismatch(
                f"entry grid is not {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)]
                          for i in range(n)])

    @classmethod
    @cache
    def zeros(cls, rows, cols):
        """The zero matrix of a shape: one shared instance per shape."""
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def block(cls, grid, row_sizes, col_sizes):
        """Assemble from a grid of Matrix-or-None blocks (None = zero)."""
        rows, cols = sum(row_sizes), sum(col_sizes)
        out = [[0] * cols for _ in range(rows)]
        r0 = 0
        for bi, rs in enumerate(row_sizes):
            c0 = 0
            for bj, cs in enumerate(col_sizes):
                b = grid[bi][bj]
                if b is not None:
                    if (b.rows, b.cols) != (rs, cs):
                        raise DimensionMismatch(
                            f"block ({bi},{bj}) is {b.rows}x{b.cols}, "
                            f"expected {rs}x{cs}")
                    for i in range(rs):
                        for j in range(cs):
                            out[r0 + i][c0 + j] = b.entries[i][j]
                c0 += cs
            r0 += rs
        return cls(rows, cols, out)

    def entry(self, i, j):
        return self.entries[i][j]

    @property
    def is_zero(self):
        return all(not e for row in self.entries for e in row)

    @property
    def is_square(self):
        return self.rows == self.cols

    def map_entries(self, f):
        return Matrix(self.rows, self.cols,
                      [[f(e) for e in row] for row in self.entries])

    def scaled(self, s):
        return self.map_entries(lambda e: s * e)

    def __neg__(self):
        return self.map_entries(lambda e: -e)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return ((self.rows, self.cols) == (other.rows, other.cols)
                and all(a == b
                        for ra, rb in zip(self.entries, other.entries)
                        for a, b in zip(ra, rb)))

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {list(map(list, self.entries))!r})"


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product; raises DimensionMismatch unless a.cols == b.rows.
    Integer operands take the integer kernel ``_imul``, and an empty
    dimension gives the zero block at once."""
    if a.cols != b.rows:
        raise DimensionMismatch(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if not (a.rows and a.cols and b.cols):
        return Matrix.zeros(a.rows, b.cols)
    if _is_int(a.entries) and _is_int(b.entries):
        return Matrix(a.rows, b.cols, _imul(a.entries, b.entries))
    cols = list(zip(*b.entries))
    return Matrix(a.rows, b.cols, [
        [sum((x * y for x, y in zip(row, col) if x and y), 0) for col in cols]
        for row in a.entries])


# ---------------------------------------------------------------------------
# Smith normal form over Z


class SNFResult(Record):
    """Diagonalization certificate: U @ matrix @ V is diagonal, with
    ``rank`` nonzero entries, leading.

    Over Z, ``invariant_factors`` are those diagonal entries, positive,
    each dividing the next.  Over the Novikov ring they are normalized
    representatives of the ideals that the diagonal entries generate
    (units normalize to 1), and in the MINUS direction "matrix" is the
    variable-reversed input, the one ``novikov_diagonalize`` reduces.
    Every reduction checks its factorization exactly before
    returning and raises when the check fails: over Z by integer
    products, over the Novikov ring by one Kronecker evaluation of each
    identity (``_product_is``, ``_schur_identity``).  U and V are shown
    invertible too: over Z by determinants +-1, over the Novikov ring by
    unit determinants.
    """

    __slots__ = _fields = ("invariant_factors", "rank", "U", "V")
    _norepr = ("U", "V")

    def __init__(self, invariant_factors, rank, U, V):
        self._set(invariant_factors, rank, U, V)

    @property
    def torsion_factors(self):
        """Invariant factors that are not units (contribute generators);
        units come out as 1 over Z and over the Novikov ring alike."""
        return tuple(f for f in self.invariant_factors if f != 1)


def smith_normal_form_int(m: Matrix) -> SNFResult:
    """Smith normal form of an integer matrix.

    Total on integer matrices; the invariant factors come out positive
    with the divisibility chain d1 | d2 | ... verified.  The elimination
    runs on one list of integer rows: rows :nr hold [A | U], so a row
    operation is one list expression, and rows nr: hold V, so a column
    operation on the first nc columns of every row updates A and V
    together.  Before returning, U m V = diag is re-multiplied, and U
    and V are shown unimodular: forward Bareiss elimination
    (``_eliminate``) gives each full rank and determinant +-1.
    """
    nr, nc = m.rows, m.cols
    M = [[int(x) for x in row] + e for row, e in zip(m.entries, _ident(nr))]
    M += _ident(nc)
    t = 0
    while t < min(nr, nc):
        # smallest nonzero entry of the working submatrix to the pivot
        best, low = None, 0
        for i in range(t, nr):
            row = M[i]
            for j in range(t, nc):
                if row[j] and (best is None or abs(row[j]) < low):
                    best, low = (i, j), abs(row[j])
        if best is None:
            break
        i, j = best
        M[t], M[i] = M[i], M[t]
        if j != t:
            for row in M:
                row[t], row[j] = row[j], row[t]
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
        top = M[t]
        p = top[t]
        dirty = False
        for i in range(t + 1, nr):
            if M[i][t]:
                q = M[i][t] // p
                M[i] = [a - q * b for a, b in zip(M[i], top)]
                # remainder < p becomes the next pivot
                dirty = dirty or M[i][t] != 0
        for j in range(t + 1, nc):
            if top[j]:
                q = top[j] // p
                for row in M:
                    row[j] -= q * row[t]
                dirty = dirty or top[j] != 0
        if dirty:
            continue
        # pivot must divide the rest of the submatrix for the chain
        bad = next((i for i in range(t + 1, nr) for j in range(t + 1, nc)
                    if M[i][j] % p), None)
        if bad is not None:
            M[t] = [a + b for a, b in zip(top, M[bad])]
            continue
        t += 1

    U, V = [row[nc:] for row in M[:nr]], M[nr:]
    factors = tuple(M[i][i] for i in range(t))
    diag = [[factors[i] if i == j and i < t else 0 for j in range(nc)]
            for i in range(nr)]
    ok = (_imul(_imul(U, m.entries), V) == diag
          and all(factors[i + 1] % factors[i] == 0 for i in range(t - 1))
          and all(_eliminate([list(row) for row in T], n) in ((n, 1), (n, -1))
                  for T, n in ((U, nr), (V, nc))))
    if not ok:  # pragma: no cover - internal invariant
        raise AssertionError("SNF self-verification failed")
    return SNFResult(factors, t, Matrix(nr, nr, U), Matrix(nc, nc, V))


def _ident(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def inverse_int(t: Matrix) -> Matrix:
    """The inverse of a unimodular integer matrix T: one Gauss-Jordan
    pass of the Bareiss kernel over [T | I] returns det T = +-1 and
    leaves adj(T) beside it, and T^-1 = det T adj(T)."""
    n = t.rows
    M = [list(row) + e for row, e in zip(t.entries, _ident(n))]
    r, det = _eliminate(M, n, jordan=True)
    if not t.is_square or r < n or det not in (1, -1):
        raise ValueError("not a unimodular integer matrix")
    return Matrix(n, n, [[det * v for v in row[n:]] for row in M])


# ---------------------------------------------------------------------------
# fraction-free elimination over Z[z,z^-1], on Kronecker-packed integers

def _pack(p, shift, w):
    """The integer (z^-shift p)(X) at X = 2^(8w), for an int or
    LaurentPoly p with shift <= ord p and every |coefficient| < X/2."""
    if p.__class__ is int:
        return p << -8 * w * shift if p else 0
    t = p._t
    return _kron(t, w) << 8 * w * (p._s - shift) if t else 0


def _unpack(v, shift, w):
    """The inverse of _pack: z^shift q for the polynomial q with
    q(X) = v and every |coefficient| < X/2 (balanced base-X digits)."""
    return LaurentPoly._dense(shift, _digits(v, w))


def _orders_and_norms(rows):
    """For each row of int and LaurentPoly entries, in one pass: the
    lowest order of its nonzero entries (None for a zero row) and its
    1-norm, the sum of the entries' coefficient 1-norms."""
    out = []
    for row in rows:
        lo, norm = None, 0
        for e in row:
            if e.__class__ is int:
                if e:
                    o, norm = 0, norm + abs(e)
                else:
                    continue
            elif e._t:
                o, norm = e._s, norm + sum(map(abs, e._t))
            else:
                continue
            if lo is None or o < lo:
                lo = o
        out.append((lo, norm))
    return out


def _is_int(grid):
    """Are all entries of the rows grid plain ints?"""
    return all(e.__class__ is int for row in grid for e in row)


def _imul(a, b):
    """The product of two integer matrices given as lists of rows (with
    no columns when b has no rows)."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _eliminate(M, n, jordan=False):
    """Fraction-free (Bareiss) elimination of the integer rows M in
    place, pivoting in the first n columns; returns (rank, signed last
    pivot).

    Each step replaces an entry right of the pivot column by
    (pivot * a_ij - a_ic * a_rj) / previous pivot, which is a minor of
    the input, so every division is exact.  Forward (jordan=False), only
    the rows below the pivot are updated.  Gauss-Jordan (jordan=True),
    the rows above are updated too and elimination stops at the first
    column without a pivot; on [M | B] with M n x n of rank n it returns
    (n, det M) and leaves adj(M) B in columns n.. of the rows.
    """
    nr = len(M)
    width = len(M[0]) if M else 0
    r, prev, sign = 0, 1, 1
    for c in range(n):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if M[i][c]), None)
        if piv is None:
            if jordan:
                break
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        top = M[r]
        p = top[c]
        for i in range(0 if jordan else r + 1, nr):
            if i == r:
                continue
            row = M[i]
            a = row[c]
            for j in range(c + 1, width):
                q, rem = divmod(row[j] * p - a * top[j], prev)
                if rem:  # pragma: no cover - internal invariant
                    raise AssertionError("inexact Bareiss division")
                row[j] = q
        prev = p
        r += 1
    if jordan and r == n and sign < 0:
        for row in M:
            row[n:] = [-v for v in row[n:]]
    return r, sign * prev


def _bareiss(A, n, jordan=False):
    """``_eliminate`` on the int and LaurentPoly rows A, pivoting in the
    first n columns: forward (jordan=False) it returns the rank;
    Gauss-Jordan on [M | B] with M n x n it returns (det M, adj(M) B as
    a list of rows), or (0, None) when det M = 0.

    The elimination runs on integers.  Each row is shifted to order 0
    (which scales det M and adj(M) B by z^-(sum of shifts), undone at
    the end) and each entry evaluated at X = 2^(8w), w = 1, 2, 4, ...
    bytes chosen so that prod_i max(1, |row_i|_1) < X/2.  That product
    bounds every coefficient of every minor, since |pq|_1 <= |p|_1 |q|_1,
    so evaluation is injective on the entries the elimination holds: the
    zero tests, pivots and quotients are those of the same elimination
    over Z[z], and the results unpack as balanced base-X digits.

    >>> z = LaurentPoly({1: 1})
    >>> _bareiss([[2 * ONE, z, ONE, LaurentPoly()],
    ...           [ONE, ONE, LaurentPoly(), ONE]], 2, jordan=True)
    (LaurentPoly('2 - z'), [[LaurentPoly('1'), LaurentPoly('-z')], [LaurentPoly('-1'), LaurentPoly('2')]])
    >>> _bareiss([[z, z ** 2], [ONE, z]], 2)
    1
    """
    rows = _orders_and_norms(A)
    shifts = [lo or 0 for lo, _ in rows]
    w = _slot_width(math.prod(max(1, norm) for _, norm in rows))
    M = [[_pack(e, s, w) for e in row] for row, s in zip(A, shifts)]
    r, det = _eliminate(M, n, jordan)
    if not jordan:
        return r
    if r < n:
        return LaurentPoly(), None
    s = sum(shifts)
    return (_unpack(det, s, w),
            [[_unpack(v, s, w) for v in row[n:]] for row in M])


def _product_is(factors, target):
    """Does factors[0] @ ... @ factors[-1] == target?  Decided exactly,
    without Laurent products.

    Each factor F_i is shifted as a whole by the lowest order s_i of its
    entries and evaluated at X = 2^(8w).  Every coefficient of the
    shifted product is at most prod_i max(1, |F_i|), |F| the largest
    row sum of the entries' 1-norms, and w makes that bound plus the
    largest coefficient of the target less than X/2.  The difference of
    the two sides then vanishes iff its value at X does, so one product
    of integer matrices decides the identity.  A target entry of order
    below sum_i s_i rules it out at once.  Entries are ints and
    LaurentPoly: every certificate of this module is a Laurent identity.
    """
    for a, b in zip(factors, factors[1:]):
        if a.cols != b.rows:
            raise DimensionMismatch(
                f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if (factors[0].rows, factors[-1].cols) != (target.rows, target.cols):
        return False
    mats, goal = [m.entries for m in factors], target.entries
    shifts, bound = [], 1
    for m in mats:
        rows = _orders_and_norms(m)
        shifts.append(min((lo for lo, _ in rows if lo is not None),
                          default=0))
        bound *= max(1, max((norm for _, norm in rows), default=0))
    s, top = sum(shifts), 0
    for row in goal:
        for e in row:
            if e.__class__ is int:
                if e and s > 0:
                    return False
                top = max(top, abs(e))
            elif e._t:
                if e._s < s:
                    return False
                top = max(top, max(map(abs, e._t)))
    w = _slot_width(bound + top)
    acc, *rest = [[[_pack(e, sh, w) for e in row] for row in m]
                  for m, sh in zip(mats, shifts)]
    for m, f in zip(rest, factors[1:]):
        acc = _imul(acc, m) if m else [[0] * f.cols for _ in acc]
    return acc == [[_pack(e, s, w) for e in row] for row in goal]


def _laurent_rows(grid):
    """(rows, lcms): each row as LaurentPoly, multiplied by the lcm of its
    RationalFunction denominators (which does not change the rank over
    Q(z)); the lcms lie in S, so they are Novikov units.  The lcm grows
    by one ``_cancel`` per denominator d: with (x, y) = _cancel(d, den),
    lcm(den, d) = den x, and its multiplier for d is y, while the
    multipliers taken so far grow by x."""
    rows, lcms = [], []
    for row in grid:
        den, mult = ONE, {}
        for j, e in enumerate(row):
            if isinstance(e, RationalFunction) and not e.is_polynomial:
                x, y = _cancel(e.denominator, den)
                if x != ONE:
                    den = den * x
                    mult = {i: m * x for i, m in mult.items()}
                mult[j] = y
        nums = [e.numerator if isinstance(e, RationalFunction)
                else _coerce_poly(e) for e in row]
        if den is not ONE:  # a polynomial row has nothing to clear
            nums = [mult.get(j, den) * p for j, p in enumerate(nums)]
        rows.append(nums)
        lcms.append(den)
    return rows, lcms


def rank_over_function_field(m: Matrix) -> int:
    """Rank of a Laurent-entry matrix over Q(z), by Bareiss elimination.

    Q((z)) contains both Q(z) and the image of Z((z)), and the rank of a
    matrix over an integral domain equals its rank over any containing
    field, so this is also the free-rank count over the Novikov ring.
    """
    return _bareiss(_laurent_rows(m.entries)[0], m.cols)


def solve_laurent(m: Matrix, b: Matrix):
    """(det m, adj(m) @ b) for a square matrix m over Z[z,z^-1], by one
    Gauss-Jordan pass of the Bareiss kernel over [m | b].

    adj(m) @ b is None when det m = 0.  When det m is invertible in a
    ring containing the entries, m^-1 b = adj(m) @ b / det m.
    """
    if not m.is_square or b.rows != m.rows:
        raise DimensionMismatch(
            f"cannot solve a {m.rows}x{m.cols} system for {b.rows}x{b.cols}")
    n = m.rows
    rows = [[_coerce_poly(e) for e in ra + rb]
            for ra, rb in zip(m.entries, b.entries)]
    det, x = _bareiss(rows, n, jordan=True)
    return det, None if x is None else Matrix(n, b.cols, x)


# ---------------------------------------------------------------------------
# diagonalization over the Novikov ring


class _OutOfBudget(Exception):
    pass


class _Reduction:
    """Mutable elimination state over Z[z,z^-1]: A, the rows U of the row
    transform it updates and the columns of the column transform, kept
    as the rows Vt, all Laurent; ``unit`` is the product of the
    multipliers s that ``add`` has applied, a Novikov unit.

    Every operation acts on rows of A and U.  ``transpose()`` turns A
    into A^T and swaps U with Vt, so a column operation is the row
    operation of the same name between two transposes.  Each operation
    has determinant +-z^k s with s in S, so U and V stay invertible over
    the Novikov ring.
    """

    def __init__(self, grid, nc, U, Vt, budget):
        self.A = [list(row) for row in grid]
        self.nr, self.nc = len(grid), nc
        self.U = [list(row) for row in U]
        self.Vt = [list(row) for row in Vt]
        self.left = budget
        self.unit = ONE

    def _spend(self):
        self.left -= 1
        if self.left < 0:
            raise _OutOfBudget

    def transpose(self):
        self.A = [[row[j] for row in self.A] for j in range(self.nc)]
        self.nr, self.nc = self.nc, self.nr
        self.U, self.Vt = self.Vt, self.U

    def add(self, i, j, q, s=1):  # row_i <- s*row_i + q*row_j
        self._spend()
        if s != 1:
            self.unit = self.unit * s
        for mat in (self.A, self.U):
            if s != 1:
                mat[i] = [s * e for e in mat[i]]
            dst, src = mat[i], mat[j]
            for k, e in enumerate(src):
                if e:
                    dst[k] = dst[k] + q * e

    def swap(self, i, j):
        if i == j:
            return
        self._spend()
        for mat in (self.A, self.U):
            mat[i], mat[j] = mat[j], mat[i]

    def scale(self, i, u):
        self._spend()
        for mat in (self.A, self.U):
            mat[i] = [u * e for e in mat[i]]

    def mix(self, t, i, x, y, dg, cg):
        """rows (t, i) <- (x*t + y*i, cg*i - dg*t); det x*cg + y*dg = +-1."""
        self._spend()
        for mat in (self.A, self.U):
            a, b = mat[t], mat[i]
            mat[t] = [x * p + y * q for p, q in zip(a, b)]
            mat[i] = [cg * q - dg * p for p, q in zip(a, b)]


def _on_columns(step, red, *args):
    """step(red, *args) with columns in the place of rows."""
    red.transpose()
    step(red, *args)
    red.transpose()


def _try_div(a, p):
    """a/p for Laurent polynomials a and p as a RationalFunction n/s in
    lowest terms, s in S, or None when it leaves S^-1 Z[z,z^-1]: the
    exact Z((z)) divisibility test (Fatou)."""
    try:
        return RationalFunction(a, p)
    except NotInRationalSubring:
        return None


def associate(a, b, direction=Direction.PLUS) -> bool:
    """Do the nonzero Laurent polynomials a and b generate the same ideal
    of Z((z)) (PLUS) resp. Z((z^-1)) (MINUS)?  True when a/b and b/a
    both lie in the rational subring, which by Fatou decides it exactly.
    """
    if direction is Direction.MINUS:
        a, b = reverse_variable(a), reverse_variable(b)
    return _try_div(a, b) is not None and _try_div(b, a) is not None


def _select_pivot(A, t, nr, nc):
    """Unit entries first (they resolve a pivot position outright),
    then minimal (order, |lowest coefficient|)."""
    best = None
    key = None
    for i in range(t, nr):
        for j in range(t, nc):
            e = A[i][j]
            if e:
                lc = abs(e.lowest_coeff())
                k = (lc != 1, e.ord(), lc)
                if key is None or k < key:
                    best, key = (i, j), k
    return best


def novikov_diagonalize(m: Matrix,
                        direction=Direction.PLUS) -> SNFResult:
    """Diagonalize a Laurent-entry matrix over Z((z)) / Z((z^-1)).

    Strategy: the rows are cleared of denominators once (``_laurent_rows``:
    Lambda A, Lambda the diagonal of the row lcms, which lie in S), so
    everything after works on Laurent polynomials.  Schur steps
    (``_schur_step``) first peel off unit blocks, exactly in Z[z,z^-1],
    while the constant terms of the row-shifted matrix have gcd 1.  Only
    the core that is left goes to a pivoting heuristic.  Unit entries
    (lowest coefficient +-1) are taken as pivots first -- a unit divides
    every entry of the rational subring, so the exact clears empty its
    row and column, finishing a position outright; otherwise the pivot
    minimizes (order, |lowest coefficient|).  Non-unit pivots remove
    their row and column by fraction-free exact clears whenever the
    quotient stays in the subring (Fatou's criterion), by order-raising
    monomial subtractions when the lowest coefficient divides, and by
    integer Bezout mixes at matched order otherwise (the pivot line is
    first lifted by a monomial; mixing lines anchored at different
    orders would let the minimal order of the submatrix drift).  Every
    finalized pivot divides the remaining submatrix, so the invariant
    factors come out in a divisibility chain.  The Schur steps and the
    heuristic write into one U and one V, both Laurent.

    Raises ``Inconclusive`` after ``REDUCTION_BUDGET`` elementary
    operations of the heuristic (read at call time).
    On success U' (Lambda A) V == diag is checked exactly by one
    Kronecker evaluation (``_product_is``), and Lambda A entrywise
    against A, and U = U' Lambda is returned; A is m for PLUS and m with
    the variable reversed for MINUS, so there U and V transform the
    reversed matrix.  The factors are not the diagonal entries but
    normalized Laurent representatives (monomial stripped, lowest
    coefficient positive; units normalize to 1) of the ideals they
    generate: of f / D for each core factor f, D the product of the row
    lcms, the Schur determinants and the multipliers of the exact
    clears, which is a Novikov unit.
    """
    grid = [list(row) for row in m.entries]
    if direction is Direction.MINUS:
        grid = [[reverse_variable(e) for e in row] for row in grid]
    nr, nc = m.rows, m.cols
    cleared, lcms = _laurent_rows(grid)
    U, V = _ident(nr), _ident(nc)
    # U @ cleared @ V == diag(peeled) (+) scale * core
    core, peeled, scale, D = cleared, [], ONE, math.prod(lcms, start=ONE)
    while step := _schur_step(core, U, V, len(peeled)):
        k, det, core = step
        scale, D = scale * det, D * det
        peeled += [scale] * k
    t = len(peeled)
    # the heuristic acts on rows t.. of U and columns t.. of V
    red = _Reduction(core, nc - t, U[t:], list(zip(*V))[t:], REDUCTION_BUDGET)
    s = 0

    def factors():
        # transposing keeps the diagonal, so red.A may be either way round
        den = D * red.unit
        return [ONE] * t + [_factor_rep(RationalFunction(red.A[j][j], den),
                                        direction) for j in range(s)]

    try:
        while s < min(red.nr, red.nc):
            if _select_pivot(red.A, s, red.nr, red.nc) is None:
                break
            _reduce_pivot(red, s)
            s += 1
    except _OutOfBudget:
        raise Inconclusive(f"reduction exceeded {REDUCTION_BUDGET} "
                           f"elementary operations", factors())

    A = red.A
    U = Matrix(nr, nr, U[:t] + red.U)
    V = Matrix(nc, nc, [row[:t] + [col[i] for col in red.Vt]
                        for i, row in enumerate(V)])
    values = peeled + [scale * A[j][j] for j in range(s)]
    diag = Matrix(nr, nc, [[values[i] if i == j and i < len(values) else 0
                            for j in range(nc)] for i in range(nr)])
    if not (_is_cleared(grid, cleared, lcms) and _product_is(
            [U, Matrix(nr, nc, cleared), V], diag)):
        raise AssertionError("novikov diagonalization self-check failed")
    for j in range(s - 1):
        if _try_div(A[j + 1][j + 1], A[j][j]) is None:  # pragma: no cover
            raise AssertionError("divisibility chain broken")
    U = Matrix(nr, nr, [[e if d is ONE else d * e for e, d in zip(row, lcms)]
                        for row in U.entries])
    return SNFResult(tuple(factors()), t + s, U, V)


def _is_cleared(grid, rows, lcms):
    """Is the Laurent matrix rows = Lambda grid, Lambda = diag(lcms), with
    every lcm a Novikov unit?  Entrywise, row_ij den(a_ij) = lcm_i
    num(a_ij) for each entry a_ij of grid."""
    return all(
        is_novikov_unit(d) and all(
            e * a.denominator == d * a.numerator
            if a.__class__ is RationalFunction else e == d * a
            for a, e in zip(row, cleared))
        for row, cleared, d in zip(grid, rows, lcms))


def _schur_step(W, U, V, t):
    """One Schur step on the Laurent core W, rows and columns t.. of the
    matrix that U and V transform; None if nothing peels.

    When the constant terms A(0) of the rows shifted to order 0 have gcd
    1, the integer SNF U0 A(0) V0 has k >= 1 factors 1.  R shifts each
    row to order 0, so A = U0 R W V0 has A11(0) = I_k and det = det A11
    is a Novikov unit (Nakayama).  One Gauss-Jordan
    pass over [A11 | I | A12] gives det, adj = adj A11 and X = adj A12,
    and with S = det A22 - A21 X, a Laurent matrix,

        [[adj, 0], [-A21 adj, det I]] A [[I, -X], [0, det I]]
            = diag(det I_k, det S).

    Rows t.. of U are multiplied on the left by the row transform
    [[adj, 0], [-A21 adj, det I]] U0 R, and columns t.. of V on the
    right by the column transform V0 [[I, -X], [0, det I]], in place.

    The step packs once: the rows of W, the rows of U[t:] and the
    columns V[:, t:], each block by its own shift, at one X = 2^(8w),
    and does every product above on integers.  Every value it unpacks
    is a minor of [A | U0 R U[t:]] (S, adj and X, the new rows of U),
    or of the first k rows of A with one row of V[:, t:] V0 appended
    (the new columns of V); w is chosen so that the product of those
    rows' 1-norms, bounded through |U0| and |V0|, is below X/2.  The
    identity A11 [adj | X] = det [I | A12] is checked on the packed
    integers by ``_schur_identity``, at a width read off their digits.
    Returns (k, det, S).
    """
    nr, nc = len(W), len(V) - t
    rw = _orders_and_norms(W)
    ords = [lo or 0 for lo, _ in rw]
    a0 = Matrix(nr, nc, [[p.coeff(o) for p in row]
                         for row, o in zip(W, ords)])
    if math.gcd(*(x for row in a0.entries for x in row)) != 1:
        return None
    snf = smith_normal_form_int(a0)
    k = snf.invariant_factors.count(1)
    u0, v0 = snf.U.entries, snf.V.entries
    # the slot width, from the row 1-norms of W, U[t:] and V[:, t:]
    ru = _orders_and_norms(U[t:])
    rv = _orders_and_norms([row[t:] for row in V])
    nw = [norm for _, norm in rw]
    nu = [norm for _, norm in ru]
    v0n = max(sum(map(abs, row)) for row in v0)
    w = _slot_width(math.prod(
        max(1, v0n * sum(abs(x) * y for x, y in zip(row, nw))
            + sum(abs(x) * y for x, y in zip(row, nu))) for row in u0)
        * max(1, v0n * max(norm for _, norm in rv)))
    su = min(lo - o for (lo, _), o in zip(ru, ords) if lo is not None)
    sv = min(lo for lo, _ in rv if lo is not None)
    packed = [[_pack(e, o, w) for e in row] + [_pack(e, su + o, w) for e in u]
              for row, o, u in zip(W, ords, U[t:])]
    # U0 R [W | U[t:]]: A before V0, and the rows of U to update
    P = _imul(u0, packed)
    A = _imul([row[:nc] for row in P], v0)
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    gj = [row[:k] + e + row[k:] for row, e in zip(A, eye)]
    r, det = _eliminate(gj, k, jordan=True)
    sol = [row[k:] for row in gj]  # [adj | X]
    unit = _unpack(det, 0, w)
    if r < k or not is_novikov_unit(unit) or not _schur_identity(
            A[:k], sol, det, w):
        raise AssertionError("Schur step self-check failed")

    def minus(b, c, d):  # det b - c d
        return [[det * p - q for p, q in zip(rb, rq)]
                for rb, rq in zip(b, _imul(c, d))]

    a21 = [row[:k] for row in A[k:]]
    x = [row[k:] for row in sol]
    top = _imul([row[:k] for row in sol], [row[nc:] for row in P[:k]])
    low = minus([row[nc:] for row in P[k:]], a21, top)
    U[t:] = [[_unpack(v, su, w) for v in row] for row in top + low]
    c = _imul([[_pack(e, sv, w) for e in row[t:]] for row in V], v0)
    c2 = minus([row[k:] for row in c], [row[:k] for row in c], x)
    for row, new1, new2 in zip(V, c, c2):
        row[t:] = [_unpack(v, sv, w) for v in new1[:k] + new2]
    s = [[_unpack(v, 0, w) for v in row]
         for row in minus([row[k:] for row in A[k:]], a21, x)]
    return k, unit, s


def _schur_identity(a, sol, det, w):
    """Does A11 [adj | X] = det [I | A12] hold for the polynomials whose
    values at X = 2^(8w) are the integers in the rows a = [A11 | A12],
    the rows sol = [adj | X] and det?

    Those polynomials are the balanced base-X digits (``_unpack``), so
    the digits' absolute values sum to exact 1-norms.  As in
    ``_product_is``, no coefficient of A11 [adj | X] - det [I | A12]
    exceeds |[A11 | -det I]| |[[adj | X], [I | A12]]|, |F| the largest
    row sum of the entries' 1-norms, and the width w' that puts this
    bound below X'/2 makes the difference vanish iff its value at X'
    does.  The width comes from the values, never from the step's bound:
    when w' <= w the integers already are the values at a large enough
    X, and otherwise the digits are re-spread into w'-byte slots.
    """
    k = len(a)

    def norm(v):
        return sum(map(abs, _digits(v, w)))

    nd = norm(det)
    left = max(sum(map(norm, row[:k])) + nd for row in a)
    right = max(max(sum(map(norm, row)) for row in sol),
                max(1 + sum(map(norm, row[k:])) for row in a))
    wide = _slot_width(max(1, left) * right)
    if wide > w:
        def spread(v):
            return _kron(_digits(v, w), wide)
        a = [list(map(spread, row)) for row in a]
        sol = [list(map(spread, row)) for row in sol]
        det = spread(det)
    return _imul([row[:k] for row in a], sol) == [
        [det * x for x in [int(i == j) for j in range(k)] + row[k:]]
        for i, row in enumerate(a)]


def _reduce_pivot(red, t):
    while True:
        i, j = _select_pivot(red.A, t, red.nr, red.nc)
        red.swap(t, i)
        _on_columns(_Reduction.swap, red, t, j)
        p = red.A[t][t]
        # exact clears; a unit divides every entry, so a unit pivot is
        # done after them, with no scan of the submatrix left
        _on_columns(_clear, red, t, p)
        _clear(red, t, p)
        if is_novikov_unit(p):
            return
        A = red.A
        stuck_col = next((j for j in range(t + 1, red.nc) if A[t][j]), None)
        stuck_row = next((i for i in range(t + 1, red.nr) if A[i][t]), None)
        if stuck_col is not None:
            _on_columns(_attack, red, t, stuck_col)
            continue
        if stuck_row is not None:
            _attack(red, t, stuck_row)
            continue
        # row and column clear: the pivot must divide everything left
        bad = next(((i, j) for i in range(t + 1, red.nr)
                    for j in range(t + 1, red.nc)
                    if A[i][j] and _try_div(A[i][j], p) is None), None)
        if bad is None:
            return
        red.add(t, bad[0], 1)


def _clear(red, t, p):
    """Clear the pivot column below row t: each entry a that the pivot p
    divides in the rational subring, which is every entry when p is a
    unit.  The clear is fraction-free: with a/p = n/s in lowest terms
    (s in S, so a Novikov unit), row_i <- s row_i - n row_t, and the
    ``unit`` of the reduction takes the factor s.  Rows above t are
    already zero there."""
    A = red.A
    for i in range(t + 1, red.nr):
        if A[i][t]:
            q = _try_div(A[i][t], p)
            if q is not None:
                red.add(i, t, -q.numerator, q.denominator)


def _attack(red, t, pos):
    """One reduction step against the entry (pos, t) in the pivot's
    column that the pivot does not divide.

    The pivot has (ord, extreme coeff) = (k, c), the entry (l, d) with
    l >= k by pivot minimality.  Every move only shifts entries upward
    in order (adds with coefficients of order >= 0, unit scalings by
    z^(l-k) with l >= k, constant Bezout mixes at equal order), so the
    minimal order of the working submatrix never drifts downward -- the
    failure mode of mixing lines anchored at different orders.
    """
    A = red.A
    p = A[t][t]
    a = A[pos][t]
    k, c = p.ord(), p.lowest_coeff()
    l, d = a.ord(), a.lowest_coeff()
    if d % c == 0:
        # kill the lowest term; raises ord(a).  If this could go on
        # forever the full quotient would be an integer series, i.e.
        # rational-subring divisible, and the exact clear would have
        # fired instead.
        red.add(pos, t, LaurentPoly({l - k: -(d // c)}))
        return
    # lift the pivot line to order l, then run the integer Bezout mix at
    # equal order: the new pivot-position entry has extreme coefficient
    # +-gcd(c, d), strictly smaller than c in absolute value
    g = math.gcd(c, d)
    x, y = _bezout(c, d)
    if l > k:
        red.scale(t, LaurentPoly({l - k: 1}))
    red.mix(t, pos, x, y, d // g, c // g)


def _bezout(a, b):
    """x, y with x*a + y*b = +-gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0


def _factor_rep(r: RationalFunction, direction) -> LaurentPoly:
    """Normalized Laurent representative of a diagonal entry: monomial
    stripped, extreme coefficient (per direction) positive; any unit
    normalizes to 1."""
    num = r.numerator
    if r.is_unit():
        return ONE
    rep = num.shifted(-num.ord())
    if rep.lowest_coeff() < 0:
        rep = -rep
    if direction is Direction.MINUS:
        # computed in the reversed variable: translate back to z
        rep = reverse_variable(rep)
        rep = rep.shifted(-rep.ord())
    return rep
