"""
Exact dense matrices over the ring hierarchy, with the three reductions
the homology computations run on:

* Smith normal form over Z, on one list of rows [A | U] over V, so
  each row or column operation updates A and its transform at once;
  the transforms are shown unimodular by the Bareiss kernel below, and
  ``inverse_int`` inverts one when a caller needs it;
* one fraction-free (Bareiss) elimination loop on integers
  (``_eliminate``), run on Kronecker-packed Laurent rows (``_Packed``:
  entries evaluated at one X = 2^(8w), w from a proven bound, so the
  integers determine the polynomials).  Run forward it gives the rank
  over the function field Q(z), which is the free rank over the
  Novikov ring too; run Gauss-Jordan over [M | B] it gives det M and
  adj(M) B;
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
  exactly as one packed integer product each (``_product_is``,
  ``_schur_identity``).

Matrix entries are plain ints, LaurentPoly, or RationalFunction; the
arithmetic never leaves exact integer/rational-coefficient land.
"""

from __future__ import annotations

import functools
import itertools
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
# packed integers: Laurent matrices evaluated at one X = 2^(8w)

def _pack(p, shift, w):
    """The integer (z^-shift p)(X) at X = 2^(8w), for an int or
    LaurentPoly p with shift <= ord p and every |coefficient| < X/2."""
    if p.__class__ is int:
        return p << -8 * w * shift if p else 0
    t = p._t
    return _kron(t, w) << 8 * w * (p._s - shift) if t else 0


def _pack_rows(leaf, w):
    """The rows of a leaf (``_Packed.of``) at X = 2^(8w), each at its
    shift."""
    return [[_pack(e, s, w) for e in row]
            for row, s in zip(leaf.src, leaf.shifts)]


class _Slots:
    """X = 2^(8w) for a proven bound on every coefficient of the values
    computed at it: the least w, and at least ``floor``, with the bound
    below X/2.  The one place a width is picked."""

    __slots__ = ("bound", "w")

    def __init__(self, bound, floor=1):
        self.bound, self.w = bound, max(floor, _slot_width(bound))

    def unpack(self, v, shift):
        """z^shift q for the polynomial q with q(X) = v: the balanced
        base-X digits of v."""
        return LaurentPoly._dense(shift, _digits(v, self.w))


class _Packed:
    """A matrix over Z[z,z^-1] as integer rows at whichever X = 2^(8w) the
    computation it enters needs: ``at(w)`` gives the rows, entry j of row
    i the value at X of z^-shifts[i] times the polynomial it stands for.
    ``norms[i]`` is a proven bound on the 1-norm of row i, the sum of its
    entries' coefficient 1-norms.  Integer transforms and blocks of
    packed matrices are packed matrices, their bounds carried by
    |pq|_1 <= |p|_1 |q|_1.  Every width comes from one of two rules:

    * elimination (``minors``): every minor of a set of rows has 1-norm
      at most the product of their norms, each taken at least 1, and a
      Bareiss pass over them holds only minors;
    * product (``product``): every entry of a product has 1-norm at most
      the product of the factors' largest row norms, plus the target's
      largest coefficient when it is compared with one.

    Below X/2 the bound makes evaluation at X injective on the values it
    covers: the integers decide zero tests and equality, and unpack as
    balanced base-X digits.  Rows read back from integers (``read``)
    keep their width as ``home``: a product packs them no narrower, and
    re-spreads their digits when the rule needs a wider width.
    """

    __slots__ = ("norms", "orders", "shifts", "src", "home", "top", "_make",
                 "_w", "_rows")

    def __init__(self, norms, make, src=None, home=1):
        self.norms, self._make, self.src, self.home = norms, make, src, home
        self._w = None

    def at(self, w):
        if w != self._w:
            self._w, self._rows = w, self._make(self, w)
        return self._rows

    @classmethod
    def of(cls, rows):
        """Rows of ints and LaurentPoly; ``orders`` holds each row's lowest
        order (None for a zero row), and each row packs at its own order
        (0 for a zero row) until ``shifts`` is set."""
        orders, norms, shifts = [], [], []
        for row in rows:
            lo, norm = None, 0
            for e in row:
                if e.__class__ is int:
                    if not e:
                        continue
                    o, norm = 0, norm + abs(e)
                elif e._t:
                    o, norm = e._s, norm + sum(map(abs, e._t))
                else:
                    continue
                if lo is None or o < lo:
                    lo = o
            orders.append(lo)
            norms.append(norm)
            shifts.append(lo or 0)
        self = cls(norms, _pack_rows, rows)
        self.orders, self.shifts = orders, shifts
        return self

    @classmethod
    def target(cls, rows):
        """Rows of ints and LaurentPoly that a product is compared with:
        ``orders`` and shifts as in ``of``, and ``top``, their largest
        coefficient, in place of row norms."""
        orders, top = [], 0
        for row in rows:
            lo = None
            for e in row:
                if e.__class__ is int:
                    if not e:
                        continue
                    o, top = 0, max(top, abs(e))
                elif e._t:
                    o, top = e._s, max(top, max(map(abs, e._t)))
                else:
                    continue
                if lo is None or o < lo:
                    lo = o
            orders.append(lo)
        self = cls(None, _pack_rows, rows)
        self.orders, self.shifts, self.top = (
            orders, [lo or 0 for lo in orders], top)
        return self

    def one_shift(self, s=None):
        """Every row at shift s, by default the lowest order of all."""
        if s is None:
            s = min((o for o in self.orders if o is not None), default=0)
        self.shifts = [s] * len(self.orders)
        return self

    def __getitem__(self, rows):  # a slice of the rows, at their shifts
        return _Packed(self.norms[rows], lambda _, w: self.at(w)[rows])

    @classmethod
    def ints(cls, h, rest):
        """The rows of [1 - z h | rest] for integer rows h and rest, the 1
        an identity on the leading rows: raw coefficients, with no
        LaurentPoly built."""
        def make(_, w):
            x = 8 * w
            return [[(k == r) - (e << x) for k, e in enumerate(a)] + list(b)
                    for r, (a, b) in enumerate(zip(h, rest))]
        n = len(h[0]) if h else 0
        return cls([(r < n) + sum(map(abs, a)) + sum(map(abs, b))
                    for r, (a, b) in enumerate(zip(h, rest))], make)

    @classmethod
    def read(cls, rows, w):
        """The integer rows, values at X = 2^(8w), with home width w and
        norms read off their digits, once per distinct value."""
        half, seen = 1 << 8 * w - 1, {}

        def digits_of(v):
            if -half < v < half:
                return v,
            if v not in seen:
                seen[v] = _digits(v, w)
            return seen[v]
        digits = [list(map(digits_of, row)) for row in rows]
        return cls([sum(abs(c) for d in row for c in d) for row in digits],
                   lambda _, u: rows if u == w else [
                       [d[0] if len(d) == 1 else _kron(d, u) for d in row]
                       for row in digits], home=w)

    def __rmatmul__(self, t):  # t @ self, t an integer matrix
        return _Packed([sum(map(operator.mul, map(abs, r), self.norms))
                        for r in t], lambda _, w: _imul(t, self.at(w)))

    def __matmul__(self, t):  # self @ t, t an integer matrix
        m = max((sum(map(abs, r)) for r in t), default=0)
        return _Packed([n * m for n in self.norms],
                       lambda _, w: _imul(self.at(w), t))

    @classmethod
    def block(cls, grid):
        """The block matrix of a grid of cells, the rows of cells stacked
        and the cells of each side by side.  A cell is a packed matrix m,
        an int n for the n x n identity, or a pair (p, m) of such a cell
        and a tuple p of ints and 1 x 1 packed matrices that multiply it."""
        norms = []
        for row in grid:
            parts = []
            for c in row:
                p, m = c if c.__class__ is tuple else ((), c)
                n = 1
                for s in p:
                    n *= abs(s) if s.__class__ is int else s.norms[0]
                parts.append([n] * m if m.__class__ is int
                             else [n * v for v in m.norms])
            norms += map(sum, zip(*parts)) if len(parts) > 1 else parts[0]

        def make(_, w):
            out = []
            for row in grid:
                parts = []
                for c in row:
                    p, m = c if c.__class__ is tuple else ((), c)
                    v = 1
                    for s in p:
                        v *= s if s.__class__ is int else s.at(w)[0][0]
                    if m.__class__ is int:
                        parts.append([[v * (i == j) for j in range(m)]
                                      for i in range(m)])
                    else:
                        m = m.at(w)
                        parts.append(m if v == 1 else [[v * x for x in r]
                                                       for r in m])
                out += (parts[0] if len(parts) == 1 else
                        map(list, map(itertools.chain.from_iterable,
                                      zip(*parts))))
            return out
        return cls(norms, make)

    def minors(self, k=None, *others):
        """The slots for every minor of the first k rows (all by default)
        with at most one more row, of self or of others, appended."""
        k = len(self.norms) if k is None else k
        rest = self.norms[k:] + [n for o in others for n in o.norms]
        return _Slots(math.prod(max(1, n) for n in self.norms[:k])
                      * max([1] + rest))

    def eliminate(self, n, jordan=False):
        """``_eliminate`` on fresh rows at the width of ``minors``:
        (slots, rank, signed last pivot, rows)."""
        slots = self.minors()
        M = self._make(self, slots.w)
        return (slots, *_eliminate(M, n, jordan), M)

    @staticmethod
    def product(factors, target=None):
        """(slots, the rows of the product of the packed factors), at a
        width that also holds the coefficients of the ``target``."""
        slots = _Slots(math.prod(max([1, *f.norms]) for f in factors)
                       + (target.top if target else 0),
                       max(f.home for f in factors))
        return slots, functools.reduce(_imul, [f.at(slots.w) for f in factors])


# ---------------------------------------------------------------------------
# fraction-free elimination over Z[z,z^-1], on Kronecker-packed integers

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

    The elimination runs on the rows packed each at its own order
    (``_Packed``), which scales det M and adj(M) B by z^-(sum of the
    orders), undone at the end; by the elimination rule the integers
    decide the zero tests, pivots and quotients of the same elimination
    over Z[z].

    >>> z = LaurentPoly({1: 1})
    >>> _bareiss([[2 * ONE, z, ONE, LaurentPoly()],
    ...           [ONE, ONE, LaurentPoly(), ONE]], 2, jordan=True)
    (LaurentPoly('2 - z'), [[LaurentPoly('1'), LaurentPoly('-z')], [LaurentPoly('-1'), LaurentPoly('2')]])
    >>> _bareiss([[z, z ** 2], [ONE, z]], 2)
    1
    """
    packed = _Packed.of(A)
    slots, r, det, M = packed.eliminate(n, jordan)
    if not jordan:
        return r
    if r < n:
        return LaurentPoly(), None
    s = sum(packed.shifts)
    return (slots.unpack(det, s),
            [[slots.unpack(v, s) for v in row[n:]] for row in M])


def _product_is(factors, target):
    """Does factors[0] @ ... @ factors[-1] == target?  Decided exactly,
    without Laurent products, by one product of integer matrices
    (``_Packed.product``): each factor packed at the lowest order of its
    entries, and the target at their sum s.  A target entry of order
    below s rules it out at once.  Entries are ints and LaurentPoly:
    every certificate of this module is a Laurent identity.
    """
    for a, b in zip(factors, factors[1:]):
        if a.cols != b.rows:
            raise DimensionMismatch(
                f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if (factors[0].rows, factors[-1].cols) != (target.rows, target.cols):
        return False
    if not all(m.rows and m.cols for m in factors):
        return target.is_zero
    packed = [_Packed.of(m.entries).one_shift() for m in factors]
    s = sum(p.shifts[0] for p in packed)
    goal = _Packed.target(target.entries)
    if any(o is not None and o < s for o in goal.orders):
        return False
    slots, rows = _Packed.product(packed, goal.one_shift(s))
    return rows == goal.at(slots.w)


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
    columns V[:, t:], each block by its own shift (``_Packed``), and does
    every product above on integers.  Every value it unpacks is a minor
    of the first k rows of [A | U0 R U[t:]] with one more row of it or
    of V[:, t:] V0 appended, and the elimination rule on those rows sets
    the width.  The identity A11 [adj | X] = det [I | A12] is checked on
    the packed integers by ``_schur_identity``.  Returns (k, det, S).
    """
    nr, nc = len(W), len(V) - t
    packed_w = _Packed.of(W)
    ords = packed_w.shifts
    a0 = Matrix(nr, nc, [[p.coeff(o) for p in row]
                         for row, o in zip(W, ords)])
    if math.gcd(*(x for row in a0.entries for x in row)) != 1:
        return None
    snf = smith_normal_form_int(a0)
    k = snf.invariant_factors.count(1)
    u0, v0 = snf.U.entries, snf.V.entries
    # R U[t:]: row i shifted by the order of row i of W, then all by su
    packed_u = _Packed.of(U[t:])
    su = min(lo - o for lo, o in zip(packed_u.orders, ords) if lo is not None)
    packed_u.shifts = [su + o for o in ords]
    packed_v = _Packed.of([row[t:] for row in V]).one_shift()
    sv = packed_v.shifts[0]
    pa, pb, pc = u0 @ packed_w @ v0, u0 @ packed_u, packed_v @ v0
    slots = _Packed.block([[pa, pb]]).minors(k, pc)
    A, B, c = pa.at(slots.w), pb.at(slots.w), pc.at(slots.w)
    eye = _ident(k)
    gj = [row[:k] + e + row[k:] for row, e in zip(A, eye)]
    r, det = _eliminate(gj, k, jordan=True)
    sol = [row[k:] for row in gj]  # [adj | X]
    unit = slots.unpack(det, 0)
    if r < k or not is_novikov_unit(unit) or not _schur_identity(
            A[:k], sol, det, slots.w):
        raise AssertionError("Schur step self-check failed")

    def minus(b, c, d):  # det b - c d
        return [[det * p - q for p, q in zip(rb, rq)]
                for rb, rq in zip(b, _imul(c, d))]

    a21 = [row[:k] for row in A[k:]]
    x = [row[k:] for row in sol]
    top = _imul([row[:k] for row in sol], B[:k])
    low = minus(B[k:], a21, top)
    U[t:] = [[slots.unpack(v, su) for v in row] for row in top + low]
    c2 = minus([row[k:] for row in c], [row[:k] for row in c], x)
    for row, new1, new2 in zip(V, c, c2):
        row[t:] = [slots.unpack(v, sv) for v in new1[:k] + new2]
    s = [[slots.unpack(v, 0) for v in row]
         for row in minus([row[k:] for row in A[k:]], a21, x)]
    return k, unit, s


def _schur_identity(a, sol, det, w):
    """Does A11 [adj | X] = det [I | A12] hold for the polynomials whose
    values at X = 2^(8w) are the integers in the rows a = [A11 | A12],
    the rows sol = [adj | X] and det?

    Decided as [A11 | -det I] [[adj | X], [I | A12]] = 0 by one packed
    product of those integers read at w (``_Packed.read``): the width
    comes from their digits, never from the step's bound, and they are
    re-spread only when the product needs a wider one.
    """
    k = len(a)
    eye = _ident(k)
    _, rows = _Packed.product([
        _Packed.read([row[:k] + [-det * x for x in e]
                      for row, e in zip(a, eye)], w),
        _Packed.read(sol + [e + row[k:] for row, e in zip(a, eye)], w)])
    return not any(map(any, rows))


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
