"""
Exact dense matrices over the ring hierarchy, with the three reductions
the homology computations run on:

* Smith normal form over Z, on one list of rows [A | U] over V, so
  each row or column operation updates A and its transform at once;
  2x2 steps of determinant 1 from the extended gcd keep the transforms
  small (Kannan and Bachem 1979), the Bareiss kernel below shows them
  unimodular, and ``inverse_int`` inverts one when a caller needs it;
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
  Schur steps first peel off unit blocks, each packing its block once,
  working on integers and certifying itself by one packed product;
  then a fraction-free pivoting heuristic reduces the core that is
  left.  No finite algorithm for the core is known to the author to be
  complete; the heuristic raises ``Inconclusive`` when its operation
  budget runs out.  The final certificate, U (core) V = D, or
  U (Lambda A) V = D where the transforms are built, is a Laurent
  identity checked exactly as one packed integer product
  (``_product_is``).

Matrix entries are plain ints, LaurentPoly, or RationalFunction; the
arithmetic never leaves exact integer/rational-coefficient land.
"""

from __future__ import annotations

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
    identity (``_product_is``).  U and V are shown invertible over Z by
    determinants +-1.  Over the Novikov ring each Schur step checks its
    determinant to be a unit, and the final product shows each step's
    adjugate invertible (``novikov_diagonalize``); det U and det V
    themselves are never checked.
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
    together.  The smallest entry left is the pivot; it clears each b of
    its column, then of its row, by an exact quotient where it divides
    b, else by the step of determinant 1 taking (pivot, b) to (gcd, 0).
    Before returning, U m V = diag is re-multiplied, and U and V are
    shown unimodular: forward Bareiss elimination (``_eliminate``) gives
    each full rank and determinant +-1.
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
        while True:
            # column t, then row t; a column step may refill column t
            for i in range(t + 1, nr):
                q, r = divmod(M[i][t], M[t][t])
                if r:
                    x, y, u, v = _unimodular_step(M[t][t], M[i][t])
                    M[t], M[i] = ([x * a + y * b for a, b in zip(M[t], M[i])],
                                  [u * a + v * b for a, b in zip(M[t], M[i])])
                elif q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[t])]
            for j in range(t + 1, nc):
                q, r = divmod(M[t][j], M[t][t])
                if r:
                    x, y, u, v = _unimodular_step(M[t][t], M[t][j])
                    for row in M:
                        row[t], row[j] = (x * row[t] + y * row[j],
                                          u * row[t] + v * row[j])
                elif q:
                    for row in M:
                        row[j] -= q * row[t]
            if any(M[i][t] for i in range(t + 1, nr)):
                continue
            # pivot must divide the rest of the submatrix for the chain
            bad = next((i for i in range(t + 1, nr) for j in range(t + 1, nc)
                        if M[i][j] % M[t][t]), None)
            if bad is None:
                break
            M[t] = [a + b for a, b in zip(M[t], M[bad])]
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


def _unimodular_step(a, b):
    """(x, y, u, v), x v - y u = 1, taking (a, b) to (gcd(a, b), 0)."""
    x, y = _bezout(a, b)
    g = x * a + y * b
    return (x, y, -b // g, a // g) if g > 0 else (-x, -y, b // g, -a // g)


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


class _Slots:
    """X = 2^(8w) for a proven bound on every coefficient of the values
    computed at it: the least w with the bound below X/2.  The one place
    a width is picked."""

    __slots__ = ("bound", "w")

    def __init__(self, bound):
        self.bound, self.w = bound, _slot_width(bound)

    def unpack(self, v, shift):
        """z^shift q for q with q(X) = v: the balanced base-X digits of v."""
        return LaurentPoly._dense(shift, _digits(v, self.w))

    def unpack_rows(self, rows, shift):
        """``unpack`` on every value of the integer rows."""
        w, dense = self.w, LaurentPoly._dense
        return [[dense(shift, _digits(v, w)) for v in row] for row in rows]

    def order(self, v, shift):
        """The lowest order of z^shift q, q(X) = v != 0: a balanced digit is
        0 or below X/2 in modulus, so v's lowest set bit is in its slot."""
        return shift + ((v & -v).bit_length() - 1) // (8 * self.w)


_first, _ONES = operator.itemgetter(0), itertools.repeat(1)


def _leaf_rows(leaf, w):  # an ``of`` leaf, packed once per width
    if leaf._w != w:
        x = 8 * w
        leaf._w, leaf._rows = w, [[
            (e << -x * s if e else 0) if e.__class__ is int
            else _kron(e._t, w) << x * (e._s - s) if e._t else 0
            for e in row] for row, s in zip(leaf.src, leaf.shifts)]
    return leaf._rows


def _ints_rows(leaf, w):  # [1 - z h | rest] from integer rows
    x = 8 * w
    return [[(k == r) - (e << x) for k, e in enumerate(a)] + list(b)
            for r, (a, b) in enumerate(zip(*leaf.src))]


def _eye_rows(node, w):  # [s A | t I | u B], the identity written in place
    leaf, a, s, t, b, u = node.src
    rows = leaf.at(w)
    s = s if s.__class__ is int else math.prod(map(_first, rows[s]))
    t = t if t.__class__ is int else math.prod(map(_first, rows[t]))
    n = len(node.norms)
    return [[s * e for e in q] + [t if k == r else 0 for k in range(n)]
            + [u * e for e in p] for r, (q, p) in enumerate(
                zip(rows[a], rows[b] if b else [()] * n))]


def _block_rows(block, w):  # the rows of cells stacked, cells side by side
    out = []
    for cells in block.src:
        out += cells[0].at(w) if len(cells) == 1 else map(
            list, map(itertools.chain.from_iterable,
                      zip(*[c.at(w) for c in cells])))
    return out


class _Packed:
    """A matrix over Z[z,z^-1] as integer rows at whichever X = 2^(8w) the
    computation it enters needs.  Norms come first: ``norms[i]``, a plain
    int computed when the value is formed, bounds the 1-norm of row i
    (the sum of its entries' coefficient 1-norms).  Rows come last:
    ``at(w)`` builds them once a rule below has picked w, entry j of row
    i the value at X of z^-shifts[i] times the polynomial it stands for.
    A leaf (``of``, ``ints``) builds them by one comprehension,
    an ``of`` leaf once however many nodes read it; transforms, ``eye``
    and ``block`` build theirs from their leaves' and keep none, their
    norms carried by |pq|_1 <= |p|_1 |q|_1.  Every width comes from one
    of two rules:

    * elimination (``minors``): every minor of a set of rows has 1-norm
      at most the product of their norms, each taken at least 1, and a
      Bareiss pass over them holds only minors;
    * product (``product``): every entry of a product has 1-norm at most
      the product of the factors' largest row norms, plus the target's
      largest coefficient when it is compared with one.

    Below X/2 the bound makes evaluation at X injective on the values it
    covers: the integers decide zero tests and equality, and unpack as
    balanced base-X digits.
    """

    __slots__ = ("norms", "shifts", "low", "src", "_make", "_w", "_rows")

    def __init__(self, norms, make, src=None):
        self.norms, self._make, self.src = norms, make, src

    def at(self, w):
        """The integer rows at X = 2^(8w)."""
        return self._make(self, w)

    @classmethod
    def of(cls, rows):
        """Rows of ints and LaurentPoly, each entry read once for the
        norms; each row packs at its own lowest order (0 for a zero row)
        until ``shifts`` is set, and ``low`` is the lowest of all (None
        when every row is zero)."""
        norms, shifts, low = [], [], None
        for row in rows:
            lo, norm = None, 0
            for e in row:
                if e.__class__ is int:
                    if e:
                        norm += abs(e)
                        if lo is None or lo > 0:
                            lo = 0
                elif e._t:
                    norm += sum(map(abs, e._t))
                    if lo is None or e._s < lo:
                        lo = e._s
            norms.append(norm)
            shifts.append(lo or 0)
            if lo is not None and (low is None or lo < low):
                low = lo
        self = cls(norms, _leaf_rows, rows)
        self.shifts, self.low, self._w = shifts, low, None
        return self

    def one_shift(self, s=None):
        """Every row at shift s, by default the lowest order of all (0 when
        every row is zero)."""
        self.shifts = [(self.low or 0) if s is None else s] * len(self.shifts)
        return self

    @classmethod
    def ints(cls, h, rest):
        """The rows of [1 - z h | rest] for integer rows h and rest, the 1
        an identity on the leading rows: raw coefficients, with no
        LaurentPoly built."""
        n = len(h[0]) if h else 0
        return cls([(r < n) + sum(map(abs, a)) + sum(map(abs, b))
                    for r, (a, b) in enumerate(zip(h, rest))],
                   _ints_rows, (h, rest))

    def __rmatmul__(self, t):  # t @ self, t an integer matrix
        return _Packed([sum(map(operator.mul, map(abs, r), self.norms))
                        for r in t], lambda _, w: _imul(t, self.at(w)))

    def __matmul__(self, t):  # self @ t, t an integer matrix
        m = max((sum(map(abs, r)) for r in t), default=0)
        return _Packed([n * m for n in self.norms],
                       lambda _, w: _imul(self.at(w), t))

    @classmethod
    def eye(cls, leaf, a, s, t, b=None, u=1):
        """The rows [s A | t I | u B]: A and B (optional) ranges of the rows
        of ``leaf`` as slices, I the identity of their height, u an int,
        and s and t ints or slices of 1 x 1 rows of ``leaf``, the product
        of their entries."""
        of = leaf.norms
        ns = abs(s) if s.__class__ is int else math.prod(of[s])
        nt = abs(t) if t.__class__ is int else math.prod(of[t])
        return cls([ns * x + nt + abs(u) * y for x, y in zip(
            of[a], of[b] if b else itertools.repeat(0))],
            _eye_rows, (leaf, a, s, t, b, u))

    @classmethod
    def block(cls, grid):
        """The block matrix of a grid of packed matrices, the rows of cells
        stacked and the cells of each side by side."""
        norms = []
        for cells in grid:
            norms += cells[0].norms if len(cells) == 1 else map(
                sum, zip(*[c.norms for c in cells]))
        return cls(norms, _block_rows, grid)

    def minors(self, k):
        """The slots for every minor of the first k rows with at most one
        more row appended."""
        return _Slots(math.prod(map(max, _ONES, self.norms[:k]))
                      * max([1] + self.norms[k:]))

    def eliminate(self, n, jordan=False):
        """``_eliminate`` on the rows at the width of ``minors`` of all of
        them, their last use: (slots, rank, signed last pivot, rows)."""
        slots = self.minors(len(self.norms))
        M = self.at(slots.w)
        return (slots, *_eliminate(M, n, jordan), M)

    @staticmethod
    def product(factors, target=None):
        """(slots, the rows of the product of the packed factors), at a
        width that also holds the coefficients of the ``target`` leaf."""
        bound = 1
        for f in factors:
            bound *= max([1, *f.norms])
        slots = _Slots(bound + max((
            abs(e) if e.__class__ is int else max(map(abs, e._t))
            for row in target.src for e in row if e), default=0)
            if target else bound)
        rows = factors[0].at(slots.w)
        for f in factors[1:]:
            rows = _imul(rows, f.at(slots.w))
        return slots, rows


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
    return slots.unpack(det, s), slots.unpack_rows([row[n:] for row in M], s)


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
    goal = _Packed.of(target.entries)
    if goal.low is not None and goal.low < s:
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
    the core that is left goes to a pivoting heuristic (``_reduce_pivot``):
    unit entries are taken as pivots first (``_select_pivot``), and a
    pivot's row and column are removed by fraction-free exact clears
    whenever the quotient stays in the subring (Fatou's criterion,
    ``_clear``), else by order-raising monomial subtractions or integer
    Bezout mixes at matched order (``_attack``).  Every finalized pivot
    divides the remaining submatrix, so the invariant factors come out
    in a divisibility chain.  U and V of the peel are built from the
    steps taken (``_peel_transforms``), and the heuristic writes into
    their rows and columns t.. .

    Raises ``Inconclusive`` after ``REDUCTION_BUDGET`` elementary
    operations of the heuristic (read at call time).  Each Schur step
    certifies itself.  Lambda A is checked entrywise against A, and
    U' (Lambda A) V == diag(peeled) (+) scale core, the reduced core cut
    to the s pivots taken, by one Kronecker evaluation (``_product_is``),
    whose diagonal block for a step of k rows, adj A11' = scale I (A11'
    its A11 times the scale before it), shows adj invertible: det adj
    divides scale^k, a Novikov unit.  U = U' Lambda is returned.  A is
    m for PLUS and m with the variable reversed for MINUS, so there U
    and V transform the reversed matrix.  The factors are not the
    diagonal entries but normalized Laurent representatives
    (``_factor_rep``) of the ideals they generate: of f / D for each
    core factor f, D the product of the row lcms, the Schur determinants
    and the multipliers of the exact clears, which is a Novikov unit.
    """
    return SNFResult(*_diagonalize(m, direction, True))


def novikov_factors(m: Matrix, direction=Direction.PLUS):
    """(invariant factors, rank) of ``novikov_diagonalize(m, direction)``,
    with no transform of the size of m built: what ``nk run`` reads."""
    return _diagonalize(m, direction, False)[:2]


def _diagonalize(m, direction, transforms):
    """(factors, rank, U, V) of ``novikov_diagonalize``; without
    ``transforms`` U and V are None and the core's own are checked."""
    grid = [list(row) for row in m.entries]
    if direction is Direction.MINUS:
        grid = [[reverse_variable(e) for e in row] for row in grid]
    nr, nc, budget = m.rows, m.cols, REDUCTION_BUDGET
    cleared, lcms = _laurent_rows(grid)
    if not _is_cleared(grid, cleared, lcms):
        raise AssertionError("novikov diagonalization self-check failed")
    # Lambda A ~ I_t (+) core, whose factors are divided by scale
    core, t, scale, steps = cleared, 0, ONE, []
    while step := _schur_step(core):
        steps.append((t, core))
        k, det, core = step  # det None: a whole peel leaves nothing to scale
        t, scale = t + k, scale * det if det else scale
    if transforms:  # U (Lambda A) V == diag(peeled) (+) scale core
        U, V, peeled, scale = _peel_transforms(nr, nc, steps)
        M, c = cleared, scale
    else:
        U, V, M, peeled, c = _ident(nr - t), _ident(nc - t), core, [], 1
    o = len(peeled)  # where the heuristic's rows and columns start
    red = _Reduction(core, nc - t, U[o:], list(zip(*V))[o:], budget)
    s = 0

    def factors():
        # transposing keeps the diagonal, so red.A may be either way round
        den = math.prod(lcms, start=scale) * red.unit
        return [ONE] * t + [_factor_rep(RationalFunction(red.A[j][j], den),
                                        direction) for j in range(s)]

    try:
        while s < min(red.nr, red.nc) and _reduce_pivot(red, s):
            s += 1
    except _OutOfBudget:
        raise Inconclusive(f"reduction exceeded {budget} "
                           f"elementary operations", factors())

    A, U = red.A, U[:o] + red.U
    V = [row[:o] + [col[i] for col in red.Vt] for i, row in enumerate(V)]
    # U M V == diag(peeled) (+) c A cut to its s pivots; a heuristic that
    # spent nothing left the core's U and V the identity
    d, r, n = peeled + [c * A[j][j] for j in range(s)], len(U), len(V)
    diag = [[d[i] if i == j < len(d) else 0 for j in range(n)]
            for i in range(r)]
    if not (not transforms and red.left == budget and A == diag
            or _product_is([Matrix(r, r, U), Matrix(r, n, M),
                            Matrix(n, n, V)], Matrix(r, n, diag))):
        raise AssertionError("novikov diagonalization self-check failed")
    for j in range(s - 1):
        if _try_div(A[j + 1][j + 1], A[j][j]) is None:  # pragma: no cover
            raise AssertionError("divisibility chain broken")
    if not transforms:
        return tuple(factors()), t + s, None, None
    U = [[e if lam is ONE else lam * e for e, lam in zip(row, lcms)]
         for row in U]
    return tuple(factors()), t + s, Matrix(nr, nr, U), Matrix(nc, nc, V)


def _is_cleared(grid, rows, lcms):
    """Is the Laurent matrix rows = Lambda grid, Lambda = diag(lcms), with
    every lcm a Novikov unit?  Entrywise, row_ij den(a_ij) = lcm_i
    num(a_ij) for each entry a_ij of grid; a row that had nothing to
    clear (lcm ``ONE``) is compared as it stands."""
    return all(
        is_novikov_unit(d) and all(
            e * a.denominator == d * a.numerator
            if a.__class__ is RationalFunction
            else e == (a if d is ONE else d * a)
            for a, e in zip(row, cleared))
        for row, cleared, d in zip(grid, rows, lcms))


def _unit_block(W):
    """(W packed, the integer Smith form of A(0), its k >= 1 factors 1), A(0)
    the constant terms of W's rows at order 0; None when no factor is 1."""
    packed = _Packed.of(W)
    a0 = [[p.coeff(o) for p in row] for row, o in zip(W, packed.shifts)]
    if math.gcd(*itertools.chain.from_iterable(a0)) != 1:
        return None
    snf = smith_normal_form_int(Matrix(len(W), len(W[0]), a0))
    return packed, snf, snf.invariant_factors.count(1)


def _schur_step(W):
    """One Schur step on the Laurent core W, carrying no transforms:
    (k, det, S), or None when nothing peels.

    A = U0 R W V0, R shifting each row to order 0 and U0 A(0) V0 the
    integer Smith form of the constant terms (``_unit_block``), has
    A11(0) = I_k, so A11 is invertible over the Novikov ring (Nakayama).
    When k = min(rows, cols) every factor is 1: the step returns
    (k, None, S), S empty, with no elimination.  Otherwise one
    fraction-free Gauss-Jordan pass over A, pivoting in A11 (its leading
    minors have constant term 1), leaves det = det A11 and
    X = adj(A11) A12 in the first k rows and S = det A22 - A21 X in the
    others.  Then A [[-X], [det I]] = [[0], [S]] (*), so W is equivalent
    to I_k (+) S for any Novikov unit det with (*).  The step works on
    W packed once, at the elimination rule's width for A, and certifies
    itself: det is a Novikov unit, and (*) holds on the unpacked values,
    by one packed product at a width read off them.
    """
    if (block := _unit_block(W)) is None:
        return None
    packed, snf, k = block
    nr, nc = len(W), len(W[0])
    if k == min(nr, nc):
        return k, None, [[] for _ in range(nr - k)]
    pa = snf.U.entries @ packed @ snf.V.entries
    slots = pa.minors(k)
    A = pa.at(slots.w)
    r, det = _eliminate(A, k, jordan=True)
    unit, n = slots.unpack(det, 0), nc - k
    right = slots.unpack_rows([[-v for v in row[k:]] for row in A[:k]], 0) + [
        [unit if i == j else 0 for j in range(n)] for i in range(n)]
    S = slots.unpack_rows([row[k:] for row in A[k:]], 0)
    goal = _Packed.of([[0] * n] * k + S).one_shift(0)
    wide, rows = _Packed.product([pa, _Packed.of(right).one_shift(0)], goal)
    if r < k or not is_novikov_unit(unit) or rows != goal.at(wide.w):
        raise AssertionError("Schur step self-check failed")
    return k, unit, S


def _peel_transforms(nr, nc, steps):
    """(U, V, peeled, scale) for the Schur steps (t, W) taken, U and V as
    rows, with U (Lambda A) V == diag(peeled) (+) scale core: each step's
    Schur complement, in Laurent arithmetic, of A11 in [[A, P], [C, 0]],
    A = U0 R W V0 of ``_schur_step``, P = U0 R U[t:], C = V[:, t:] V0,
    gives U's rows t.. as [adj P1; det P2 - A21 adj P1] and V's columns
    t.. as [C1 | det C2 - C1 X]."""
    U, V, peeled, scale = _ident(nr), _ident(nc), [], ONE
    for t, W in steps:
        packed, snf, k = _unit_block(W)
        n, m = len(W), len(W[0])
        P = matmul(snf.U, Matrix(n, m + nr, [
            [LaurentPoly({-o: 1}) * e for e in [*w, *u]]
            for w, u, o in zip(W, U[t:], packed.shifts)])).entries
        B = [[*b, *e] for b, e in zip(matmul(Matrix(n + nc, m, [
            p[:m] for p in P] + [row[t:] for row in V]), snf.V).entries,
            [p[m:] for p in P] + [[0] * nr] * nc)]
        det, sol = solve_laurent(Matrix(k, k, [b[:k] for b in B[:k]]),
                                 Matrix(k, m + nr - k, [b[k:] for b in B[:k]]))
        h = n + nc - k
        low = (Matrix(h, m + nr - k, [b[k:] for b in B[k:]]).scaled(det)
               - matmul(Matrix(h, k, [b[:k] for b in B[k:]]), sol)).entries
        U[t:] = [row[m - k:] for row in sol.entries + low[:n - k]]
        V = [row[:t] + [*c[:k], *b[:m - k]]
             for row, c, b in zip(V, B[n:], low[n - k:])]
        scale = scale * det
        peeled += [scale] * k
    return U, V, peeled, scale


def _reduce_pivot(red, t):
    """Finish pivot position t; False if there is no pivot to take."""
    while True:
        if (pivot := _select_pivot(red.A, t, red.nr, red.nc)) is None:
            return False
        i, j = pivot
        red.swap(t, i)
        _on_columns(_Reduction.swap, red, t, j)
        p = red.A[t][t]
        # exact clears; a unit divides every entry, so a unit pivot is
        # done after them, with no scan of the submatrix left
        _on_columns(_clear, red, t, p)
        _clear(red, t, p)
        if is_novikov_unit(p):
            return True
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
            return True
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
