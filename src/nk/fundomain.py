"""
Algebraic fundamental domains and the algebraic Novikov complex.

A fundamental domain packages the chain-level data of one slice of an
infinite cyclic cover: finite based free Z-complexes D (the cut
hypersurface) and F (the relative handles), with

* c   : F_i -> D_{i-1}   gluing block, so that E = D (+) F with
  d_E = [[d_D, c], [0, d_F]] is a complex;
* h_D : D_i -> D_i and h_F : D_i -> F_i, the blocks of a chain map
  h = [h_D; h_F] : D -> E modelling the flow through the slice
  (d_D h_D + c h_F = h_D d_D and d_F h_F = h_F d_D).

Out of this come three exact constructions:

* the mapping cone C(phi) of phi = g - z h = [1 - z h_D; -z h_F], a
  Laurent complex computing the homology of the total space with
  Novikov-type coefficients;
* the algebraic Novikov complex F^ on the ranks of F, with differential
  d_F + z h_F (1 - z h_D)^-1 c  =  d_F + sum_{j>=1} z^j h_F h_D^{j-1} c,
  exactly or truncated at a series order.  Exactly, each 1 - z h_D | D_i
  goes through one fraction-free elimination per domain, on integers
  packed straight from h_D and h_F, which gives its determinant and
  z h_F adj over Z[z,z^-1]; the determinant has constant coefficient 1,
  hence is invertible in the rational subring, and each entry of
  z h_F adj c is divided by it once;
* the torsion of the projection C(phi) -> F^, in commutative determinant
  form: the alternating product of det(1 - z h_D | D_i), a zeta-type
  ``RationalFunction`` whose numerator and denominator have constant
  coefficient 1.

Each degree's det and z h_F adj are built once per domain, for F^ and
for the cokernel identification: that the projection p: C(phi) -> F^
is a chain map is decided without building C(phi), in each degree by
one packed product of two integer matrices (``cokernel_iso_check``).
"""

from __future__ import annotations

from functools import cached_property

from .rings import ONE, LaurentPoly, RationalFunction, Record
from .linalg import Matrix, _is_int, _Packed, matmul
from .complexes import BasedChainComplex, InvalidDomain


class AlgebraicFundamentalDomain(Record):
    """The block data (d_D, d_F, c, h_D, h_F) of a fundamental domain.

    ``c[i]``: F_i -> D_{i-1}; ``h_D[i]``: D_i -> D_i; ``h_F[i]``:
    D_i -> F_i.  Missing degrees mean zero blocks.  Construction runs
    the full validator.
    """

    # no __slots__: the cached properties below need the instance dict
    _fields = ("D", "F", "c", "h_D", "h_F")

    def __init__(self, D, F, c, h_D, h_F):
        if not (D.is_integral and F.is_integral):
            raise InvalidDomain("entries", D.lo, "D and F must be over Z")
        self._set(D, F,
                  _conform(c, lambda i: (D.rank(i - 1), F.rank(i)), "c"),
                  _conform(h_D, lambda i: (D.rank(i), D.rank(i)), "h_D"),
                  _conform(h_F, lambda i: (F.rank(i), D.rank(i)), "h_F"))
        bad = validate_fundamental_domain(self)
        if bad is not None:
            raise InvalidDomain(*bad)

    def _span(self):
        return range(min(self.D.lo, self.F.lo) - 1,
                     max(self.D.hi, self.F.hi) + 2)

    def c_at(self, i):
        return self.c.get(i) or Matrix.zeros(self.D.rank(i - 1), self.F.rank(i))

    def h_D_at(self, i):
        return self.h_D.get(i) or Matrix.zeros(self.D.rank(i), self.D.rank(i))

    def h_F_at(self, i):
        return self.h_F.get(i) or Matrix.zeros(self.F.rank(i), self.D.rank(i))

    @cached_property
    def solved(self):
        """{i: (det M, z h_F adj M)} for M = 1 - z h_D on D_i, in each
        degree where D is nonzero: the middle block of the projection
        C(phi) -> F^ and, times c, the tail of the numerators of F^.

        One Gauss-Jordan pass of the Bareiss kernel over [M^T | h_F^T]
        gives both (adj(M^T) = adj(M)^T), on rows packed straight from
        the int blocks (``linalg._Packed.ints``): row r of M^T is
        1 - z h_D[k][r], and h_F[j][r] follows it."""
        out = {}
        for i in filter(self.D.rank, self.D.degrees()):
            n = self.D.rank(i)
            h_D, h_F = self.h_D_at(i).entries, self.h_F_at(i).entries
            slots, rank, det, M = _Packed.ints(
                list(zip(*h_D)), list(zip(*h_F)) if h_F else [()] * n
            ).eliminate(n, jordan=True)
            if rank < n:  # pragma: no cover - internal invariant
                raise AssertionError("1 - z h_D must be invertible")
            adj = zip(*(row[n:] for row in M))  # the columns of adj(M^T) h_F^T
            out[i] = slots.unpack(det, 0), Matrix(
                len(h_F), n, slots.unpack_rows(adj, 1))
        return out

    @cached_property
    def cone(self):
        """The mapping cone C(phi), built once per domain."""
        return assemble_mapping_cone(self)

    @cached_property
    def numerators(self):
        """{i: (det, N)} with d_F^ = N / det, for each differential of
        C(phi): det = det(1 - z h_D) on D_{i-1} and
        N = det d_F + z h_F adj(1 - z h_D) c over Z[z,z^-1]."""
        out = {}
        for i in range(min(self.D.lo, self.F.lo) + 1,
                       max(self.D.hi + 1, self.F.hi) + 1):
            det, zh_F_adj = self.solved.get(i - 1, (ONE, None))
            num = self.F.differential(i).scaled(det)
            if i - 1 in self.h_F and i in self.c:
                num = num + matmul(zh_F_adj, self.c[i])
            out[i] = det, num
        return out


def _conform(blocks, shape, name):
    out = {}
    for i, m in blocks.items():
        rs, cs = shape(i)
        if (m.rows, m.cols) != (rs, cs):
            raise InvalidDomain(f"{name} shape", i,
                                f"{m.rows}x{m.cols}, expected {rs}x{cs}")
        if not _is_int(m.entries):
            raise InvalidDomain("entries", i, f"{name} must be over Z")
        if not m.is_zero:
            out[i] = m
    return out


def validate_fundamental_domain(fd) -> tuple | None:
    """Check the five identity families exactly.

    Returns None, or (identity name, degree) for the first failure.
    d_D^2 = 0 and d_F^2 = 0 hold by construction of the complexes; the
    three block identities are re-derivations of "E is a complex" and
    "h is a chain map":

      d_D c + c d_F = 0
      d_D h_D + c h_F = h_D d_D
      d_F h_F = h_F d_D

    Only products of two present blocks are formed: a missing block or
    a zero differential is zero, and so is every product it enters.
    """
    d_D, d_F = ({i: m for i, m in X.differentials.items() if not m.is_zero}
                for X in (fd.D, fd.F))
    c, h_D, h_F = fd.c, fd.h_D, fd.h_F
    for i in fd._span():
        for name, lhs, rhs in (
                ("d_D c + c d_F = 0",  # F_i -> D_{i-2}
                 [(d_D.get(i - 1), c.get(i)), (c.get(i - 1), d_F.get(i))], []),
                ("d_D h_D + c h_F = h_D d_D",  # D_i -> D_{i-1}
                 [(d_D.get(i), h_D.get(i)), (c.get(i), h_F.get(i))],
                 [(h_D.get(i - 1), d_D.get(i))]),
                ("d_F h_F = h_F d_D",  # D_i -> F_{i-1}
                 [(d_F.get(i), h_F.get(i))], [(h_F.get(i - 1), d_D.get(i))])):
            if not _balanced(lhs, rhs):
                return name, i
    return None


def _balanced(lhs, rhs):
    """Is the sum of a @ b over the pairs lhs that over the pairs rhs?
    A pair with a missing block (None) is zero and never multiplied."""
    total = None
    for pairs, sign in ((lhs, 1), (rhs, -1)):
        for a, b in pairs:
            if a is not None and b is not None:
                p = matmul(a, b) if sign > 0 else -matmul(a, b)
                total = p if total is None else total + p
    return total is None or total.is_zero


def assemble_mapping_cone(fd: AlgebraicFundamentalDomain) -> BasedChainComplex:
    """The Laurent complex C(phi), phi = g - z h.

    Degree i carries D_{i-1} (+) D_i (+) F_i, with differential blocks

        [ -d_D        0      0   ]
        [ 1 - z h_D   d_D    c   ]
        [ -z h_F      0      d_F ]

    (the last diagonal block is d_F: with d_D there the square of the
    differential picks up c d_F - d_D c != 0 in general, and the
    construction-time validator would reject it).
    """
    D, F = fd.D, fd.F
    lo = min(D.lo, F.lo)
    hi = max(D.hi + 1, F.hi)
    ranks = [D.rank(i - 1) + D.rank(i) + F.rank(i) for i in range(lo, hi + 1)]
    diffs = {}
    for i in range(lo + 1, hi + 1):
        h, rest = _lower_rows(fd, i)
        zeros = [0] * (D.rank(i) + F.rank(i))  # beside -d_D
        # k < D.rank(i - 1) <= r on h_F's rows: they get -z h, not 1 - z h
        diffs[i] = Matrix(ranks[i - 1 - lo], ranks[i - lo], [
            [-e for e in row] + zeros for row in D.differential(i - 1).entries
        ] + [[LaurentPoly._dense(0, (int(k == r), -e)) for k, e in enumerate(a)]
             + list(b) for r, (a, b) in enumerate(zip(h, rest))])
    return BasedChainComplex(lo, hi, ranks, diffs)


def _lower_rows(fd, i):
    """C(phi)'s rows [1 - z h_D | d_D | c] and [-z h_F | 0 | d_F] in degree
    i as int rows (h, rest): h those of h_D and h_F, rest the others."""
    D, F = fd.D, fd.F
    return (fd.h_D_at(i - 1).entries + fd.h_F_at(i - 1).entries,
            [d + c for d, c in zip(D.differential(i).entries,
                                   fd.c_at(i).entries)]
            + [(0,) * D.rank(i) + d for d in F.differential(i).entries])


class TruncatedComplexPresentation(Record):
    """Ranks plus differentials summed through series order `order`;
    d o d vanishes through that order rather than identically."""

    __slots__ = _fields = ("lo", "hi", "ranks", "differentials", "order")

    def __init__(self, lo, hi, ranks, differentials, order):
        self._set(lo, hi, ranks, differentials, order)

    rank = BasedChainComplex.rank
    differential = BasedChainComplex.differential


def algebraic_novikov_complex(fd: AlgebraicFundamentalDomain, mode="exact",
                              order=None):
    """The complex F^ on the ranks of F.

    mode="exact": differentials d_F + z h_F (1 - z h_D)^-1 c as exact
    rational matrices; the result is a validated complex (d^2 = 0
    identically).  mode="truncated": the geometric series is summed
    through z^order, d_F + sum_{j=1..order} z^j h_F h_D^{j-1} c, giving
    Laurent differentials with d^2 = 0 through that order.
    """
    F = fd.F
    if mode == "exact":
        diffs = {}
        for i in range(F.lo + 1, F.hi + 1):
            det, num = fd.numerators[i]
            diffs[i] = num.map_entries(lambda e: RationalFunction(e, det))
        return BasedChainComplex(F.lo, F.hi,
                                 [F.rank(i) for i in F.degrees()], diffs)
    if mode != "truncated":
        raise ValueError(f"unknown mode {mode!r}")
    if order is None:
        raise ValueError("truncated mode needs an order")
    diffs = {}
    for i in range(F.lo + 1, F.hi + 1):
        # the coefficient of z^j, j = 0..order, one integer matrix each;
        # every entry is then built once, in time linear in the order
        d = F.differential(i)
        hd, c = fd.h_D_at(i - 1), fd.c_at(i)
        power = fd.h_F_at(i - 1)  # h_F h_D^(j-1)
        terms = [d.entries]
        for _ in range(order):
            terms.append(matmul(power, c).entries)
            power = matmul(power, hd)
        diffs[i] = Matrix(d.rows, d.cols, [
            [LaurentPoly._dense(0, [t[r][k] for t in terms])
             for k in range(d.cols)] for r in range(d.rows)])
    return TruncatedComplexPresentation(
        F.lo, F.hi, tuple(F.rank(i) for i in F.degrees()), diffs, order)


class CokernelCheck(Record):
    """Outcome of the cokernel identification test."""

    __slots__ = _fields = ("passed", "degree", "order")

    def __init__(self, passed, degree=None, order=None):
        self._set(passed, degree, order)

    def __bool__(self):
        return self.passed


def cokernel_iso_check(fd: AlgebraicFundamentalDomain, precision) -> CokernelCheck:
    """Verify, through series order `precision`, that projecting C(phi)
    onto its F-summand along im(phi), p_i = [0, Y_i / det_i, 1] with
    (det_i, Y_i) the (det, z h_F adj) of 1 - z h_D on D_i (``fd.solved``),
    intertwines d_{C(phi)} with d_F^ = N_i / det_{i-1}.

    Times det_{i-1} det_i, the difference in degree i is one product L R,
    read off the domain without building C(phi) (block row D_{i-2} meets
    a zero of p_{i-1}):

      L = [det_i Y_{i-1} | det_i det_{i-1} I | -N_i]
      R = [[1 - z h_D, d_D, c], [-z h_F, 0, d_F], [0, Y_i, det_i I]]

    Its column blocks on D_{i-1}, D_i and F_i are the adjugate, chain-map
    and numerator identities.  Keeping det_i keeps every entry, hence the
    first mismatch (degree, then lowest order; a det has order 0 and
    constant coefficient 1), that of the product with the cone, for any
    ``solved`` and ``numerators``.

    The dets, Y and N are one packed leaf per degree, at one shift s <= 0,
    read as row ranges; R's other rows come from the int blocks.  L R is
    one packed product (``linalg._Packed.product``), whose rule sets the
    width, and each order is read off the integers (``_Slots.order``).
    """
    D, F = fd.D, fd.F
    for i in range(min(D.lo, F.lo) + 1, max(D.hi + 1, F.hi) + 1):
        if not F.rank(i - 1):  # L has no rows
            continue
        (det1, y1), (det0, y0) = (
            fd.solved.get(j, (ONE, Matrix.zeros(F.rank(j), 0)))
            for j in (i - 1, i))
        # det_{i-1}, det_i, Y_{i-1}, N_i and Y_i beside zeros on D_{i-1},
        # all at the lowest order s <= 0 of their entries
        y1, y0, num = y1.entries, y0.entries, fd.numerators[i][1].entries
        leaf = _Packed.of([[det1], [det0], *y1, *num]
                          + [(0,) * D.rank(i - 1) + y for y in y0])
        s = min(0, leaf.low or 0)
        leaf.one_shift(s)
        a, b = 2 + len(y1), 2 + len(y1) + len(num)
        d0, y1, num, y0 = slice(1, 2), slice(2, a), slice(a, b), slice(b, None)
        L = _Packed.eye(leaf, y1, d0, slice(0, 2), num, -1)
        # R's block rows on D_{i-1} and on F_{i-1} from the int blocks
        R = _Packed.block([[_Packed.ints(*_lower_rows(fd, i))],
                           [_Packed.eye(leaf, y0, 1, d0)]])
        slots, LR = _Packed.product([L, R])
        orders = [slots.order(v, 2 * s) for row in LR for v in row if v]
        if orders and min(orders) <= precision:
            return CokernelCheck(False, i, min(orders))
    return CokernelCheck(True)


def torsion_zeta(fd: AlgebraicFundamentalDomain) -> RationalFunction:
    """The commutative torsion of the projection C(phi) -> F^: the
    alternating product prod_i det(1 - z h_D | D_i)^((-1)^i) over the
    degrees of D.

    Each det(1 - z h_D | D_i) lies in S (constant coefficient 1), so the
    product is a well-defined element of the rational subring; even
    degrees multiply the numerator, odd degrees the denominator.
    """
    num, den = ONE, ONE
    for i, (det, _) in fd.solved.items():
        if i % 2 == 0:
            num = num * det
        else:
            den = den * det
    zeta = RationalFunction(num, den)
    parts = zeta.numerator.coeff(0), zeta.denominator.coeff(0)
    if parts != (1, 1):  # pragma: no cover
        raise AssertionError("zeta parts must have constant coefficient 1")
    return zeta
