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

Each degree's det and z h_F adj (for F^ and the cokernel check, which
never builds C(phi)) are built once per domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .rings import ONE, LaurentPoly, RationalFunction, _slot_width
from .linalg import (Matrix, _eliminate, _imul, _is_int, _orders_and_norms,
                     _pack, _unpack, matmul)
from .complexes import BasedChainComplex


class InvalidDomain(Exception):
    """A fundamental-domain identity fails; names the identity and degree."""

    def __init__(self, identity, degree, detail=""):
        msg = f"{identity} fails at degree {degree}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.identity = identity
        self.degree = degree


@dataclass(frozen=True)
class AlgebraicFundamentalDomain:
    """The block data (d_D, d_F, c, h_D, h_F) of a fundamental domain.

    ``c[i]``: F_i -> D_{i-1}; ``h_D[i]``: D_i -> D_i; ``h_F[i]``:
    D_i -> F_i.  Missing degrees mean zero blocks.  Construction runs
    the full validator.
    """

    D: BasedChainComplex
    F: BasedChainComplex
    c: dict
    h_D: dict
    h_F: dict

    def __post_init__(self):
        if not (self.D.is_integral and self.F.is_integral):
            raise InvalidDomain("entries", self.D.lo, "D and F must be over Z")
        object.__setattr__(self, "c", _conform(
            self.c, lambda i: (self.D.rank(i - 1), self.F.rank(i)), "c"))
        object.__setattr__(self, "h_D", _conform(
            self.h_D, lambda i: (self.D.rank(i), self.D.rank(i)), "h_D"))
        object.__setattr__(self, "h_F", _conform(
            self.h_F, lambda i: (self.F.rank(i), self.D.rank(i)), "h_F"))
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
        gives both (adj(M^T) = adj(M)^T), on rows packed from the int
        blocks at X = 2^(8w): row r is 1 - X h_D[k][r] and h_F[j][r], of
        order 0, and w puts the product of the row 1-norms, which bounds
        every coefficient of every minor, below X/2."""
        out = {}
        for i in filter(self.D.rank, self.D.degrees()):
            n = self.D.rank(i)
            h_D, h_F = self.h_D_at(i).entries, self.h_F_at(i).entries
            cols = list(zip(zip(*h_D), zip(*h_F) if h_F else [()] * n))
            w = _slot_width(math.prod(1 + sum(map(abs, a)) + sum(map(abs, b))
                                      for a, b in cols))
            M = [[(k == r) - (e << 8 * w) for k, e in enumerate(a)] + list(b)
                 for r, (a, b) in enumerate(cols)]
            rank, det = _eliminate(M, n, jordan=True)
            if rank < n:  # pragma: no cover - internal invariant
                raise AssertionError("1 - z h_D must be invertible")
            adj = zip(*(row[n:] for row in M))  # the columns of adj(M^T) h_F^T
            out[i] = _unpack(det, 0, w), Matrix(len(h_F), n, [
                [_unpack(v, 1, w) for v in col] for col in adj])
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
        n = D.rank(i - 1)
        one_minus_zh = Matrix(n, n, [
            [LaurentPoly._dense(0, (int(r == k), -e)) for k, e in enumerate(row)]
            for r, row in enumerate(fd.h_D_at(i - 1).entries)])
        diffs[i] = Matrix.block(
            [[-D.differential(i - 1), None, None],
             [one_minus_zh, D.differential(i), fd.c.get(i)],
             [fd.h_F_at(i - 1).map_entries(lambda e: LaurentPoly._dense(
                 1, (-e,))), None, F.differential(i)]],
            row_sizes=[D.rank(i - 2), D.rank(i - 1), F.rank(i - 1)],
            col_sizes=[D.rank(i - 1), D.rank(i), F.rank(i)])
    return BasedChainComplex(lo, hi, ranks, diffs)


@dataclass(frozen=True)
class TruncatedComplexPresentation:
    """Ranks plus differentials summed through series order `order`;
    d o d vanishes through that order rather than identically."""

    lo: int
    hi: int
    ranks: tuple
    differentials: dict
    order: int

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


@dataclass(frozen=True)
class CokernelCheck:
    """Outcome of the cokernel identification test."""

    passed: bool
    degree: int | None = None
    order: int | None = None

    def __bool__(self):
        return self.passed


def cokernel_iso_check(fd: AlgebraicFundamentalDomain, precision) -> CokernelCheck:
    """Verify, through series order `precision`, that projecting C(phi)
    onto its F-summand along im(phi), p_i = [0, Y_i / det_i, 1] with
    (det_i, Y_i) the (det, z h_F adj) of 1 - z h_D on D_i (``fd.solved``),
    intertwines d_{C(phi)} with d_F^ = N_i / det_{i-1}.

    Times det_{i-1} det_i, the difference in degree i has three column
    blocks, read off the domain without building C(phi) (block row
    D_{i-2} meets a zero of p_{i-1}):

      on D_{i-1}: det_i (Y_{i-1} (1 - z h_D) - z det_{i-1} h_F)  (adjugate)
      on D_i:     det_i Y_{i-1} d_D - N_i Y_i                   (chain map)
      on F_i:     det_i (Y_{i-1} c + det_{i-1} d_F - N_i)       (numerators)

    Keeping det_i keeps every entry, hence the first mismatch (degree,
    then lowest order; a det has order 0 and constant coefficient 1),
    that of the product with the cone, for any ``solved`` and
    ``numerators``.  The Laurent inputs pack once per degree at
    X = 2^(8w), w above the 1-norm bound of each block and of each packed
    input; the integer blocks stay ints.
    """
    for i in range(min(fd.D.lo, fd.F.lo) + 1, max(fd.D.hi + 1, fd.F.hi) + 1):
        rows = fd.F.rank(i - 1)
        if not rows:  # every block maps into F_{i-1}
            continue
        (det1, y1), (det0, y0) = (fd.solved.get(j, (ONE, None))
                                  for j in (i - 1, i))
        num = fd.numerators[i][1].entries
        y1, y0 = (y.entries if y else () for y in (y1, y0))
        h_D, h_F, c = (fd.h_D_at(i - 1).entries, fd.h_F_at(i - 1).entries,
                       fd.c_at(i).entries)
        d_D, d_F = fd.D.differential(i).entries, fd.F.differential(i).entries
        (s1, n1), (s0, n0), (sy1, ny1), (sy0, ny0), (sn, nn) = (
            _low_and_norm(m) for m in ([[det1]], [[det0]], y1, y0, num))
        nh_D, nh_F, nc, nd_D, nd_F = (_low_and_norm(m)[1]
                                      for m in (h_D, h_F, c, d_D, d_F))
        bound_adj = n0 * (ny1 * (1 + nh_D) + n1 * nh_F)
        bound_chain = n0 * ny1 * nd_D + nn * ny0
        bound_num = n0 * (ny1 * nc + n1 * nd_F + nn)
        s = min(0, s1, s0, sy1, sy0, sn)
        w = _slot_width(max(bound_adj, bound_chain, bound_num,
                            n1, n0, ny1, ny0, nn))
        x = 8 * w  # z packs as X = 2^x; every block packs at shift 2s
        p1, p0 = _pack(det1, s, w), _pack(det0, s, w)
        Y1, Y0, N = ([[_pack(e, s, w) for e in row] for row in m]
                     for m in (y1, y0, num))
        Y1h_D = _times(Y1, h_D, rows, fd.D.rank(i - 1))
        Y1d_D = _times(Y1, d_D, rows, fd.D.rank(i))
        NY0 = _times(N, Y0, rows, fd.D.rank(i))
        Y1c = _times(Y1, c, rows, fd.F.rank(i))
        adj = [[p0 * (y - ((a + p1 * h) << x)) for y, a, h in zip(*r)]
               for r in zip(Y1, Y1h_D, h_F)]
        chain = [[p0 * a - b for a, b in zip(*r)] for r in zip(Y1d_D, NY0)]
        nums = [[p0 * (a + p1 * d - n) for a, d, n in zip(*r)]
                for r in zip(Y1c, d_F, N)]
        orders = [_unpack(v, 2 * s, w).ord() for block in (adj, chain, nums)
                  for row in block for v in row if v]
        if orders and min(orders) <= precision:
            return CokernelCheck(False, i, min(orders))
    return CokernelCheck(True)


def _low_and_norm(rows):
    """The lowest order of the nonzero entries of the rows (0 if there
    are none) and their largest 1-norm."""
    on = _orders_and_norms(rows)
    return (min((lo for lo, _ in on if lo is not None), default=0),
            max((n for _, n in on), default=0))


def _times(a, b, rows, cols):
    """a @ b for int rows a (`rows` of them) and b (`cols` columns); zero
    when b has no rows, i.e. the inner dimension is empty."""
    return _imul(a, b) if b else [[0] * cols for _ in range(rows)]


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
