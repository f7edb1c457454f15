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
  goes through one fraction-free elimination per domain, which gives
  its determinant and adjugate over Z[z,z^-1]; the determinant has
  constant coefficient 1, hence is invertible in the rational subring,
  and each entry of z h_F adj c is divided by it once;
* the torsion of the projection C(phi) -> F^, in commutative determinant
  form: the alternating product of det(1 - z h_D | D_i), a zeta-type
  ``RationalFunction`` whose numerator and denominator have constant
  coefficient 1.

Each degree's blocks 1 - z h_D and z h_F adj(1 - z h_D) are built once
per domain and shared by C(phi), F^ and the cokernel check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .rings import ONE, Z, LaurentPoly, RationalFunction
from .linalg import Matrix, matmul, solve_laurent
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
    def one_minus_zh(self):
        """{i: 1 - z h_D on D_i}, for each degree where D is nonzero."""
        return {i: Matrix.identity(self.D.rank(i)) - self.h_D_at(i).scaled(Z)
                for i in self.D.degrees() if self.D.rank(i)}

    @cached_property
    def adjugates(self):
        """{i: (det, adj)} of 1 - z h_D on D_i, for each degree where D
        is nonzero: one elimination per degree and domain, shared by F^,
        the cokernel check and the zeta."""
        return {i: solve_laurent(m, Matrix.identity(m.rows))
                for i, m in self.one_minus_zh.items()}

    @cached_property
    def zh_F_adj(self):
        """{i: z h_F adj(1 - z h_D)} on D_i, for each degree where D is
        nonzero: the middle block of the projection C(phi) -> F^ and,
        times c, the tail of the numerators of F^."""
        return {i: matmul(self.h_F_at(i), adj).scaled(Z)
                for i, (_, adj) in self.adjugates.items()}

    def adjugate_at(self, i):
        """(det, adj) of 1 - z h_D on D_i; (1, empty) where D_i = 0."""
        return self.adjugates.get(i) or (ONE, Matrix.zeros(0, 0))

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
            det, _ = self.adjugate_at(i - 1)
            num = self.F.differential(i).scaled(det)
            if i - 1 in self.zh_F_adj:
                num = num + matmul(self.zh_F_adj[i - 1], self.c_at(i))
            out[i] = det, num
        return out


def _conform(blocks, shape, name):
    out = {}
    for i, m in blocks.items():
        rs, cs = shape(i)
        if (m.rows, m.cols) != (rs, cs):
            raise InvalidDomain(f"{name} shape", i,
                                f"{m.rows}x{m.cols}, expected {rs}x{cs}")
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
    """
    D, F = fd.D, fd.F
    span = fd._span()
    for i in span:
        # d_D c + c d_F = 0 : F_i -> D_{i-2}
        lhs = matmul(D.differential(i - 1), fd.c_at(i)) + \
            matmul(fd.c_at(i - 1), F.differential(i))
        if not lhs.is_zero:
            return ("d_D c + c d_F = 0", i)
        # d_D h_D + c h_F = h_D d_D : D_i -> D_{i-1}
        lhs = matmul(D.differential(i), fd.h_D_at(i)) + \
            matmul(fd.c_at(i), fd.h_F_at(i))
        rhs = matmul(fd.h_D_at(i - 1), D.differential(i))
        if lhs != rhs:
            return ("d_D h_D + c h_F = h_D d_D", i)
        # d_F h_F = h_F d_D : D_i -> F_{i-1}
        lhs = matmul(F.differential(i), fd.h_F_at(i))
        rhs = matmul(fd.h_F_at(i - 1), D.differential(i))
        if lhs != rhs:
            return ("d_F h_F = h_F d_D", i)
    return None


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
        diffs[i] = Matrix.block(
            [[-D.differential(i - 1), None, None],
             [fd.one_minus_zh.get(i - 1), D.differential(i), fd.c_at(i)],
             [-fd.h_F_at(i - 1).scaled(Z), None, F.differential(i)]],
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
    onto its F-summand along the image of phi intertwines the assembled
    differential with the F^ differential.

    phi = [1 - z h_D; -z h_F] is split injective because 1 - z h_D is
    invertible; reducing (b, f) in D_i (+) F_i modulo im(phi) leaves
    (0, f + z h_F (1 - z h_D)^-1 b), so the projection in degree i is
    the block row p_i = [0, z h_F (1 - z h_D)^-1, 1].  The check is
    p_{i-1} d_{C(phi)} = d_F^ p_i through the requested order; the first
    mismatch is reported with its degree and series order.

    Both sides are compared over Z[z,z^-1], multiplied through by
    det_{i-1} det_i with det_i = det(1 - z h_D | D_i): each det has
    order 0 and constant coefficient 1, so the series order of a
    mismatch is the order of its Laurent numerator.
    """
    cone = fd.cone
    proj = {}
    for i in cone.degrees():
        det, _ = fd.adjugate_at(i)
        proj[i] = det, Matrix.block(
            [[None, fd.zh_F_adj.get(i),
              Matrix.identity(fd.F.rank(i)).scaled(det)]],
            row_sizes=[fd.F.rank(i)],
            col_sizes=[fd.D.rank(i - 1), fd.D.rank(i), fd.F.rank(i)])
    first = None
    for i in range(cone.lo + 1, cone.hi + 1):
        _, num = fd.numerators[i]
        det, p_i = proj[i]
        diff = (matmul(proj[i - 1][1], cone.differential(i)).scaled(det)
                - matmul(num, p_i))
        for row in diff.entries:
            for e in row:
                if e and e.ord() <= precision:
                    if first is None or (i, e.ord()) < first:
                        first = (i, e.ord())
    if first is None:
        return CokernelCheck(True)
    return CokernelCheck(False, first[0], first[1])


def torsion_zeta(fd: AlgebraicFundamentalDomain) -> RationalFunction:
    """The commutative torsion of the projection C(phi) -> F^: the
    alternating product prod_i det(1 - z h_D | D_i)^((-1)^i) over the
    degrees of D.

    Each det(1 - z h_D | D_i) lies in S (constant coefficient 1), so the
    product is a well-defined element of the rational subring; even
    degrees multiply the numerator, odd degrees the denominator.
    """
    num, den = ONE, ONE
    for i in fd.D.degrees():
        det, _ = fd.adjugate_at(i)
        if i % 2 == 0:
            num = num * det
        else:
            den = den * det
    zeta = RationalFunction(num, den)
    parts = zeta.numerator.coeff(0), zeta.denominator.coeff(0)
    if parts != (1, 1):  # pragma: no cover
        raise AssertionError("zeta parts must have constant coefficient 1")
    return zeta
