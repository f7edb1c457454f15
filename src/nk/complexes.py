"""
Bounded based free chain complexes over Z, Z[z,z^-1], and the rational
subring S^-1 Z[z,z^-1].

A complex is a degree range [lo, hi], a rank per degree, and one
differential matrix per degree i in (lo, hi] mapping degree i to i-1
(one column per degree-i basis element, one row per degree-(i-1) basis
element).  d o d = 0 is checked exactly at construction: there is no way
to hold an invalid complex.

Integral homology splits each H_i as Z^b_i (+) torsion via Smith normal
forms of the adjacent differentials; the Morse inequality lower bound in
degree i is b_i + q_i + q_{i-1} with q counting torsion generators.
Unit cancellation shrinks a Laurent complex up to chain equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import LaurentPoly, RationalFunction
from .linalg import Matrix, matmul, smith_normal_form_int


class NotAComplex(Exception):
    """d o d != 0; carries the lowest offending degree and the product."""

    def __init__(self, degree, product=None):
        super().__init__(f"d o d != 0 at degree {degree}")
        self.degree = degree
        self.product = product


def _entry_ok(e):
    return isinstance(e, (int, LaurentPoly, RationalFunction)) and \
        not isinstance(e, bool)


class BasedChainComplex:
    """Bounded based f.g. free chain complex; validated on construction.
    Its ring is read off its entries: ints, LaurentPolys, RationalFunctions."""

    __slots__ = ("lo", "hi", "ranks", "differentials")

    def __init__(self, lo, hi, ranks, differentials):
        if hi < lo:
            raise ValueError("degree range is empty")
        ranks = tuple(int(r) for r in ranks)
        if len(ranks) != hi - lo + 1 or any(r < 0 for r in ranks):
            raise ValueError("ranks must list one count per degree in [lo, hi]")
        diffs = {}
        for i in range(lo + 1, hi + 1):
            d = differentials.get(i) or Matrix.zeros(ranks[i - 1 - lo],
                                                     ranks[i - lo])
            if (d.rows, d.cols) != (ranks[i - 1 - lo], ranks[i - lo]):
                raise ValueError(
                    f"differential at degree {i} is {d.rows}x{d.cols}, "
                    f"expected {ranks[i - 1 - lo]}x{ranks[i - lo]}")
            if not all(_entry_ok(e) for row in d.entries for e in row):
                raise ValueError(f"differential at degree {i} has entries "
                                 f"that are not ring elements")
            diffs[i] = d
        extra = set(differentials) - set(diffs)
        if extra:
            raise ValueError(f"differentials at degrees {sorted(extra)} "
                             f"outside (lo, hi]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "differentials", diffs)
        bad = validate_complex(self)
        if bad is not None:
            raise NotAComplex(*bad)

    def __setattr__(self, *a):
        raise AttributeError("BasedChainComplex is immutable")

    def rank(self, i):
        if self.lo <= i <= self.hi:
            return self.ranks[i - self.lo]
        return 0

    def differential(self, i):
        """The matrix of d: C_i -> C_{i-1} (zero-shaped outside range)."""
        return self.differentials.get(i) or Matrix.zeros(self.rank(i - 1),
                                                         self.rank(i))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    @property
    def is_integral(self):
        """Every differential entry is an int: a complex over Z."""
        return all(isinstance(e, int) for d in self.differentials.values()
                   for row in d.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, BasedChainComplex):
            return NotImplemented
        return (self.lo, self.hi, self.ranks, self.differentials) == \
               (other.lo, other.hi, other.ranks, other.differentials)

    def __hash__(self):
        return hash((self.lo, self.hi, self.ranks,
                     tuple(sorted(self.differentials.items()))))

    def __repr__(self):
        return (f"BasedChainComplex(degrees [{self.lo},{self.hi}], "
                f"ranks {list(self.ranks)})")


def validate_complex(c: BasedChainComplex):
    """None when d o d = 0 in every degree; else (degree, product matrix)
    for the lowest degree i with d_{i-1} o d_i != 0."""
    for i in range(c.lo + 2, c.hi + 1):
        prod = matmul(c.differential(i - 1), c.differential(i))
        if not prod.is_zero:
            return (i, prod)
    return None


@dataclass(frozen=True)
class ChainMap:
    """A degree-preserving map of complexes commuting with d, exactly."""

    source: BasedChainComplex
    target: BasedChainComplex
    components: dict

    def __post_init__(self):
        comps = {}
        for i in range(min(self.source.lo, self.target.lo),
                       max(self.source.hi, self.target.hi) + 1):
            f = self.components.get(i) or Matrix.zeros(
                self.target.rank(i), self.source.rank(i))
            if (f.rows, f.cols) != (self.target.rank(i), self.source.rank(i)):
                raise ValueError(f"component at degree {i} has wrong shape")
            comps[i] = f
        object.__setattr__(self, "components", comps)
        for i in range(min(self.source.lo, self.target.lo) + 1,
                       max(self.source.hi, self.target.hi) + 1):
            lhs = matmul(self.target.differential(i), self.component(i))
            rhs = matmul(self.component(i - 1), self.source.differential(i))
            if lhs != rhs:
                raise ValueError(f"does not commute with d at degree {i}")

    def component(self, i):
        return self.components.get(i) or Matrix.zeros(self.target.rank(i),
                                                      self.source.rank(i))


def mapping_cone(f: ChainMap) -> BasedChainComplex:
    """cone(f)_i = source_{i-1} (+) target_i with differential
    [[-d_source, 0], [f, d_target]] (shifted source listed first)."""
    s, t = f.source, f.target
    lo = min(s.lo + 1, t.lo)
    hi = max(s.hi + 1, t.hi)
    ranks = [s.rank(i - 1) + t.rank(i) for i in range(lo, hi + 1)]
    diffs = {}
    for i in range(lo + 1, hi + 1):
        diffs[i] = Matrix.block(
            [[-s.differential(i - 1), None],
             [f.component(i - 1), t.differential(i)]],
            row_sizes=[s.rank(i - 2), t.rank(i - 1)],
            col_sizes=[s.rank(i - 1), t.rank(i)])
    return BasedChainComplex(lo, hi, ranks, diffs)


def direct_sum(a: BasedChainComplex, b: BasedChainComplex) -> BasedChainComplex:
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    ranks = [a.rank(i) + b.rank(i) for i in range(lo, hi + 1)]
    diffs = {i: Matrix.block([[a.differential(i), None],
                              [None, b.differential(i)]],
                             row_sizes=[a.rank(i - 1), b.rank(i - 1)],
                             col_sizes=[a.rank(i), b.rank(i)])
             for i in range(lo + 1, hi + 1)}
    return BasedChainComplex(lo, hi, ranks, diffs)


def _first_unit(m):
    """(r, k, a^-1) for the first entry a = m[r][k] = +-z^j in row-major
    order, a unit of Z[z,z^-1]; None when there is none."""
    for r, row in enumerate(m):
        for k, e in enumerate(row):
            if e in (1, -1):
                return r, k, e
            if e.__class__ is LaurentPoly and e and e.ord() == e.deg() \
                    and e.lowest_coeff() in (1, -1):
                return r, k, e ** -1
    return None


def cancel_units(c: BasedChainComplex) -> BasedChainComplex:
    """Gaussian elimination along the entries +-z^j of a complex with
    int or Laurent entries: a chain equivalent complex on [lo, hi] with
    no such entry left.

    Each step takes the first one, a = d_i[r][k], of the lowest degree
    that has one, drops generator k of C_i and r of C_{i-1}, sets
    d_i' = delta - gamma a^-1 beta, and deletes row k of d_{i+1} and
    column r of d_{i-1}.  a is a unit of Q(z) and of both completions,
    so the Betti numbers and torsion ideals there do not change: two
    critical points joined by one flow line cancel (Milnor, Lectures on
    the h-cobordism theorem, 1965, 5; Skoldberg, Trans. AMS 358, 2006).
    """
    lo, ranks = c.lo, list(c.ranks)
    d = {i: [list(row) for row in c.differential(i).entries]
         for i in range(lo + 1, c.hi + 1)}
    for i in d:  # a step at i only deletes from d_{i-1}: no new units there
        while (pivot := _first_unit(d[i])) is not None:
            r, k, inv = pivot
            beta = d[i].pop(r)
            for row in d[i]:
                if row[k]:
                    g = row[k] * inv
                    for y, b in enumerate(beta):
                        if b and y != k:
                            row[y] = row[y] - g * b
                del row[k]
            if i + 1 in d:
                del d[i + 1][k]
            for row in d.get(i - 1, ()):
                del row[r]
            ranks[i - lo] -= 1
            ranks[i - 1 - lo] -= 1
    return BasedChainComplex(lo, c.hi, ranks, {
        i: Matrix(ranks[i - 1 - lo], ranks[i - lo], m) for i, m in d.items()})


@dataclass(frozen=True)
class HomologyReport:
    """Per degree: Betti number b_i, torsion invariant factors (each
    dividing the next, unit factors stripped), q_i = their count.

    Over Z the factors are positive ints; over a Novikov ring they are
    normalized Laurent representatives (``novikov.NovikovReport``).
    """

    lo: int
    hi: int
    betti: dict
    torsion_factors: dict

    def b(self, i):
        return self.betti.get(i, 0)

    def torsion_count(self, i):
        return len(self.torsion_factors.get(i, ()))

    @property
    def all_zero(self):
        """Every reported group is zero."""
        return (all(b == 0 for b in self.betti.values())
                and all(not t for t in self.torsion_factors.values()))

    def factors_by_degree(self):
        return {i: tuple(self.torsion_factors.get(i, ()))
                for i in range(self.lo, self.hi + 1)}

    def to_json(self):
        return {
            "lo": self.lo,
            "hi": self.hi,
            "betti": {str(i): self.betti[i] for i in sorted(self.betti)},
            "torsion": {str(i): [f if isinstance(f, int) else f.to_json()
                                 for f in self.torsion_factors[i]]
                        for i in sorted(self.torsion_factors)},
        }


def integral_homology(c: BasedChainComplex) -> HomologyReport:
    """H_i as Z^{b_i} (+) (+)_j Z/d_j.

    b_i = rank_i - rank(d_i) - rank(d_{i+1}); the torsion coefficients of
    H_i are the nonunit invariant factors of d_{i+1} (its image sits
    inside the saturated summand ker d_i, so the factors agree).
    """
    if not c.is_integral:
        raise ValueError("integral homology needs integer entries")
    snf = {i: smith_normal_form_int(c.differential(i))
           for i in range(c.lo + 1, c.hi + 1)}
    betti, torsion = {}, {}
    for i in c.degrees():
        r_in = snf[i + 1].rank if i + 1 in snf else 0
        r_out = snf[i].rank if i in snf else 0
        betti[i] = c.rank(i) - r_in - r_out
        torsion[i] = list(snf[i + 1].torsion_factors) if i + 1 in snf else []
    return HomologyReport(c.lo, c.hi, betti, torsion)


def morse_lower_bounds(report) -> dict:
    """Right-hand sides b_i + q_i + q_{i-1} of the Morse inequalities,
    for a HomologyReport or (as ``novikov.morse_novikov_bounds``) a
    NovikovReport.

    q below the report range counts as 0; the range extends one degree
    above the top when q_hi > 0 (torsion bounds two degrees).
    """
    hi = report.hi + (1 if report.torsion_count(report.hi) else 0)
    return {i: report.b(i) + report.torsion_count(i) + report.torsion_count(i - 1)
            for i in range(report.lo, hi + 1)}
