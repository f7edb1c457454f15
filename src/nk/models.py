"""
Builders turning the standard worked examples into machine inputs.

* Mapping tori: for a chain self-map h of a Z-complex C(N), the
  plus-orientation total complex is the cone of 1 - z h (always acyclic
  over Z((z))) and the minus orientation is the cone of z - h (acyclic
  iff h is an equivalence).
* The circle with the degree-one function [t] -> [4t - 9t^2 + 6t^3]:
  a hard-coded fixture for the two-critical-point fundamental domain.
* Knot complements from Seifert-style data: a reduced base complex
  (the cut-open Seifert surface) plus a chain self-map e generalizing
  the Seifert matrix gives a fundamental domain with h_D = 0, Alexander
  polynomials det(e + z(1 - e)) on homology, and the fibering test:
  the knot fibers iff the Novikov homology of the complement vanishes
  iff every Alexander polynomial has extreme coefficients +-1.
"""

from __future__ import annotations

from .rings import Z, LaurentPoly, Direction, Record
from .linalg import (Matrix, inverse_int, matmul, smith_normal_form_int,
                     solve_laurent)
from .complexes import (BasedChainComplex, ChainMap, cancel_units,
                        direct_sum, integral_homology, mapping_cone)
from .fundomain import AlgebraicFundamentalDomain
from .novikov import (_function_field_ranks, _novikov_homology,
                      novikov_homology, vanishes)


def mapping_torus_complex(h: ChainMap, orientation="plus") -> BasedChainComplex:
    """Total complex of the mapping torus of h, over Z[z,z^-1].

    plus: cone(1 - z h) for the canonical circle projection;
    minus: cone(z - h) for the reversed projection.
    """
    if h.source != h.target:
        raise ValueError("mapping torus needs a chain self-map")
    n = h.source
    comps = {}
    for i in n.degrees():
        ident = Matrix.identity(n.rank(i))
        if orientation == "plus":
            comps[i] = ident - h.component(i).scaled(Z)
        elif orientation == "minus":
            comps[i] = ident.scaled(Z) - h.component(i)
        else:
            raise ValueError(f"unknown orientation {orientation!r}")
    return mapping_cone(ChainMap(n, n, comps))


def circle_exercise() -> AlgebraicFundamentalDomain:
    """Fundamental domain for the circle with f([t]) = [4t - 9t^2 + 6t^3].

    Desk derivation (this is a fixture, not a flow simulation): the
    derivative 4 - 18t + 18t^2 vanishes at t = 1/3 (a local maximum,
    index 1, value 5/9) and t = 2/3 (a local minimum, index 0, value
    4/9), so cutting at the regular value 0 gives D = Z in degree 0 and
    F with one generator in each of degrees 1 and 0.  Downward flow
    entering the slice at the top wall falls into the minimum (h_F =
    [-1] with orientation signs, h_D = 0: nothing crosses the whole
    slice); of the two flow lines leaving the maximum, one ends at the
    minimum inside (d_F = [1]) and one exits through the cut (c = [1]),
    ending at the deck translate of the minimum.  The resulting Novikov
    differential is 1 - z: the two flow lines of the lift land on
    translates of the minimum one deck transformation apart, and the
    algebraic Novikov complex is acyclic, as it must be for any Morse
    function on the circle.
    """
    D = BasedChainComplex(0, 0, [1], {})
    F = BasedChainComplex(0, 1, [1, 1],
                          {1: Matrix.from_rows([[1]])})
    return AlgebraicFundamentalDomain(
        D, F,
        c={1: Matrix.from_rows([[1]])},
        h_D={},
        h_F={0: Matrix.from_rows([[-1]])})


class SeifertData(Record):
    """A reduced base complex over Z and a chain self-map e (the
    generalized Seifert matrix, e = (G - H)^-1 G for the two inclusions
    of the Seifert surface)."""

    __slots__ = _fields = ("base", "e")

    def __init__(self, base, e):
        self._set(base, e)
        if not self.base.is_integral:
            raise ValueError("Seifert base must be a Z-complex")
        if self.base.lo < 0:
            raise ValueError("Seifert base must live in nonnegative degrees")
        if self.e.source != self.base or self.e.target != self.base:
            raise ValueError("e must be a chain self-map of the base")


def knot_fundamental_domain(s: SeifertData) -> AlgebraicFundamentalDomain:
    """The fundamental domain of a knot complement cut along a Seifert
    surface.

    With base complex B (reduced) and Seifert chain map e:

      D = Z (+) B   (the augmentation Z sits in degree 0, inert:
                     h_D and h_F vanish on it),
      F_i = B_i (+) B_{i-1},  d_F = [[d, e], [0, -d]],
      c = (0 1): F_i -> D_{i-1},  h_D = 0,  h_F = (1 - e; 0).
    """
    b, e = s.base, s.e
    z = BasedChainComplex(0, 0, [1], {})
    D = direct_sum(z, b)

    def d_sizes(i):  # D_i = Z_i (+) B_i
        return [z.rank(i), b.rank(i)]

    def f_sizes(i):  # F_i = B_i (+) B_{i-1}
        return [b.rank(i), b.rank(i - 1)]

    F = BasedChainComplex(
        0, b.hi + 1, [sum(f_sizes(i)) for i in range(b.hi + 2)],
        {i: Matrix.block([[b.differential(i), e.component(i - 1)],
                          [None, -b.differential(i - 1)]],
                         f_sizes(i - 1), f_sizes(i))
         for i in range(1, b.hi + 2)})
    # c and h_F in every degree: the domain drops the zero blocks
    c = {i: Matrix.block([[None, None],
                          [None, Matrix.identity(b.rank(i - 1))]],
                         d_sizes(i - 1), f_sizes(i))
         for i in F.degrees()}
    h_F = {i: Matrix.block(
               [[None, Matrix.identity(b.rank(i)) - e.component(i)],
                [None, None]],
               f_sizes(i), d_sizes(i))
           for i in D.degrees()}
    return AlgebraicFundamentalDomain(D, F, c=c, h_D={}, h_F=h_F)


def induced_map_on_free_homology(c: BasedChainComplex, f: ChainMap, i: int):
    """Matrix of the map induced by f on H_i(c)/torsion, for f: c -> c.

    With U d_i V in Smith form of rank r, the last columns K of V span
    ker d_i and rows r.. of V^-1 give kernel coordinates.  With U' X V'
    in Smith form of rank r' for the boundaries X in those coordinates,
    rows r'.. of U' project onto H_i / torsion and the last columns of
    U'^-1 lift back.
    """
    s = smith_normal_form_int(c.differential(i))
    n, r = s.V.rows, s.rank
    k = n - r
    K = Matrix(n, k, [row[r:] for row in s.V.entries])
    to_kernel = Matrix(k, n, inverse_int(s.V).entries[r:])

    def kernel_coords(cols):
        coords = matmul(to_kernel, cols)
        if matmul(K, coords) != cols:  # pragma: no cover - cols in ker d_i
            raise AssertionError("columns must lie in the kernel")
        return coords

    h = smith_normal_form_int(kernel_coords(c.differential(i + 1)))
    rh = h.rank
    free = k - rh
    if free == 0:
        return Matrix.zeros(0, 0)
    lift = matmul(K, Matrix(k, free, [row[rh:]
                                      for row in inverse_int(h.U).entries]))
    coords = matmul(h.U, kernel_coords(matmul(f.component(i), lift)))
    return Matrix(free, free, coords.entries[rh:])


def alexander_matrix(s: SeifertData, i: int) -> Matrix:
    """e + z(1 - e) on the free part of H_i(base), over Z[z,z^-1]."""
    ebar = induced_map_on_free_homology(s.base, s.e, i)
    n = ebar.rows
    return Matrix(n, n, [[LaurentPoly({0: e, 1: (1 if r == c else 0) - e})
                          for c, e in enumerate(row)]
                         for r, row in enumerate(ebar.entries)])


def _alexander_polynomial(m: Matrix) -> LaurentPoly:
    """The Alexander polynomial det m of an Alexander matrix, normalized:
    nonnegative exponents, a nonzero constant term, and positive leading
    coefficient."""
    p, _ = solve_laurent(m, Matrix.zeros(m.rows, 0))
    if p.is_zero:  # pragma: no cover - det(e + z(1-e)) never vanishes
        raise AssertionError("Alexander polynomial cannot be zero: "
                             "a common kernel of e and 1-e is impossible")
    p = p.shifted(-p.ord())
    if p.highest_coeff() < 0:
        p = -p
    return p


class FiberingVerdict(Record):
    """Outcome of the knot fibering test.

    ``novikov_vanishes``: the complement's Novikov homology vanishes for
    both completions (fibering makes the infinite cyclic cover a finite
    complex, so the two-sided Proposition applies); this is the reading
    under which the equivalence with the Alexander criterion holds for
    arbitrary Seifert data.  ``extreme_coeffs_unit``: every Alexander
    polynomial has constant and leading coefficients +-1.  The two are
    equivalent whenever the base homology is torsion-free; disagreement
    there raises AssertionError.  ``base_torsion`` flags degrees
    whose homology torsion the determinant criterion cannot see.
    ``novikov`` holds the complement's NovikovReport per Direction: the
    run's own completion always, and the other one only when the first
    vanishes (otherwise the verdict is already false).  ``matrices``
    holds the Alexander matrix e + z(1 - e) per degree.
    """

    __slots__ = _fields = ("alexander", "novikov_vanishes",
                           "extreme_coeffs_unit", "base_torsion", "novikov",
                           "matrices")
    _nocompare = _norepr = ("novikov", "matrices")

    def __init__(self, alexander, novikov_vanishes, extreme_coeffs_unit,
                 base_torsion=None, novikov=None, matrices=None):
        self._set(alexander, novikov_vanishes, extreme_coeffs_unit,
                  base_torsion or {}, novikov or {}, matrices or {})

    @property
    def fibers(self):
        """The verdict: the knot fibers iff ``novikov_vanishes``."""
        return self.novikov_vanishes

    def to_json(self):
        return {
            "alexander": {str(i): p.to_json()
                          for i, p in sorted(self.alexander.items())},
            "novikov_vanishes": self.novikov_vanishes,
            "extreme_coeffs_unit": self.extreme_coeffs_unit,
            "fibers": self.fibers,
            "base_torsion": {str(i): list(t)
                             for i, t in sorted(self.base_torsion.items())},
        }


def fibering_check(s: SeifertData,
                   direction=Direction.PLUS) -> FiberingVerdict:
    """Run both fibering criteria and assert they agree.

    (ii) the Novikov homology of the assembled knot complex vanishes
    (two-sidedly); (iii) every Alexander polynomial has extreme
    coefficients +-1.  On a torsion-free base these are equivalent
    degreewise through the exact sequence
    0 -> H_i((z)) --e+z(1-e)--> H_i((z)) -> H^Nov_i -> 0, so any
    disagreement is an internal error.  The cone is first reduced by
    ``cancel_units`` along the entries +-z^k of its identity and 1 - e
    blocks, units of Q(z) and of both completions, which keeps every
    Betti number and torsion ideal.  (ii) is a conjunction, so the
    reduced cone is diagonalized over ``direction``'s completion first
    and over the other one only when the first vanishes; both share one
    set of Q(z) ranks.
    """
    matrices = {i: alexander_matrix(s, i) for i in s.base.degrees()}
    alex = {i: _alexander_polynomial(m) for i, m in matrices.items()}
    extreme = all(abs(p.coeff(0)) == 1 and abs(p.highest_coeff()) == 1
                  for p in alex.values())
    cone = cancel_units(knot_fundamental_domain(s).cone)
    ranks = _function_field_ranks(cone)
    other = Direction.MINUS if direction is Direction.PLUS else Direction.PLUS
    reports = {}
    for d in (direction, other):
        reports[d] = _novikov_homology(cone, d, ranks)
        nov = vanishes(reports[d])
        if not nov:
            break
    torsion = {i: tuple(t) for i, t in
               integral_homology(s.base).torsion_factors.items() if t}
    if not torsion and nov != extreme:
        raise AssertionError(
            f"criteria disagree: novikov_vanishes={nov}, "
            f"extreme_coeffs_unit={extreme}")
    return FiberingVerdict(alex, nov, extreme, torsion, reports, matrices)


def knot_novikov_factors(s: SeifertData, direction=Direction.PLUS) -> dict:
    """Non-unit Novikov invariant factors of the knot complex per degree,
    read off its cone after ``cancel_units`` as in ``fibering_check``: a
    chain equivalence over both completions keeps each factor's ideal."""
    cone = cancel_units(knot_fundamental_domain(s).cone)
    return novikov_homology(cone, direction).factors_by_degree()
