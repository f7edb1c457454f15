"""
Novikov homology of Laurent complexes and what it bounds.

For a based free complex C over Z[z,z^-1], the homology of
Z((z)) (x) C splits as free (+) torsion over the principal ideal domain
Z((z)).  The free ranks (Novikov Betti numbers b_i) come from function
field ranks of the differentials, a computation that always terminates;
the torsion invariant factors come from diagonalization over Z((z)),
which can come back Inconclusive -- reports carry a ``conclusive`` flag
and degrade torsion counts to lower bounds rather than guess.

The Morse-Novikov inequality bounds the number of index-i critical
points of a circle-valued Morse function by b_i + q_i + q_{i-1}; the
two-sided vanishing test (both Z((z)) and Z((z^-1)) coefficients) is the
chain-level criterion for finite domination of the infinite cyclic
cover.
"""

from __future__ import annotations

from .rings import Direction, Record
from .complexes import BasedChainComplex, HomologyReport
# b_i + q_i + q_{i-1} reads the same off a NovikovReport
from .complexes import morse_lower_bounds as morse_novikov_bounds  # noqa: F401
from .linalg import Inconclusive, novikov_diagonalize, rank_over_function_field


class NovikovReport(HomologyReport):
    """Per-degree Novikov numbers of a complex.

    ``betti[i]`` is the free rank of H_i over the Novikov ring;
    ``torsion_factors[i]`` lists the normalized non-unit invariant
    factors presenting its torsion (q_i generators).  When some degree's
    diagonalization was Inconclusive, ``conclusive`` is False, the
    factor lists are lower bounds and ``all_zero`` is no vanishing
    certificate.  ``ranks[i]`` pairs the rank of d_i over Q(z) with the
    rank of its diagonalization (None where that was Inconclusive).
    """

    __slots__ = ("direction", "conclusive", "ranks")
    _fields = HomologyReport._fields + __slots__
    _nocompare = _norepr = ("ranks",)

    def __init__(self, lo, hi, betti, torsion_factors, direction,
                 conclusive=True, ranks=None):
        self._set(lo, hi, betti, torsion_factors, direction, conclusive,
                  ranks or {})

    def to_json(self):
        return {**super().to_json(), "direction": self.direction.value,
                "conclusive": self.conclusive}


class DominationVerdict(Record):
    """Two-sided Novikov vanishing, and their conjunction.

    ``reports`` holds the NovikovReport each side was read from, keyed
    by Direction.
    """

    __slots__ = _fields = ("vanishes_plus", "vanishes_minus",
                           "finitely_dominated", "reports")
    _nocompare = _norepr = ("reports",)

    def __init__(self, vanishes_plus, vanishes_minus, finitely_dominated,
                 reports=None):
        self._set(vanishes_plus, vanishes_minus, finitely_dominated,
                  reports or {})

    def to_json(self):
        return {"vanishes_plus": self.vanishes_plus,
                "vanishes_minus": self.vanishes_minus,
                "finitely_dominated": self.finitely_dominated}


def novikov_homology(c: BasedChainComplex,
                     direction=Direction.PLUS) -> NovikovReport:
    """Novikov numbers of a complex with int, Laurent or rational entries.

    Free ranks are computed from function-field ranks of adjacent
    differentials (independent of the torsion path, and of direction:
    both completions contain the same fraction field of the entries);
    torsion factors of H_i are the non-unit invariant factors of d_{i+1}
    over the chosen completion.
    """
    return _novikov_homology(c, direction, _function_field_ranks(c))


def _function_field_ranks(c):
    return {i: rank_over_function_field(c.differential(i))
            for i in range(c.lo + 1, c.hi + 1)}


def _novikov_homology(c, direction, ranks):
    betti = {i: c.rank(i) - ranks.get(i, 0) - ranks.get(i + 1, 0)
             for i in c.degrees()}
    torsion = {i: [] for i in c.degrees()}
    pairs = {}
    conclusive = True
    for i in range(c.lo + 1, c.hi + 1):
        try:
            res = novikov_diagonalize(c.differential(i), direction)
            torsion[i - 1] = list(res.torsion_factors)
            pairs[i] = ranks[i], res.rank
        except Inconclusive as exc:
            conclusive = False
            torsion[i - 1] = [f for f in exc.partial_factors if f != 1]
            pairs[i] = ranks[i], None
    return NovikovReport(c.lo, c.hi, betti, torsion, direction, conclusive,
                         pairs)


def check_inequalities(critical_counts: dict, bounds: dict) -> list:
    """Degrees where counts fall below bounds (empty list = satisfied)."""
    degrees = sorted(set(critical_counts) | set(bounds))
    return [i for i in degrees
            if critical_counts.get(i, 0) < bounds.get(i, 0)]


def vanishes(report: NovikovReport) -> bool:
    """Does the reported homology vanish in every degree?

    Raises Inconclusive in the one genuinely ambiguous case: nothing
    nonzero was found but some diagonalization gave up, so vanishing can
    be neither confirmed nor refuted.
    """
    if not report.all_zero:
        return False
    if not report.conclusive:
        raise Inconclusive(
            "no nonzero group found but a degree was inconclusive")
    return True


def finite_domination_check(c: BasedChainComplex) -> DominationVerdict:
    """Two-sided vanishing test: H_*(Z((z)) (x) C) and H_*(Z((z^-1)) (x) C).

    Both vanish iff the complex is chain equivalent over Z to a finite
    projective complex (finite domination of the underlying space).
    """
    ranks = _function_field_ranks(c)
    plus = _novikov_homology(c, Direction.PLUS, ranks)
    vp = vanishes(plus)
    minus = _novikov_homology(c, Direction.MINUS, ranks)
    vm = vanishes(minus)
    return DominationVerdict(vp, vm, vp and vm,
                             {Direction.PLUS: plus, Direction.MINUS: minus})
