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

from dataclasses import dataclass, field

from .rings import Direction
from .complexes import BasedChainComplex, Grade
# b_i + q_i + q_{i-1} reads the same off a NovikovReport
from .complexes import morse_lower_bounds as morse_novikov_bounds  # noqa: F401
from .linalg import Inconclusive, novikov_diagonalize, rank_over_function_field


@dataclass(frozen=True)
class NovikovReport:
    """Per-degree Novikov numbers of a complex.

    ``betti[i]`` is the free rank of H_i over the Novikov ring;
    ``torsion_factors[i]`` lists the normalized non-unit invariant
    factors presenting its torsion (q_i generators).  When some degree's
    diagonalization was Inconclusive, ``conclusive`` is False and the
    factor lists are lower bounds.
    """

    direction: Direction
    lo: int
    hi: int
    betti: dict
    torsion_factors: dict
    conclusive: bool = True

    def b(self, i):
        return self.betti.get(i, 0)

    def torsion_count(self, i):
        return len(self.torsion_factors.get(i, ()))

    @property
    def all_zero(self):
        """Every reported group is zero.  Meaningful as a vanishing
        certificate only when conclusive."""
        return (all(b == 0 for b in self.betti.values())
                and all(not t for t in self.torsion_factors.values()))

    def factors_by_degree(self):
        return {i: tuple(self.torsion_factors.get(i, ()))
                for i in range(self.lo, self.hi + 1)}

    def to_json(self):
        return {
            "direction": self.direction.value,
            "lo": self.lo,
            "hi": self.hi,
            "conclusive": self.conclusive,
            "betti": {str(i): self.betti[i] for i in sorted(self.betti)},
            "torsion": {str(i): [f.to_json() for f in self.torsion_factors[i]]
                        for i in sorted(self.torsion_factors)},
        }


@dataclass(frozen=True)
class DominationVerdict:
    """Two-sided Novikov vanishing, and their conjunction.

    ``reports`` holds the NovikovReport each side was read from, keyed
    by Direction.
    """

    vanishes_plus: bool
    vanishes_minus: bool
    finitely_dominated: bool
    reports: dict = field(default_factory=dict, repr=False, compare=False)

    def to_json(self):
        return {"vanishes_plus": self.vanishes_plus,
                "vanishes_minus": self.vanishes_minus,
                "finitely_dominated": self.finitely_dominated}


def novikov_homology(c: BasedChainComplex,
                     direction=Direction.PLUS) -> NovikovReport:
    """Novikov numbers of a Laurent (or rational-entry) complex.

    Free ranks are computed from function-field ranks of adjacent
    differentials (independent of the torsion path, and of direction:
    both completions contain the same fraction field of the entries);
    torsion factors of H_i are the non-unit invariant factors of d_{i+1}
    over the chosen completion.
    """
    if c.grade is Grade.Z:
        raise ValueError("novikov homology needs Laurent or rational entries")
    ranks = {i: rank_over_function_field(c.differential(i))
             for i in range(c.lo + 1, c.hi + 1)}
    betti = {i: c.rank(i) - ranks.get(i, 0) - ranks.get(i + 1, 0)
             for i in c.degrees()}
    torsion = {}
    conclusive = True
    for i in c.degrees():
        if i + 1 > c.hi:
            torsion[i] = []
            continue
        try:
            res = novikov_diagonalize(c.differential(i + 1), direction)
            torsion[i] = [f for f in res.invariant_factors
                          if not _factor_is_unit(f)]
        except Inconclusive as exc:
            conclusive = False
            torsion[i] = [f for f in exc.partial_factors
                          if not _factor_is_unit(f)]
    return NovikovReport(direction, c.lo, c.hi, betti, torsion, conclusive)


def _factor_is_unit(f):
    return f == 1


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
    plus = novikov_homology(c, Direction.PLUS)
    vp = vanishes(plus)
    minus = novikov_homology(c, Direction.MINUS)
    vm = vanishes(minus)
    return DominationVerdict(vp, vm, vp and vm,
                             {Direction.PLUS: plus, Direction.MINUS: minus})
