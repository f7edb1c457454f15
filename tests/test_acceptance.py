"""Acceptance criteria.

One test per criterion; each prints a PASS/FAIL line (run pytest with -s
or read captured output).  All arithmetic is exact, so every comparison
below is equality -- there are no tolerances to tune.
"""

from __future__ import annotations

import functools

from nk.rings import (
    Direction,
    LaurentPoly,
    RationalFunction,
    TruncatedSeries,
    expand,
    is_novikov_unit,
    truncate_poly,
)
from nk.linalg import (
    Inconclusive,
    Matrix,
    matmul,
    novikov_diagonalize,
    smith_normal_form_int,
)
from nk.complexes import (
    BasedChainComplex,
    ChainMap,
    integral_homology,
    mapping_cone,
    morse_lower_bounds,
    validate_complex,
)
from nk.novikov import (
    check_inequalities,
    finite_domination_check,
    morse_novikov_bounds,
    novikov_homology,
)
from nk.fundomain import (
    algebraic_novikov_complex,
    assemble_mapping_cone,
    cokernel_iso_check,
)
from nk.models import (
    SeifertData,
    circle_exercise,
    fibering_check,
    knot_fundamental_domain,
    knot_novikov_factors,
    mapping_torus_complex,
)

from domains import (
    assert_diagonalizes,
    domain_corpus,
    random_unit_scalar_equivalence,
    rng_for,
    seifert_corpus,
)

z = LaurentPoly({1: 1})
one = LaurentPoly({0: 1})

K = 16
CORPUS = domain_corpus(100)
SEIFERT = seifert_corpus(50)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"FAIL  criterion {number:>2}: {title}")
                raise
            print(f"PASS  criterion {number:>2}: {title}")
        return wrapper
    return deco


def cone_one_minus_z():
    pt = BasedChainComplex(0, 0, [1], {})
    return mapping_cone(ChainMap(pt, pt, {0: Matrix.from_rows([[one - z]])}))


def torus_double(orientation):
    c = BasedChainComplex(0, 1, [1, 1], {})
    h = ChainMap(c, c, {0: Matrix.from_rows([[1]]),
                        1: Matrix.from_rows([[2]])})
    return mapping_torus_complex(h, orientation)


def seifert(entries):
    n = len(entries)
    base = BasedChainComplex(1, 1, [n], {})
    return SeifertData(base, ChainMap(base, base,
                                      {1: Matrix.from_rows(entries, n)}))


def reports_agree(a, b):
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    for i in range(lo, hi + 1):
        assert a.b(i) == b.b(i)
        assert list(a.torsion_factors.get(i, [])) == \
            list(b.torsion_factors.get(i, []))


@criterion(1, "circle: H^Nov(cone(1-z)) = 0 and 1-z is a Z((z))-unit")
def test_criterion_01_circle():
    rep = novikov_homology(cone_one_minus_z())
    assert rep.all_zero and rep.conclusive
    assert is_novikov_unit(one - z, Direction.PLUS)


@criterion(2, "mapping torus T(2): plus vanishes, minus has factor 2-z")
def test_criterion_02_torus_double():
    plus = novikov_homology(torus_double("plus"))
    assert plus.all_zero and plus.conclusive
    minus = novikov_homology(torus_double("minus"))
    assert minus.b(1) == 0
    assert minus.torsion_factors[1] == [2 - z]
    for i in range(minus.lo, minus.hi + 1):
        assert minus.b(i) == 0
        if i != 1:
            assert not minus.torsion_factors[i]


@criterion(3, "mapping torus of a chain equivalence: acyclic both ways "
              "(100 random unit-scalar equivalences)")
def test_criterion_03_equivalence_tori():
    rng = rng_for("acceptance-eqv")
    for _ in range(100):
        _, h = random_unit_scalar_equivalence(rng)
        for orientation in ("plus", "minus"):
            rep = novikov_homology(mapping_torus_complex(h, orientation))
            assert rep.all_zero and rep.conclusive


@criterion(4, "finite domination: cone(1-z) two-sided, C^-(T(2)) one-sided")
def test_criterion_04_domination():
    v = finite_domination_check(cone_one_minus_z())
    assert (v.vanishes_plus, v.vanishes_minus, v.finitely_dominated) == \
        (True, True, True)
    w = finite_domination_check(torus_double("minus"))
    assert (w.vanishes_plus, w.vanishes_minus, w.finitely_dominated) == \
        (False, True, False)


@criterion(5, "geometric series: (1 - z h_D) sum z^j h_D^j = 1 and exact F^ "
              "expands to truncated F^ through order 16 (100 domains)")
def test_criterion_05_geometric_series():
    for fd in CORPUS:
        for i in fd.D.degrees():
            n = fd.D.rank(i)
            if n == 0:
                continue
            hd = fd.h_D_at(i)
            partial = Matrix.zeros(n, n)
            power = Matrix.identity(n)
            for j in range(K + 1):
                partial = partial + power.scaled(LaurentPoly({j: 1}))
                power = matmul(power, hd)
            lhs = matmul(Matrix.identity(n) - hd.scaled(z), partial)
            assert lhs.map_entries(lambda e: truncate_poly(e, K)) == \
                Matrix.identity(n)
        fhat = algebraic_novikov_complex(fd, "exact")
        trunc = algebraic_novikov_complex(fd, "truncated", order=K)
        for i in range(fd.F.lo + 1, fd.F.hi + 1):
            ex, tr = fhat.differential(i), trunc.differential(i)
            for r in range(ex.rows):
                for c in range(ex.cols):
                    e = ex.entry(r, c)
                    e = e if isinstance(e, RationalFunction) \
                        else RationalFunction(e)
                    assert expand(e, precision=K) == \
                        TruncatedSeries.of_poly(tr.entry(r, c), K)


@criterion(6, "d o d = 0 for C(phi) and exact F^ on the same 100 domains")
def test_criterion_06_d_squared():
    for fd in CORPUS:
        assert validate_complex(assemble_mapping_cone(fd)) is None
        assert validate_complex(algebraic_novikov_complex(fd, "exact")) is None


@criterion(7, "cokernel identification at order 16 on the corpus and knots")
def test_criterion_07_cokernel():
    for fd in CORPUS:
        assert cokernel_iso_check(fd, K).passed
    for s in (seifert([[0, 1], [-1, 1]]), seifert([[0, -2], [1, 1]])):
        assert cokernel_iso_check(knot_fundamental_domain(s), K).passed


@criterion(8, "Novikov reports of C(phi) and F^ agree degreewise (corpus)")
def test_criterion_08_chain_equivalence():
    for fd in CORPUS:
        ra = novikov_homology(assemble_mapping_cone(fd))
        rb = novikov_homology(algebraic_novikov_complex(fd, "exact"))
        assert ra.conclusive and rb.conclusive
        reports_agree(ra, rb)


@criterion(9, "trefoil fibers with Delta = z^2 - z + 1; "
              "e = [[0,-2],[1,1]] does not, Delta = 2z^2 - 3z + 2")
def test_criterion_09_fibering():
    v = fibering_check(seifert([[0, 1], [-1, 1]]))
    assert v.alexander[1] == z ** 2 - z + one
    assert v.fibers and v.novikov_vanishes and v.extreme_coeffs_unit
    w = fibering_check(seifert([[0, -2], [1, 1]]))
    assert w.alexander[1] == 2 * z ** 2 - 3 * z + 2 * one
    assert not w.fibers and not w.novikov_vanishes
    assert not w.extreme_coeffs_unit


@criterion(10, "short exact sequence: knot Novikov factors equal non-unit "
               "factors of e + z(1-e) on H_i (50 random Seifert data)")
def test_criterion_10_ses():
    for s in SEIFERT:
        factors = knot_novikov_factors(s, Direction.PLUS)
        for i in s.base.degrees():
            e = s.e.component(i)
            n = e.rows
            m = Matrix(n, n, [[LaurentPoly(
                {0: e.entries[r][c],
                 1: (1 if r == c else 0) - e.entries[r][c]})
                for c in range(n)] for r in range(n)])
            direct = [f for f in novikov_diagonalize(m).invariant_factors
                      if f != 1]
            assert list(factors.get(i, ())) == direct


@criterion(11, "rank_i >= b_i + q_i + q_{i-1} from each complex's own report "
               "(integral and Novikov, whole corpus)")
def test_criterion_11_inequalities():
    rng = rng_for("acceptance-ineq")
    from domains import random_z_complex
    for _ in range(50):
        c, _ = random_z_complex(rng)
        rep = integral_homology(c)
        bounds = morse_lower_bounds(rep)
        counts = {i: c.rank(i) for i in c.degrees()}
        assert check_inequalities(counts, bounds) == []
    for fd in CORPUS:
        cone = assemble_mapping_cone(fd)
        rep = novikov_homology(cone)
        bounds = morse_novikov_bounds(rep)
        counts = {i: cone.rank(i) for i in cone.degrees()}
        assert check_inequalities(counts, bounds) == []


@criterion(12, "circle exercise: F^ ranks (1,1), zero homology, unit "
               "differential")
def test_criterion_12_circle_exercise():
    fd = circle_exercise()
    fhat = algebraic_novikov_complex(fd, "exact")
    assert (fhat.rank(1), fhat.rank(0)) == (1, 1)
    rep = novikov_homology(fhat)
    assert rep.all_zero and rep.conclusive
    d = fhat.differential(1).entry(0, 0)
    assert d.is_polynomial and is_novikov_unit(d.numerator, Direction.PLUS)


@criterion(13, "self-verification: transforms re-multiplied on every call; "
               "100% of corpus reductions conclusive")
def test_criterion_13_self_verification():
    rng = rng_for("acceptance-snf")
    from domains import random_int_matrix
    for _ in range(50):
        m = random_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 3),
                              max_coeff=5)
        assert_diagonalizes(m, smith_normal_form_int(m))
    inconclusive = 0
    for fd in CORPUS:
        cone = assemble_mapping_cone(fd)
        for i in range(cone.lo + 1, cone.hi + 1):
            d = cone.differential(i)
            for direction in (Direction.PLUS, Direction.MINUS):
                try:
                    res = novikov_diagonalize(d, direction)
                except Inconclusive:
                    inconclusive += 1
                    continue
                assert_diagonalizes(d, res, direction)
    for s in SEIFERT:
        cone = assemble_mapping_cone(knot_fundamental_domain(s))
        for i in range(cone.lo + 1, cone.hi + 1):
            d = cone.differential(i)
            try:
                res = novikov_diagonalize(d)
            except Inconclusive:
                inconclusive += 1
                continue
            assert_diagonalizes(d, res, Direction.PLUS)
    assert inconclusive == 0
