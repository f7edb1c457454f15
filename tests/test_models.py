"""Mapping tori, the circle fixture, knot domains, fibering."""

import json

import pytest

import nk.models
from nk.rings import Direction, LaurentPoly, is_novikov_unit, reverse_variable
from nk.linalg import Matrix, novikov_diagonalize
from nk.complexes import BasedChainComplex, ChainMap
from nk.fundomain import (
    algebraic_novikov_complex,
    assemble_mapping_cone,
    cokernel_iso_check,
    validate_fundamental_domain,
)
from nk.models import (
    SeifertData,
    circle_exercise,
    fibering_check,
    induced_map_on_free_homology,
    knot_fundamental_domain,
    knot_novikov_factors,
    mapping_torus_complex,
)
from nk.novikov import finite_domination_check, novikov_homology, vanishes
from nk.cli import parse_document, run

from domains import (
    det_oracle,
    random_chain_selfmap,
    random_unit_scalar_equivalence,
    rng_for,
    seifert_corpus,
    seifert_to_json,
)

z = LaurentPoly({1: 1})
one = LaurentPoly({0: 1})


def circle_z():
    return BasedChainComplex(0, 1, [1, 1], {})


def seifert(entries):
    n = len(entries)
    base = BasedChainComplex(1, 1, [n], {})
    e = ChainMap(base, base, {1: Matrix.from_rows(entries, n)})
    return SeifertData(base, e)


TREFOIL = [[0, 1], [-1, 1]]
NONFIBERED = [[0, -2], [1, 1]]


# --- mapping tori ------------------------------------------------------------------

def test_torus_of_identity_plus_acyclic():
    c = circle_z()
    h = ChainMap(c, c, {i: Matrix.identity(1) for i in c.degrees()})
    rep = novikov_homology(mapping_torus_complex(h, "plus"))
    assert rep.all_zero and rep.conclusive


def test_torus_double_minus_two_adic_module():
    c = circle_z()
    h = ChainMap(c, c, {0: Matrix.from_rows([[1]]),
                        1: Matrix.from_rows([[2]])})
    rep = novikov_homology(mapping_torus_complex(h, "minus"))
    assert rep.b(1) == 0 and rep.torsion_factors[1] == [2 - z]


def test_torus_of_equivalence_minus_acyclic():
    rng = rng_for("torus-eqv")
    for _ in range(20):
        c, h = random_unit_scalar_equivalence(rng)
        rep = novikov_homology(mapping_torus_complex(h, "minus"))
        assert rep.all_zero and rep.conclusive


def test_torus_plus_always_acyclic():
    rng = rng_for("torus-plus")
    from domains import random_chain_selfmap
    for _ in range(25):
        c, h = random_chain_selfmap(rng)
        rep = novikov_homology(mapping_torus_complex(h, "plus"))
        assert rep.all_zero and rep.conclusive


def _swap_normalization(p):
    # the MINUS-side factor representative of f is the PLUS-side one
    # reversed and shifted back to order 0
    q = reverse_variable(p)
    return q.shifted(-q.ord())


def test_orientation_duality():
    # minus complex of h = plus complex after variable reversal and unit
    # rescaling of differentials: z - h = (-z) * reverse(1 - z h)
    rng = rng_for("duality")
    from domains import random_chain_selfmap
    for _ in range(15):
        c, h = random_chain_selfmap(rng)
        minus = mapping_torus_complex(h, "minus")
        plus = mapping_torus_complex(h, "plus")
        rescaled = BasedChainComplex(
            plus.lo, plus.hi, plus.ranks,
            {i: d.map_entries(
                lambda e: LaurentPoly({1: -1}) * reverse_variable(e))
             for i, d in plus.differentials.items()})
        ra = novikov_homology(minus, Direction.PLUS)
        rb = novikov_homology(rescaled, Direction.PLUS)
        assert ra.betti == rb.betti
        assert ra.torsion_factors == rb.torsion_factors
        # and the two orientations swap with the completion direction
        rc = novikov_homology(plus, Direction.MINUS)
        assert ra.betti == rc.betti
        for i in range(ra.lo, ra.hi + 1):
            assert [f for f in ra.torsion_factors.get(i, [])] == \
                [_swap_normalization(f) for f in rc.torsion_factors.get(i, [])]
        assert novikov_homology(plus, Direction.PLUS).all_zero


# --- circle exercise ------------------------------------------------------------------

def test_circle_exercise_ranks():
    fd = circle_exercise()
    fhat = algebraic_novikov_complex(fd, "exact")
    assert (fhat.rank(1), fhat.rank(0)) == (1, 1)


def test_circle_exercise_homology_vanishes():
    fd = circle_exercise()
    fhat = algebraic_novikov_complex(fd, "exact")
    rep = novikov_homology(fhat)
    assert rep.all_zero and rep.conclusive
    cone = assemble_mapping_cone(fd)
    assert novikov_homology(cone).all_zero


def test_circle_exercise_differential_is_unit():
    fd = circle_exercise()
    fhat = algebraic_novikov_complex(fd, "exact")
    d = fhat.differential(1).entry(0, 0)
    assert d.is_polynomial
    # +-z^a (1 - z) up to based unit change
    p = d.numerator
    assert is_novikov_unit(p, Direction.PLUS)
    assert p.shifted(-p.ord()) in (one - z, -(one - z), -one + z)


# --- knot fundamental domains ----------------------------------------------------------

def test_trefoil_domain_shape():
    fd = knot_fundamental_domain(seifert(TREFOIL))
    assert validate_fundamental_domain(fd) is None
    assert (fd.F.rank(2), fd.F.rank(1)) == (2, 2)
    assert fd.D.rank(0) == 1 and fd.D.rank(1) == 2
    assert not fd.h_D


def test_knot_domain_e_identity():
    s = seifert([[1, 0], [0, 1]])
    fd = knot_fundamental_domain(s)
    fhat = algebraic_novikov_complex(fd, "truncated", order=4)
    # e = 1 makes h_F = 1 - e vanish: the block e + z(1 - e) is the identity
    assert fhat.differential(2) == Matrix.identity(2)


def test_knot_domain_truncation_at_j_1():
    # h_D = 0 means the series stops after j = 1 for every order
    s = seifert(TREFOIL)
    fd = knot_fundamental_domain(s)
    t1 = algebraic_novikov_complex(fd, "truncated", order=1)
    t9 = algebraic_novikov_complex(fd, "truncated", order=9)
    for i in range(fd.F.lo + 1, fd.F.hi + 1):
        assert t1.differential(i) == t9.differential(i)


def test_knot_fhat_block_formula():
    # d_F^ = [[d, e + z(1-e)], [0, -d]]
    s = seifert(TREFOIL)
    fd = knot_fundamental_domain(s)
    fhat = algebraic_novikov_complex(fd, "truncated", order=1)
    e = Matrix.from_rows(TREFOIL)
    expected_block = Matrix.identity(2).scaled(z) + \
        e.map_entries(lambda v: LaurentPoly({0: v, 1: -v}))
    d2 = fhat.differential(2)
    got = Matrix.from_rows([[d2.entry(r, c) for c in range(2)]
                            for r in range(2)], 2)
    assert got == expected_block


def test_knot_domains_over_general_bases():
    # bases with rank in degree 0, several degrees and nonzero
    # differentials, which the single degree-1 corpus never reaches
    rng = rng_for("knot-bases")
    for _ in range(30):
        s = SeifertData(*random_chain_selfmap(rng))
        b = s.base
        fd = knot_fundamental_domain(s)
        assert [fd.D.rank(i) for i in range(b.hi + 1)] == \
            [(i == 0) + b.rank(i) for i in range(b.hi + 1)]
        assert [fd.F.rank(i) for i in range(b.hi + 2)] == \
            [b.rank(i) + b.rank(i - 1) for i in range(b.hi + 2)]
        assert cokernel_iso_check(fd, 16).passed
        doc = parse_document(json.dumps({"kind": "knot",
                                         "payload": seifert_to_json(s)}))
        for direction in ("plus", "minus"):
            report = run(doc, direction=direction, oracle=True)
            assert report.exit_code == 0
            assert all(c["ok"] for c in report.data["oracle"])


def test_e_zero_gives_unit_block():
    s = seifert([[0, 0], [0, 0]])
    v = fibering_check(s)
    assert v.fibers  # e + z(1 - e) = z * identity, a unit matrix


# --- alexander polynomials ---------------------------------------------------------------

def test_trefoil_alexander():
    alex = fibering_check(seifert(TREFOIL)).alexander
    assert alex[1] == z ** 2 - z + one
    # independent oracle: symbolic determinant of e + z(1 - e)
    m = Matrix.from_rows([[z, one - z], [z - 1, one]])
    assert det_oracle(m) == alex[1]


def test_nonfibered_alexander():
    alex = fibering_check(seifert(NONFIBERED)).alexander
    assert alex[1] == 2 * z ** 2 - 3 * z + 2 * one
    m = Matrix.from_rows([[z, -2 + 2 * z], [one - z, one]])
    assert det_oracle(m) == alex[1]


def test_identity_alexander_is_one():
    alex = fibering_check(seifert([[1, 0], [0, 1]])).alexander
    assert alex == {1: one}


def test_alexander_uses_induced_map_on_homology():
    # base with an actual differential: H_1 = ker d_1 (rank 1)
    base = BasedChainComplex(0, 1, [1, 2],
                             {1: Matrix.from_rows([[1, 0]])})
    comp = {0: Matrix.from_rows([[1]]), 1: Matrix.from_rows([[1, 0], [0, -1]])}
    e = ChainMap(base, base, comp)
    ebar = induced_map_on_free_homology(base, e, 1)
    assert ebar == Matrix.from_rows([[-1]])
    alex = fibering_check(SeifertData(base, e)).alexander
    # det(-1 + 2z) normalized to positive leading coefficient
    assert alex[1] == 2 * z - 1


def test_induced_map_reduces_two_integer_matrices(monkeypatch):
    """One Smith form of d_i gives the kernel and its coordinates, one of
    the boundaries in those coordinates gives H_i / torsion."""
    calls = []
    snf = nk.models.smith_normal_form_int

    def counted(m):
        calls.append((m.rows, m.cols))
        return snf(m)

    monkeypatch.setattr(nk.models, "smith_normal_form_int", counted)
    # H_1 = Z/2 (+) Z: f fixes the torsion and negates the free part
    base = BasedChainComplex(0, 2, [1, 3, 1],
                             {1: Matrix.from_rows([[0, 0, 1]]),
                              2: Matrix.from_rows([[2], [0], [0]])})
    comp = {0: Matrix.from_rows([[1]]), 2: Matrix.from_rows([[1]]),
            1: Matrix.from_rows([[1, 1, 0], [0, -1, 0], [0, 0, 1]])}
    ebar = induced_map_on_free_homology(base, ChainMap(base, base, comp), 1)
    assert ebar == Matrix.from_rows([[-1]])
    assert calls == [(1, 3), (2, 1)]


# --- fibering ------------------------------------------------------------------------------

def test_trefoil_fibers():
    v = fibering_check(seifert(TREFOIL))
    assert v.fibers and v.novikov_vanishes and v.extreme_coeffs_unit


def test_nonfibered_verdict():
    v = fibering_check(seifert(NONFIBERED))
    assert not v.fibers and not v.novikov_vanishes
    assert not v.extreme_coeffs_unit


def test_unknot_empty_base_fibers():
    base = BasedChainComplex(1, 1, [0], {})
    s = SeifertData(base, ChainMap(base, base, {}))
    v = fibering_check(s)
    assert v.fibers and v.alexander == {1: one}


def test_seifert_base_in_nonnegative_degrees():
    base = BasedChainComplex(-1, 1, [0, 0, 2], {})
    with pytest.raises(ValueError, match="nonnegative degrees"):
        SeifertData(base, ChainMap(base, base,
                                   {1: Matrix.from_rows(TREFOIL)}))


def test_seifert_json_roundtrip():
    for s in [seifert(TREFOIL)] + seifert_corpus(10):
        doc = parse_document(json.dumps({"kind": "knot",
                                         "payload": seifert_to_json(s)}))
        assert doc.payload["seifert"] == s


def test_criteria_agree_on_corpus():
    for s in seifert_corpus(50):
        v = fibering_check(s)  # raises AssertionError on divergence
        assert v.fibers == v.novikov_vanishes == v.extreme_coeffs_unit


@pytest.mark.parametrize("direction", list(Direction))
def test_one_sided_first_verdict_matches_both_completions(direction):
    """The run's own completion decides a nonzero verdict alone; the
    other one is reduced only when the first vanishes."""
    for s in seifert_corpus(50):
        v = fibering_check(s, direction)
        cone = knot_fundamental_domain(s).cone
        assert v.fibers == finite_domination_check(cone).finitely_dominated
        assert v.novikov[direction] == novikov_homology(cone, direction)
        assert (len(v.novikov) == 2) == vanishes(v.novikov[direction])


def test_one_sided_unit_still_consistent():
    # e = [[-1]]: alexander 2z - 1 is a Z((z))-unit but not Z((z^-1));
    # the two-sided reading keeps (ii) and (iii) aligned
    base = BasedChainComplex(1, 1, [1], {})
    s = SeifertData(base, ChainMap(base, base, {1: Matrix.from_rows([[-1]])}))
    v = fibering_check(s)
    assert not v.fibers and not v.extreme_coeffs_unit
    cone = assemble_mapping_cone(knot_fundamental_domain(s))
    dom = finite_domination_check(cone)
    assert dom.vanishes_plus and not dom.vanishes_minus


# --- short exact sequence ---------------------------------------------------------------------

def test_ses_factors_match_on_corpus():
    for s in seifert_corpus(50):
        factors = knot_novikov_factors(s, Direction.PLUS)
        for i in s.base.degrees():
            e = s.e.component(i)
            n = e.rows
            m = Matrix(n, n, [[LaurentPoly({0: e.entries[r][c],
                                            1: (1 if r == c else 0)
                                            - e.entries[r][c]})
                               for c in range(n)] for r in range(n)])
            direct = [f for f in novikov_diagonalize(m).invariant_factors
                      if f != 1]
            assert list(factors.get(i, ())) == direct
