"""The fundamental-domain machine: validation, C(phi), F^, cokernel, zeta."""

import json

import pytest

from nk.rings import (
    LaurentPoly,
    RationalFunction,
    TruncatedSeries,
    expand,
    truncate_poly,
)
from nk.linalg import Matrix, matmul
from nk.complexes import BasedChainComplex, direct_sum, validate_complex
from nk.fundomain import (
    AlgebraicFundamentalDomain,
    InvalidDomain,
    algebraic_novikov_complex,
    assemble_mapping_cone,
    cokernel_iso_check,
    torsion_zeta,
    validate_fundamental_domain,
)
from nk.novikov import novikov_homology
import nk.fundomain
import nk.linalg
from nk.cli import parse_document, run
from nk.models import knot_fundamental_domain

from domains import (
    cone_cokernel_iso_check,
    corrupt_domain,
    corrupt_solution,
    dense_validate_fundamental_domain,
    domain_corpus,
    domain_to_json,
    empty_block_domains,
    laurent_solved,
    random_flow_domain,
    rng_for,
    seifert_corpus,
    wide_coefficient_domains,
)

z = LaurentPoly({1: 1})
one = LaurentPoly({0: 1})


def scalar_domain():
    D = BasedChainComplex(0, 0, [1], {})
    F = BasedChainComplex(0, 1, [1, 1], {})
    return AlgebraicFundamentalDomain(
        D, F,
        c={1: Matrix.from_rows([[1]])},
        h_D={0: Matrix.from_rows([[1]])},
        h_F={0: Matrix.from_rows([[1]])})


def f_zero_domain(h_d):
    D = BasedChainComplex(0, 0, [1], {})
    F = BasedChainComplex(0, 0, [0], {})
    return AlgebraicFundamentalDomain(
        D, F, c={}, h_D={0: Matrix.from_rows([[h_d]])}, h_F={})


def dense_domain(n):
    """D = Z^n in degrees 0 and 1 with dense h_D; F has ranks 2, 4, 2.

    c reads the last two generators of F_1 and h_F writes the first two,
    so c h_F = 0 and every identity holds with zero differentials.
    """
    rng = rng_for(f"dense-{n}")

    def dense(rows, cols):
        return Matrix(rows, cols, [[rng.choice((-2, -1, 1, 2))
                                    for _ in range(cols)]
                                   for _ in range(rows)])

    D = BasedChainComplex(0, 1, [n, n], {})
    F = BasedChainComplex(0, 2, [2, 4, 2], {})
    return AlgebraicFundamentalDomain(
        D, F,
        c={1: Matrix.block([[None, dense(n, 2)]],
                           row_sizes=[n], col_sizes=[2, 2]),
           2: dense(n, 2)},
        h_D={0: dense(n, n), 1: dense(n, n)},
        h_F={0: dense(2, n),
             1: Matrix.block([[dense(2, n)], [None]],
                             row_sizes=[2, 2], col_sizes=[n])})


CORPUS = domain_corpus(100)
# unlike the corpus families, these have d_D and h_F both nonzero
_flows = rng_for("flow-domains")
FLOWS = [random_flow_domain(_flows) for _ in range(30)]


# --- validation --------------------------------------------------------------------

def test_scalar_domain_valid():
    assert validate_fundamental_domain(scalar_domain()) is None


def test_f_zero_domain_valid_for_any_selfmap():
    assert validate_fundamental_domain(f_zero_domain(7)) is None


def test_invalid_domain_reports_identity():
    # d_D(1) o c_2 is nonzero while c_1 o d_F(2) vanishes
    D = BasedChainComplex(0, 1, [1, 1], {1: Matrix.from_rows([[1]])})
    F = BasedChainComplex(2, 2, [1], {})
    with pytest.raises(InvalidDomain) as exc:
        AlgebraicFundamentalDomain(D, F, c={2: Matrix.from_rows([[1]])},
                                   h_D={}, h_F={})
    assert exc.value.identity == "d_D c + c d_F = 0"
    assert exc.value.degree == 2


def test_domain_needs_integer_entries():
    D = BasedChainComplex(0, 1, [1, 1],
                          {1: Matrix.from_rows([[LaurentPoly({0: 1})]])})
    F = BasedChainComplex(0, 0, [0], {})
    with pytest.raises(InvalidDomain) as exc:
        AlgebraicFundamentalDomain(D, F, c={}, h_D={}, h_F={})
    assert exc.value.identity == "entries"
    D = BasedChainComplex(0, 0, [1], {})
    with pytest.raises(InvalidDomain) as exc:
        AlgebraicFundamentalDomain(D, F, c={}, h_F={},
                                   h_D={0: Matrix.from_rows([[z]])})
    assert exc.value.identity == "entries"


def test_invalid_shape_reported():
    D = BasedChainComplex(0, 0, [1], {})
    F = BasedChainComplex(0, 1, [1, 1], {})
    with pytest.raises(InvalidDomain) as exc:
        AlgebraicFundamentalDomain(D, F, c={1: Matrix.zeros(2, 1)},
                                   h_D={}, h_F={})
    assert exc.value.identity == "c shape"


def test_broken_chain_identity_detected():
    # D = F = Z in degree 0..1 with d_D = 0, d_F = 2: then
    # d_F h_F = h_F d_D forces h_F(1) = 0 in degree-0 target
    D = BasedChainComplex(0, 1, [1, 1], {})
    F = BasedChainComplex(0, 1, [1, 1],
                          {1: Matrix.from_rows([[2]])})
    with pytest.raises(InvalidDomain) as exc:
        AlgebraicFundamentalDomain(
            D, F, c={}, h_D={},
            h_F={1: Matrix.from_rows([[1]]), 0: Matrix.from_rows([[0]])})
    assert exc.value.identity == "d_F h_F = h_F d_D"
    assert exc.value.degree == 1


def test_corpus_domains_validate():
    for fd in CORPUS:
        assert validate_fundamental_domain(fd) is None


def test_validator_agrees_with_the_dense_reference_on_corrupted_domains():
    rng = rng_for("corrupted-domains")
    domains = CORPUS + [knot_fundamental_domain(s) for s in seifert_corpus()]
    caught = 0
    for fd in domains:
        assert validate_fundamental_domain(fd) is None
        assert dense_validate_fundamental_domain(fd) is None
        for _ in range(3):
            bad = corrupt_domain(fd, rng)
            found = validate_fundamental_domain(bad)
            assert found == dense_validate_fundamental_domain(bad)
            caught += found is not None
    # most corrupted domains are valid again (say, an h_D entry where
    # d_D and c vanish); this keeps the test from passing with none caught
    assert caught > len(domains) // 2


# --- assembly ------------------------------------------------------------------------

def test_assemble_circle():
    cone = assemble_mapping_cone(f_zero_domain(1))
    assert cone.ranks == (1, 1)
    assert cone.differential(1) == Matrix.from_rows([[one - z]])


def test_assemble_one_minus_two_z():
    cone = assemble_mapping_cone(f_zero_domain(2))
    assert cone.differential(1) == Matrix.from_rows([[one - 2 * z]])
    assert novikov_homology(cone).all_zero


def test_assemble_scalar_domain_d_squared():
    cone = assemble_mapping_cone(scalar_domain())
    assert validate_complex(cone) is None
    # degree i carries D_{i-1} (+) D_i (+) F_i
    assert cone.ranks == (2, 2)


def test_assemble_corpus_d_squared():
    for fd in CORPUS:
        cone = assemble_mapping_cone(fd)
        assert validate_complex(cone) is None


# --- algebraic Novikov complex ---------------------------------------------------------

def test_scalar_domain_exact_differential():
    fhat = algebraic_novikov_complex(scalar_domain(), "exact")
    assert fhat.differential(1).entry(0, 0) == RationalFunction(z, one - z)


def test_scalar_domain_truncated_differential():
    trunc = algebraic_novikov_complex(scalar_domain(), "truncated", order=3)
    assert trunc.differential(1).entry(0, 0) == LaurentPoly({1: 1, 2: 1, 3: 1})


def test_f_zero_gives_zero_complex():
    fhat = algebraic_novikov_complex(f_zero_domain(1), "exact")
    assert all(fhat.rank(i) == 0 for i in fhat.degrees())


def test_fhat_ranks_equal_f_ranks():
    for fd in CORPUS[:40]:
        fhat = algebraic_novikov_complex(fd, "exact")
        assert tuple(fhat.rank(i) for i in fhat.degrees()) == \
            tuple(fd.F.rank(i) for i in fd.F.degrees())


def test_geometric_series_identity_on_corpus():
    # (1 - z h_D) * sum_{j<=K} z^j h_D^j == 1 through order K
    K = 16
    for fd in CORPUS:
        for i in fd.D.degrees():
            n = fd.D.rank(i)
            if n == 0:
                continue
            hd = fd.h_D_at(i)
            a = Matrix.identity(n) - hd.scaled(z)
            acc = Matrix.zeros(n, n)
            power = Matrix.identity(n)
            for j in range(K + 1):
                acc = acc + power.scaled(LaurentPoly({j: 1}))
                power = matmul(power, hd)
            prod = matmul(a, acc).map_entries(lambda e: truncate_poly(e, K))
            assert prod == Matrix.identity(n).map_entries(
                lambda e: LaurentPoly({0: e}))


def test_exact_and_truncated_agree_through_order():
    K = 16
    for fd in CORPUS[:40] + FLOWS:
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


def test_exact_mode_d_squared_identically():
    for fd in CORPUS + FLOWS:
        fhat = algebraic_novikov_complex(fd, "exact")
        assert validate_complex(fhat) is None


def d_squared_vanishes(trunc):
    """Does d o d of a truncated F^ vanish through its series order?"""
    for i in range(trunc.lo + 2, trunc.hi + 1):
        prod = matmul(trunc.differential(i - 1), trunc.differential(i))
        cut = prod.map_entries(lambda e: truncate_poly(e, trunc.order))
        if not cut.is_zero:
            return False
    return True


def test_truncated_mode_d_squared_through_order():
    for fd in CORPUS[:30]:
        trunc = algebraic_novikov_complex(fd, "truncated", order=8)
        assert d_squared_vanishes(trunc)


# --- cokernel identification -------------------------------------------------------------

def test_cokernel_scalar_domain():
    assert cokernel_iso_check(scalar_domain(), 8).passed


def test_cokernel_f_zero_trivially():
    assert cokernel_iso_check(f_zero_domain(3), 4).passed


def test_cokernel_corpus():
    for fd in CORPUS[:50]:
        assert cokernel_iso_check(fd, 16).passed


def test_cokernel_check_agrees_with_the_cone_reference():
    """The packed check and the cone-based product give the same outcome,
    first failing degree and order on the corpus, the knot domains,
    domains with nonzero d_D and h_F, domains with wide coefficients
    next to vanishing blocks, domains with F_{i-1} > 0 next to an empty
    D_{i-1} or F_i, and copies of them with one
    corrupted det or entry of ``solved`` or entry of ``numerators`` (the
    numerators' det is the det of ``solved``, which both read instead)."""
    rng = rng_for("corrupted-solutions")
    domains = (CORPUS + [knot_fundamental_domain(s) for s in seifert_corpus()]
               + FLOWS + wide_coefficient_domains() + empty_block_domains())
    failed = dict.fromkeys((None, "det", "adjugate", "numerator"), 0)
    for fd in domains:
        for kind in failed:
            copies = ([fd] if kind is None else
                      [corrupt_solution(fd, rng, kind) for _ in range(2)])
            for bad in filter(None, copies):
                for k in (0, 1, 4, 16):
                    found = cokernel_iso_check(bad, k)
                    assert found == cone_cokernel_iso_check(bad, k)
                    failed[kind] += not found.passed
    # the true domains pass, and each corruption kind fails some runs
    assert failed.pop(None) == 0
    assert all(failed.values()), failed


# --- torsion zeta ---------------------------------------------------------------------------

def test_zeta_h_d_zero():
    D = BasedChainComplex(0, 0, [1], {})
    F = BasedChainComplex(0, 0, [0], {})
    fd = AlgebraicFundamentalDomain(D, F, c={}, h_D={}, h_F={})
    assert torsion_zeta(fd) == RationalFunction(one)


def test_zeta_degree_zero_identity():
    assert torsion_zeta(f_zero_domain(1)) == RationalFunction(one - z)


def test_zeta_degree_one_inverts():
    D = BasedChainComplex(1, 1, [1], {})
    F = BasedChainComplex(1, 1, [0], {})
    fd = AlgebraicFundamentalDomain(D, F, c={},
                                    h_D={1: Matrix.from_rows([[2]])}, h_F={})
    assert torsion_zeta(fd) == RationalFunction(one, one - 2 * z)


def direct_sum_domains(a, b):
    """Blockwise direct sum of two domains; all five identities are
    preserved."""
    D = direct_sum(a.D, b.D)
    F = direct_sum(a.F, b.F)
    span = range(min(D.lo, F.lo) - 1, max(D.hi, F.hi) + 2)

    def glue(at_a, at_b):
        return {i: _diagonal(at_a(i), at_b(i)) for i in span}

    return AlgebraicFundamentalDomain(
        D, F, c=glue(a.c_at, b.c_at), h_D=glue(a.h_D_at, b.h_D_at),
        h_F=glue(a.h_F_at, b.h_F_at))


def _diagonal(m, n):
    """The block matrix [[m, 0], [0, n]]."""
    return Matrix.block([[m, None], [None, n]], row_sizes=[m.rows, n.rows],
                        col_sizes=[m.cols, n.cols])


def test_zeta_multiplicative_under_direct_sum():
    rng = rng_for("zeta-sum")
    pairs = [(CORPUS[rng.randrange(len(CORPUS))],
              CORPUS[rng.randrange(len(CORPUS))]) for _ in range(15)]
    for a, b in pairs:
        s = direct_sum_domains(a, b)
        assert torsion_zeta(s) == torsion_zeta(a) * torsion_zeta(b)


# --- chain equivalence consequence -----------------------------------------------------------

def test_cone_and_fhat_reports_agree():
    for fd in CORPUS[:40] + FLOWS:
        cone = assemble_mapping_cone(fd)
        fhat = algebraic_novikov_complex(fd, "exact")
        ra = novikov_homology(cone)
        rb = novikov_homology(fhat)
        lo, hi = min(ra.lo, rb.lo), max(ra.hi, rb.hi)
        for i in range(lo, hi + 1):
            assert ra.b(i) == rb.b(i)
            assert list(ra.torsion_factors.get(i, [])) == \
                list(rb.torsion_factors.get(i, []))
        assert ra.conclusive and rb.conclusive


# --- one elimination per degree ---------------------------------------------------------------

def test_domain_json_roundtrip():
    fd = dense_domain(2)
    doc = parse_document(json.dumps({"kind": "fundomain",
                                     "payload": {"domain": domain_to_json(fd)}}))
    assert doc.payload["domain"] == fd


def test_rank_eight_dense_domain():
    fd = dense_domain(8)
    for i in (0, 1):
        det, zh_F_adj = fd.solved[i]
        m = Matrix.identity(8) - fd.h_D_at(i).scaled(z)
        assert det.coeff(0) == 1 and det.deg() == 8
        # z h_F adj(m) m = det z h_F, since adj(m) m = det I
        assert matmul(zh_F_adj, m) == fd.h_F_at(i).scaled(z * det)
    fhat = algebraic_novikov_complex(fd, "exact")
    assert validate_complex(fhat) is None
    K = 12
    trunc = algebraic_novikov_complex(fd, "truncated", order=K)
    for i in (1, 2):
        ex, tr = fhat.differential(i), trunc.differential(i)
        for r in range(ex.rows):
            for c in range(ex.cols):
                assert expand(ex.entry(r, c), precision=K) == \
                    TruncatedSeries.of_poly(tr.entry(r, c), K)
    assert cokernel_iso_check(fd, K).passed


def test_fundomain_job_eliminates_each_degree_once(monkeypatch):
    """One Gauss-Jordan pass of the packed kernel per degree of D, though
    F^, the cokernel check, the torsion and the oracles all read it (the
    forward passes are the oracles' ranks)."""
    calls = []
    eliminate = nk.linalg._Packed.eliminate

    def counted(self, n, jordan=False):
        if jordan:
            calls.append(n)
        return eliminate(self, n, jordan)

    monkeypatch.setattr(nk.linalg._Packed, "eliminate", counted)
    doc = {"kind": "fundomain",
           "payload": {"domain": domain_to_json(dense_domain(2))}}
    report = run(parse_document(json.dumps(doc)), oracle=True)
    assert all(c["ok"] for c in report.data["oracle"])
    assert calls == [2, 2]


def test_the_width_spy_sees_solved_and_the_cokernel_check(monkeypatch):
    """``solved`` and ``cokernel_iso_check`` take their slot widths from
    the packed layer's one width point, which the spy of ``test_bareiss``
    watches: with h_D = [[200]], 1 - 200z has 1-norm 201 and needs two
    bytes, and the cokernel product four."""
    from test_bareiss import _recording_widths
    fd = wide_coefficient_domains()[0]
    widths = _recording_widths(monkeypatch)
    fd.solved
    assert widths == {2}
    widths.clear()
    assert cokernel_iso_check(fd, 30)
    assert widths == {4}


def test_solved_matches_the_laurent_route():
    """The packed ``solved`` equals the Laurent route through
    ``solve_laurent`` on the corpus, the knot domains, domains with
    nonzero d_D and h_F, a dense rank-8 domain and domains that need a
    wide packing slot."""
    domains = (CORPUS + [knot_fundamental_domain(s) for s in seifert_corpus()]
               + FLOWS + [dense_domain(8)] + wide_coefficient_domains())
    for fd in domains:
        assert fd.solved == laurent_solved(fd)
