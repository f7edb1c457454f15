"""Chain complexes: validation, cones, integral homology."""

import json

import pytest

from nk.rings import LaurentPoly
from nk.linalg import Matrix
from nk.complexes import (
    BasedChainComplex,
    ChainMap,
    NotAComplex,
    direct_sum,
    integral_homology,
    mapping_cone,
    morse_lower_bounds,
    validate_complex,
)
from nk.novikov import novikov_homology
from nk.cli import parse_document

from domains import complex_to_json, random_z_complex, rng_for

z = LaurentPoly({1: 1})
one = LaurentPoly({0: 1})


def identity_chain_map(c):
    return ChainMap(c, c, {i: Matrix.identity(c.rank(i)) for i in c.degrees()})


def circle_complex():
    return BasedChainComplex(0, 1, [1, 1], {})


# --- validation ------------------------------------------------------------------

def test_circle_complex_is_valid():
    c = circle_complex()
    assert validate_complex(c) is None


def test_d_squared_violation_reports_degree():
    with pytest.raises(NotAComplex) as exc:
        BasedChainComplex(0, 2, [1, 1, 1],
                          {1: Matrix.from_rows([[1]]),
                           2: Matrix.from_rows([[1]])})
    assert exc.value.degree == 2
    assert exc.value.product == Matrix.from_rows([[1]])


def test_empty_complex_is_valid():
    c = BasedChainComplex(0, 0, [0], {})
    assert validate_complex(c) is None


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        BasedChainComplex(0, 1, [1, 1],
                          {1: Matrix.from_rows([[1, 2]])})


@pytest.mark.parametrize("entry", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_entries_must_be_ring_elements(entry):
    with pytest.raises(ValueError):
        BasedChainComplex(0, 1, [1, 1], {1: Matrix.from_rows([[entry]])})


def test_is_integral_reads_the_entries():
    assert BasedChainComplex(0, 1, [1, 1],
                             {1: Matrix.from_rows([[2]])}).is_integral
    assert not BasedChainComplex(0, 1, [1, 1],
                                 {1: Matrix.from_rows([[one - z]])}).is_integral


def test_constructor_output_always_validates():
    rng = rng_for("complex-valid")
    for _ in range(50):
        c, _ = random_z_complex(rng)
        assert validate_complex(c) is None


# --- mapping cone ------------------------------------------------------------------

def test_cone_of_identity_is_acyclic():
    pt = BasedChainComplex(0, 0, [1], {})
    cone = mapping_cone(identity_chain_map(pt))
    assert cone.ranks == (1, 1)
    assert cone.differential(1) == Matrix.from_rows([[1]])
    rep = integral_homology(cone)
    assert all(b == 0 for b in rep.betti.values())
    assert all(not t for t in rep.torsion_factors.values())


def test_cone_of_one_minus_z_is_circle_complex():
    pt = BasedChainComplex(0, 0, [1], {})
    f = ChainMap(pt, pt, {0: Matrix.from_rows([[one - z]])})
    cone = mapping_cone(f)
    assert cone.ranks == (1, 1)
    assert cone.differential(1) == Matrix.from_rows([[one - z]])


def test_cone_of_zero_map_is_direct_sum():
    pt = BasedChainComplex(0, 0, [1], {})
    f = ChainMap(pt, pt, {0: Matrix.zeros(1, 1)})
    cone = mapping_cone(f)
    assert cone.ranks == (1, 1)
    assert cone.differential(1).is_zero


def test_cone_sign_convention():
    # two-term source: cone_2 = src_1, cone_1 = src_0 (+) tgt_1, cone_0 = tgt_0
    c = BasedChainComplex(0, 1, [1, 1], {1: Matrix.from_rows([[3]])})
    cone = mapping_cone(identity_chain_map(c))
    assert cone.ranks == (1, 2, 1)
    assert cone.differential(2) == Matrix.from_rows([[-3], [1]])
    assert cone.differential(1) == Matrix.from_rows([[1, 3]])
    assert validate_complex(cone) is None


def test_cone_of_unit_scalar_equivalence_acyclic_over_laurent():
    from nk.novikov import novikov_homology
    c = circle_complex()
    f = ChainMap(c, c, {i: Matrix.from_rows([[one - 2 * z]])
                        for i in c.degrees()})
    # 1 - 2z is a Z((z))-unit in each degree, so the cone is acyclic
    rep = novikov_homology(mapping_cone(f))
    assert rep.all_zero and rep.conclusive


# --- integral homology -----------------------------------------------------------------

def test_circle_homology():
    rep = integral_homology(circle_complex())
    assert rep.betti == {0: 1, 1: 1}
    assert all(not t for t in rep.torsion_factors.values())
    assert morse_lower_bounds(rep) == {0: 1, 1: 1}


def test_multiplication_by_two():
    c = BasedChainComplex(0, 1, [1, 1], {1: Matrix.from_rows([[2]])})
    rep = integral_homology(c)
    assert rep.betti == {0: 0, 1: 0}
    assert rep.torsion_factors[0] == [2]
    assert morse_lower_bounds(rep) == {0: 1, 1: 1}


def test_diag_2_3_torsion_after_unit_stripping():
    c = BasedChainComplex(0, 1, [2, 2],
                          {1: Matrix.from_rows([[2, 0], [0, 3]])})
    rep = integral_homology(c)
    # SNF factors are (1, 6); the unit is stripped
    assert rep.torsion_factors[0] == [6]
    assert rep.torsion_count(0) == 1


def test_integral_homology_needs_integer_entries():
    c = BasedChainComplex(0, 1, [1, 1], {1: Matrix.from_rows([[2 * one]])})
    with pytest.raises(ValueError, match="integer entries"):
        integral_homology(c)


def test_homology_of_direct_sum_is_degreewise_sum():
    rng = rng_for("sum-homology")
    for _ in range(20):
        a, _ = random_z_complex(rng)
        b, _ = random_z_complex(rng)
        s = direct_sum(a, b)
        ra, rb, rs = (integral_homology(x) for x in (a, b, s))
        for i in s.degrees():
            assert rs.b(i) == ra.b(i) + rb.b(i)
            assert sorted(rs.torsion_factors.get(i, [])) == \
                sorted(list(ra.torsion_factors.get(i, []))
                       + list(rb.torsion_factors.get(i, [])))


def test_morse_bounds_examples():
    rep = integral_homology(circle_complex())
    assert morse_lower_bounds(rep) == {0: 1, 1: 1}
    zero = integral_homology(BasedChainComplex(0, 2, [0, 0, 0], {}))
    assert all(v == 0 for v in morse_lower_bounds(zero).values())
    # torsion in the top degree extends the bounds one degree up
    top = BasedChainComplex(0, 1, [1, 1],
                            {1: Matrix.from_rows([[2]])})
    shifted = integral_homology(top)
    assert morse_lower_bounds(shifted)[1] == 1


def test_base_change_rank_consistency():
    # Betti over Q(z) of an integer complex matches its integral free
    # ranks: there is no z in sight
    rng = rng_for("widen-rank")
    for _ in range(15):
        c, _ = random_z_complex(rng)
        assert novikov_homology(c).betti == integral_homology(c).betti


def test_chain_map_must_commute():
    c = BasedChainComplex(0, 1, [1, 1], {1: Matrix.from_rows([[2]])})
    with pytest.raises(ValueError):
        ChainMap(c, c, {0: Matrix.from_rows([[1]]),
                        1: Matrix.from_rows([[2]])})


def test_json_roundtrip():
    c = BasedChainComplex(0, 1, [1, 1],
                          {1: Matrix.from_rows([[one - z]])})
    doc = parse_document(json.dumps({"kind": "novikov",
                                     "payload": {"complex": complex_to_json(c)}}))
    assert doc.payload["complex"] == c
