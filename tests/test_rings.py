"""Ring layer: Laurent arithmetic, the rational subring, series windows."""

import pytest

from nk.rings import (
    DEFAULT_PRECISION,
    Direction,
    LaurentPoly,
    NotAUnit,
    NotInRationalSubring,
    RationalFunction,
    TruncatedSeries,
    expand,
    invert_as_series,
    is_novikov_unit,
    reverse_variable,
    truncate_poly,
)
from nk.rings import _cancel, _gcd_cofactors

from domains import (divexact, is_zero_window, random_denominator,
                     random_laurent, random_rational, rng_for)

z = LaurentPoly({1: 1})
one = LaurentPoly({0: 1})


def L(coeffs):
    return LaurentPoly(coeffs)


# --- zero coefficients are never stored ---------------------------------------

def test_laurent_drops_zero_coefficients():
    p = L({0: 1, 1: 0, 2: 3})
    assert p == L({0: 1, 2: 3})
    assert p.coeffs == {0: 1, 2: 3}


def test_laurent_empty_is_zero():
    for p in (L({}), L({0: 0, 3: 0})):
        assert p.is_zero
        assert p == LaurentPoly()


def test_laurent_already_normal():
    assert L({-1: 2, 0: -2}).coeffs == {-1: 2, 0: -2}


@pytest.mark.parametrize("bad", [2.7, True, "1"],
                         ids=["float", "bool", "string"])
def test_constructors_take_ints_only(bad):
    with pytest.raises(TypeError):
        L({0: bad})
    with pytest.raises(TypeError):
        L({bad: 1})
    with pytest.raises(TypeError):
        L({0: 1, 1: bad})
    with pytest.raises(TypeError):
        L({0: 1, bad: 1})
    with pytest.raises(TypeError):
        TruncatedSeries(0, [1, bad])
    with pytest.raises(TypeError):
        TruncatedSeries(0, [bad])


# --- is_novikov_unit ---------------------------------------------------------

def test_one_minus_z_is_plus_unit():
    assert is_novikov_unit(one - z, Direction.PLUS)


def test_z_minus_two_is_not_plus_unit():
    assert not is_novikov_unit(z - 2, Direction.PLUS)


def test_monomial_with_unit_coefficient():
    assert is_novikov_unit(L({3: -1}), Direction.PLUS)


def test_z_minus_two_is_minus_unit():
    # substitute w = z^-1: z - 2 = w^-1 (1 - 2w), a unit of Z((w))
    w_side = reverse_variable(z - 2)
    assert is_novikov_unit(w_side, Direction.PLUS)
    assert is_novikov_unit(z - 2, Direction.MINUS)


def test_zero_is_never_a_unit():
    assert not is_novikov_unit(LaurentPoly(), Direction.PLUS)
    assert not is_novikov_unit(LaurentPoly(), Direction.MINUS)


# --- invert_as_series --------------------------------------------------------

def test_geometric_series():
    assert invert_as_series(one - z, precision=3) == \
        TruncatedSeries(0, [1, 1, 1, 1])


def test_invert_one_minus_two_z_multiplies_back():
    q = invert_as_series(one - 2 * z, precision=3)
    assert q == TruncatedSeries(0, [1, 2, 4, 8])
    # oracle: multiply back and check == 1 through z^3
    assert truncate_poly(q._p * (one - 2 * z), 3) == one


def test_invert_monomial():
    assert invert_as_series(L({2: 1}), precision=5) == \
        TruncatedSeries(-2, [1, 0, 0, 0, 0, 0])


def test_invert_nonunit_raises():
    with pytest.raises(NotAUnit):
        invert_as_series(z - 2, 4)


def test_invert_multiply_back_property():
    rng = rng_for("invert")
    checked = 0
    while checked < 60:
        p = random_laurent(rng)
        if not is_novikov_unit(p, Direction.PLUS):
            continue
        checked += 1
        for k in (0, 1, 5, 11):
            q = invert_as_series(p, k)
            assert q.cutoff == k + 1 - p.ord()
            assert truncate_poly(q._p * p, k) == one


def test_invert_minus_side_delegates_by_reversal():
    # z - 2 is a Z((z^-1))-unit: its inverse there is the Z((w))-inverse
    # of its reversal w^-1 - 2 = w^-1 (1 - 2w), in w = z^-1
    assert invert_as_series(reverse_variable(z - 2), 6) == \
        TruncatedSeries(1, [1, 2, 4, 8, 16, 32, 64])


# --- expand ------------------------------------------------------------------

def test_expand_geometric():
    r = RationalFunction(z, one - z)
    assert expand(r, precision=3) == TruncatedSeries(1, [1, 1, 1])


def test_expand_one_over_one_minus_two_z():
    r = RationalFunction(one, one - 2 * z)
    assert expand(r, precision=2) == TruncatedSeries(0, [1, 2, 4])


def test_expand_cancellation():
    r = RationalFunction(one - z, one - z)
    assert expand(r, precision=0) == TruncatedSeries(0, [1])


def test_expand_polynomial_exactness():
    p = L({-3: 1, 2: 5})
    w = expand(RationalFunction(p), precision=2)
    assert w == TruncatedSeries.of_poly(p, 2)
    assert w.coeffs == (1, 0, 0, 0, 0, 5)


def test_expand_minus_requires_minus_unit_denominator():
    # the Z((z^-1)) window of r is expand(reverse_variable(r)); 1 - 2z is
    # no Z((z^-1))-unit, so its reversal leaves the subring
    with pytest.raises(NotInRationalSubring):
        reverse_variable(RationalFunction(one, one - 2 * z))


def test_expand_minus_side():
    # 1 - z has highest coefficient -1, so it is a Z((z^-1))-unit: in
    # w = z^-1, z/(1 - z) = 1/(w - 1) = -(1 + w + w^2 + ...)
    r = RationalFunction(z, one - z)
    assert expand(reverse_variable(r), 4) == TruncatedSeries(0, [-1] * 5)


def test_expand_additive_and_multiplicative():
    rng = rng_for("expand")
    for _ in range(40):
        a, b = random_rational(rng), random_rational(rng)
        k = rng.randint(0, 8)
        wa, wb = expand(a, precision=k), expand(b, precision=k)
        assert expand(a + b, precision=k) == \
            TruncatedSeries.of_poly(wa._p + wb._p, k)
        # a product coefficient of z^n needs a through z^(n - ord b) and b
        # through z^(n - ord a)
        cut = k + min(wa.lowest, wb.lowest, 0)
        assert truncate_poly(wa._p * wb._p, cut) == \
            truncate_poly(expand(a * b, precision=k)._p, cut)


def test_expand_times_denominator_is_the_numerator():
    """For r = n/d, d times the window of r agrees with n through the
    window's top exponent."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    coeffs = st.lists(st.integers(-3, 3) | st.integers(-2 ** 70, 2 ** 70),
                      max_size=6)
    nums = st.builds(LaurentPoly._dense, st.integers(-3, 3), coeffs)
    # d = z^j (+-1 + t) with ord(t) >= 1 keeps n/d in the subring
    dens = st.builds(lambda j, u, t: (t + u).shifted(j), st.integers(-2, 2),
                     st.sampled_from((1, -1)),
                     st.builds(LaurentPoly._dense, st.integers(1, 3), coeffs))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(nums, dens, st.integers(-4, 12))
    def agrees(num, den, k):
        r = RationalFunction(num, den)
        w = expand(r, precision=k)
        assert w.cutoff == k + 1
        assert truncate_poly(r.denominator * w._p, k) == \
            truncate_poly(r.numerator, k)

    agrees()


# --- reverse_variable ---------------------------------------------------------

def test_reverse_examples():
    assert reverse_variable(one - 2 * z) == L({0: 1, -1: -2})
    assert reverse_variable(z - 2) == L({-1: 1, 0: -2})
    assert reverse_variable(LaurentPoly()).is_zero


def test_reverse_involution_and_unit_swap():
    rng = rng_for("reverse")
    for _ in range(80):
        p = random_laurent(rng)
        assert reverse_variable(reverse_variable(p)) == p
        assert is_novikov_unit(p, Direction.MINUS) == \
            is_novikov_unit(reverse_variable(p), Direction.PLUS)


def test_non_polynomial_arguments_raise_type_error():
    """The polynomial-only functions name the type they were given."""
    rational = RationalFunction(one, one - z)
    for f, bad, name in ((is_novikov_unit, rational, "RationalFunction"),
                         (is_novikov_unit, 2.0, "float"),
                         (reverse_variable, 1.5, "float"),
                         (invert_as_series, 2.0, "float"),
                         (expand, 2.0, "float"),
                         (lambda p: truncate_poly(p, 3), rational,
                          "RationalFunction")):
        with pytest.raises(TypeError, match=name):
            f(bad)
    assert reverse_variable(RationalFunction(z, one - z)) == \
        RationalFunction(-1, one - z)


# --- ring axioms ---------------------------------------------------------------

def test_ring_axioms_on_random_triples():
    rng = rng_for("axioms")
    for _ in range(60):
        a, b, c = (random_laurent(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly() == a
        assert a * one == a


def test_divexact_roundtrip():
    rng = rng_for("divexact")
    for _ in range(40):
        a, b = random_laurent(rng), random_laurent(rng)
        if b.is_zero:
            continue
        assert divexact(a * b, b) == a
    with pytest.raises(ValueError):
        divexact(one + z, 2 * one)
    # z^2 + 1 = (z + 1)(z - 1) + 2: every step exact, remainder nonzero
    with pytest.raises(ValueError):
        divexact(z ** 2 + one, z + one)
    # 2z^2 + 3z + 1 = (2z + 2)(z + 1/2): the lower step is inexact
    with pytest.raises(ValueError):
        divexact(2 * z ** 2 + 3 * z + one, 2 * z + 2)


# --- RationalFunction canonical form -------------------------------------------

def test_canonical_denominator_in_S():
    r = RationalFunction(one, one - z)
    assert r.denominator == one - z
    assert r.denominator.coeff(0) == 1


def test_canonical_strips_monomial_and_sign():
    # 1/(z - z^2) = z^-1/(1 - z)
    r = RationalFunction(one, z - z ** 2)
    assert r.denominator == one - z
    assert r.numerator == L({-1: -1}) * -1


def test_canonical_gcd_cancellation_preserves_content():
    r = RationalFunction(2 - 2 * z ** 2, one + z)
    assert r == RationalFunction(2 - 2 * z)
    assert r.numerator == 2 - 2 * z and r.denominator == one


def test_not_in_subring_raises():
    with pytest.raises(NotInRationalSubring):
        RationalFunction(one, LaurentPoly({0: 2}))
    with pytest.raises(NotInRationalSubring):
        RationalFunction(one, 2 - z)
    # but content can cancel first
    assert RationalFunction(4 * z, LaurentPoly({0: 2})) == RationalFunction(2 * z)


def test_not_in_subring_message_is_built_lazily():
    """A denominator with a coefficient past the int-to-str digit limit
    still raises NotInRationalSubring, and the message stays printable."""
    with pytest.raises(NotInRationalSubring) as exc:
        RationalFunction(1, LaurentPoly({0: 2, 1: 10 ** 5000}))
    assert str(exc.value) == "denominator of degree 1 cannot be normalized into S"
    with pytest.raises(NotInRationalSubring) as exc:
        RationalFunction(one, 2 - z)
    assert str(exc.value) == "denominator 2 - z cannot be normalized into S"


def test_canonicalization_idempotent():
    rng = rng_for("canon")
    for _ in range(60):
        r = random_rational(rng)
        again = RationalFunction(r.numerator, r.denominator)
        assert (again.numerator, again.denominator) == \
            (r.numerator, r.denominator)


# factors in S shared between random numerators and denominators, so that
# the unreduced parts of a sum or product have a common factor to cancel
_S_FACTORS = (one + z, one - z, one + z + z ** 2, one - 2 * z, one + 3 * z ** 2)


def _random_element(rng):
    """An unreduced (numerator, denominator) pair of S^-1 Z[z,z^-1]:
    zero, an integer, a monomial, a Laurent polynomial, or a quotient
    with a denominator in S times a monomial and sign."""
    kind = rng.randrange(6)
    if kind == 0:
        return LaurentPoly(), one
    if kind == 1:
        return L({0: rng.choice((-3, -1, 1, 2, 6))}), one
    if kind == 2:
        return L({rng.randint(-3, 3): rng.choice((-2, -1, 1, 4))}), one
    common = one
    for f in rng.sample(_S_FACTORS, rng.randint(0, 2)):
        common = common * f
    num = random_laurent(rng, span=rng.randint(0, 3), max_coeff=3) * common
    if kind == 3:
        return num, one
    den = random_denominator(rng, span=rng.randint(0, 2)) * common
    if rng.randrange(2):
        den = den * rng.choice((-1, 1)) * L({rng.randint(-2, 2): 1})
    return num, den


def test_arithmetic_equals_the_constructor_on_unreduced_parts():
    """Products, negations, sums and zero operands give the canonical
    pair of the constructor applied to the unreduced parts."""
    rng = rng_for("fast-paths")

    def pair(r):
        return r.numerator, r.denominator

    zero = RationalFunction(0)
    for _ in range(300):
        (n1, d1), (n2, d2) = _random_element(rng), _random_element(rng)
        a, b = RationalFunction(n1, d1), RationalFunction(n2, d2)
        cases = [
            (a * b, RationalFunction(n1 * n2, d1 * d2)),
            (-a, RationalFunction(-n1, d1)),
            (a + b, RationalFunction(n1 * d2 + n2 * d1, d1 * d2)),
            (a + -b, RationalFunction(n1 * d2 - n2 * d1, d1 * d2)),
            (a + 0, RationalFunction(n1, d1)),
            (0 + a, RationalFunction(n1, d1)),
            (a + zero, RationalFunction(n1, d1)),
            (a * 0, RationalFunction(0)),
            (zero * a, RationalFunction(0)),
        ]
        for got, expect in cases:
            assert pair(got) == pair(expect), (n1, d1, n2, d2)


def test_poly_gcd_monomial_side_matches_dense_gcd():
    rng = rng_for("gcd-monomial")
    for _ in range(60):
        m = L({rng.randint(-3, 3): rng.choice((-5, -1, 1, 2, 12))})
        p = random_laurent(rng, max_coeff=6)
        if p.is_zero:
            continue
        assert _gcd_cofactors(m._t, p._t) == ([1], m._t, p._t)
        assert _gcd_cofactors(p._t, m._t) == ([1], p._t, m._t)
        assert _cancel(m, p) == (m, p) and _cancel(p, m) == (p, m)


def test_division_as_divisibility_probe():
    # Fatou: 1/(1-2z) expands integrally, (z-2)/2 does not
    assert RationalFunction(one, one - 2 * z)
    with pytest.raises(NotInRationalSubring):
        RationalFunction(z - 2, LaurentPoly({0: 2}))


def test_rational_field_ops():
    rng = rng_for("ratops")
    for _ in range(30):
        a, b = random_rational(rng), random_rational(rng)
        assert a + b + -b == a
        assert a + -a == RationalFunction(0)
        if b:
            ab = a * b
            assert RationalFunction(ab.numerator * b.denominator,
                                    ab.denominator * b.numerator) == a
    u = RationalFunction(one - z, one + z)
    assert u.is_unit()
    assert u * RationalFunction(one + z, one - z) == RationalFunction(one)


def evaluate(p, x):
    """The value of the Laurent polynomial p at x, exact: a Fraction when
    an exponent is negative."""
    from fractions import Fraction
    if p.ord() < 0:
        x = Fraction(x)
    return sum(n * x**j for j, n in p.items())


def test_evaluate_is_exact_at_negative_exponents():
    from fractions import Fraction
    p = L({-1: 1, 0: 2})
    assert evaluate(p, 3) == Fraction(7, 3)
    assert type(evaluate(p, 3)) is Fraction
    assert evaluate(L({-2: 1, 1: -1}), Fraction(1, 2)) == Fraction(7, 2)
    assert type(evaluate(one + z, 3)) is int
    with pytest.raises(ZeroDivisionError):
        evaluate(p, 0)


def test_rational_arithmetic_against_evaluation_oracle():
    # independent check: compare every operation with exact Fraction
    # evaluation at sample points away from denominator roots
    from fractions import Fraction
    rng = rng_for("rat-eval")

    def value(r, x):
        return Fraction(evaluate(r.numerator, x)) / evaluate(r.denominator, x)

    points = [Fraction(p, q) for p, q in
              ((2, 1), (3, 2), (-5, 3), (7, 4), (-1, 6))]
    for _ in range(40):
        a, b = random_rational(rng), random_rational(rng)
        results = [(a + b, lambda x: value(a, x) + value(b, x)),
                   (a + -b, lambda x: value(a, x) - value(b, x)),
                   (a * b, lambda x: value(a, x) * value(b, x))]
        for got, expect in results:
            for x in points:
                if evaluate(a.denominator, x) and evaluate(b.denominator, x) \
                        and evaluate(got.denominator, x):
                    assert value(got, x) == expect(x)


# --- TruncatedSeries precision bookkeeping --------------------------------------

def test_window_normalizes_leading_zeros():
    w = TruncatedSeries(0, [0, 1, 1])
    assert w.lowest == 1 and w.coeffs == (1, 1) and w.cutoff == 3


def test_zero_window():
    w = TruncatedSeries(0, [0, 0, 0])
    assert is_zero_window(w) and w.lowest == 3 and w.cutoff == 3


def test_truncate_poly_helper():
    p = L({-1: 1, 0: 2, 4: 7})
    assert truncate_poly(p, 2) == L({-1: 1, 0: 2})


def test_default_precision_is_32():
    assert DEFAULT_PRECISION == 32
    w = expand(RationalFunction(one, one - z))
    assert w.cutoff == 33
