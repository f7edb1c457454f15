"""LaurentPoly and TruncatedSeries against a dict-based reference model.

The model keeps a polynomial as a plain {exponent: coefficient} dict with
no zero values and does every operation term by term, so it shares no
code or storage format with ``nk.rings``.
"""

import math

import pytest

from nk.rings import (
    LaurentPoly,
    TruncatedSeries,
    reverse_variable,
    truncate_poly,
)

from domains import divexact, is_zero_window, rng_for


def norm(d):
    return {j: n for j, n in d.items() if n}


def ref_add(a, b):
    out = dict(a)
    for j, n in b.items():
        out[j] = out.get(j, 0) + n
    return norm(out)


def ref_neg(a):
    return {j: -n for j, n in a.items()}


def ref_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return norm(out)


def ref_trunc(a, upto):
    return {j: n for j, n in a.items() if j <= upto}


def random_poly(rng):
    """Zero, a constant, a monomial, a dense polynomial around exponent
    0, or a sparse polynomial whose span is at least 1,000."""
    kind = rng.randrange(5)
    if kind == 0:
        return {}
    if kind == 1:
        return {0: rng.choice((-7, -1, 1, 2, 10**30))}
    if kind == 2:
        return {rng.randint(-5, 5): rng.choice((-3, -1, 1, 4))}
    if kind == 3:
        lo = rng.randint(-4, 2)
        return norm({lo + j: rng.randint(-5, 5)
                     for j in range(rng.randint(1, 6))})
    lo = rng.randint(-1500, 500)
    span = rng.randint(1000, 1600)
    terms = {lo: rng.choice((-2, 1, 3)), lo + span: rng.choice((-1, 2))}
    for _ in range(rng.randint(0, 4)):
        terms[rng.randint(lo, lo + span)] = rng.randint(-6, 6)
    return norm(terms)


def pairs(name, count):
    rng = rng_for(name)
    return [(random_poly(rng), random_poly(rng)) for _ in range(count)]


def test_ring_operations_match_reference():
    for a, b in pairs("reference-ops", 200):
        pa, pb = LaurentPoly(a), LaurentPoly(b)
        assert (pa + pb).items() == sorted(ref_add(a, b).items())
        assert (pa - pb).items() == sorted(ref_add(a, ref_neg(b)).items())
        assert (pa * pb).items() == sorted(ref_mul(a, b).items())
        assert (-pa).items() == sorted(ref_neg(a).items())
        assert pa + pb == LaurentPoly(ref_add(a, b))
        assert pa * pb == LaurentPoly(ref_mul(a, b))
        for k in (-1001, -1, 0, 3):
            assert pa.shifted(k).items() == sorted(
                (j + k, n) for j, n in a.items())
        assert reverse_variable(pa).items() == sorted(
            (-j, n) for j, n in a.items())
        for upto in (-1000, -1, 0, 2, 700):
            assert truncate_poly(pa, upto).items() == sorted(
                ref_trunc(a, upto).items())


def test_divexact_of_products_matches_reference():
    for a, b in pairs("reference-div", 120):
        if not b:
            continue
        prod = LaurentPoly(ref_mul(a, b))
        assert divexact(prod, LaurentPoly(b)) == LaurentPoly(a)
        assert divexact(prod, LaurentPoly(b)).items() == sorted(a.items())


def test_accessors_match_reference():
    for a, _ in pairs("reference-access", 200):
        p = LaurentPoly(a)
        assert p.coeffs == a
        assert p.items() == sorted(a.items())
        assert p.content() == (math.gcd(*a.values()) if a else 0)
        assert p.is_zero == (not a)
        for j in list(a) + [-2000, -1, 0, 1, 2500]:
            assert p.coeff(j) == a.get(j, 0)
        if a:
            assert (p.ord(), p.deg()) == (min(a), max(a))
            assert p.lowest_coeff() == a[min(a)]
            assert p.highest_coeff() == a[max(a)]
        else:
            with pytest.raises(ValueError):
                p.ord()
            with pytest.raises(ValueError):
                p.deg()


def test_equality_and_hash_against_ints():
    for a, b in pairs("reference-eq", 200):
        pa, pb = LaurentPoly(a), LaurentPoly(b)
        assert (pa == pb) == (a == b)
        if a == b:
            assert hash(pa) == hash(pb)
        constant = set(a) <= {0}
        for n in (0, 1, -7, a.get(0, 0)):
            assert (pa == n) == (constant and a.get(0, 0) == n)
        if constant:
            assert hash(pa) == hash(a.get(0, 0))


def lowest(x, cutoff):
    """ord of x seen through a window: the cutoff when the window is 0."""
    return min([cutoff] + [j for j in x if j < cutoff])


def window(x, cutoff):
    """Reference window of x below cutoff: (cutoff, lowest, coeffs)."""
    lo = lowest(x, cutoff)
    return cutoff, lo, tuple(x.get(j, 0) for j in range(lo, cutoff))


def same_window(w, ref):
    return (w.cutoff, w.lowest, w.coeffs) == ref


def test_series_windows_match_exact_products():
    """Windows cut from the exact x, y, x + y, -x and x * y equal the
    reference windows of the same exact values."""
    rng = rng_for("reference-cutoffs")
    for x, y in pairs("reference-windows", 200):
        ca, cb = rng.randint(-1600, 1600), rng.randint(-10, 10)
        a, b = LaurentPoly(x), LaurentPoly(y)
        wa = TruncatedSeries.of_poly(a, ca - 1)
        la = lowest(x, ca)
        assert wa.lowest == la and wa.cutoff == ca
        assert wa.coeffs == tuple(x.get(j, 0) for j in range(la, ca))
        assert wa.precision == ca - la - 1
        assert is_zero_window(wa) == (la == ca)
        assert same_window(TruncatedSeries.of_poly(b, cb - 1), window(y, cb))
        assert same_window(TruncatedSeries.of_poly(a + b, cb - 1),
                           window(ref_add(x, y), cb))
        assert same_window(TruncatedSeries.of_poly(-a, ca - 1),
                           window(ref_neg(x), ca))
        assert same_window(TruncatedSeries.of_poly(a * b, ca - 1),
                           window(ref_mul(x, y), ca))


def test_window_constructor_matches_reference():
    rng = rng_for("reference-window-ctor")
    for _ in range(100):
        lo = rng.randint(-5, 5)
        coeffs = [rng.choice((0, 0, 1, -2, 5))
                  for _ in range(rng.randint(0, 6))]
        w = TruncatedSeries(lo, coeffs)
        terms = norm({lo + i: c for i, c in enumerate(coeffs)})
        assert same_window(w, window(terms, lo + len(coeffs)))
        assert w == TruncatedSeries.of_poly(LaurentPoly(terms),
                                            lo + len(coeffs) - 1)
