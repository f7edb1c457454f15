"""The gcd route of the canonical form against sympy over ZZ[z].

``rings._gcd_cofactors``, ``rings._cancel``, the ``RationalFunction``
normal form and its arithmetic are compared with ``sympy.gcd`` and
``sympy.cancel``, an implementation that shares no code with ``nk``.
sympy's gcd over ZZ keeps the common content, so gcds are compared up
to content and sign.
"""

import math

import pytest

from nk.rings import LaurentPoly, RationalFunction, _cancel, _gcd_cofactors

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

Z = sympy.Symbol("z")


def to_sympy(t):
    """The ascending coefficient sequence t as a polynomial in z over ZZ."""
    return sympy.Poly(list(reversed(t)), Z, domain=sympy.ZZ)


def ascending(p):
    """The ascending coefficients of a sympy polynomial in z."""
    return list(reversed(sympy.Poly(p, Z, domain=sympy.ZZ).all_coeffs()))


def primitive(t):
    """t divided by its content, signed so that t(0) > 0."""
    c = math.gcd(*t)
    return [x // (c if t[0] > 0 else -c) for x in t]


nonzero = st.integers(-9, 9).filter(bool)


def polys(constant=nonzero):
    """Polynomials with shift 0 and nonzero ends, the constant
    coefficient drawn from ``constant``."""
    coeff = st.one_of(st.integers(-9, 9), st.sampled_from((2 ** 70, -2 ** 63)))
    return st.builds(lambda lo, mid, hi: LaurentPoly._dense(0, [lo, *mid, hi]),
                     constant, st.lists(coeff, max_size=4), nonzero)


unit = st.sampled_from((1, -1))
contents = st.sampled_from((1, 2, -3, 6, 2 ** 40))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(polys(), polys(), polys(), contents, contents)
def test_gcd_and_cancel_match_sympy(s, u, v, ca, cb):
    a, b = s * u * ca, s * v * cb
    A, B = to_sympy(a._t), to_sympy(b._t)
    g, x, y = _gcd_cofactors(a._t, b._t)
    G = primitive(ascending(sympy.gcd(A, B)))
    assert list(g) == G
    assert list(x) == ascending(A.exquo(to_sympy(G)))
    assert list(y) == ascending(B.exquo(to_sympy(G)))
    # _cancel keeps each side's content; sympy's cancel may move it
    _, n, d = sympy.cancel((A, B))
    p, q = _cancel(a, b)
    assert primitive(list(p._t)) == primitive(ascending(n))
    assert primitive(list(q._t)) == primitive(ascending(d))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(polys(unit), polys(), polys(unit), contents)
def test_rational_function_normal_form_matches_sympy(s, u, v, c):
    """The denominator s v has constant coefficient +-1, so the quotient
    lies in the rational subring; its normal form is sympy's reduced
    fraction with the common content removed and den(0) = 1."""
    r = RationalFunction(s * u * c, s * v)
    f, n, d = sympy.cancel((to_sympy((s * u * c)._t), to_sympy((s * v)._t)))
    f = sympy.Rational(f)
    n = [f.p * x for x in ascending(n)]
    d = [f.q * x for x in ascending(d)]
    k = math.gcd(*n, *d) * (1 if d[0] > 0 else -1)
    assert [x // k for x in d][0] == 1
    assert r.numerator == LaurentPoly._dense(0, [x // k for x in n])
    assert r.denominator == LaurentPoly._dense(0, [x // k for x in d])


def to_pair(n, d):
    """sympy polynomials (N, D) in z with N/D = n/d."""
    k = n._s - d._s if n else 0
    return (to_sympy(n._t) * Z ** max(k, 0) if n else sympy.Poly(0, Z),
            to_sympy(d._t) * Z ** max(-k, 0))


def reduced(N, D):
    """The RationalFunction of sympy's reduced fraction N/D."""
    f, n, d = sympy.cancel((N, D))
    f = sympy.Rational(f)
    n, d = ({i: int(f.p * x) for i, x in enumerate(ascending(n))},
            {i: int(f.q * x) for i, x in enumerate(ascending(d))})
    return RationalFunction(LaurentPoly(n), LaurentPoly(d))


@st.composite
def fractions(draw):
    """Two (numerator, denominator) pairs with denominators in S times a
    monomial; the first numerator and the second denominator share a
    factor, and so do the two denominators."""
    shared = draw(polys(unit))
    common = draw(polys(unit))
    nums = [draw(st.one_of(st.just(LaurentPoly()), polys()))
            .shifted(draw(st.integers(-2, 2))) for _ in range(2)]
    dens = [draw(polys(unit)).shifted(draw(st.integers(0, 2))) * common
            for _ in range(2)]
    return (nums[0] * shared, dens[0]), (nums[1], dens[1] * shared)


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(fractions())
def test_arithmetic_matches_sympy(pairs):
    """a + b, a * b and -a are the reduced fractions that sympy computes
    for the same sums and products of polynomials."""
    (n1, d1), (n2, d2) = pairs
    a, b = RationalFunction(n1, d1), RationalFunction(n2, d2)
    (N1, D1), (N2, D2) = to_pair(n1, d1), to_pair(n2, d2)
    assert a + b == reduced(N1 * D2 + N2 * D1, D1 * D2)
    assert a * b == reduced(N1 * N2, D1 * D2)
    assert -a == reduced(-N1, D1)
