"""The gcd of the canonical form against the gcd route it replaced.

``reference`` is the primitive gcd over Q by a modular filter and the
primitive pseudo-remainder sequence, with both cofactors from exact long
division (``divexact``); it shares no packing and no integer gcd with
``nk.rings._gcd_cofactors``.
"""

import math

import pytest

from nk import rings
from nk.rings import ONE, LaurentPoly, _cancel, _gcd_cofactors

from domains import divexact

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

BOUNDARIES = (127, -127, 128, -128, 2 ** 15, -2 ** 15, 2 ** 31, -2 ** 31,
              2 ** 63, -2 ** 63, 2 ** 70)


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a):
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [x // g for x in a]


def _coprime_mod_p(a, b):
    """True when the gcd over Q is provably 1: the gcd of the reductions
    mod p has degree 0 for some p not dividing both leading
    coefficients."""
    for p in (9973, 31337, 65537, 999983):
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        am = [x % p for x in a]
        bm = [x % p for x in b]
        while bm:
            inv = pow(bm[-1], -1, p)
            for k in range(len(am) - len(bm), -1, -1):
                c = am[k + len(bm) - 1] * inv % p
                if c:
                    for j, y in enumerate(bm):
                        am[k + j] = (am[k + j] - c * y) % p
            _trim(am)
            am, bm = bm, am
        return len(am) == 1
    return False


def _dense_gcd(a, b):
    """Primitive gcd over Q of two nonzero coefficient lists, positive
    leading coefficient."""
    a = _primitive(list(a))
    b = _primitive(list(b))
    if len(a) == 1 or len(b) == 1 or _coprime_mod_p(a, b):
        return [1]
    while b:
        r = [x * b[-1] ** max(0, len(a) - len(b) + 1) for x in a]
        for k in range(len(a) - len(b), -1, -1):
            c = r[k + len(b) - 1] // b[-1]
            if c:
                for j, y in enumerate(b):
                    r[k + j] -= c * y
        _trim(r)
        a, b = b, (_primitive(r) if r else [])
    return _primitive(a)


def reference(a, b):
    """(g, a/g, b/g) as LaurentPoly for nonzero a and b: g the primitive
    gcd over Q of the polynomial parts, signed so that g(0) > 0."""
    g = LaurentPoly._dense(0, _dense_gcd(a._t, b._t))
    if g._t[0] < 0:
        g = -g
    return g, divexact(a, g), divexact(b, g)


def cofactors(a, b):
    """_gcd_cofactors on LaurentPoly operands, as LaurentPoly."""
    g, x, y = _gcd_cofactors(a._t, b._t)
    return (LaurentPoly._dense(0, g), LaurentPoly._dense(a._s, x),
            LaurentPoly._dense(b._s, y))


def poly(*coeffs, shift=0):
    return LaurentPoly._dense(shift, list(coeffs))


def check(a, b):
    expected = reference(a, b)
    assert cofactors(a, b) == expected
    assert cofactors(b, a) == (expected[0], expected[2], expected[1])
    if a != b:
        assert _cancel(a, b) == expected[1:]
    return expected


@st.composite
def polys(draw, max_degree):
    """A polynomial with nonzero ends whose coefficients are small or at a
    slot boundary."""
    coeff = st.one_of(st.integers(-9, 9), st.sampled_from(BOUNDARIES),
                      st.integers(-2 ** 70, 2 ** 70))
    nonzero = coeff.filter(bool)
    degree = draw(st.integers(0, max_degree))
    t = [draw(nonzero)]
    if degree:
        t += [draw(coeff) for _ in range(degree - 1)] + [draw(nonzero)]
    return LaurentPoly._dense(draw(st.integers(-3, 3)), t)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(polys(4), polys(5), polys(5),
                  st.sampled_from((1, 1, 2, -1, -6, 2 ** 40)),
                  st.sampled_from((1, 1, 3, -1, -4, 2 ** 64 + 1)))
def test_matches_the_reference(s, u, v, ca, cb):
    check(s * u * ca, s * v * cb)


@pytest.mark.parametrize("c", BOUNDARIES)
def test_slot_boundaries(c):
    s = poly(1, 1)
    g, _, _ = check(poly(c, c, 1, 1), poly(c, c - 1, -1))  # (1 + z) times
    assert g == s
    check(poly(c, 1), poly(c, -1))
    check(poly(c, 1) * c, poly(1, c) * (c - 1))
    check(poly(c, 0, -c, 1) * poly(3, -1), poly(c, 1) * poly(3, -1) ** 2)


def test_non_primitive_and_negative_ends():
    s = poly(-3, 2, 5)  # negative constant coefficient
    g, x, y = check(s * poly(6, -4) * 5, s * poly(-9, 0, -3) * -7)
    assert g == -s and x == poly(-30, 20) and y == poly(-63, 0, -21)
    check(poly(-4, 0, -6), poly(-6, -9))  # 2(-2 - 3z^2), 3(-2 - 3z)
    check(poly(-6, 0, -2), poly(-2, 0, -6))


def test_a_quotient_just_below_a_digit_boundary():
    # a cofactor quotient near 0x7fffff at X = 2^8 needs a fourth digit
    s = poly(2 ** 63, -2 ** 63)
    check(s, s * poly(1, 128, 127))


@pytest.mark.parametrize("w", (1, 2, 3, 8))
def test_digits_reach_the_top_of_each_range(w):
    X = 1 << 8 * w
    for n in range(1, 4):
        for v in (X ** n // 2 - 1, X ** n - 1, -X ** n + 1, X ** n // 2):
            d = rings._digits(v, w)
            assert all(-X // 2 <= x < X // 2 for x in d)
            assert sum(x * X ** i for i, x in enumerate(d)) == v
            assert v < 0 or d[-1]


@pytest.mark.parametrize("degree", range(5))
def test_shared_factors(degree):
    s = poly(*[(-2) ** k + k for k in range(degree + 1)])
    u, v = poly(2, -1, 3), poly(-5, 0, 1, 1)
    g, x, y = check(s * u * 4, s * v * -6)
    assert g * x == s * u * 4 and g * y == s * v * -6
    assert len(g._t) == degree + 1 and g._t[0] > 0


def test_sign_follows_the_constant_coefficient():
    s = poly(-1, 2)  # -1 + 2z, primitive with positive leading coefficient
    g, x, y = check(s * poly(1, 1), s * poly(3, -1))
    assert g == poly(1, -2)
    assert x == poly(-1, -1) and y == poly(-3, 1)


def test_equal_and_constant_operands():
    a = poly(-4, 6, 2, shift=-2)
    g, x, y = check(a, a)
    assert g == poly(2, -3, -1) and x == y == LaurentPoly({-2: -2})
    assert _cancel(a, a) == (ONE, ONE)
    for c in (1, -1, 6, 2 ** 70):
        assert _gcd_cofactors((c,), a._t) == ([1], (c,), a._t)
        assert _gcd_cofactors(a._t, (c,)) == ([1], a._t, (c,))
        check(LaurentPoly({3: c}), a)


def test_sparse_operands_with_long_spans():
    s = poly(2, -1, 1)
    long_a = LaurentPoly({0: 1, 2997: -2})
    long_b = LaurentPoly({0: 3, 1: 5, 2994: 1})
    g, x, y = check(s * long_a, s * poly(1, 2, -1))
    assert g == s and x == long_a
    check(long_a, poly(1, 1))
    check(LaurentPoly({0: 1, 2999: -1}), poly(-1, 0, 1))  # shares 1 - z
    # both operands long: the gcd is known by construction, since the
    # roots of 1 - 2z^2997 lie inside the unit circle and those of
    # 3 + 5z + z^2994 outside it
    assert cofactors(s * long_a * 3, s * long_b) == (s, long_a * 3, long_b)


def test_a_false_candidate_is_refused():
    """At X = 2^8, gcd(p(X), q(X)) = 156 = 256 - 100, whose digits read
    as z - 100: it divides p = z - 100 but not q = z + 56, and the
    packed product check refuses it."""
    p, q = poly(-100, 1), poly(56, 1)
    assert math.gcd(rings._kron(p._t, 1), rings._kron(q._t, 1)) == 156
    assert cofactors(p, q) == (ONE, p, q)


DIGITS = rings._digits


class WidthSpy:
    """Stands in for ``rings._digits`` and records the slot widths that
    one ``_gcd_cofactors`` call reads at.  It fails the test once the
    call tries more than ``limit`` widths, so a route that never passes
    its product check fails rather than loops, and it corrupts every
    read at the first ``corrupt`` widths with an extra top digit."""

    def __init__(self, limit, corrupt=0):
        self.limit, self.corrupt, self.widths = limit, corrupt, []

    def __call__(self, v, w):
        if w not in self.widths:
            self.widths.append(w)
            assert len(self.widths) <= self.limit, \
                f"no answer within {self.limit} widths: {self.widths}"
        digits = DIGITS(v, w)
        if len(self.widths) <= self.corrupt:
            return [*digits, 1]
        return digits

    def cofactors(self, a, b):
        self.widths.clear()
        return cofactors(a, b)


def test_cofactors_wider_than_the_inputs(monkeypatch):
    """(1 - z^200)^2 / (1 - z)^2 has the coefficient 200, past the 1-byte
    slots that the inputs' coefficients pick, so the first width fails
    its check and the next one, with wider slots for the cofactors,
    answers: two widths, in both orders."""
    p = LaurentPoly({0: 1, 200: -1}) ** 2
    q = poly(1, -1) ** 2 * poly(2, 1)
    expected = reference(p, q)
    assert max(expected[1]._t) == 200
    spy = WidthSpy(limit=2)
    monkeypatch.setattr(rings, "_digits", spy)
    assert spy.cofactors(p, q) == expected
    assert spy.widths == [1, 2]
    assert spy.cofactors(q, p) == (expected[0], expected[2], expected[1])
    assert spy.widths == [1, 2]


def test_the_fallback_gives_the_same_answer(monkeypatch):
    """The wider widths are the only fallback: with every base-X read of
    the first three widths corrupted by an extra top digit, no packed
    check holds there, and the fourth width gives the reference
    answer."""
    s = poly(-1, 2, 3)
    pairs = [(s * poly(1, 1) * 6, s * poly(3, -1)),
             (s * poly(2 ** 70, 1), s * s),
             (poly(1, -1) ** 3, poly(1, 0, -1))]
    expected = [reference(a, b) for a, b in pairs]
    spy = WidthSpy(limit=4, corrupt=3)
    monkeypatch.setattr(rings, "_digits", spy)
    for (a, b), want in zip(pairs, expected):
        assert spy.cofactors(a, b) == want
        w = spy.widths[0]
        assert spy.widths == [w, 2 * w, 4 * w, 8 * w]
