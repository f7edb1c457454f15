"""
Exact arithmetic in Z[z,z^-1], its rational localization, and truncated
windows of Z((z)).

The Novikov ring Z((z)) = Z[[z]][z^-1] consists of formal series with
finitely many negative-exponent terms; its units are exactly the series
whose lowest coefficient is +-1.  This module never materializes a full
series.  It works with three exact stand-ins:

* ``LaurentPoly``       -- a shift plus a dense integer coefficient tuple,
  the one coefficient format of this module;
* ``RationalFunction``  -- quotients r(z)/s(z) with s(0) = 1, i.e. the
  subring S^-1 Z[z,z^-1] of Z((z)) (S = polynomials with constant
  coefficient 1, the polynomials invertible in Z[[z]] up to sign);
* ``TruncatedSeries``   -- a window of a Z((z)) element: a LaurentPoly of
  the coefficients below an explicit cutoff exponent, nothing more.
  Windows are values that compare; they have no arithmetic of their own.

Everything is immutable and pure; integer coefficients are arbitrary
precision.  Series windows are taken in Z((z)) only: a question "at
z = infinity" (the ring Z((z^-1))) is asked of ``reverse_variable(x)``,
whose answer is expressed in the reversed variable w = z^-1.
"""

from __future__ import annotations

import enum
import math
import sys
from array import array

#: Default number of retained exponents for series windows.
DEFAULT_PRECISION = 32


class NotAUnit(Exception):
    """Raised when inversion is requested for a Novikov non-unit."""


class NotInRationalSubring(Exception):
    """Raised when a quotient does not lie in S^-1 Z[z,z^-1].

    By Fatou's lemma a reduced fraction of integer polynomials has an
    integer power series expansion iff its denominator's trailing
    coefficient is +-1, so this is also the exact divisibility test for
    rational elements of Z((z)).  That test raises it routinely, so the
    message, whose denominator may be too long to print, is built lazily.
    """

    def __init__(self, denominator):
        super().__init__(denominator)
        self.denominator = denominator

    def __str__(self):
        try:
            shown = self.denominator.pretty()
        except ValueError:  # a coefficient past the int-to-str digit limit
            shown = f"of degree {self.denominator.deg()}"
        return f"denominator {shown} cannot be normalized into S"


class Direction(enum.Enum):
    """Which completion of Z[z,z^-1] a computation runs in.

    PLUS is Z((z)) (complete in z), MINUS is Z((z^-1)).
    """

    PLUS = "plus"
    MINUS = "minus"

    def __repr__(self):
        return f"Direction.{self.name}"


class Record:
    """Immutable value class, in place of a frozen dataclass (whose module
    imports ``inspect``): ``__init__`` sets ``_fields`` once by ``_set``;
    ==, hash and repr read them as a dataclass does, but for those named
    in ``_nocompare`` and ``_norepr``."""

    __slots__ = ()
    _fields = _nocompare = _norepr = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self):
        return tuple(getattr(self, n) for n in self._fields
                     if n not in self._nocompare)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields
                          if n not in self._norepr)
        return f"{type(self).__qualname__}({shown})"


class LaurentPoly:
    """An element of Z[z,z^-1] as a shift plus a dense coefficient tuple.

    ``_t[i]`` is the coefficient of z^(_s + i).  The tuple is empty for
    zero (with shift 0) and otherwise starts and ends with a nonzero
    entry, so each value has exactly one representation.  The
    constructor takes a map {exponent: coefficient} of ints.  Instances
    are immutable and hashable, and mix freely with ints in arithmetic.

    >>> p = LaurentPoly({0: 1, 1: -2})
    >>> p * LaurentPoly({-1: 1})
    LaurentPoly('z^-1 - 2')
    >>> p - p
    LaurentPoly('0')
    """

    __slots__ = ("_s", "_t")

    def __init__(self, coeffs=None):
        self._s, self._t = 0, ()
        if not coeffs:
            return
        for j, n in coeffs.items():
            if j.__class__ is not int or n.__class__ is not int:
                _check_int(j)
                _check_int(n)
        lo, hi = min(coeffs), max(coeffs)
        if lo == hi:  # the common single-term case, without a list
            if coeffs[lo]:
                self._s, self._t = lo, (coeffs[lo],)
            return
        t = [0] * (hi - lo + 1)
        for j, n in coeffs.items():
            t[j - lo] = n
        self._s, self._t = _trim(lo, t)

    @classmethod
    def _dense(cls, shift, coeffs):
        """sum coeffs[i] z^(shift + i) for a sequence of ints."""
        self = object.__new__(cls)
        self._s, self._t = _trim(shift, coeffs)
        return self

    @property
    def coeffs(self):
        return dict(self.items())

    def coeff(self, j):
        i = j - self._s
        return self._t[i] if 0 <= i < len(self._t) else 0

    def items(self):
        """Coefficients sorted by exponent."""
        return [(self._s + i, n) for i, n in enumerate(self._t) if n]

    @property
    def is_zero(self):
        return not self._t

    def ord(self):
        """Lowest exponent with nonzero coefficient."""
        if not self._t:
            raise ValueError("ord of the zero polynomial is undefined")
        return self._s

    def deg(self):
        """Highest exponent with nonzero coefficient."""
        if not self._t:
            raise ValueError("deg of the zero polynomial is undefined")
        return self._s + len(self._t) - 1

    def lowest_coeff(self):
        return self.coeff(self.ord())

    def highest_coeff(self):
        return self.coeff(self.deg())

    def shifted(self, k):
        """Multiply by z^k."""
        if k == 0 or not self._t:
            return self
        return LaurentPoly._dense(self._s + k, self._t)

    def content(self):
        """gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self._t)

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, int):
            return self._t == ((other,) if other else ()) and not self._s
        if isinstance(other, LaurentPoly):
            return self._s == other._s and self._t == other._t
        return NotImplemented

    def __hash__(self):
        # constants hash like the ints they equal
        if not self._t:
            return hash(0)
        if self._s == 0 and len(self._t) == 1:
            return hash(self._t[0])
        return hash((self._s, self._t))

    def __neg__(self):
        return LaurentPoly._dense(self._s, [-n for n in self._t])

    def __add__(self, other):
        if other.__class__ is int and not other:
            return self
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if not b._t:
            return a
        if not a._t:
            return b
        if a._s > b._s:
            a, b = b, a
        out = list(a._t)
        off = b._s - a._s
        out.extend([0] * (off + len(b._t) - len(out)))
        for i, n in enumerate(b._t, off):
            out[i] += n
        return LaurentPoly._dense(a._s, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is int:  # never a bool, which _coerce_poly refuses
            if not other or not self._t:
                return ZERO
            if other == 1:
                return self
            return LaurentPoly._dense(self._s, [n * other for n in self._t])
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._t, other._t
        if not a or not b:
            return ZERO
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:  # a monomial c z^j: shift, and scale unless c = 1
            c = b[0]
            return LaurentPoly._dense(self._s + other._s,
                                      a if c == 1 else [x * c for x in a])
        out = [0] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                for i, x in enumerate(a, j):
                    out[i] += x * y
        return LaurentPoly._dense(self._s + other._s, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if len(self._t) == 1 and abs(self._t[0]) == 1:
                return LaurentPoly._dense(-self._s, self._t) ** (-n)
            raise ValueError("negative powers only for monomials with coefficient +-1")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def pretty(self):
        """Human-readable form, ascending exponents: '1 - 2*z'."""
        if not self._t:
            return "0"
        parts = []
        for j, n in self.items():
            sign = "-" if n < 0 else "+"
            a = abs(n)
            if j == 0:
                body = str(a)
            else:
                power = "z" if j == 1 else f"z^{j}"
                body = power if a == 1 else f"{a}*{power}"
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly('{self.pretty()}')"

    def to_json(self):
        return {str(j): n for j, n in enumerate(self._t, self._s) if n}


def _trim(shift, coeffs):
    """(shift, tuple) of the LaurentPoly sum coeffs[i] z^(shift + i):
    zero ends dropped, (0, ()) for zero."""
    lo, hi = 0, len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    while lo < hi and not coeffs[lo]:
        lo += 1
    return (shift + lo, tuple(coeffs[lo:hi])) if lo < hi else (0, ())


def _check_int(n):
    """The integer rule of the constructors: an int, never a bool."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"expected an integer, got {n!r}")


def _coerce_poly(x):
    """x as a LaurentPoly: an int becomes a constant, without the dict
    constructor; a bool raises TypeError; anything else gives
    NotImplemented."""
    if isinstance(x, LaurentPoly):
        return x
    if not isinstance(x, int):
        return NotImplemented
    if x.__class__ is not int:
        _check_int(x)
    return LaurentPoly._dense(0, (x,))


def _poly_arg(x):
    """_coerce_poly for a function argument: TypeError naming the type
    where the arithmetic would return NotImplemented."""
    p = _coerce_poly(x)
    if p is NotImplemented:
        raise TypeError(
            f"expected an integer or LaurentPoly, got {type(x).__name__}")
    return p


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Z = LaurentPoly({1: 1})


def reverse_variable(p):
    """Substitute z -> z^-1 (exponent j -> -j).  Involutive.

    Reduces every Z((z^-1)) question to a Z((z)) one.  Works on
    LaurentPoly and RationalFunction.
    """
    if isinstance(p, RationalFunction):
        return RationalFunction(reverse_variable(p.numerator),
                                reverse_variable(p.denominator))
    p = _poly_arg(p)
    return LaurentPoly._dense(1 - p._s - len(p._t), p._t[::-1])


def is_novikov_unit(p, direction=Direction.PLUS) -> bool:
    """Is p a unit of Z((z)) (PLUS) resp. Z((z^-1)) (MINUS)?

    A nonzero Laurent polynomial is a unit of the completion iff its
    extreme coefficient on the completion side (lowest exponent for
    PLUS, highest for MINUS) is +-1.

    >>> is_novikov_unit(LaurentPoly({0: 1, 1: -1}))        # 1 - z
    True
    >>> is_novikov_unit(LaurentPoly({0: -2, 1: 1}))        # z - 2
    False
    >>> is_novikov_unit(LaurentPoly({0: -2, 1: 1}), Direction.MINUS)
    True
    """
    p = _poly_arg(p)
    if p.is_zero:
        return False
    c = p.lowest_coeff() if direction is Direction.PLUS else p.highest_coeff()
    return c in (1, -1)


# ---------------------------------------------------------------------------
# Kronecker packing: a coefficient sequence t as the integer t(X) at
# X = 2^(8w), one w-byte slot per coefficient.  Shared with linalg.

#: signed array typecodes by item size in bytes
_SIGNED = {array(t).itemsize: t for t in "bhilq"}


def _bias(n, w):
    """sum_{i<n} X^i X/2 at X = 2^(8w): n slots holding half a slot each."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _from_slots(t, w):
    """sum_i (t[i] mod X) X^i at X = 2^(8w), for -X/2 <= t[i] < X/2:
    the w-byte two's complement slots of the t[i], lowest first."""
    if w in _SIGNED:  # array holds native-order items
        if sys.byteorder == "big":
            t = t[::-1]
        return int.from_bytes(array(_SIGNED[w], t).tobytes(), sys.byteorder)
    return int.from_bytes(
        b"".join(c.to_bytes(w, "little", signed=True) for c in t), "little")


def _to_slots(u, n, w):
    """The inverse of _from_slots: the n signed slots of 0 <= u < X^n."""
    if w in _SIGNED:
        t = array(_SIGNED[w], u.to_bytes(n * w, sys.byteorder))
        return t[::-1] if sys.byteorder == "big" else t
    b = u.to_bytes(n * w, "little")
    return [int.from_bytes(b[i:i + w], "little", signed=True)
            for i in range(0, n * w, w)]


def _slot_width(bound):
    """The least w = 1, 2, 4, 8, ... bytes with bound < X/2 = 2^(8w-1)."""
    w = 1
    while 8 * w <= bound.bit_length():
        w *= 2
    return w


def _kron(t, w):
    """The integer t(X) = sum_i t[i] X^i at X = 2^(8w), for a nonempty
    sequence t with -X/2 <= t[i] < X/2."""
    if len(t) == 1:
        return t[0]
    # flipping each slot's top bit adds X/2 to it, with no carry
    b = _bias(len(t), w)
    return (_from_slots(t, w) ^ b) - b


def _digits(v, w):
    """The inverse of _kron: the balanced base-X digits of the integer v,
    lowest first, each -X/2 <= digit < X/2 (zero digits on top may
    follow)."""
    half = 1 << 8 * w - 1
    if -half < v < half:
        return (v,)
    # |v| < X^n / 2 <= bias, but n digits reach only X^n - 1 - bias above:
    # a v past that carries a top digit 1 into one more slot
    n = abs(v).bit_length() // (8 * w) + 1
    b = _bias(n, w)
    if (v + b) >> 8 * w * n:
        n += 1
        b = _bias(n, w)
    return _to_slots((v + b) ^ b, n, w)


# ---------------------------------------------------------------------------
# gcd on ascending coefficient sequences (LaurentPoly._t): both operands
# evaluated at one X = 2^(8w) and one integer gcd (GCDHEU).


def _gcd_cofactors(a, b):
    """(g, a/g, b/g) for g the primitive gcd over Q of two coefficient
    sequences with nonzero ends, signed so that g(0) > 0; g is [1] when
    they are coprime, and then a and b come back as they are.

    The heuristic gcd of Char, Geddes and Gonnet (GCDHEU) on packed
    integers.  Let p, q be the primitive parts and X = 2^(8w) with
    max(|p|inf, |q|inf) < X/2, so X >= 2 min(|p|inf, |q|inf) + 2, the
    bound of their theorem.  Every root of p has modulus below
    1 + |p|inf <= X/2 (Cauchy), so a nonconstant divisor of p takes a
    value above X/2 in modulus at X.  g(X) divides h = gcd(p(X), q(X)):

    * h < X/2 shows that g = 1;
    * otherwise let G be the balanced base-X digits of h.  If pp(G)
      divides p and q, the same root bound shows pp(G) = g.  Each
      cofactor is read off p(X) // pp(G)(X) (then times the content)
      and certified by one packed product pp(G) * (p/pp(G)) = p, at a
      slot width above the coefficients of both sides.

    A failed check doubles w, which also widens the cofactors' slots
    (their coefficients can exceed the inputs').  The loop ends: write
    p = g pbar and q = g qbar.  A Bezout identity s pbar + t qbar = r
    over Z[x], with r = Res(pbar, qbar) a nonzero integer, shows that
    k = gcd(pbar(X), qbar(X)) divides r, and h = k |g(X)|.  Once
    X > 2 |r| |g|inf and X > 2 max(|pbar|inf, |qbar|inf), the balanced
    digits of h are exactly +-k g, so pp(G) = g, the quotients are
    pbar(X) and qbar(X) with digits pbar and qbar, and both checks
    pass.  Each doubling squares X, so the number of widths grows only
    like the log log of that bound.
    """
    ca, cb = math.gcd(*a), math.gcd(*b)
    p = a if ca == 1 else [x // ca for x in a]
    q = b if cb == 1 else [x // cb for x in b]
    w = _slot_width(max(max(p), -min(p), max(q), -min(q)))
    while True:
        P, Q = _kron(p, w), _kron(q, w)
        h = math.gcd(P, Q)
        if h < 1 << 8 * w - 1:
            return [1], a, b
        G = _digits(h, w)  # h > 0 has no zero digit on top
        c = math.gcd(*G) if G[0] > 0 else -math.gcd(*G)
        g = [x // c for x in G]
        gx, g1 = _kron(g, w), sum(map(abs, g))
        out = [g]
        for f, F, cf in ((p, P, ca), (q, Q, cb)):
            d = _digits(F // gx, w)
            # |g d|inf <= |g|_1 |d|inf, and |f|inf < X/2 at every v >= w
            v = max(w, _slot_width(g1 * max(max(d), -min(d))))
            if _kron(g, v) * _kron(d, v) != _kron(f, v):
                break
            out.append(d if cf == 1 else [cf * x for x in d])
        else:
            return out
        w *= 2


class RationalFunction:
    """An element of S^-1 Z[z,z^-1]: numerator/denominator with s(0) = 1.

    Canonical form (unique for each value):

    * denominator in S: exponents >= 0 and constant coefficient exactly 1;
    * numerator and denominator share no nonconstant polynomial factor
      over Q, and no common integer content;
    * the numerator keeps its own integer content (it is not cancelled
      against the denominator, whose content is always 1).

    The constructor accepts any pair whose quotient lies in the subring,
    factoring monomials out of the denominator into the numerator's
    support and fixing signs; it raises ``NotInRationalSubring``
    otherwise.  Because of Fatou's lemma this makes
    ``RationalFunction(a, b)`` a decision procedure for divisibility of
    rational elements inside Z((z)).

    The gcd that cancels the common factor is ``_gcd_cofactors``: one
    integer gcd of both parts evaluated at X = 2^(8w), with the two
    quotients certified by packed products.

    Results that are canonical by construction skip the gcd and are
    wrapped as they are:

    * a product, once each numerator is cross-cancelled against the
      other factor's denominator: the numerators are coprime to both
      remaining denominators, so by Gauss's lemma the product numerator
      is coprime to the product denominator, which is again in S;
    * a negation, a polynomial (denominator 1), and a sum or product
      with a zero operand (the other operand, resp. zero).
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=ONE):
        num, den = _canonical(_poly_arg(numerator), _poly_arg(denominator))
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def _wrap(cls, num, den):
        """An instance from a pair already in canonical form, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)
        return self

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @property
    def is_zero(self):
        return self.numerator.is_zero

    def __bool__(self):
        return not self.numerator.is_zero

    @property
    def is_polynomial(self):
        return self.denominator == ONE

    def series_ord(self):
        """Order of the Z((z)) expansion (= ord of the numerator)."""
        return self.numerator.ord()

    def extreme_coeff(self):
        """Lowest series coefficient; +-1 exactly for subring units."""
        return self.numerator.lowest_coeff()

    def is_unit(self):
        """Unit of S^-1 Z[z,z^-1] (equivalently of Z((z)))."""
        return bool(self) and self.extreme_coeff() in (1, -1)

    def __eq__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        # polynomial values hash like the LaurentPoly they equal
        if self.is_polynomial:
            return hash(self.numerator)
        return hash((self.numerator, self.denominator))

    def __neg__(self):
        return RationalFunction._wrap(-self.numerator, self.denominator)

    def __add__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        d1, d2 = self.denominator, other.denominator
        # work over lcm(d1, d2) rather than the raw product
        e1, e2 = _cancel(d1, d2)
        return RationalFunction(self.numerator * e2 + other.numerator * e1,
                                d1 * e2)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if not self or not other:
            return RationalFunction._wrap(ZERO, ONE)
        # cross-cancel first: the product of the reduced pairs is
        # already in lowest terms (see the class docstring)
        n1, d2 = _cancel(self.numerator, other.denominator)
        n2, d1 = _cancel(other.numerator, self.denominator)
        return RationalFunction._wrap(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def pretty(self):
        if self.is_polynomial:
            return self.numerator.pretty()
        return f"({self.numerator.pretty()})/({self.denominator.pretty()})"

    def __repr__(self):
        return f"RationalFunction('{self.pretty()}')"

    def to_json(self):
        if self.is_polynomial:
            return self.numerator.to_json()
        return {"num": self.numerator.to_json(), "den": self.denominator.to_json()}


def _coerce_rational(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, LaurentPoly)):
        return RationalFunction._wrap(_coerce_poly(x), ONE)
    return NotImplemented


def _cancel(a: LaurentPoly, b: LaurentPoly):
    """(a/g, b/g) for g the primitive gcd over Q of the polynomial parts,
    signed so that g(0) > 0, from ``_gcd_cofactors``.  Any divisor g of
    an element of S then has g(0) = 1, so a denominator stays in S.
    Common integer content is left to the constructor that follows."""
    if a == b and a:
        return ONE, ONE
    if len(a._t) <= 1 or len(b._t) <= 1:  # zero or a monomial
        return a, b
    g, x, y = _gcd_cofactors(a._t, b._t)
    if len(g) == 1:
        return a, b
    return LaurentPoly._dense(a._s, x), LaurentPoly._dense(b._s, y)


def _canonical(num: LaurentPoly, den: LaurentPoly):
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return ZERO, ONE
    # move the denominator's monomial part into the numerator's support
    k = den.ord()
    den = den.shifted(-k)
    num = num.shifted(-k)
    if den == ONE:
        return num, ONE
    # common integer content
    g = math.gcd(num.content(), den.content())
    if g > 1:
        num = LaurentPoly._dense(num._s, [n // g for n in num._t])
        den = LaurentPoly._dense(den._s, [n // g for n in den._t])
    num, den = _cancel(num, den)
    c0 = den.coeff(0)
    if c0 == -1:
        num, den = -num, -den
    elif c0 != 1:
        raise NotInRationalSubring(den)
    return num, den


class TruncatedSeries:
    """A window of a Z((z)) element: exact coefficients below a cutoff.

    Held as the Laurent polynomial of the known terms plus ``cutoff``:
    every exponent below the cutoff is known exactly, and nothing is
    asserted at or above it.  ``coeffs[i]`` is the coefficient of
    z^(lowest+i) for the exponents from ``lowest`` up to the cutoff;
    ``lowest`` is the first exponent with a nonzero coefficient, and a
    window that is known to vanish below the cutoff has no coefficients
    and ``lowest`` equal to the cutoff itself.

    ``precision`` counts the retained exponents beyond the lowest.
    Windows are values: they compare and print.  Arithmetic happens on
    the exact Laurent polynomials before ``of_poly`` cuts the window.
    """

    __slots__ = ("_p", "cutoff")

    def __init__(self, lowest, coeffs):
        coeffs = tuple(coeffs)
        for c in coeffs:
            _check_int(c)
        object.__setattr__(self, "_p", LaurentPoly._dense(lowest, coeffs))
        object.__setattr__(self, "cutoff", lowest + len(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def of_poly(cls, p, upto):
        """The window of a Laurent polynomial through exponent `upto`."""
        self = object.__new__(cls)
        object.__setattr__(self, "_p", truncate_poly(p, upto))
        object.__setattr__(self, "cutoff", upto + 1)
        return self

    @property
    def lowest(self):
        return self._p._s if self._p else self.cutoff

    @property
    def coeffs(self):
        p = self._p
        return p._t + (0,) * (self.cutoff - p._s - len(p._t)) if p else ()

    @property
    def precision(self):
        return self.cutoff - self.lowest - 1

    def coeff(self, j):
        if j >= self.cutoff:
            raise ValueError(f"coefficient of z^{j} is beyond the window")
        return self._p.coeff(j)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.cutoff == other.cutoff and self._p == other._p
        return NotImplemented

    def __hash__(self):
        return hash((self._p, self.cutoff))

    def pretty(self):
        return f"{self._p.pretty()} + O(z^{self.cutoff})"

    def __repr__(self):
        return f"TruncatedSeries('{self.pretty()}')"


def invert_as_series(p, precision=DEFAULT_PRECISION):
    """Invert a Z((z))-unit as a series window.

    Returns q with p*q == 1 through the first precision+1 exponents.  The
    mechanism is the geometric series: a unit +-z^k(1 - w) with
    ord(w) >= 1 has inverse +-z^-k(1 + w + w^2 + ...).

    >>> invert_as_series(LaurentPoly({0: 1, 1: -1}), precision=3)
    TruncatedSeries('1 + z + z^2 + z^3 + O(z^4)')
    """
    p = _poly_arg(p)
    if precision < 0:
        raise ValueError("precision must be >= 0")
    if not is_novikov_unit(p):
        raise NotAUnit(f"{p!r} is not a unit on the plus side")
    k = p.ord()
    sign = p.lowest_coeff()
    # p = sign * z^k * (1 + t) with ord(t) >= 1
    t = {j - k: sign * n for j, n in p.items() if j != k}
    out = [0] * (precision + 1)
    out[0] = 1
    for n in range(1, precision + 1):
        s = 0
        for j, c in t.items():
            if 1 <= j <= n:
                s += c * out[n - j]
        out[n] = -s
    return TruncatedSeries(-k, [sign * c for c in out])


def expand(r, precision=DEFAULT_PRECISION):
    """Series window of a rational element in Z((z)).

    The window covers every exponent up to ``precision`` inclusive
    (below that cutoff the expansion of an element of S^-1 Z[z,z^-1] is
    determined exactly), so the result is exact whenever r is a
    polynomial whose top exponent is at most ``precision``.

    >>> expand(RationalFunction(Z, ONE - Z), precision=3)
    TruncatedSeries('z + z^2 + z^3 + O(z^4)')
    """
    if not isinstance(r, RationalFunction):
        r = RationalFunction(r)
    if r.is_zero or r.series_ord() > precision:
        return TruncatedSeries(precision + 1, ())
    num = r.numerator
    # the inverse of the denominator through z^(precision - ord num)
    # fixes the product through z^precision
    inv = invert_as_series(r.denominator, precision - num.ord())
    return TruncatedSeries.of_poly(inv._p * num, precision)


def truncate_poly(p, upto) -> LaurentPoly:
    """Drop every term of exponent > upto."""
    p = _poly_arg(p)
    return LaurentPoly._dense(p._s, p._t[:max(0, upto + 1 - p._s)])
