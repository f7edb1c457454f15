"""
Seeded random corpora shared by the property and acceptance tests.

The fundamental-domain generator follows the only construction routes
that guarantee validity exactly:

* cone family: F = 0 and any chain self-map h_D (the identities
  collapse to "h_D commutes with d_D");
* zero family: zero differentials everywhere, h_D free, and c, h_F in
  complementary block columns/rows so that c h_F = 0;
* knot family: the Seifert-surface block shapes with h_D = 0;
* scalar family: D = Z in degree 0, F = Z in degrees 1 and 0 -- every
  choice of the four scalars satisfies the identities vacuously.

Complexes are direct sums of rank-r zero-differential pieces and
two-term elementary pieces, so d o d = 0 holds by construction; chain
self-maps are blockwise per summand (arbitrary on zero-differential
summands, scalar on elementary ones).
"""

from __future__ import annotations

import itertools
import random

from nk.rings import (Direction, LaurentPoly, RationalFunction,
                      is_novikov_unit, reverse_variable)
from nk.linalg import Matrix, _laurent_rows, matmul, solve_laurent
from nk.complexes import BasedChainComplex, ChainMap, direct_sum
from nk.fundomain import AlgebraicFundamentalDomain
from nk.models import SeifertData, knot_fundamental_domain


def rng_for(name):
    return random.Random(f"nk-corpus-{name}")


def random_laurent(rng, span=3, max_coeff=4, min_exp=-2):
    return LaurentPoly({min_exp + j: rng.randint(-max_coeff, max_coeff)
                        for j in range(span + 1)})


def random_denominator(rng, span=2, max_coeff=2):
    c = {0: 1}
    for j in range(1, span + 1):
        c[j] = rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(c)


def random_rational(rng):
    num = random_laurent(rng)
    return RationalFunction(num, random_denominator(rng))


def det_oracle(m):
    """Permutation-expansion determinant of a square Laurent-entry
    matrix, independent of the elimination kernel."""
    n = m.rows
    total = LaurentPoly()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = LaurentPoly({0: sign})
        for i in range(n):
            e = m.entries[i][perm[i]]
            term = term * (e if isinstance(e, LaurentPoly)
                           else LaurentPoly({0: e}))
        total = total + term
    return total


def assert_diagonalizes(m, res, direction=None):
    """Re-multiply a diagonalization of m instead of trusting it.

    direction None: res is a Smith normal form over Z,
    U m V == diag(invariant factors), and U and V have determinant +-1.
    Otherwise res is a Z((z)) (resp. Z((z^-1))) diagonalization:
    U m' V, with m' the entries of m as RationalFunction
    (variable-reversed for MINUS), is diagonal with exactly ``rank``
    nonzero entries, leading, and U and V are invertible over the
    Novikov ring.  Clearing the rows of a transform by the lcms of their
    denominators multiplies its determinant by those lcms, which are
    Novikov units, so the transform is invertible iff the determinant of
    the cleared Laurent matrix is a Novikov unit.
    """
    assert (res.U.rows, res.U.cols) == (m.rows, m.rows)
    assert (res.V.rows, res.V.cols) == (m.cols, m.cols)
    if direction is None:
        diag = Matrix(m.rows, m.cols,
                      [[res.invariant_factors[i] if i == j and i < res.rank
                        else 0 for j in range(m.cols)] for i in range(m.rows)])
        assert matmul(matmul(res.U, m), res.V) == diag
    else:
        flip = (reverse_variable if direction is Direction.MINUS
                else (lambda e: e))
        m2 = m.map_entries(lambda e: flip(e) if isinstance(e, RationalFunction)
                           else RationalFunction(flip(e)))
        prod = matmul(matmul(res.U, m2), res.V).entries
        assert all(not prod[i][j] for i in range(m.rows)
                   for j in range(m.cols) if i != j)
        assert [bool(prod[i][i]) for i in range(min(m.rows, m.cols))] == \
            [i < res.rank for i in range(min(m.rows, m.cols))]
    for t in (res.U, res.V):
        det, _ = solve_laurent(Matrix(t.rows, t.cols,
                                      _laurent_rows(t.entries)[0]),
                               Matrix.zeros(t.rows, 0))
        assert det in (1, -1) if direction is None else is_novikov_unit(det)


def _dense_divexact(a, b):
    """a // b when b | a over Q and the quotient is integral; else None.

    Integer long division from the top: an integral quotient makes every
    step exact, so the first inexact step or a nonzero remainder
    answers None.
    """
    r = list(a)
    lb, lead = len(b), b[-1]
    q = [0] * max(0, len(a) - lb + 1)
    for k in range(len(a) - lb, -1, -1):
        c, rem = divmod(r[k + lb - 1], lead)
        if rem:
            return None
        q[k] = c
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    if any(r[:lb - 1]):
        return None
    return q


def divexact(a, b):
    """Exact division in Z[z,z^-1], by integer long division: the
    reference division of the gcd, Bareiss and Laurent tests.  Raises
    ValueError when b does not divide a."""
    a, b = (LaurentPoly({0: x}) if isinstance(x, int) else x for x in (a, b))
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return LaurentPoly()
    q = _dense_divexact(*([p.coeff(j) for j in range(p.ord(), p.deg() + 1)]
                          for p in (a, b)))
    if q is None:
        raise ValueError("not divisible in Z[z,z^-1]")
    return LaurentPoly({a.ord() - b.ord() + i: c for i, c in enumerate(q)})


def is_zero_window(w):
    """Is the TruncatedSeries w known to vanish below its cutoff?"""
    return not w.coeffs


# --- document writers: the inverse of the ``nk.cli`` reader ----------------

def matrix_to_json(m):
    """Array-of-rows form; int entries stay bare, polynomials become
    coefficient maps keyed by decimal exponent strings."""
    return [[e if isinstance(e, int) else e.to_json() for e in row]
            for row in m.entries]


def complex_to_json(c):
    return {"lo": c.lo, "hi": c.hi, "ranks": list(c.ranks),
            "differentials": {str(i): matrix_to_json(d)
                              for i, d in sorted(c.differentials.items())}}


def domain_to_json(fd):
    def blocks(b):
        return {str(i): matrix_to_json(m) for i, m in sorted(b.items())}
    return {"D": complex_to_json(fd.D), "F": complex_to_json(fd.F),
            "c": blocks(fd.c), "hD": blocks(fd.h_D), "hF": blocks(fd.h_F)}


def seifert_to_json(s):
    return {"base": complex_to_json(s.base),
            "e": {str(i): matrix_to_json(s.e.component(i))
                  for i in s.base.degrees()}}


def random_int_matrix(rng, rows, cols, max_coeff=2):
    return Matrix(rows, cols, [[rng.randint(-max_coeff, max_coeff)
                                for _ in range(cols)] for _ in range(rows)])


def random_laurent_matrix(rng, rows, cols):
    return Matrix(rows, cols, [[random_laurent(rng, span=2, max_coeff=2)
                                for _ in range(cols)] for _ in range(rows)])


def _summands(rng, max_summands=3):
    out = []
    for _ in range(rng.randint(1, max_summands)):
        if rng.random() < 0.5:
            out.append(("free", rng.randint(0, 2), rng.randint(1, 2)))
        else:
            out.append(("elem", rng.randint(1, 3), rng.randint(-3, 3)))
    return out


def _summand_complex(kind, i, x):
    if kind == "free":
        return BasedChainComplex(i, i, [x], {})
    return BasedChainComplex(i - 1, i, [1, 1],
                             {i: Matrix.from_rows([[x]])})


def random_z_complex(rng, max_summands=3):
    """A valid Z-complex with its summand structure.

    Returns (complex, summands); summands is a list of
    ("free", degree, rank) and ("elem", top_degree, coefficient).
    """
    summands = _summands(rng, max_summands)
    total = _summand_complex(*summands[0])
    for s in summands[1:]:
        total = direct_sum(total, _summand_complex(*s))
    return total, summands


def _blockwise_map(c, summands, per_summand):
    """Assemble a chain self-map from one block per summand per degree."""
    comps = {}
    for i in c.degrees():
        blocks = []
        sizes = []
        for idx, s in enumerate(summands):
            piece = _summand_complex(*s)
            r = piece.rank(i)
            sizes.append(r)
            blocks.append(per_summand(idx, s, i, r))
        comps[i] = Matrix.block([[b if k == j else None
                                  for j, b in enumerate(blocks)]
                                 for k in range(len(blocks))],
                                row_sizes=sizes, col_sizes=sizes)
    return ChainMap(c, c, comps)


def random_unit_scalar_equivalence(rng):
    """(complex, chain self-map) with each summand scaled by +-1."""
    c, summands = random_z_complex(rng)
    signs = [rng.choice((1, -1)) for _ in summands]

    def per(idx, s, i, r):
        return Matrix.from_rows([[signs[idx] if a == b else 0
                                  for b in range(r)] for a in range(r)], r)

    return c, _blockwise_map(c, summands, per)


def random_chain_selfmap(rng):
    """(complex, chain self-map): arbitrary blocks on zero-differential
    summands, scalar blocks on elementary ones."""
    c, summands = random_z_complex(rng)
    scalars = [rng.randint(-2, 2) for _ in summands]

    def per(idx, s, i, r):
        if s[0] == "free" and r:
            return random_int_matrix(rng, r, r)
        return Matrix.from_rows([[scalars[idx] if a == b else 0
                                  for b in range(r)] for a in range(r)], r)

    return c, _blockwise_map(c, summands, per)


def random_seifert(rng, n=None):
    n = n if n is not None else rng.choice((2, 3))
    base = BasedChainComplex(1, 1, [n], {})
    e = ChainMap(base, base, {1: random_int_matrix(rng, n, n)})
    return SeifertData(base, e)


def _cone_family(rng):
    d, selfmap = random_chain_selfmap(rng)
    f0 = BasedChainComplex(d.lo, d.lo, [0], {})
    return AlgebraicFundamentalDomain(
        d, f0, c={}, h_D=dict(selfmap.components), h_F={})


def _zero_family(rng):
    lo = rng.randint(-1, 1)
    hi = lo + rng.randint(1, 2)
    d_ranks = [rng.randint(0, 2) for _ in range(hi - lo + 1)]
    s_ranks = [rng.randint(0, 2) for _ in range(hi - lo + 1)]
    t_ranks = [rng.randint(0, 2) for _ in range(hi - lo + 1)]
    D = BasedChainComplex(lo, hi, d_ranks, {})
    F = BasedChainComplex(lo, hi,
                          [s + t for s, t in zip(s_ranks, t_ranks)], {})
    h_D, h_F, c = {}, {}, {}
    for i in range(lo, hi + 1):
        k = i - lo
        if d_ranks[k]:
            h_D[i] = random_int_matrix(rng, d_ranks[k], d_ranks[k])
            if s_ranks[k] + t_ranks[k]:
                h_F[i] = Matrix.block(
                    [[random_int_matrix(rng, s_ranks[k], d_ranks[k])],
                     [None]],
                    row_sizes=[s_ranks[k], t_ranks[k]],
                    col_sizes=[d_ranks[k]])
        if i > lo and d_ranks[k - 1] and s_ranks[k] + t_ranks[k]:
            c[i] = Matrix.block(
                [[None, random_int_matrix(rng, d_ranks[k - 1], t_ranks[k])]],
                row_sizes=[d_ranks[k - 1]],
                col_sizes=[s_ranks[k], t_ranks[k]])
    return AlgebraicFundamentalDomain(D, F, c=c, h_D=h_D, h_F=h_F)


def _scalar_family(rng):
    D = BasedChainComplex(0, 0, [1], {})
    F = BasedChainComplex(0, 1, [1, 1],
                          {1: Matrix.from_rows([[rng.randint(-2, 2)]])})
    return AlgebraicFundamentalDomain(
        D, F,
        c={1: Matrix.from_rows([[rng.randint(-2, 2)]])},
        h_D={0: Matrix.from_rows([[rng.randint(-2, 2)]])},
        h_F={0: Matrix.from_rows([[rng.randint(-2, 2)]])})


def random_fundamental_domain(rng):
    family = rng.choice(("cone", "zero", "zero", "knot", "scalar"))
    if family == "cone":
        return _cone_family(rng)
    if family == "zero":
        return _zero_family(rng)
    if family == "knot":
        return knot_fundamental_domain(random_seifert(rng))
    return _scalar_family(rng)


def domain_corpus(n=100, seed="domains"):
    rng = rng_for(seed)
    return [random_fundamental_domain(rng) for _ in range(n)]


def seifert_corpus(n=50, seed="seifert"):
    rng = rng_for(seed)
    out = []
    for k in range(n):
        out.append(random_seifert(rng, 2 if k % 2 == 0 else 3))
    return out
