"""Matrices, Smith normal form, function-field rank, Z((z)) reduction."""

import itertools
import json
import math

import pytest

from nk import linalg
from nk.cli import parse_document
from nk.rings import (Direction, LaurentPoly, RationalFunction,
                      is_novikov_unit, reverse_variable)
from nk.linalg import (
    DimensionMismatch,
    Matrix,
    associate,
    matmul,
    novikov_diagonalize,
    rank_over_function_field,
    smith_normal_form_int,
    solve_laurent,
)

from domains import (
    assert_diagonalizes,
    det_oracle,
    matrix_to_json,
    naive_matmul,
    random_int_matrix,
    random_laurent,
    rng_for,
)

z = LaurentPoly({1: 1})
one = LaurentPoly({0: 1})


# --- oracle: invariant factors from determinant divisors ----------------------

def minors_gcd(m: Matrix, k: int) -> int:
    """gcd of all k x k minors (0 when all vanish)."""
    g = 0
    for rows in itertools.combinations(range(m.rows), k):
        for cols in itertools.combinations(range(m.cols), k):
            sub = Matrix.from_rows([[m.entries[r][c] for c in cols]
                                    for r in rows], k)
            g = math.gcd(g, _int_det(sub))
    return g


def _int_det(m):
    if m.rows == 0:
        return 1
    total = 0
    for pos, c in enumerate(range(m.cols)):
        sub = Matrix.from_rows(
            [[m.entries[r][cc] for cc in range(m.cols) if cc != c]
             for r in range(1, m.rows)], m.cols - 1)
        term = m.entries[0][c] * _int_det(sub)
        total += term if pos % 2 == 0 else -term
    return total


def invariant_factors_via_minors(m: Matrix):
    """Independent oracle: d_k = gcd(k-minors)/gcd((k-1)-minors)."""
    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = minors_gcd(m, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


# --- associate: factors compared as ideals -----------------------------------

def test_associate():
    z = LaurentPoly({1: 1})
    f = 2 - z
    for d in Direction:
        assert associate(f, f * (1 - z), d)
        assert associate(f * (1 - z), f, d)
        assert associate(f, -f * z ** 3, d)
        assert not associate(f, 2 * f, d)
    # 2 - z and 3 - z are units of Z((z^-1)) but not of Z((z))
    assert not associate(f, 3 - z, Direction.PLUS)
    assert associate(f, 3 - z, Direction.MINUS)
    cone, direct = 4 - 9 * z + 4 * z ** 2, -8 + 22 * z - 17 * z ** 2 + 4 * z ** 3
    assert associate(cone, direct, Direction.MINUS)
    assert not associate(cone, direct, Direction.PLUS)


# --- matmul --------------------------------------------------------------------

def test_matmul_identity():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert matmul(Matrix.identity(2), m) == m


def test_matmul_laurent():
    a = Matrix.from_rows([[one - z]])
    b = Matrix.from_rows([[one + z]])
    assert matmul(a, b) == Matrix.from_rows([[one - z ** 2]])


def test_matmul_empty_edge():
    a = Matrix.zeros(2, 0)
    b = Matrix.zeros(0, 3)
    prod = matmul(a, b)
    assert (prod.rows, prod.cols) == (2, 3) and prod.is_zero


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        matmul(Matrix.zeros(2, 3), Matrix.zeros(2, 3))


def test_matmul_matches_the_naive_product():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ints = st.integers(-5, 5)
    laurents = st.dictionaries(st.integers(-2, 2), ints,
                               max_size=3).map(LaurentPoly)
    rationals = st.builds(
        lambda n, d: RationalFunction(n, LaurentPoly({0: 1, 1: d})),
        laurents, st.integers(-2, 2))
    kinds = st.sampled_from([ints, laurents, rationals,
                             st.one_of(ints, laurents, rationals)])

    def matrices(rows, cols):
        return kinds.flatmap(lambda e: st.lists(
            st.lists(e, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows).map(
                lambda grid: Matrix(rows, cols, grid)))

    # 0 x n, n x 0 and an empty inner dimension come up among the shapes
    dims = st.integers(0, 3)
    pairs = st.tuples(dims, dims, dims).flatmap(
        lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[1], s[2])))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(pairs, dims)
    def agrees(pair, extra):
        a, b = pair
        prod = matmul(a, b)
        assert (prod.rows, prod.cols) == (a.rows, b.cols)
        assert prod == naive_matmul(a, b)
        if all(isinstance(e, int) for m in pair for row in m.entries
               for e in row):
            assert all(e.__class__ is int for row in prod.entries
                       for e in row)
        with pytest.raises(DimensionMismatch):
            matmul(a, Matrix.zeros(b.rows + 1 + extra, b.cols))

    agrees()


def test_zeros_is_one_immutable_instance_per_shape():
    for rows, cols in itertools.product(range(4), repeat=2):
        zero = Matrix.zeros(rows, cols)
        assert Matrix.zeros(rows, cols) is zero
        assert (zero.rows, zero.cols) == (rows, cols) and zero.is_zero
        assert zero == Matrix(rows, cols, [[0] * cols] * rows)
        with pytest.raises(AttributeError):
            zero.entries = ((1,) * cols,) * rows
    assert Matrix.zeros(2, 3) is not Matrix.zeros(3, 2)


def test_matrix_json_roundtrip():
    m = Matrix.from_rows([[1, one - 2 * z], [LaurentPoly({-1: 3}), 0]])
    doc = parse_document(json.dumps({"kind": "novikov", "payload": {
        "complex": {"lo": 0, "hi": 1, "ranks": [2, 2],
                    "differentials": {"1": matrix_to_json(m)}}}}))
    back = doc.payload["complex"].differential(1)
    # ints decode as ints, polynomials as polynomials; values agree
    assert back == m
    assert [type(e) for row in back.entries for e in row] == \
        [int, LaurentPoly, LaurentPoly, int]


# --- integer SNF ----------------------------------------------------------------

def test_snf_identity():
    s = smith_normal_form_int(Matrix.identity(2))
    assert s.invariant_factors == (1, 1) and s.rank == 2
    assert_diagonalizes(Matrix.identity(2), s)


def test_snf_zero():
    s = smith_normal_form_int(Matrix.from_rows([[0]]))
    assert s.invariant_factors == () and s.rank == 0


def test_snf_2468():
    m = Matrix.from_rows([[2, 4], [6, 8]])
    s = smith_normal_form_int(m)
    assert s.invariant_factors == (2, 4)
    assert s.invariant_factors == invariant_factors_via_minors(m)


def test_snf_matches_minor_oracle_randomly():
    rng = rng_for("snf-oracle")
    for _ in range(40):
        m = random_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 3),
                              max_coeff=4)
        s = smith_normal_form_int(m)
        assert s.invariant_factors == invariant_factors_via_minors(m)
        assert_diagonalizes(m, s)


def test_snf_unimodular_invariance():
    rng = rng_for("snf-unimod")
    for _ in range(30):
        m = random_int_matrix(rng, 3, 3, max_coeff=3)
        u = _random_unimodular(rng, 3)
        v = _random_unimodular(rng, 3)
        assert smith_normal_form_int(matmul(matmul(u, m), v)).invariant_factors \
            == smith_normal_form_int(m).invariant_factors


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            for k in range(n):
                m[i][k] += q * m[j][k]
    return Matrix.from_rows(m, n)


# --- rank over Q(z) --------------------------------------------------------------

def test_rank_examples():
    assert rank_over_function_field(Matrix.from_rows([[one - z]])) == 1
    assert rank_over_function_field(
        Matrix.from_rows([[one - z, 2 - 2 * z]])) == 1
    assert rank_over_function_field(
        Matrix.from_rows([[z, one - z], [z - 1, one]])) == 2


def test_rank_matches_symbolic_determinant():
    m = Matrix.from_rows([[z, one - z], [z - 1, one]])
    assert det_oracle(m) == z ** 2 - z + 1  # nonzero, so full rank
    assert rank_over_function_field(m) == 2


def test_rank_invariances():
    rng = rng_for("rank")
    for _ in range(25):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = Matrix.from_rows([[random_laurent(rng, span=2, max_coeff=2)
                               for _ in range(cols)] for _ in range(rows)],
                             cols)
        r = rank_over_function_field(m)
        # permutation invariance
        perm_r = list(range(rows))
        rng.shuffle(perm_r)
        perm_c = list(range(cols))
        rng.shuffle(perm_c)
        shuffled = Matrix.from_rows(
            [[m.entries[i][j] for j in perm_c] for i in perm_r], cols)
        assert rank_over_function_field(shuffled) == r
        # scaling a row by a nonzero polynomial
        s = random_laurent(rng, span=2, max_coeff=2)
        if not s.is_zero:
            i = rng.randrange(rows)
            scaled = Matrix.from_rows(
                [[e * s if a == i else e for e in row]
                 for a, row in enumerate(m.entries)], cols)
            assert rank_over_function_field(scaled) == r


def test_solve_laurent_matches_det_oracle():
    rng = rng_for("bareiss")
    swapped = singular = 0
    for k in range(90):
        n = k % 6
        grid = [[random_laurent(rng, span=2, max_coeff=2) for _ in range(n)]
                for _ in range(n)]
        if n and k % 3 == 0:
            grid[0][0] = LaurentPoly()  # the first pivot needs a row swap
            swapped += 1
        if n >= 2 and k % 4 == 1:
            s = random_laurent(rng, span=1, max_coeff=2)
            grid[-1] = [e * s for e in grid[0]]  # dependent rows
            singular += 1
        m = Matrix(n, n, grid)
        b = Matrix(n, k % 3, [[random_laurent(rng, span=1, max_coeff=2)
                               for _ in range(k % 3)] for _ in range(n)])
        det, x = solve_laurent(m, b)
        assert det == det_oracle(m)
        if det:
            assert matmul(m, x) == b.map_entries(lambda e: det * e)
        else:
            assert x is None
    assert swapped and singular


def test_solve_laurent_row_swap_sign():
    m = Matrix.from_rows([[0, one], [one, 0]])
    det, adj = solve_laurent(m, Matrix.identity(2))
    assert det == -one
    assert adj == Matrix.from_rows([[0, -one], [-one, 0]])
    assert solve_laurent(Matrix.zeros(0, 0), Matrix.zeros(0, 2)) == \
        (one, Matrix.zeros(0, 2))
    with pytest.raises(DimensionMismatch):
        solve_laurent(Matrix.zeros(2, 3), Matrix.zeros(2, 1))


# --- diagonalization over Z((z)) ---------------------------------------------------

def test_diag_unit_entry_means_zero_module():
    m = Matrix.from_rows([[one - 2 * z]])
    r = novikov_diagonalize(m)
    assert r.invariant_factors == (one,)
    assert r.torsion_factors == ()
    assert_diagonalizes(m, r, Direction.PLUS)


def test_diag_z_minus_two():
    r = novikov_diagonalize(Matrix.from_rows([[z - 2]]))
    assert r.invariant_factors == (2 - z,)
    assert len(r.torsion_factors) == 1


def test_diag_two_and_z():
    r = novikov_diagonalize(Matrix.from_rows([[2, 0], [0, z]]))
    assert r.invariant_factors == (one, LaurentPoly({0: 2}))
    assert r.torsion_factors == (LaurentPoly({0: 2}),)


def test_diag_minus_side_by_reversal():
    r = novikov_diagonalize(Matrix.from_rows([[z - 2]]), Direction.MINUS)
    assert r.invariant_factors == (one,)
    r = novikov_diagonalize(Matrix.from_rows([[one - 2 * z]]), Direction.MINUS)
    assert r.invariant_factors == (2 * z - 1,)


def test_diag_unit_diagonal_no_torsion():
    m = Matrix.from_rows([[one - z, 0], [0, LaurentPoly({3: -1})]])
    r = novikov_diagonalize(m)
    assert r.rank == 2 and r.torsion_factors == ()


def test_diag_rank_agrees_with_function_field():
    rng = rng_for("diag-rank")
    for _ in range(25):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = Matrix.from_rows([[random_laurent(rng, span=1, max_coeff=2)
                               for _ in range(cols)] for _ in range(rows)],
                             cols)
        r = novikov_diagonalize(m)
        assert r.rank == rank_over_function_field(m)
        for a, b in zip(r.invariant_factors, r.invariant_factors[1:]):
            if b != one:
                # divisibility chain: b/a must expand integrally
                q = RationalFunction(b, a)
                assert q is not None


def test_diag_divisibility_chain_mixed_primes():
    m = Matrix.from_rows([[2, 0], [0, 3]])
    r = novikov_diagonalize(m)
    assert r.invariant_factors == (one, LaurentPoly({0: 6}))


def test_diag_unit_rescaling_invariance():
    rng = rng_for("diag-unit")
    base = Matrix.from_rows([[z - 2, 0], [one, 2 * one]])
    r0 = novikov_diagonalize(base)
    for k in (-2, 1, 3):
        scaled = Matrix.from_rows(
            [[e * LaurentPoly({k: -1}) for e in row] for row in base.entries])
        assert novikov_diagonalize(scaled).invariant_factors == \
            r0.invariant_factors


@pytest.mark.parametrize("direction", [Direction.PLUS, Direction.MINUS])
@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_transform_shapes_without_rows_or_columns(rows, cols, direction):
    """U is rows x rows and V is cols x cols even when the input has no
    rows (the column count cannot be read off an empty grid)."""
    m = Matrix.zeros(rows, cols)
    r = novikov_diagonalize(m, direction)
    assert r.rank == 0 and r.invariant_factors == ()
    assert_diagonalizes(m, r, direction)
    assert_diagonalizes(m, smith_normal_form_int(m))


@pytest.mark.parametrize("side", ["U", "V"])
def test_diag_self_check_catches_a_corrupted_transform(monkeypatch, side):
    """One tracked U (resp. V) entry is corrupted after the first add on
    rows (resp. the first add between two transposes, on columns); the
    reduction of A runs as before, and only the re-multiplication
    U A V == diag can notice.  The constant terms of the matrix have
    gcd 2, so nothing peels and the heuristic sees all of it."""
    add, transpose = linalg._Reduction.add, linalg._Reduction.transpose
    transposed = [False]
    done = []

    def flipping(self):
        transpose(self)
        transposed[0] = not transposed[0]

    def corrupting(self, *args):
        add(self, *args)
        if not done and transposed[0] == (side == "V"):
            done.append(args)
            # the transform of the current rows: U, or Vt when transposed
            self.U[0][0] = self.U[0][0] + z

    monkeypatch.setattr(linalg._Reduction, "transpose", flipping)
    monkeypatch.setattr(linalg._Reduction, "add", corrupting)
    m = Matrix.from_rows([[2 * one, 2 + z], [2 * z, 4 + z]])
    with pytest.raises(AssertionError,
                       match="novikov diagonalization self-check failed"):
        novikov_diagonalize(m)
    assert done


@pytest.mark.parametrize("direction", [Direction.PLUS, Direction.MINUS])
@pytest.mark.parametrize("row", [0, 1])
def test_diag_self_check_catches_a_corrupted_clear(monkeypatch, row,
                                                   direction):
    """One entry of the input cleared of denominators is off by z, in the
    row with a denominator (0) or in the polynomial row (1).  The rest of
    the reduction works on the cleared matrix, so U (Lambda A) V == diag
    still holds; only the entrywise check of Lambda A against A can
    notice."""
    clear = linalg._laurent_rows
    done = []

    def corrupting(grid):
        rows, lcms = clear(grid)
        rows[row][1] = rows[row][1] + z
        done.append(lcms)
        return rows, lcms

    monkeypatch.setattr(linalg, "_laurent_rows", corrupting)
    m = Matrix.from_rows([[RationalFunction(2 * one, one + z), one - z],
                          [z, 2 + z]])
    with pytest.raises(AssertionError,
                       match="novikov diagonalization self-check failed"):
        novikov_diagonalize(m, direction)
    assert [d == one for d in done[0]] == [False, True]


#: a Schur step peels two rows and leaves a 1 x 1 core the heuristic
#: spends nothing on: the peel certificate is the only product checked
PEELS = Matrix.from_rows([[one, 2 * one, z], [3 * one, 4 + z, 2 * one],
                          [z, one, 2 + z]])
#: even constant terms: nothing peels, the heuristic reduces it all
PEELS_NOTHING = Matrix.from_rows([[2 + z, 2 * z], [4 * z, 2 + 3 * z]])
#: a peel, then heuristic work on the 2 x 2 core it leaves
PEELS_THEN_REDUCES = Matrix.from_rows([[one, z, z], [z, 2 + z, 2 * z],
                                       [z, 4 * z, 2 + 3 * z]])


@pytest.mark.parametrize("side, j, m, message", [
    pytest.param(side, j, m, message, id=f"{prefix}{side}-{j}")
    for prefix, m, message in (
        ("", PEELS, "Schur step self-check failed"),
        ("no-peel-", PEELS_NOTHING,
         "novikov diagonalization self-check failed"))
    for side in ("U", "V") for j in (-1, 2)])
def test_diag_self_check_catches_a_multiple_of_the_slot_base(monkeypatch,
                                                             side, j, m,
                                                             message):
    """A composed transform entry off by X z^j, X = 2^(8w) the slot base
    the certificate picks for the true transforms, changes U A V by a
    multiple of X in every coefficient, which a check modulo X, or at X
    with the width fixed beforehand, would miss.  Each certificate, of
    the peel and of the whole diagonalization, reads its width off the
    factors it is given, picks a wider one, and fails."""
    check, slot_width = linalg._product_is, linalg._slot_width
    widths = []

    def recording(bound):
        widths.append(slot_width(bound))
        return widths[-1]

    def corrupting(factors, target):
        picked = len(widths)
        assert check(factors, target)
        assert len(widths) == picked + 1  # decided by packing
        true_width = widths[-1]
        i = 0 if side == "U" else 2
        rows = [list(row) for row in factors[i].entries]
        rows[0][0] = rows[0][0] + LaurentPoly({j: 1 << 8 * true_width})
        factors = list(factors)
        factors[i] = Matrix(factors[i].rows, factors[i].cols, rows)
        assert matmul(matmul(*factors[:2]), factors[2]) != target
        verdict = check(factors, target)
        assert widths[-1] > true_width
        return verdict

    monkeypatch.setattr(linalg, "_slot_width", recording)
    monkeypatch.setattr(linalg, "_product_is", corrupting)
    with pytest.raises(AssertionError, match=message):
        novikov_diagonalize(m)


def test_the_peel_certificate_covers_the_core_on_the_inconclusive_path(
        monkeypatch):
    """A Schur step whose core unpacks with z^3 added, before a heuristic
    with no budget: the heuristic would give up on the wrong core and
    report partial factors built on it, but the peel certificate covers
    the unpacked core and fails first."""
    unpack_rows, calls = linalg._Slots.unpack_rows, []

    def corrupting(self, rows, shift):
        out = unpack_rows(self, rows, shift)
        calls.append(len(out))
        if len(calls) % 3 == 0:  # U's rows, V's columns, then the core
            out[0][0] = out[0][0] + z ** 3
        return out

    monkeypatch.setattr(linalg._Slots, "unpack_rows", corrupting)
    monkeypatch.setattr(linalg, "REDUCTION_BUDGET", 0)
    with pytest.raises(AssertionError, match="Schur step self-check failed"):
        novikov_diagonalize(PEELS_THEN_REDUCES)
    assert calls == [3, 3, 2]


@pytest.mark.parametrize("m, products", [
    (PEELS, 1), (PEELS_THEN_REDUCES, 2), (PEELS_NOTHING, 1)],
    ids=["peel", "peel-then-reduce", "no-peel"])
def test_one_product_certifies_a_peel_the_heuristic_leaves_alone(
        monkeypatch, m, products):
    """The peel certificate, and the final one only when the heuristic
    spent an operation or nothing peeled."""
    check, calls = linalg._product_is, []

    def counting(factors, target):
        calls.append(len(factors))
        return check(factors, target)

    monkeypatch.setattr(linalg, "_product_is", counting)
    r = novikov_diagonalize(m)
    assert calls == [3] * products
    assert_diagonalizes(m, r, Direction.PLUS)


@pytest.mark.parametrize("takes, m", [
    (True, PEELS_NOTHING),
    (False, Matrix.from_rows([[2 + z, 0], [0, 2 + 3 * z]]))],
    ids=["off-diagonal", "untaken-pivots"])
def test_the_final_certificate_sees_an_entry_left_in_the_core(monkeypatch,
                                                              takes, m):
    """A heuristic that does nothing, on a matrix where nothing peels: U
    and V stay the identity and U (Lambda A) V is the reduced core, so a
    target built from the whole core, or from its whole diagonal, would
    pass.  Taking every pivot position leaves the 2z off the diagonal;
    stopping at once leaves both diagonal entries, whose factors the
    result would drop.  The final target keeps only the s pivots taken,
    and the check fails."""
    monkeypatch.setattr(linalg, "_reduce_pivot", lambda red, t: takes)
    with pytest.raises(AssertionError,
                       match="novikov diagonalization self-check failed"):
        novikov_diagonalize(m)


@pytest.mark.parametrize("corrupt", ["adjugate", "solution", "det"])
def test_diag_self_check_catches_a_corrupted_schur_step(monkeypatch, corrupt):
    """A wrong adjugate, a wrong adj A12 or a determinant that is not a
    Novikov unit from the packed Gauss-Jordan pass of a Schur step is
    caught before the step is used.  The corruption adds z, packed at
    the slot base the step picked, to the integer output."""
    eliminate, slot_width = linalg._eliminate, linalg._slot_width
    widths, calls = [], []

    def recording(bound):
        widths.append(slot_width(bound))
        return widths[-1]

    def corrupted(M, n, jordan=False):
        r, det = eliminate(M, n, jordan)
        if not jordan:  # the integer Smith form's determinants
            return r, det
        calls.append(n)
        if corrupt == "det":
            return r, 2 * det
        # columns n.. of the rows hold adj, columns 2n.. hold X
        col = n if corrupt == "adjugate" else 2 * n
        M[0][col] += 1 << 8 * widths[-1]
        return r, det

    monkeypatch.setattr(linalg, "_slot_width", recording)
    monkeypatch.setattr(linalg, "_eliminate", corrupted)
    m = Matrix.from_rows([[one, 2 * one], [3 * one, 4 + z]])
    with pytest.raises(AssertionError, match="Schur step self-check failed"):
        novikov_diagonalize(m)
    assert calls == [1]


def test_schur_step_check_takes_its_width_from_the_values(monkeypatch):
    """With the step's slots forced to 1 byte, too narrow for its
    values, the packed elimination is still exact on integers, so an
    identity checked at the step's own X = 2^8 holds; but det = 1 + 200z
    does not fit an 8-bit slot and unpacks wrong.  The check reads its
    width off the unpacked values and fails."""
    slot_width = linalg._slot_width
    widths = []

    def narrow(bound):
        widths.append(1 if not widths else slot_width(bound))
        return widths[-1]

    monkeypatch.setattr(linalg, "_slot_width", narrow)
    a, b = 1 + 100 * z, 100 * z
    m = Matrix.from_rows([[a, b], [b, a]])
    with pytest.raises(AssertionError, match="Schur step self-check failed"):
        novikov_diagonalize(m)
    assert widths[0] == 1 and widths[1] > 1


@pytest.mark.parametrize("direction", [Direction.PLUS, Direction.MINUS])
def test_a_peel_and_the_heuristic_write_into_one_u_and_v(monkeypatch,
                                                        direction):
    """A block a and its mirror image a(z^-1), so that each direction
    meets the same pattern: a Schur step peels a unit block, and the core
    left over needs a unit pivot of order >= 1 and a Bezout mix.  The
    heuristic is handed the rows of U and the columns of V that the peel
    wrote, not identities, and writes into them again."""
    w = LaurentPoly({-1: 1})
    a = Matrix.from_rows([[one, w, 0, w],
                          [w, w + w * w, 2 + 2 * w * w, 2 + 3 * w * w],
                          [0, 0, 4, 6]])
    m = Matrix.block([[a, None], [None, a.map_entries(reverse_variable)]],
                     [3, 3], [4, 4])
    step, clear, mix = linalg._schur_step, linalg._clear, linalg._Reduction.mix
    init = linalg._Reduction.__init__
    seen = {"peeled": 0, "unit orders": [], "mixes": 0, "handed": []}

    def peeling(*args):
        out = step(*args)
        seen["peeled"] += bool(out)
        return out

    def clearing(red, t, p):
        if is_novikov_unit(p):
            seen["unit orders"].append(p.ord())
        clear(red, t, p)

    def mixing(self, *args):
        seen["mixes"] += 1
        mix(self, *args)

    def handed(self, grid, nc, U, Vt, budget):
        seen["handed"] = [[list(row) for row in U], [list(r) for r in Vt]]
        init(self, grid, nc, U, Vt, budget)

    monkeypatch.setattr(linalg, "_schur_step", peeling)
    monkeypatch.setattr(linalg, "_clear", clearing)
    monkeypatch.setattr(linalg._Reduction, "mix", mixing)
    monkeypatch.setattr(linalg._Reduction, "__init__", handed)
    r = novikov_diagonalize(m, direction)
    assert r.invariant_factors == (one,) * 4 + (2 * one,) * 2
    assert r.rank == 6
    assert_diagonalizes(m, r, direction)
    assert seen["peeled"] and seen["mixes"]
    assert max(seen["unit orders"]) >= 1
    U, Vt = seen["handed"]
    t = 6 - len(U)
    assert 0 < t < 6
    rows = [list(row) for row in r.U.entries[t:]]
    cols = [list(col) for col in zip(*r.V.entries)][t:]
    for handed_rows, ident, final in ((U, Matrix.identity(6), rows),
                                      (Vt, Matrix.identity(8), cols)):
        assert handed_rows != [list(row) for row in ident.entries[t:]]
        assert handed_rows != final


def test_a_transform_that_is_not_invertible_fails_the_certificate():
    """U A V diagonal is not enough: 2 U still takes A to a diagonal, but
    it is not invertible over Z((z)), and assert_diagonalizes says so."""
    m = Matrix.from_rows([[one, z], [z, 2 + z]])
    r = novikov_diagonalize(m)
    assert_diagonalizes(m, r, Direction.PLUS)
    doubled = linalg.SNFResult(r.invariant_factors, r.rank, r.U.scaled(2),
                               r.V)
    with pytest.raises(AssertionError):
        assert_diagonalizes(m, doubled, Direction.PLUS)


def test_bezout_mix_has_unit_determinant_for_every_sign_pair():
    """The mix in _attack has det x*(c/g) + y*(d/g) = +-1, not always 1:
    _bezout(-2, -3) gives x*(-2) + y*(-3) = -1."""
    assert linalg._bezout(-2, -3) == (-1, 1)
    for c, d in itertools.product(range(-9, 10), repeat=2):
        if c and d:
            g = math.gcd(c, d)
            x, y = linalg._bezout(c, d)
            assert abs(x * (c // g) + y * (d // g)) == 1
