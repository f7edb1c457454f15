"""The packed Bareiss kernel against the LaurentPoly-row elimination.

``reference`` is the same fraction-free elimination run directly on
LaurentPoly entries, dividing with ``divexact``; it shares no packing,
slot width or unpacking with ``nk.linalg._bareiss``.
"""

import pytest

from nk import linalg
from nk.linalg import _bareiss
from nk.rings import ONE, LaurentPoly

from domains import divexact

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def reference(A, n, jordan=False):
    """What _bareiss returns, by elimination on the LaurentPoly rows A
    (in place): the rank, or (det M, adj(M) B) for A = [M | B]."""
    nr = len(A)
    width = len(A[0]) if A else 0
    r, prev, sign = 0, ONE, 1
    for c in range(n):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if A[i][c]), None)
        if piv is None:
            if jordan:
                break
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            sign = -sign
        top = A[r]
        p = top[c]
        for i in range(0 if jordan else r + 1, nr):
            if i == r:
                continue
            row = A[i]
            a = row[c]
            for j in range(c + 1, width):
                row[j] = divexact(row[j] * p - a * top[j], prev)
        prev = p
        r += 1
    if not jordan:
        return r
    if r < n:
        return LaurentPoly(), None
    return sign * prev, [[sign * e for e in row[n:]] for row in A]


def both(A, n, jordan=False):
    packed = _bareiss([list(row) for row in A], n, jordan)
    return packed, reference([list(row) for row in A], n, jordan)


small = st.integers(-3, 3)
huge = st.integers(-2 ** 80, 2 ** 80)  # needs 16-byte slots or wider


@st.composite
def laurent(draw, span):
    """A sparse Laurent polynomial with exponents in a window of the
    given span, low end anywhere in [-30, 0]."""
    lo = draw(st.integers(-30, 0))
    terms = draw(st.dictionaries(st.integers(lo, lo + span),
                                 st.one_of(small, huge) if draw(st.booleans())
                                 else small, max_size=3))
    return LaurentPoly(terms)


@st.composite
def systems(draw):
    """(rows, n): an n x n block M beside up to 3 columns B, with zero
    rows, dependent rows and a zero first pivot drawn often."""
    n = draw(st.integers(0, 6))
    k = draw(st.integers(0, 3))
    span = draw(st.sampled_from([0, 2, 10, 60]))
    rows = [[draw(laurent(span)) for _ in range(n + k)] for _ in range(n)]
    if n and draw(st.booleans()):
        rows[0][0] = LaurentPoly()  # the first pivot needs a row swap
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        s = LaurentPoly({draw(st.integers(-5, 5)): draw(st.integers(-3, 3))})
        rows[i] = [e * s for e in rows[j]]  # dependent (or zero) row
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [LaurentPoly()] * (n + k)
    return rows, n


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(systems())
def test_packed_kernel_matches_the_reference(system):
    rows, n = system
    rank, expected = both(rows, n)
    assert rank == expected
    solved, expected = both(rows, n, jordan=True)
    assert solved == expected
    assert (solved[1] is None) == (rank < n)


def test_empty_system():
    assert _bareiss([], 0) == 0
    assert _bareiss([], 0, jordan=True) == (ONE, [])


def _recording_widths(monkeypatch):
    widths = set()
    pack = linalg._pack

    def spy(p, shift, w):
        widths.add(w)
        return pack(p, shift, w)

    monkeypatch.setattr(linalg, "_pack", spy)
    return widths


@pytest.mark.parametrize("a, b, width", [
    (127, 1, 1), (64, 2, 2), (-64, -2, 2),
    (2 ** 15 - 1, -1, 2), (-(2 ** 14), 2, 4),
    (2 ** 63 - 1, 1, 8), (2 ** 62, -2, 16),
])
def test_slot_width_at_a_boundary(monkeypatch, a, b, width):
    # det diag(a z^-3, b z^5) = a b z^2 attains the bound |a| |b|, which
    # needs |a b| < 2^(8w - 1)
    widths = _recording_widths(monkeypatch)
    rows = [[LaurentPoly({-3: a}), LaurentPoly()],
            [LaurentPoly(), LaurentPoly({5: b})]]
    det, x = _bareiss(rows, 2, jordan=True)
    assert widths == {width}
    assert det == LaurentPoly({2: a * b})
    assert x == [[], []]


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_minors_near_the_bound(m):
    # the central coefficients of det diag((1 + z)^m, ...) = (1 + z)^(6m)
    # come within a factor sqrt(m) of the 1-norm bound 2^(6m), far above
    # the product of the largest coefficients
    p = LaurentPoly({0: 1, 1: 1}) ** m
    rows = [[p if i == j else LaurentPoly() for j in range(6)]
            for i in range(6)]
    assert _bareiss(rows, 6, jordan=True)[0] == p ** 6


def test_wide_slots_unpack_every_digit(monkeypatch):
    widths = _recording_widths(monkeypatch)
    p = LaurentPoly({-2: 2 ** 70, 0: -(2 ** 70), 3: 1})
    q = LaurentPoly({1: -3, 2: 2 ** 69 + 1})
    rows = [[p, q, ONE], [q, p, -ONE]]
    packed, expected = both(rows, 2, jordan=True)
    assert packed == expected
    assert max(widths) >= 16


@pytest.mark.parametrize("row", [
    [LaurentPoly(), LaurentPoly({-4: 3, 2: -1}), ONE],
    [LaurentPoly(), LaurentPoly()],
    [LaurentPoly({-7: -2, -5: 1}), LaurentPoly({-3: 5}), LaurentPoly(),
     LaurentPoly({-9: 1, 4: -6})],
    [LaurentPoly({-1500: 1, 1500: -3}), LaurentPoly({0: 2, 3000: 7}),
     LaurentPoly({-3000: -1, 0: 1})],
    [LaurentPoly({0: 2 ** 90, 3000: -1})],
], ids=["zero-pivot", "zero-row", "negative", "span-3000", "no-columns"])
def test_one_row_system_is_handed_back(row):
    packed, expected = both([row], 1, jordan=True)
    assert packed == expected


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.lists(st.sampled_from([0, 100, 3000]).flatmap(laurent),
                           min_size=1, max_size=4))
def test_one_row_systems_match_the_reference(row):
    packed, expected = both([row], 1, jordan=True)
    assert packed == expected
