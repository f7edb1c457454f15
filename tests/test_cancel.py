"""Unit cancellation: Gaussian elimination of a complex along its entries
+-z^k keeps the Novikov homology in both completions."""

import random

import pytest

from nk.rings import Direction, LaurentPoly
from nk.linalg import Matrix, associate
from nk.complexes import BasedChainComplex, cancel_units, direct_sum
from nk.models import knot_fundamental_domain
from nk.novikov import novikov_homology
from nk.cli import _read_bundled, parse_document

from domains import random_fundamental_domain, seifert_corpus

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

z = LaurentPoly({1: 1})

SEIFERT = seifert_corpus()

laurent_complexes = st.one_of(
    st.integers(0, 2 ** 32 - 1).map(
        lambda seed: random_fundamental_domain(random.Random(seed)).cone),
    st.sampled_from(SEIFERT).map(lambda s: knot_fundamental_domain(s).cone))


def is_unit_entry(e):
    if isinstance(e, int):
        return e in (1, -1)
    return bool(e) and e.ord() == e.deg() and e.lowest_coeff() in (1, -1)


def assert_same_novikov_homology(a, b):
    """Equal Betti numbers, and factors generating equal ideals, in both
    completions."""
    for direction in Direction:
        ra, rb = novikov_homology(a, direction), novikov_homology(b, direction)
        hypothesis.assume(ra.conclusive and rb.conclusive)
        assert ra.betti == rb.betti
        for i in a.degrees():
            fa, fb = ra.torsion_factors[i], rb.torsion_factors[i]
            assert len(fa) == len(fb)
            assert all(associate(x, y, direction) for x, y in zip(fa, fb))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(laurent_complexes)
def test_cancelling_units_keeps_the_novikov_homology(c):
    r = cancel_units(c)
    assert (r.lo, r.hi) == (c.lo, c.hi)
    assert not any(is_unit_entry(e) for d in r.differentials.values()
                   for row in d.entries for e in row)
    assert_same_novikov_homology(c, r)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(laurent_complexes)
def test_cancelling_units_is_deterministic(c):
    r = cancel_units(c)
    assert cancel_units(c) == r
    assert cancel_units(r) == r


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(laurent_complexes, st.data(), st.sampled_from([1, -1]),
                  st.integers(-3, 3))
def test_an_elementary_unit_summand_cancels_away(c, data, sign, k):
    """Stabilization: c (+) (R --+-z^k--> R) has the Novikov homology of
    c, and reduces to the very complex c reduces to, so to the same
    ranks and the same report."""
    hypothesis.assume(c.hi > c.lo)
    i = data.draw(st.integers(c.lo + 1, c.hi))
    e = BasedChainComplex(i - 1, i, [1, 1],
                          {i: Matrix.from_rows([[sign * z ** k]])})
    s = direct_sum(c, e)
    assert_same_novikov_homology(s, c)
    assert cancel_units(s) == cancel_units(c)


def test_the_nonfibered_knot_cone_cancels_to_its_alexander_polynomial():
    seifert = parse_document(_read_bundled("knot_nonfibered.json")
                             ).payload["seifert"]
    cone = knot_fundamental_domain(seifert).cone
    r = cancel_units(cone)
    assert (cone.ranks, r.ranks) == ((1, 5, 4), (0, 1, 1))
    assert r.differential(2) == Matrix.from_rows(
        [[LaurentPoly({-1: 2, 0: -3, 1: 2})]])
