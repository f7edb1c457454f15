"""Novikov homology is a chain-equivalence invariant: a unimodular basis
change over Z[z,z^-1] of a seeded benchmark differential leaves the
Betti numbers and the factor ideals unchanged in both completions.

The differentials are the novikov documents of seed-1 ``diag-rank``,
read from ``bench/jobs.py`` without writing under ``bench/``.  The
basis change is at most two elementary operations row_i += q row_j or
col_i += q col_j, q = +-1 or +-2 times z^(-2..2).  Each call is
interrupted at a time bound, and an ``Inconclusive`` report, which is
explicitly degraded rather than wrong, is compared on its Betti numbers
only.

The draw is derandomized: about one basis change in a hundred of this
family runs for several seconds or ends ``Inconclusive`` (the heuristic
on the core swells its coefficients), so random draws would fail the
time bound on some runs and not others.  Longer chains of operations
reach inputs that run for minutes.
"""

import signal
from pathlib import Path

import pytest

from nk.linalg import Matrix, associate
from nk.complexes import BasedChainComplex
from nk.novikov import novikov_homology
from nk.rings import Direction, LaurentPoly

from domains import load_bench

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# seconds any one novikov_homology call may take; most calls take a few ms
CALL_BOUND_S = 2.0


def _differential(doc):
    (m,) = doc["payload"]["complex"]["differentials"].values()
    return [[LaurentPoly({int(e): c for e, c in entry.items()})
             for entry in row] for row in m]


DIFFERENTIALS = [
    _differential(job.doc) for job in load_bench("jobs").make_jobs(
        "diag-rank", 1, Path(__file__).resolve().parent.parent / "src")
    if job.doc["kind"] == "novikov"]


@st.composite
def basis_changes(draw):
    """(d, d') with d' = P d Q for P, Q products of at most two
    elementary matrices over Z[z,z^-1] in all."""
    d = draw(st.sampled_from(DIFFERENTIALS))
    n = len(d)
    out = [list(row) for row in d]
    for _ in range(draw(st.integers(1, 2))):
        i, j = draw(st.permutations(range(n)))[:2]
        q = LaurentPoly({draw(st.integers(-2, 2)):
                         draw(st.sampled_from((1, -1, 2, -2)))})
        if draw(st.booleans()):  # row_i += q row_j
            out[i] = [a + q * b for a, b in zip(out[i], out[j])]
        else:  # col_i += q col_j
            for row in out:
                row[i] = row[i] + q * row[j]
    return d, out


def _complex(rows):
    n = len(rows)
    return BasedChainComplex(0, 1, [n, n], {1: Matrix(n, n, rows)})


class _TooSlow(Exception):
    pass


def _raise_too_slow(*_):
    raise _TooSlow(f"a novikov_homology call ran past {CALL_BOUND_S} s")


def _timed_homology(c, direction):
    """novikov_homology(c, direction), interrupted at CALL_BOUND_S."""
    previous = signal.signal(signal.SIGALRM, _raise_too_slow)
    signal.setitimer(signal.ITIMER_REAL, CALL_BOUND_S)
    try:
        return novikov_homology(c, direction)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
@hypothesis.given(basis_changes())
def test_a_basis_change_keeps_the_novikov_homology(pair):
    a, b = map(_complex, pair)
    for direction in Direction:
        ra, rb = (_timed_homology(c, direction) for c in (a, b))
        assert ra.betti == rb.betti
        hypothesis.assume(ra.conclusive and rb.conclusive)
        for i in a.degrees():
            fa, fb = ra.torsion_factors[i], rb.torsion_factors[i]
            assert len(fa) == len(fb)
            assert all(associate(x, y, direction) for x, y in zip(fa, fb))
