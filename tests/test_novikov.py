"""Novikov homology, Morse-Novikov bounds, finite domination."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from nk import linalg
from nk.cli import main
from nk.rings import Direction, LaurentPoly
from nk.linalg import Matrix
from nk.complexes import BasedChainComplex, ChainMap, mapping_cone
from nk.novikov import (
    DominationVerdict,
    check_inequalities,
    finite_domination_check,
    morse_novikov_bounds,
    novikov_homology,
)
from nk.models import mapping_torus_complex

from domains import (load_bench, random_unit_scalar_equivalence,
                     random_z_complex, rng_for)

ROOT = Path(__file__).resolve().parent.parent

z = LaurentPoly({1: 1})
one = LaurentPoly({0: 1})


def cone_of_scalar(p):
    pt = BasedChainComplex(0, 0, [1], {})
    return mapping_cone(ChainMap(pt, pt, {0: Matrix.from_rows([[p]])}))


def torus_double(orientation):
    c = BasedChainComplex(0, 1, [1, 1], {})
    h = ChainMap(c, c, {0: Matrix.from_rows([[1]]),
                        1: Matrix.from_rows([[2]])})
    return mapping_torus_complex(h, orientation)


# --- worked examples ----------------------------------------------------------

def test_circle_novikov_homology_vanishes():
    rep = novikov_homology(cone_of_scalar(one - z))
    assert rep.all_zero and rep.conclusive


def test_torus_double_minus():
    rep = novikov_homology(torus_double("minus"))
    assert rep.b(1) == 0
    assert rep.torsion_factors[1] == [2 - z]
    assert all(rep.b(i) == 0 for i in range(rep.lo, rep.hi + 1))
    assert all(not rep.torsion_factors[i]
               for i in range(rep.lo, rep.hi + 1) if i != 1)


def test_torus_double_plus():
    rep = novikov_homology(torus_double("plus"))
    assert rep.all_zero and rep.conclusive


# --- bounds and inequalities -----------------------------------------------------

def test_morse_novikov_bounds_torus():
    rep = novikov_homology(torus_double("minus"))
    bounds = morse_novikov_bounds(rep)
    assert bounds == {0: 0, 1: 1, 2: 1}


def test_bounds_zero_report():
    rep = novikov_homology(cone_of_scalar(one - z))
    assert all(v == 0 for v in morse_novikov_bounds(rep).values())


def test_bounds_direct_substitution():
    c = BasedChainComplex(2, 2, [3], {})
    rep = novikov_homology(c)
    assert morse_novikov_bounds(rep) == {2: 3}


def test_check_inequalities():
    assert check_inequalities({0: 1, 1: 1}, {0: 1, 1: 1}) == []
    assert check_inequalities({0: 0, 1: 1}, {0: 1, 1: 1}) == [0]
    assert check_inequalities({}, {}) == []


# --- finite domination ------------------------------------------------------------

def test_circle_cone_is_finitely_dominated():
    v = finite_domination_check(cone_of_scalar(one - z))
    assert v == DominationVerdict(True, True, True)


def test_torus_double_minus_not_dominated():
    v = finite_domination_check(torus_double("minus"))
    assert v.vanishes_minus and not v.vanishes_plus
    assert not v.finitely_dominated


def test_cone_of_identity_dominated():
    v = finite_domination_check(cone_of_scalar(one))
    assert v.finitely_dominated


# --- invariants --------------------------------------------------------------------

def test_euler_characteristic_identity():
    rng = rng_for("euler")
    for _ in range(30):
        c, _ = random_z_complex(rng)
        rep = novikov_homology(c)
        chi_b = sum((-1) ** i * rep.b(i) for i in c.degrees())
        chi_r = sum((-1) ** i * c.rank(i) for i in c.degrees())
        assert chi_b == chi_r


def test_unit_rescaling_changes_nothing():
    base = torus_double("minus")
    for k, sign in ((1, 1), (-2, -1), (3, -1)):
        u = LaurentPoly({k: sign})
        scaled = BasedChainComplex(
            base.lo, base.hi, base.ranks,
            {i: d.map_entries(lambda e: u * e)
             for i, d in base.differentials.items()})
        a = novikov_homology(base)
        b = novikov_homology(scaled)
        assert a.betti == b.betti
        assert a.torsion_factors == b.torsion_factors
        assert a.conclusive == b.conclusive


def test_acyclic_cone_over_units_random():
    rng = rng_for("unit-cones")
    for _ in range(25):
        c, h = random_unit_scalar_equivalence(rng)
        rep = novikov_homology(mapping_torus_complex(h, "minus"))
        assert rep.all_zero and rep.conclusive


def test_novikov_bounds_hold_for_own_complex():
    # dim_R C_i >= b_i + q_i + q_{i-1} for complexes over a PID
    rng = rng_for("pid-bounds")
    for _ in range(25):
        c, _ = random_z_complex(rng)
        rep = novikov_homology(c)
        bounds = morse_novikov_bounds(rep)
        counts = {i: c.rank(i) for i in c.degrees()}
        assert check_inequalities(counts, bounds) == []


def test_rational_grade_complex_accepted():
    from nk.rings import RationalFunction
    d = Matrix.from_rows([[RationalFunction(z, one - z)]])
    c = BasedChainComplex(0, 1, [1, 1], {1: d})
    rep = novikov_homology(c)
    assert rep.all_zero  # z/(1-z) is a unit of the subring


def test_integer_complex_matches_its_laurent_copy():
    rng = rng_for("int-vs-laurent")
    for _ in range(15):
        c, _ = random_z_complex(rng)
        assert c.is_integral
        lau = BasedChainComplex(
            c.lo, c.hi, c.ranks,
            {i: d.map_entries(lambda e: LaurentPoly({0: e}))
             for i, d in c.differentials.items()})
        for direction in Direction:
            a = novikov_homology(c, direction)
            b = novikov_homology(lau, direction)
            assert a == b and a.ranks == b.ranks
            assert a.to_json() == b.to_json()


def test_nk_run_builds_no_transform_of_the_matrix_size(monkeypatch):
    """Every ``nk run`` of the seed-1 jobs-mixed and diag-rank documents,
    with and without --oracle, reaches novikov_homology's reductions and
    the knot oracle's without novikov_diagonalize or the peel's
    transforms: the core heuristic is handed identities of the core's
    size, which is smaller than the matrix wherever a Schur step peeled.
    bench/jobs.py is only read."""
    def forbidden(*args):
        raise AssertionError("a transform of the matrix size was built")

    init, sizes, shapes = linalg._Reduction.__init__, [], []
    diagonalize = linalg._diagonalize

    def reduction(self, grid, nc, U, Vt, budget):
        init(self, grid, nc, U, Vt, budget)
        assert self.U == linalg._ident(len(grid))
        assert self.Vt == linalg._ident(nc)
        sizes.append((len(grid), nc))

    def spied(m, direction, transforms):
        shapes.append((m.rows, m.cols))
        return diagonalize(m, direction, transforms)

    monkeypatch.setattr(linalg, "novikov_diagonalize", forbidden)
    monkeypatch.setattr(linalg, "_peel_transforms", forbidden)
    monkeypatch.setattr(linalg._Reduction, "__init__", reduction)
    monkeypatch.setattr(linalg, "_diagonalize", spied)
    path = Path(tempfile.mkdtemp()) / "job.json"
    for workload in ("jobs-mixed", "diag-rank"):
        for job in load_bench("jobs").make_jobs(workload, 1, ROOT / "src"):
            path.write_text(json.dumps(job.doc))
            for flags in ([], ["--oracle"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["run", str(path), "--format", "machine",
                                 *job.args, *flags]) == 0, job.name
    assert sizes and len(sizes) == len(shapes)
    peeled = [(s, m) for s, m in zip(sizes, shapes) if s != m]
    assert peeled and all(r < mr and c < mc for (r, c), (mr, mc) in peeled)
