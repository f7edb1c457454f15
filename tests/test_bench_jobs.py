"""Smoke test of the benchmark's job generator and report checks.

Loads ``bench/jobs.py`` and ``bench/verify.py`` read-only (no bytecode is
written under ``bench/``), builds the seed-1 job list of every workload
and runs the smallest job of each size bucket through the real entry
point, so neither the generator nor the checks can drift away from the
program without a tier-1 failure.  A picked job timed without
``--oracle`` is run again with it, and the two reports are compared as
the benchmark compares them once per invocation.  The generator's
fundomain documents also run in the minus direction, which no workload
times, and the documents that hit the coefficient swelling of the plain
reduction heuristic run in both directions.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from nk.cli import main, parse_document
from nk.complexes import cancel_units
from nk.linalg import Matrix, associate, novikov_diagonalize, solve_laurent
from nk.models import knot_fundamental_domain, mapping_torus_complex
from nk.novikov import novikov_homology
from nk.rings import Direction, LaurentPoly

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
GOLDEN = Path(__file__).parent / "golden"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"nk_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


jobs = _load("jobs")
verify = _load("verify")


def _smallest_per_bucket(workload):
    best = {}
    for job in jobs.make_jobs(workload, 1, ROOT / "src"):
        size = len(json.dumps(job.doc))
        if job.bucket not in best or size < best[job.bucket][0]:
            best[job.bucket] = (size, job)
    return [job for _, job in best.values()]


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_smallest_job_of_each_bucket_verifies(workload, tmp_path, capsys):
    picked = _smallest_per_bucket(workload)
    assert picked
    for k, job in enumerate(picked):
        path = tmp_path / f"{k:02d}.json"
        path.write_text(json.dumps(job.doc))
        capsys.readouterr()
        code = main(["run", str(path), "--format", "machine", *job.args])
        out = capsys.readouterr().out
        golden = ((GOLDEN / f"{job.golden}.machine.json").read_text()
                  if job.golden else None)
        assert code in (0, 1), job.name
        assert verify.check_report(job, code, out, golden) == [], job.name
        if not job.oracle:
            ref_code = main(["run", str(path), "--format", "machine",
                             *job.args, "--oracle"])
            ref_out = capsys.readouterr().out
            assert verify.check_reference(job, out, ref_code, ref_out) \
                == [], job.name


def test_fundomain_documents_run_in_the_minus_direction(tmp_path, capsys):
    rng = random.Random(1)
    for variant in range(60):
        doc, _ = jobs.fundomain_doc(rng, variant)
        path = tmp_path / f"{variant:02d}.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path), "--format", "machine",
                     "--direction", "minus", "--oracle"])
        report = json.loads(capsys.readouterr().out)["report"]
        assert code == 0, variant
        assert all(c["ok"] for c in report["oracle"]), variant
        cone = parse_document(path.read_text()).payload["domain"].cone
        assert report["novikov"] == \
            novikov_homology(cone, Direction.MINUS).to_json(), variant


def _swelling_documents():
    """The known-defect documents and two timed diag-rank documents that
    used to fail in the direction the benchmark does not time."""
    docs = [(d["name"], d["doc"])
            for d in json.loads((BENCH / "known_defects.json").read_text())]
    seed2 = {job.name: job for job in jobs.make_jobs("diag-rank", 2,
                                                      ROOT / "src")}
    return docs + [(name, seed2[name].doc)
                   for name in ("diag-n8-b2-065", "torus-r10-plus-102")]


@pytest.mark.parametrize("direction", ["plus", "minus"])
def test_swelling_documents_answer_in_both_directions(tmp_path, capsys,
                                                      direction):
    """Each exits 0, and the invariant factors of each differential
    multiply to det d up to a Novikov unit."""
    dirn = Direction(direction)
    for k, (name, doc) in enumerate(_swelling_documents()):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--format", "machine",
                     "--direction", direction]) == 0, name
        capsys.readouterr()
        payload = parse_document(path.read_text()).payload
        c = (mapping_torus_complex(payload["h"], payload["orientation"])
             if "orientation" in payload else payload["complex"])
        for i in range(c.lo + 1, c.hi + 1):
            d = c.differential(i)
            product = LaurentPoly({0: 1})
            for f in novikov_diagonalize(d, dirn).invariant_factors:
                product = product * f
            det, _ = solve_laurent(d, Matrix.zeros(d.rows, 0))
            assert associate(product, det, dirn), (name, i)


def test_the_knot_cones_of_jobs_mixed_cancel_to_under_300():
    """The 84 seeded knot cones of jobs-mixed seeds 1-3 have a total rank
    of 1,008; unit cancellation leaves at most 300 (274 when written)."""
    ranks = []
    for seed in (1, 2, 3):
        for job in jobs.make_jobs("jobs-mixed", seed, ROOT / "src"):
            if job.doc["kind"] == "knot" and not job.golden:
                seifert = parse_document(json.dumps(job.doc)).payload["seifert"]
                cone = knot_fundamental_domain(seifert).cone
                ranks.append((sum(cone.ranks), sum(cancel_units(cone).ranks)))
    assert len(ranks) == 84
    assert sum(r for r, _ in ranks) == 1008
    assert sum(r for _, r in ranks) <= 300
