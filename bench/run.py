"""Benchmark for ``nk``: seeded job documents through ``nk run``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload jobs-mixed --seed 1 --seconds 12 --trace 0

The workload's documents are generated from ``--seed`` and written to
files under ``bench/out``; a worker child process runs each one through
``nk.cli.main(["run", <file>, "--format", "machine", ...])`` in a closed
loop with one client, repeating whole passes over the job list while
``--seconds`` allows (at least MIN_PASSES).  Times are in reference
seconds: each job's wall time is scaled by a calibration reading the
worker takes just before it (``worker.py``), because host speed on a
shared VM drifts by 20-30% over seconds.  Every report is verified
(``verify.py``).  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced pass (``tracer.py``), after a self-test
of the tracer on a tiny configuration.  Details (per-job outcomes,
scaling curves per size bucket, digests, environment) go to
``bench/out/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as J
import verify
from worker import CALIB_REF_S, Worker, calibration_loop, run_all

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = BENCH / "out"
KNOWN_DEFECTS = BENCH / "known_defects.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# Per-job timeout.  Every job of the timed workloads finishes in under 2 s
# on a 2-core VM, and the known-defect documents either crash within about
# 7 s or run for minutes, so no job flips between finishing and timing out.
JOB_TIMEOUT_S = 20.0
SETUP_STARTS = 9
MIN_PASSES = 2
VERIFY_WORKERS = 2
CALIBRATION_N = 2_000_000  # the host.calib_s loop, about 0.2 s

# Functions whose self time is reported in seconds: each one is called on
# every workload.  Every traced function gets calls and self_share.
ALWAYS_CALLED = (
    "cli.main", "cli.parse_document", "cli.run", "cli.Report.machine",
    "rings.RationalFunction", "rings.divexact", "linalg.matmul",
    "linalg.novikov_diagonalize", "linalg.rank_over_function_field",
    "novikov.novikov_homology", "complexes.validate_complex",
)
LAYER_FUNCTIONS = ALWAYS_CALLED + (
    "linalg.det_laurent", "linalg.adjugate_laurent",
    "linalg.smith_normal_form_int",
    "fundomain.torsion_zeta", "fundomain.algebraic_novikov_complex",
    "fundomain.cokernel_iso_check", "fundomain.assemble_mapping_cone",
    "rings.expand", "complexes.mapping_cone", "complexes.base_change",
    "models.fibering_check", "models.knot_novikov_factors",
    "models.alexander_polynomials", "models.mapping_torus_complex",
)


def measure_setup():
    """Median wall time of a fresh interpreter importing nk.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import nk.cli"]
    samples = []
    for k in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if k:  # the first start may compile bytecode
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def ref_wall(wall, outcomes):
    """A wall time in reference seconds, by the median calibration
    reading of the jobs it covers."""
    readings = [o.calib_s for o in outcomes if o.calib_s]
    return wall * CALIB_REF_S / statistics.median(readings) if readings \
        else wall


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


class Run:
    """The jobs of one invocation, their files and command lines."""

    def __init__(self, workload, seed, work):
        self.jobs = J.make_jobs(workload, seed, SRC)
        self.argv = []
        work.mkdir(parents=True, exist_ok=True)
        for k, job in enumerate(self.jobs):
            path = work / f"{k:04d}.json"
            path.write_text(json.dumps(job.doc))
            self.argv.append(["run", str(path), "--format", "machine",
                              *job.args])
        self.golden = {}
        for job in self.jobs:
            if job.golden:
                self.golden[job.name] = (
                    GOLDEN / f"{job.golden}.machine.json").read_text()

    def one_pass(self, worker, attempts, first, spans=None):
        """Run every job once; returns the pass wall time in reference
        seconds."""
        t0 = time.perf_counter()
        outcomes = []
        for k, argv in enumerate(self.argv):
            outcome, payload = worker.run(k, argv, JOB_TIMEOUT_S)
            attempts.append((k, outcome))
            outcomes.append(outcome)
            if k not in first:
                first[k] = outcome
            if spans is not None and payload is not None:
                spans.append(payload)
        return ref_wall(time.perf_counter() - t0, outcomes)


class Verdicts:
    """What is wrong with each job: a failure (crash, timeout, unexpected
    exit code) counts in the error rate; a wrong report also makes the
    run incorrect."""

    def __init__(self):
        self.problems = {}
        self.wrong = set()

    def add(self, k, found, wrong):
        if found:
            self.problems.setdefault(k, []).extend(found)
            if wrong:
                self.wrong.add(k)

    def check_outcomes(self, run, attempts, first):
        for k, outcome in first.items():
            if outcome.exc is not None:
                self.add(k, [f"{outcome.exc} {outcome.err}".strip()], False)
            elif outcome.code not in (0, 1):
                self.add(k, [f"exit {outcome.code}: {outcome.err}"], False)
            else:
                job = run.jobs[k]
                self.add(k, verify.check_report(job, outcome.code, outcome.out,
                                                run.golden.get(job.name)),
                         True)
        changed = {k for k, o in attempts
                   if (o.exc, o.code, o.out) != (first[k].exc, first[k].code,
                                                 first[k].out)}
        for k in changed:
            self.add(k, ["output changed between passes"], True)

    def check_references(self, run, first):
        """Once per invocation, on two fresh workers: oracle runs of the
        finished jobs timed without --oracle; their checks must pass and
        their other sections equal the timed report."""
        tasks = [(k, run.argv[k] + ["--oracle"])
                 for k in sorted(first)
                 if k not in self.problems and not run.jobs[k].oracle]
        workers = [Worker(SRC) for _ in range(VERIFY_WORKERS)]
        try:
            refs = run_all(workers, tasks, JOB_TIMEOUT_S * 2)
        finally:
            for w in workers:
                w.close()
        for k, ref in sorted(refs.items()):
            if ref.exc is not None:
                self.add(k, [f"oracle run: {ref.exc} {ref.err}"], False)
            else:
                self.add(k, verify.check_reference(
                    run.jobs[k], first[k].out, ref.code, ref.out), True)

    def status(self, attempts):
        """solved, inconclusive or error, per attempt."""
        return ["error" if k in self.problems else
                "inconclusive" if o.code == 1 else "solved"
                for k, o in attempts]

    def failures(self, run):
        return {run.jobs[k].name: p for k, p in sorted(self.problems.items())}


def report_digest(run, first):
    return verify.digest(
        (run.jobs[k].name,
         first[k].out if first[k].exc is None else f"<{first[k].exc}>")
        for k in sorted(first))


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def bucket_curves(run, attempts, status, layer_calls=None):
    """Median job time, job count and failed jobs per size bucket."""
    by = {}
    for k, t in job_times(attempts, status).items():
        b = by.setdefault(run.jobs[k].bucket, {"times": [], "errors": 0})
        b["times"].append(t)
        b["errors"] += t == JOB_TIMEOUT_S
    curves = {}
    for name, b in sorted(by.items()):
        curves[name] = {"median_s": statistics.median(b["times"]),
                        "jobs": len(b["times"]), "errors": b["errors"]}
        if layer_calls is not None:
            curves[name]["calls_per_job"] = layer_calls.get(name, {})
    return curves


def attempt_time(outcome, st):
    """An attempt's time in reference seconds; a failed job counts as the
    timeout."""
    return JOB_TIMEOUT_S if st == "error" else outcome.ref_seconds


def job_times(attempts, status):
    """Per job: the median of its attempts' times."""
    by_job = {}
    for (k, o), st in zip(attempts, status):
        by_job.setdefault(k, []).append(attempt_time(o, st))
    return {k: statistics.median(t) for k, t in by_job.items()}


def end_to_end(attempts, status, setup, worker):
    """The end-to-end metrics, with job times in reference seconds.
    solved_per_s divides by the summed time of all attempts, failed ones
    included, so the benchmark's own work between jobs is left out."""
    n = len(attempts)
    busy = sum(attempt_time(o, st) for (_, o), st in zip(attempts, status))
    times = list(job_times(attempts, status).values())
    inconclusive = status.count("inconclusive")
    errors = status.count("error")
    metrics = {
        "solved_per_s": (status.count("solved") / busy, "jobs/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (quantile(times, 90), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (worker.peak_rss_kib / 1024, "MiB"),
        "conclusive_rate": (1 - inconclusive / n, "ratio"),
        "ok_rate": (1 - errors / n, "ratio"),
    }
    samples = {"solved_per_s": n, "job_p50_s": len(times),
               "job_p90_s": len(times), "setup_s": SETUP_STARTS,
               "peak_rss_mib": n, "conclusive_rate": n, "ok_rate": n}
    extra = {"inconclusive_rate": inconclusive / n, "error_rate": errors / n,
             "solved": status.count("solved"), "inconclusive": inconclusive,
             "errors": errors}
    return metrics, samples, extra


def aggregate_layers(payloads, run):
    """Per-layer metrics of a traced pass, and per-bucket call counts."""
    calls, self_s = {}, {}
    raised = {}
    bits = 0
    job_time = 0.0
    per_bucket = {}
    n_spans = 0
    for p in payloads:
        for name, c in p["calls"].items():
            calls[name] = calls.get(name, 0) + c
        for name, s in p["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        for name, excs in p["raised"].items():
            for exc, c in excs.items():
                raised.setdefault(name, {})
                raised[name][exc] = raised[name].get(exc, 0) + c
        bits = max(bits, p["bits_max"])
        job_time += p["total_s"].get("cli.main", 0.0)
        n_spans += len(p["spans"][2])
        bucket = per_bucket.setdefault(run.jobs[p["spans"][0]].bucket,
                                       {"jobs": 0})
        bucket["jobs"] += 1
        for name, c in p["calls"].items():
            bucket[name] = bucket.get(name, 0) + c
    bucket_calls = {b: {name: c / v["jobs"] for name, c in v.items()
                        if name != "jobs"}
                    for b, v in per_bucket.items()}
    names = sorted(set(LAYER_FUNCTIONS) | set(calls))
    layers = {}
    for name in names:
        layers[f"{name}.calls"] = (calls.get(name, 0), "count")
        layers[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        layers[f"{name}.self_share"] = (
            self_s.get(name, 0.0) / job_time if job_time else 0.0, "ratio")
    diag = "linalg.novikov_diagonalize"
    d_calls = calls.get(diag, 0)
    d_raised = raised.get(diag, {})
    d_inc = d_raised.get("Inconclusive", 0)
    d_failed = sum(d_raised.values()) - d_inc
    layers[f"{diag}.inconclusive"] = (d_inc, "count")
    layers[f"{diag}.failed"] = (d_failed, "count")
    layers[f"{diag}.ok_ratio"] = (
        (d_calls - d_inc - d_failed) / d_calls if d_calls else 1.0, "ratio")
    layers["linalg.transform_coeff_bits_max"] = (bits, "bits")
    layers["trace.spans"] = (n_spans, "count")
    return layers, bucket_calls, raised, job_time


def selftest_argvs(work):
    """A tiny configuration: the bundled examples plus one small seeded
    document of each kind, each with and without --oracle."""
    import random
    rng = random.Random("nk-bench-selftest")
    docs = [job.doc for job in J.bundled_jobs(SRC)]
    docs += [J.MIXED_KINDS[kind](rng)[0] for kind in sorted(J.MIXED_KINDS)]
    argvs = []
    work.mkdir(parents=True, exist_ok=True)
    for k, doc in enumerate(docs):
        path = work / f"selftest-{k:02d}.json"
        path.write_text(json.dumps(doc))
        base = ["run", str(path), "--format", "machine"]
        argvs += [base, base + ["--oracle", "--direction", "minus"]]
    return argvs


def tracer_selftest(worker, argvs):
    """Traced call counts equal cProfile's for every wrapped function."""
    answer = worker.request(("selftest", argvs), JOB_TIMEOUT_S * 4)
    if answer is None:
        return ["self-test timed out"], {}
    traced, profiled, outcomes = answer
    problems = [f"{name}: traced {traced.get(name, 0)}, cProfile "
                f"{profiled.get(name, 0)}"
                for name in sorted(set(traced) | set(profiled))
                if traced.get(name, 0) != profiled.get(name, 0)]
    problems += [f"self-test job {k} raised {o.exc}"
                 for k, o in enumerate(outcomes) if o.exc is not None]
    return problems, {"functions": len(profiled),
                      "calls": sum(profiled.values())}


def run_known_defects(work):
    """Documents that crash or hang at the seed commit, run once each."""
    docs = json.loads(KNOWN_DEFECTS.read_text())
    worker = Worker(SRC)
    out = []
    try:
        for k, entry in enumerate(docs):
            path = work / f"defect-{k}.json"
            path.write_text(json.dumps(entry["doc"]))
            outcome, _ = worker.run(
                k, ["run", str(path), "--format", "machine"], JOB_TIMEOUT_S)
            out.append({"name": entry["name"], "code": outcome.code,
                        "exc": outcome.exc, "seconds": outcome.seconds})
    finally:
        worker.close()
    return out


def print_metrics(title, metrics, samples):
    print(title)
    for name, (value, unit) in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<44} {value:>14.6g} {unit}{n}")


def measure(workload, seed, seconds, work, results):
    setup, setup_samples = measure_setup()
    run = Run(workload, seed, work)
    worker = Worker(SRC)
    attempts, first = [], {}
    verdicts = Verdicts()
    try:
        worker.run(0, run.argv[0], JOB_TIMEOUT_S)  # warm-up, not counted
        pass_walls = []
        t0 = time.perf_counter()
        while True:
            pass_walls.append(run.one_pass(worker, attempts, first))
            wall = time.perf_counter() - t0
            if (len(pass_walls) >= MIN_PASSES
                    and wall * (1 + 1 / len(pass_walls)) > seconds):
                break
    finally:
        worker.close()
    passes = len(pass_walls)
    t1 = time.perf_counter()
    verdicts.check_outcomes(run, attempts, first)
    verdicts.check_references(run, first)
    results["verify_s"] = time.perf_counter() - t1
    status = verdicts.status(attempts)
    metrics, samples, extra = end_to_end(attempts, status, setup, worker)
    results.update({
        "passes": passes, "jobs_per_pass": len(run.jobs), "wall_s": wall,
        "pass_walls_s": pass_walls,
        "worker_restarts": worker.restarts, "setup_samples_s": setup_samples,
        "digest": report_digest(run, first), "rates": extra,
        "scaling": bucket_curves(run, attempts, status),
        "failures": verdicts.failures(run),
        "job_ref_seconds": {run.jobs[k].name: [o.ref_seconds
                                               for j, o in attempts if j == k]
                            for k in sorted(first)},
    })
    print(f"workload {workload} seed {seed}: {len(attempts)} jobs in "
          f"{passes} passes of {len(run.jobs)}, {wall:.2f} s; "
          f"digest {results['digest'][:16]}")
    print(f"  inconclusive_rate {extra['inconclusive_rate']:.4f}, "
          f"error_rate {extra['error_rate']:.4f}")
    for name, p in results["failures"].items():
        print(f"  FAILED {name}: {'; '.join(p)}")
    print_metrics("end-to-end metrics:", metrics, samples)
    return metrics, len(attempts), status.count("error"), not verdicts.wrong


def write_spans(path, run, payloads):
    """One JSON line per job: its spans as parallel arrays."""
    names = payloads[0]["names"] if payloads else []
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"names": names}) + "\n")
        for p in payloads:
            job, name_ids, start, end, parent = p["spans"]
            fh.write(json.dumps({"job": run.jobs[job].name,
                                 "name": name_ids.tolist(),
                                 "start": start.tolist(), "end": end.tolist(),
                                 "parent": parent.tolist()}) + "\n")


def measure_traced(workload, seed, work, results):
    run = Run(workload, seed, work)
    plain, traced = Worker(SRC), Worker(SRC, trace=True)
    payloads = []
    a0, f0, a1, f1 = [], {}, [], {}
    v0, v1 = Verdicts(), Verdicts()
    try:
        plain.run(0, run.argv[0], JOB_TIMEOUT_S)
        wall0 = run.one_pass(plain, a0, f0)
        self_problems, self_info = tracer_selftest(traced,
                                                   selftest_argvs(work))
        traced.run(0, run.argv[0], JOB_TIMEOUT_S)
        wall1 = run.one_pass(traced, a1, f1, payloads)
    finally:
        plain.close()
        traced.close()
    v0.check_outcomes(run, a0, f0)
    v0.check_references(run, f0)
    v1.check_outcomes(run, a1, f1)
    digest0, digest1 = report_digest(run, f0), report_digest(run, f1)
    if digest0 != digest1:
        self_problems.append("traced reports differ from untraced reports")
    layers, bucket_calls, raised, job_time = aggregate_layers(payloads, run)
    layers["trace.overhead_ratio"] = (
        sum(o.ref_seconds for _, o in a1) / sum(o.ref_seconds for _, o in a0),
        "ratio")
    defects = run_known_defects(work) if workload == "diag-rank" else []
    layers["known_defects.attempted"] = (len(defects), "count")
    layers["known_defects.errors"] = (
        sum(d["exc"] is not None or d["code"] not in (0, 1) for d in defects),
        "count")
    layers["known_defects.timeouts"] = (
        sum(d["exc"] == "Timeout" for d in defects), "count")
    spans_path = OUT / f"spans-{workload}-s{seed}.jsonl.gz"
    write_spans(spans_path, run, payloads)
    results.update({
        "untraced_wall_s": wall0, "traced_wall_s": wall1,
        "digest": digest0, "traced_digest": digest1,
        "selftest": {"problems": self_problems, **self_info},
        "raised": raised, "traced_job_time_s": job_time,
        "scaling": bucket_curves(run, a0, v0.status(a0), bucket_calls),
        "known_defects": defects, "failures": v0.failures(run),
    })
    print(f"workload {workload} seed {seed} (traced): {len(run.jobs)} jobs; "
          f"untraced {wall0:.2f} s, traced {wall1:.2f} s; "
          f"spans in {spans_path.relative_to(ROOT)}")
    for name, p in results["failures"].items():
        print(f"  FAILED {name}: {'; '.join(p)}")
    for p in self_problems:
        print(f"  SELF-TEST FAILED {p}")
    for d in defects:
        print(f"  known defect {d['name']}: exit {d['code']} {d['exc']} "
              f"after {d['seconds']:.1f} s")
    print_metrics("per-layer metrics:", layers, {})
    correct = not (self_problems or v0.wrong or v1.wrong)
    return layers, len(a1), v1.status(a1).count("error"), correct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(J.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nk" / "cli.py").is_file() or not GOLDEN.is_dir():
        sys.stderr.write(f"error: no nk sources under {SRC} or no golden "
                         f"reports under {GOLDEN}\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    results = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "git_sha": git_sha(), "python": platform.python_version(),
               "nproc": os.cpu_count(), "job_timeout_s": JOB_TIMEOUT_S}
    started = time.perf_counter()
    results["host.calib_s.before"] = calibration_loop(CALIBRATION_N)
    try:
        if args.trace:
            metrics, attempted, failed, correct = measure_traced(
                args.workload, args.seed, work, results)
        else:
            metrics, attempted, failed, correct = measure(
                args.workload, args.seed, args.seconds, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results["host.calib_s.after"] = calibration_loop(CALIBRATION_N)
    results["run_s"] = time.perf_counter() - started
    results["metrics"] = {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}
    section = "per_layer" if args.trace else "end_to_end"
    declared = json.loads(BENCHMARK_JSON.read_text())[section]
    final = {m["name"]: results["metrics"][m["name"]] for m in declared}
    (OUT / f"{tag}.json").write_text(json.dumps(results, indent=1))
    print(f"host.calib_s before {results['host.calib_s.before']:.4f} after "
          f"{results['host.calib_s.after']:.4f}; run {results['run_s']:.1f} s"
          f"; git {results['git_sha'][:12]}"
          f"; python {results['python']}; nproc {results['nproc']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
