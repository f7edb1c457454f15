"""Checks on the reports the program returns.

A finished job (exit 0 or 1, no exception) must print one machine report
whose kind and exit code match the run.  On top of that:

* bundled examples run with default flags are byte-identical to
  ``tests/golden/<name>.machine.json``;
* a report run with ``--oracle`` has every oracle check ok;
* facts known by construction hold: the Euler characteristic of the
  Novikov (or integral) Betti numbers equals the alternating rank sum,
  mapping tori are acyclic over the completion matching their
  orientation, and unit-pivot differentials have exactly one torsion
  factor.

``check_reference`` judges the once-per-invocation ``--oracle`` run of a
job whose timed runs did not use ``--oracle``: its non-oracle sections
must equal the timed report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json


def _alternating(values):
    return sum((-1) ** int(i) * v for i, v in values.items())


def strip_oracle(parsed):
    report = {k: v for k, v in parsed["report"].items() if k != "oracle"}
    return {**parsed, "report": report}


def check_report(job, code, out, golden_text=None):
    """Problems with a finished job's report; an empty list when it holds."""
    try:
        parsed = json.loads(out)
    except json.JSONDecodeError:
        return [f"exit {code} without a machine report"] if code == 0 else []
    problems = []
    if parsed.get("kind") != job.doc["kind"]:
        problems.append(f"kind {parsed.get('kind')!r}")
    if parsed.get("exit_code") != code:
        problems.append(f"report exit_code {parsed.get('exit_code')} "
                        f"but main returned {code}")
    if golden_text is not None and not job.args and out != golden_text:
        problems.append("differs from golden report")
    report = parsed.get("report", {})
    bad = [c["check"] for c in report.get("oracle", []) if not c["ok"]]
    if bad:
        problems.append(f"oracle checks failed: {bad}")
    nov = report.get("novikov") or report.get("homology")
    if "euler" in job.expect and nov is not None:
        chi = _alternating(nov["betti"])
        if chi != job.expect["euler"]:
            problems.append(f"Euler characteristic {chi}, expected "
                            f"{job.expect['euler']}")
    if "fhat_euler" in job.expect:
        chi_f = _alternating(report["fhat_ranks"])
        chi_b = _alternating(report["novikov"]["betti"])
        if not chi_f == chi_b == job.expect["fhat_euler"]:
            problems.append(f"F^ Euler characteristic {chi_f}/{chi_b}, "
                            f"expected {job.expect['fhat_euler']}")
    args = list(job.args)
    direction = args[args.index("--direction") + 1] \
        if "--direction" in args else "plus"
    if job.expect.get("acyclic_in") == direction:
        if any(nov["betti"].values()) or any(nov["torsion"].values()):
            problems.append(f"{direction}-orientation torus is not acyclic")
    counts = job.expect.get("torsion_counts")
    if counts is not None:
        found = {i: len(f) for i, f in nov["torsion"].items()}
        if found != counts:
            problems.append(f"torsion counts {found}, expected {counts}")
    return problems


def check_reference(job, timed_out, ref_code, ref_out):
    """The oracle run agrees with itself and with the timed report."""
    if ref_code not in (0, 1):
        return [f"oracle run exit {ref_code}"]
    oracle_job = dataclasses.replace(job, args=job.args + ("--oracle",),
                                     golden=None)
    problems = check_report(oracle_job, ref_code, ref_out)
    try:
        same = strip_oracle(json.loads(ref_out)) == json.loads(timed_out)
    except json.JSONDecodeError:
        same = ref_out == timed_out
    if not same:
        problems.append("oracle run's report differs from the timed report")
    return problems


def digest(entries):
    """sha256 over (job name, report or failure marker) in job order."""
    h = hashlib.sha256()
    for name, text in entries:
        h.update(name.encode() + b"\n" + text.encode() + b"\n")
    return h.hexdigest()
