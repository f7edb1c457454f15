"""Document parsing, dispatch, report formats, exit codes."""

import importlib
import io
import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

import nk.fundomain
import nk.novikov
from nk import cli
from nk.rings import Direction, LaurentPoly, NotAUnit, NotInRationalSubring
from nk.linalg import DimensionMismatch, Inconclusive, Matrix, associate
from nk.complexes import InvalidDomain, NotAComplex, cancel_units
from nk.fundomain import TruncatedComplexPresentation, algebraic_novikov_complex
from nk.models import knot_fundamental_domain
from nk.novikov import NovikovReport, novikov_homology
from nk.cli import (
    MAX_ENTRIES,
    MAX_PRECISION,
    MAX_RANK,
    JobDocument,
    ParseError,
    ValidationError,
    bundled_examples,
    _RUNNERS,
    _rank_vs_diag_check,
    _read_bundled,
    main,
    parse_document,
    run,
)

GOLDEN = Path(__file__).parent / "golden"


def job(kind, payload, options=None):
    doc = {"kind": kind, "payload": payload}
    if options:
        doc["options"] = options
    return json.dumps(doc)


TORUS_MINUS = job("mapping-torus", {
    "complex": {"lo": 0, "hi": 1, "ranks": [1, 1], "differentials": {}},
    "h": {"0": [[1]], "1": [[2]]},
    "orientation": "minus",
})

TREFOIL = job("knot", {
    "base": {"lo": 1, "hi": 1, "ranks": [2], "differentials": {}},
    "e": {"1": [[0, 1], [-1, 1]]},
})

CIRCLE = job("novikov", {
    "complex": {"lo": 0, "hi": 1, "ranks": [1, 1],
                "differentials": {"1": [[{"0": 1, "1": -1}]]}},
})


# --- parsing -------------------------------------------------------------------

def test_parse_well_formed_knot():
    doc = parse_document(TREFOIL)
    assert isinstance(doc, JobDocument) and doc.kind == "knot"


def test_parse_row_length_mismatch_positions_error():
    bad = job("novikov", {"complex": {
        "lo": 0, "hi": 1, "ranks": [2, 2],
        "differentials": {"1": [[0, 0], [0]]}}})
    with pytest.raises(ParseError) as exc:
        parse_document(bad)
    assert "[1]" in exc.value.path


def test_parse_d_squared_failure_is_validation_error():
    bad = job("complex-homology", {"complex": {
        "lo": 0, "hi": 2, "ranks": [1, 1, 1],
        "differentials": {"1": [[1]], "2": [[1]]}}})
    with pytest.raises(ValidationError) as exc:
        parse_document(bad)
    assert "degree 2" in str(exc.value)


def test_parse_unknown_kind():
    with pytest.raises(ParseError) as exc:
        parse_document(json.dumps({"kind": "nope", "payload": {}}))
    assert exc.value.path == "$.kind"


def test_parse_bad_json_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_document("{\n  broken\n}")
    assert "line" in exc.value.path


def test_parse_options():
    doc = parse_document(job("novikov", json.loads(CIRCLE)["payload"],
                             {"precision": 8, "direction": "minus"}))
    assert doc.options == {"precision": 8, "direction": "minus"}


def test_parse_bad_option_values():
    payload = json.loads(CIRCLE)["payload"]
    with pytest.raises(ParseError):
        parse_document(job("novikov", payload, {"precision": -1}))
    with pytest.raises(ParseError):
        parse_document(job("novikov", payload, {"direction": "sideways"}))


INT_FIELDS = {
    "novikov": {"kind": "novikov", "options": {"precision": 8}, "payload": {
        "complex": {"lo": 0, "hi": 1, "ranks": [1, 2], "differentials": {
            "1": [[{"0": 1, "1": -1}, 3]]}}}},
    "inequalities": {"kind": "inequalities",
                     "payload": {"lo": 0, "counts": [1, 2], "bounds": [1, 1]}},
}

INT_POSITIONS = {
    "entry": ("novikov", ("payload", "complex", "differentials", "1", 0, 1),
              "$.payload.complex.differentials.1[0][1]"),
    "coeff": ("novikov",
              ("payload", "complex", "differentials", "1", 0, 0, "1"),
              "$.payload.complex.differentials.1[0][0].1"),
    "lo": ("novikov", ("payload", "complex", "lo"), "$.payload.complex.lo"),
    "hi": ("novikov", ("payload", "complex", "hi"), "$.payload.complex.hi"),
    "rank": ("novikov", ("payload", "complex", "ranks", 1),
             "$.payload.complex.ranks[1]"),
    "precision": ("novikov", ("options", "precision"), "$.options.precision"),
    "ineq-lo": ("inequalities", ("payload", "lo"), "$.payload.lo"),
    "counts": ("inequalities", ("payload", "counts", 1),
               "$.payload.counts[1]"),
    "bounds": ("inequalities", ("payload", "bounds", 0),
               "$.payload.bounds[0]"),
}


@pytest.mark.parametrize("bad", [2.7, True, "5", None],
                         ids=["float", "bool", "string", "null"])
@pytest.mark.parametrize("kind, keys, path", list(INT_POSITIONS.values()),
                         ids=list(INT_POSITIONS))
def test_integer_fields_take_json_integers_only(tmp_path, capsys, kind, keys,
                                                path, bad):
    doc = json.loads(json.dumps(INT_FIELDS[kind]))
    parse_document(json.dumps(doc))  # well formed before the edit
    slot = doc
    for k in keys[:-1]:
        slot = slot[k]
    slot[keys[-1]] = bad
    text = json.dumps(doc)
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert exc.value.path == path
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main(["validate", str(f)]) == 2
    assert path in capsys.readouterr().err


def _rejected_with_path(tmp_path, capsys, text, path):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert exc.value.path == path
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main(["validate", str(f)]) == 2
    assert path in capsys.readouterr().err


DUPLICATE_KEYS = {
    "exponent": (job("novikov", {"complex": {
        "lo": 0, "hi": 1, "ranks": [1, 1],
        "differentials": {"1": [[{"1": 2, "01": 3}]]}}}),
        "$.payload.complex.differentials.1[0][0].01"),
    "complex-degree": (job("novikov", {"complex": {
        "lo": 0, "hi": 1, "ranks": [1, 1],
        "differentials": {"1": [[1]], "01": [[2]]}}}),
        "$.payload.complex.differentials.01"),
    "family-degree": (job("knot", {
        "base": {"lo": 1, "hi": 1, "ranks": [2], "differentials": {}},
        "e": {"1": [[0, 1], [-1, 1]], "01": [[1, 0], [0, 1]]}}),
        "$.payload.e.01"),
}


@pytest.mark.parametrize("text, path", list(DUPLICATE_KEYS.values()),
                         ids=list(DUPLICATE_KEYS))
def test_duplicate_keys_after_normalisation(tmp_path, capsys, text, path):
    _rejected_with_path(tmp_path, capsys, text, path)


def _novikov_entry(coeffs):
    return job("novikov", {"complex": {"lo": 0, "hi": 1, "ranks": [1, 1],
                                       "differentials": {"1": [[coeffs]]}}})


@pytest.mark.parametrize("key", ["+1", " 1", "1 ", "\uff11", "1_0"])
@pytest.mark.parametrize("position", ["exponent", "degree"])
def test_keys_are_ascii_decimal(tmp_path, capsys, position, key):
    if position == "exponent":
        text = _novikov_entry({"0": 1, key: 1})
        path = f"$.payload.complex.differentials.1[0][0].{key}"
    else:
        text = job("novikov", {"complex": {
            "lo": 0, "hi": 1, "ranks": [1, 1], "differentials": {key: [[2]]}}})
        path = f"$.payload.complex.differentials.{key}"
    _rejected_with_path(tmp_path, capsys, text, path)


def test_keys_keep_sign_and_leading_zeros():
    doc = parse_document(_novikov_entry({"-01": 1, "002": 3}))
    entry = doc.payload["complex"].differential(1).entry(0, 0)
    assert (entry.ord(), entry.deg(), entry.coeff(2)) == (-1, 2, 3)


@pytest.mark.parametrize("exponent", ["100001", "-100001"])
def test_exponent_bound(tmp_path, capsys, exponent):
    _rejected_with_path(tmp_path, capsys,
                        _novikov_entry({"0": 1, exponent: 1}),
                        f"$.payload.complex.differentials.1[0][0].{exponent}")


def test_exponent_at_the_bound_is_accepted():
    doc = parse_document(_novikov_entry({"-100000": 1, "100000": 1}))
    entry = doc.payload["complex"].differential(1).entry(0, 0)
    assert (entry.ord(), entry.deg()) == (-100_000, 100_000)


@pytest.mark.parametrize("rank", [MAX_RANK + 1, 10 ** 5, 10 ** 30])
def test_rank_bound(tmp_path, capsys, rank):
    # a short document whose ranks would allocate dense matrices past
    # memory, or past what an index can hold
    _rejected_with_path(tmp_path, capsys, job("novikov", {"complex": {
        "lo": 0, "hi": 1, "ranks": [1, rank]}}), "$.payload.complex.ranks[1]")
    assert main(["run", str(tmp_path / "bad.json")]) == 2
    assert f"up to {MAX_RANK}" in capsys.readouterr().err


def test_rank_at_the_bound_is_accepted():
    doc = parse_document(job("novikov", {"complex": {
        "lo": 0, "hi": 1, "ranks": [MAX_RANK, MAX_RANK]}}))
    assert doc.payload["complex"].rank(1) == MAX_RANK


@pytest.mark.parametrize("degrees", [200, 50])
def test_entries_bound(tmp_path, capsys, degrees):
    # 876 and 275 bytes: no differential is given, yet every degree
    # costs work (7 s and 2 s to run before the bound)
    text = job("novikov", {"complex": {
        "lo": 0, "hi": degrees - 1, "ranks": [MAX_RANK] * degrees}})
    start = time.perf_counter()
    _rejected_with_path(tmp_path, capsys, text, "$.payload.complex.ranks")
    assert main(["run", str(tmp_path / "bad.json")]) == 2
    assert f"at most {MAX_ENTRIES} entries" in capsys.readouterr().err
    assert time.perf_counter() - start < 0.1


def _raise_too_slow(*_):
    raise TimeoutError("main ran past its time bound")


def test_a_wide_integer_smith_form_finishes(tmp_path, capsys):
    """A 10 KB document: d_1 is four random 2,501-digit integers, whose
    integer Smith form (in the first Schur step) once ran for minutes.
    Interrupted after 10 s, so that a regression fails instead of
    hanging."""
    rng = random.Random(5)
    f = tmp_path / "wide.json"
    f.write_text(job("novikov", {"complex": {
        "lo": 0, "hi": 1, "ranks": [2, 2], "differentials": {"1": [
            [rng.randrange(10 ** 2500, 10 ** 2501) for _ in range(2)]
            for _ in range(2)]}}}))
    previous = signal.signal(signal.SIGALRM, _raise_too_slow)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        code = main(["run", str(f), "--format", "machine", "--oracle"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out = capsys.readouterr().out
    assert code == 0
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:  # the factor has about 5,000 digits
        sys.set_int_max_str_digits(0)
    try:
        checks = json.loads(out)["report"]["oracle"]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert checks and all(c["ok"] for c in checks)


@pytest.mark.parametrize("slot", ["option", "entry"])
def test_integers_past_the_digit_limit_exit_2(tmp_path, capsys, slot):
    # json.loads raises a plain ValueError past Python's 4,300 digits
    text = (job("novikov", json.loads(CIRCLE)["payload"], {"precision": 123456})
            if slot == "option" else _novikov_entry(123456))
    _rejected_with_path(tmp_path, capsys, text.replace("123456", "9" * 5000),
                        "$")
    assert main(["run", str(tmp_path / "bad.json")]) == 2
    assert "error: $: " in capsys.readouterr().err


@pytest.mark.parametrize("position", ["exponent", "degree"])
def test_keys_past_the_digit_limit_exit_2_at_their_path(tmp_path, capsys,
                                                        position):
    key = "1" * 5000
    if position == "exponent":
        text = _novikov_entry({"0": 1, key: 1})
        path = f"$.payload.complex.differentials.1[0][0].{key}"
    else:
        text = job("novikov", {"complex": {
            "lo": 0, "hi": 1, "ranks": [1, 1], "differentials": {key: [[2]]}}})
        path = f"$.payload.complex.differentials.{key}"
    _rejected_with_path(tmp_path, capsys, text, path)
    assert main(["run", str(tmp_path / "bad.json")]) == 2


# One document for each rejection that no other test reaches:
# (text, error class, JSON path, reason)
REJECTIONS = {
    "options": (json.dumps({"kind": "novikov", "payload": {"complex": {
        "lo": 0, "hi": 0, "ranks": [1]}}, "options": []}),
        ParseError, "$.options", "expected an object"),
    "empty-range": (job("novikov", {"complex": {
        "lo": 1, "hi": 0, "ranks": []}}),
        ValidationError, "$.payload.complex", "degree range is empty"),
    "domain-c": (job("fundomain", {"domain": {
        "D": {"lo": 0, "hi": 0, "ranks": [1]},
        "F": {"lo": 0, "hi": 1, "ranks": [1, 1]},
        "c": [], "hF": {"0": [[1]]}, "hD": {"0": [[1]]}}}),
        ParseError, "$.payload.domain.c",
        "expected an object keyed by degree"),
    "torus-h-shape": (job("mapping-torus", {
        "complex": {"lo": 0, "hi": 0, "ranks": [1]},
        "h": {"0": [[1, 0]]}, "orientation": "plus"}),
        ValidationError, "$.payload.h.0", "component is 1x2, expected 1x1"),
    "torus-h-commute": (job("mapping-torus", {
        "complex": {"lo": 0, "hi": 1, "ranks": [1, 1],
                    "differentials": {"1": [[1]]}},
        "h": {"0": [[1]], "1": [[2]]}, "orientation": "plus"}),
        ValidationError, "$.payload.h", "does not commute with d at degree 1"),
    "orientation": (job("mapping-torus", {
        "complex": {"lo": 0, "hi": 0, "ranks": [1]},
        "h": {"0": [[1]]}, "orientation": "sideways"}),
        ParseError, "$.payload.orientation", "expected plus or minus"),
}


@pytest.mark.parametrize("text, error, path, reason",
                         list(REJECTIONS.values()), ids=list(REJECTIONS))
def test_rejection_names_its_path_and_exits_2(tmp_path, capsys, text, error,
                                              path, reason):
    with pytest.raises(error) as exc:
        parse_document(text)
    assert (exc.value.path, exc.value.reason) == (path, reason)
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main(["validate", str(f)]) == 2
    assert f"error: {path}: {reason}" in capsys.readouterr().err


# Documents that name a block the runners use over Z with a Laurent entry,
# or a knot base below degree 0: both are refused where they are parsed
RUNNER_ASSUMPTIONS = {
    "domain-hD": (job("fundomain", {"domain": {
        "D": {"lo": 0, "hi": 0, "ranks": [1]},
        "F": {"lo": 0, "hi": 1, "ranks": [1, 1]},
        "c": {"1": [[1]]}, "hF": {"0": [[1]]}, "hD": {"0": [[{"-1": 1}]]}}}),
        "$.payload.domain.hD.0"),
    "knot-e": (job("knot", {"base": {"lo": 1, "hi": 1, "ranks": [1]},
                            "e": {"1": [[{"1": 1}]]}}), "$.payload.e.1"),
    "torus-h": (job("mapping-torus", {
        "complex": {"lo": 0, "hi": 0, "ranks": [1]},
        "h": {"0": [[{"1": 2}]]}, "orientation": "plus"}), "$.payload.h.0"),
    "knot-base-lo": (job("knot", {
        "base": {"lo": -1, "hi": 1, "ranks": [0, 0, 2]},
        "e": {"1": [[0, 1], [-1, 1]]}}), "$.payload.base"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("text, path", list(RUNNER_ASSUMPTIONS.values()),
                         ids=list(RUNNER_ASSUMPTIONS))
def test_runner_assumptions_are_checked_at_parse(tmp_path, capsys, command,
                                                 text, path):
    with pytest.raises(ValidationError) as exc:
        parse_document(text)
    assert exc.value.path == path
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main([command, str(f)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


# --- running -------------------------------------------------------------------

def test_run_torus_minus_reports_factor():
    report = run(parse_document(TORUS_MINUS))
    assert report.exit_code == 0
    nov = report.data["novikov"]
    assert nov["torsion"]["1"] == [{"0": 2, "1": -1}]  # 2 - z
    assert "2 - z" in report.text


def test_run_trefoil_fibers():
    report = run(parse_document(TREFOIL))
    fib = report.data["fibering"]
    assert fib["fibers"] is True
    assert fib["alexander"]["1"] == {"0": 1, "1": -1, "2": 1}
    assert "fibers: True" in report.text


def count_calls(monkeypatch, module, name):
    """The argument tuples of the calls of module.name, made through any
    nk module that binds that function."""
    real = getattr(importlib.import_module(module), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for m in ("nk.cli", "nk.novikov", "nk.fundomain", "nk.models"):
        if getattr(importlib.import_module(m), name, None) is real:
            monkeypatch.setattr(f"{m}.{name}", counted)
    return calls


@pytest.mark.parametrize("direction", ["plus", "minus"])
def test_knot_job_builds_one_cone(monkeypatch, direction):
    """The knot factors come from the fibering check's reports: one cone,
    and one Q(z) rank per differential of the cone reduced by unit
    cancellation, for both completions, whatever the direction."""
    import nk.models
    cones = count_calls(monkeypatch, "nk.fundomain", "assemble_mapping_cone")
    ranks = count_calls(monkeypatch, "nk.linalg", "rank_over_function_field")
    doc = parse_document(_read_bundled("knot_nonfibered.json"))
    report = run(doc, direction=direction, oracle=True)
    assert all(c["ok"] for c in report.data["oracle"])
    assert len(cones) == 1
    cone = cancel_units(cones[0][0].cone)
    assert [m for m, in ranks] == [cone.differential(i)
                                   for i in range(cone.lo + 1, cone.hi + 1)]
    factors = nk.models.knot_novikov_factors(doc.payload["seifert"],
                                             Direction(direction))
    assert factors[1]
    assert report.data["novikov_factors"] == {
        str(i): [f.to_json() for f in fs] for i, fs in factors.items() if fs}


@pytest.mark.parametrize("direction", ["plus", "minus"])
def test_knot_oracle_compares_factors_as_ideals(direction):
    # minus: the cone gives 4 - 9z + 4z^2 and the direct reduction
    # -8 + 22z - 17z^2 + 4z^3; they differ by z - 2, a unit of Z((z^-1))
    doc = parse_document(job("knot", {
        "base": {"lo": 1, "hi": 1, "ranks": [3], "differentials": {}},
        "e": {"1": [[-1, 1, 2], [0, 2, 0], [1, 0, 2]]}}))
    report = run(doc, direction=direction, oracle=True)
    assert [c["ok"] for c in report.data["oracle"]] == [True, True]


def test_knot_oracle_builds_each_alexander_matrix_once(monkeypatch):
    seen = count_calls(monkeypatch, "nk.models",
                       "induced_map_on_free_homology")
    report = run(parse_document(TREFOIL), oracle=True)
    assert all(c["ok"] for c in report.data["oracle"])
    assert [i for _, _, i in seen] == [1]


NOVIKOV_TWO_STEP = job("novikov", {"complex": {
    "lo": 0, "hi": 2, "ranks": [1, 2, 1],
    "differentials": {"1": [[{"1": 1}, 1]], "2": [[1], [{"1": -1}]]}}})


@pytest.mark.parametrize("text", [NOVIKOV_TWO_STEP, TORUS_MINUS],
                         ids=["novikov", "mapping-torus"])
def test_novikov_job_reduces_and_ranks_each_differential_once(monkeypatch,
                                                              text):
    ranks = count_calls(monkeypatch, "nk.linalg", "rank_over_function_field")
    reductions = count_calls(monkeypatch, "nk.linalg", "novikov_factors")
    report = run(parse_document(text), direction="minus", oracle=True)
    assert [c["ok"] for c in report.data["oracle"]] == [True]
    assert len(ranks) == 2
    assert [m for m, in ranks] == [m for m, _ in reductions]
    assert {d for _, d in reductions} == {Direction.MINUS}


def test_domination_job_ranks_once_and_reduces_once_per_direction(
        monkeypatch):
    ranks = count_calls(monkeypatch, "nk.linalg", "rank_over_function_field")
    reductions = count_calls(monkeypatch, "nk.linalg", "novikov_factors")
    text = NOVIKOV_TWO_STEP.replace('"novikov"', '"domination"')
    report = run(parse_document(text), oracle=True)
    assert [c["ok"] for c in report.data["oracle"]] == [True, True]
    assert len(ranks) == 2
    assert reductions == [(m, d) for d in (Direction.PLUS, Direction.MINUS)
                          for m, in ranks]


def test_fundomain_job_builds_one_cone(monkeypatch):
    cones = count_calls(monkeypatch, "nk.fundomain", "assemble_mapping_cone")
    report = run(parse_document(_read_bundled("scalar_domain.json")),
                 precision=8, oracle=True)
    assert [c["ok"] for c in report.data["oracle"]] == [True, True]
    assert len(cones) == 1


@pytest.mark.parametrize("direction, oracle, built", [
    ("plus", False, 0), ("plus", True, 1), ("minus", False, 1),
    ("minus", True, 1)])
def test_fundomain_job_builds_the_cone_only_to_read_it(monkeypatch, direction,
                                                       oracle, built):
    # the cokernel identification reads the domain's blocks; the cone is
    # read by the minus Novikov report and the cone-vs-F^ oracle only.
    # The F^ ranks are F's; the exact F^ is read by the plus Novikov
    # report and the exact-vs-truncated oracle only, once per run
    cones = count_calls(monkeypatch, "nk.fundomain", "assemble_mapping_cone")
    fhats = count_calls(monkeypatch, "nk.fundomain",
                        "algebraic_novikov_complex")
    report = run(parse_document(_read_bundled("scalar_domain.json")),
                 direction=direction, oracle=oracle)
    assert report.data["cokernel_check"]["passed"] is True
    assert report.data["fhat_ranks"] == {"0": 1, "1": 1}
    assert [c["ok"] for c in report.data.get("oracle", [])] == (
        [True, True] if oracle else [])
    assert len(cones) == built
    assert len([a for a in fhats if a[1:] in ((), ("exact",))]) == (
        direction == "plus" or oracle)


def test_a_failing_cokernel_identification_is_reported(monkeypatch, tmp_path,
                                                       capsys):
    # F^ is built from the true blocks; then the entry of
    # z h_F adj(1 - z h_D) on D_0 moves by z^2, which the adjugate
    # identity, on the D_0 column block of degree 1, sees at order 2
    doc = parse_document(_read_bundled("scalar_domain.json"))
    fd = doc.payload["domain"]
    fd.numerators
    det, y = fd.solved[0]
    fd.__dict__["solved"] = {0: (det, Matrix(1, 1, [
        [y.entry(0, 0) + LaurentPoly({2: 1})]]))}
    monkeypatch.setattr(cli, "parse_document", lambda text: doc)
    f = tmp_path / "scalar.json"
    f.write_text(_read_bundled("scalar_domain.json"))
    assert main(["run", str(f), "--precision", "8"]) == 0
    assert ("cokernel identification through order 8: "
            "FAIL at degree 1, order 2") in capsys.readouterr().out.splitlines()
    assert main(["run", str(f), "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["cokernel_check"] \
        == {"passed": False, "degree": 1, "order": 2}
    # below the order of the mismatch the identification holds
    assert main(["run", str(f), "--precision", "1"]) == 0
    assert ("cokernel identification through order 1: pass"
            in capsys.readouterr().out.splitlines())


def test_rank_vs_diag_check_reads_the_report_ranks():
    def check(ranks):
        return _rank_vs_diag_check(NovikovReport(
            0, 2, {}, {}, Direction.PLUS, False, ranks))

    assert check({1: (1, 0), 2: (1, None)}) == {
        "check": "rank-vs-diagonalization", "ok": False,
        "detail": "degree 1: rank 1 vs diagonal 0; "
                  "skipped: degree 2 inconclusive"}
    assert check({1: (1, 1), 2: (0, None)})["ok"] is True


def gives_up(monkeypatch, module, when, keep_factors=False):
    """Make module.novikov_factors raise Inconclusive on the calls
    (matrix, direction) that when selects; with keep_factors, after
    finding the factors that the real reduction finds."""
    real = module.novikov_factors

    def reduce(m, direction=Direction.PLUS):
        if when(m, direction):
            found = real(m, direction)[0] if keep_factors else ()
            raise Inconclusive("budget exceeded", found)
        return real(m, direction)
    monkeypatch.setattr(module, "novikov_factors", reduce)


def test_rank_vs_diag_check_names_skipped_degrees(monkeypatch):
    doc = parse_document(NOVIKOV_TWO_STEP)
    d2 = doc.payload["complex"].differential(2)
    gives_up(monkeypatch, nk.novikov, lambda m, _: m == d2)
    report = run(doc, oracle=True)
    assert report.exit_code == 1
    assert report.data["oracle"] == [{
        "check": "rank-vs-diagonalization", "ok": True,
        "detail": "all compared degrees agree; "
                  "skipped: degree 2 inconclusive"}]


def test_ses_check_names_skipped_degrees(monkeypatch):
    gives_up(monkeypatch, cli, lambda m, _: True)
    report = run(parse_document(TREFOIL), oracle=True)
    assert report.data["oracle"][0] == {
        "check": "short-exact-sequence-factors", "ok": True,
        "detail": "all compared degrees agree; "
                  "skipped: degree 1 inconclusive"}


# d_F^ = 2 + z on F_1 -> F_0: torsion 2 + z in degree 0 over Z((z))
TORSION_DOMAIN = job("fundomain", {"domain": {
    "D": {"lo": 0, "hi": 0, "ranks": [1], "differentials": {}},
    "F": {"lo": 0, "hi": 1, "ranks": [1, 1],
          "differentials": {"1": [[2]]}},
    "c": {"1": [[1]]}, "hF": {"0": [[1]]}}})


def test_cone_vs_fhat_check_names_skipped_degrees(monkeypatch):
    # F^ gives up on its only differential with no factors found, which
    # read as totals would disagree with the cone's factor 2 + z
    doc = parse_document(TORSION_DOMAIN)
    d1 = algebraic_novikov_complex(doc.payload["domain"]).differential(1)
    gives_up(monkeypatch, nk.novikov, lambda m, _: m == d1)
    report = run(doc, oracle=True)
    assert report.exit_code == 1
    assert report.data["oracle"][1] == {
        "check": "cone-vs-algebraic-novikov", "ok": True,
        "detail": "reports compared degreewise; "
                  "skipped: degree 0 inconclusive"}


def test_cone_vs_fhat_check_compares_betti_in_skipped_degrees(monkeypatch):
    fd = parse_document(TORSION_DOMAIN).payload["domain"]
    d1 = algebraic_novikov_complex(fd).differential(1)
    gives_up(monkeypatch, nk.novikov, lambda m, _: m == d1)
    rb = novikov_homology(algebraic_novikov_complex(fd))
    assert not rb.conclusive
    assert cli._cone_vs_fhat_check(fd.cone, rb)["ok"] is True
    wrong = NovikovReport(rb.lo, rb.hi, {**rb.betti, 0: rb.b(0) + 1},
                          rb.torsion_factors, rb.direction, rb.conclusive,
                          rb.ranks)
    assert cli._cone_vs_fhat_check(fd.cone, wrong) == {
        "check": "cone-vs-algebraic-novikov", "ok": False,
        "detail": "reports compared degreewise; "
                  "skipped: degree 0 inconclusive"}


NONFIBERED = _read_bundled("knot_nonfibered.json")


@pytest.mark.parametrize("text, direction, reduced", [
    (NONFIBERED, "plus", [Direction.PLUS]),
    (NONFIBERED, "minus", [Direction.MINUS]),
    (TREFOIL, "plus", [Direction.PLUS, Direction.MINUS]),
    (TREFOIL, "minus", [Direction.MINUS, Direction.PLUS]),
], ids=["nonfibered-plus", "nonfibered-minus", "trefoil-plus",
        "trefoil-minus"])
def test_knot_job_reduces_the_other_completion_only_if_its_own_vanishes(
        monkeypatch, text, direction, reduced):
    reductions = count_calls(monkeypatch, "nk.linalg", "novikov_factors")
    run(parse_document(text), direction=direction)
    order = [d for _, d in reductions]
    assert sorted(set(order), key=order.index) == reduced


@pytest.mark.parametrize("text, code", [(NONFIBERED, 0), (TREFOIL, 1)],
                         ids=["nonfibered", "trefoil"])
def test_an_inconclusive_other_completion_matters_only_if_its_own_vanishes(
        monkeypatch, tmp_path, capsys, text, code):
    """The non-fibered plus side is nonzero, which decides the verdict;
    the trefoil's vanishes, so its verdict waits on the minus side."""
    gives_up(monkeypatch, nk.novikov, lambda _, d: d is Direction.MINUS)
    f = tmp_path / "knot.json"
    f.write_text(text)
    assert main(["run", str(f), "--format", "machine"]) == code
    out = capsys.readouterr()
    if code == 0:
        assert json.loads(out.out)["report"]["fibering"]["fibers"] is False
    else:
        assert out.err.startswith("inconclusive: ")


@pytest.mark.parametrize("direction", ["plus", "minus"])
def test_knot_job_with_lower_bound_factors_exits_1(monkeypatch, direction):
    # unit cancellation leaves d_1 0x1, and the factor in d_2
    doc = parse_document(NONFIBERED)
    d2 = cancel_units(knot_fundamental_domain(doc.payload["seifert"]).cone
                      ).differential(2)
    gives_up(monkeypatch, nk.novikov, lambda m, _: m == d2, keep_factors=True)
    report = run(doc, direction=direction)
    assert report.exit_code == 1
    assert report.data["fibering"]["fibers"] is False
    assert report.data["novikov_factors"]["1"]


def test_run_circle_all_zero():
    report = run(parse_document(CIRCLE))
    nov = report.data["novikov"]
    assert all(v == 0 for v in nov["betti"].values())
    assert all(not v for v in nov["torsion"].values())


def test_run_complex_homology():
    doc = job("complex-homology", {"complex": {
        "lo": 0, "hi": 1, "ranks": [1, 1], "differentials": {}}})
    report = run(parse_document(doc), oracle=True)
    assert report.data["homology"]["betti"] == {"0": 1, "1": 1}
    assert report.data["morse_bounds"] == {"0": 1, "1": 1}
    assert all(c["ok"] for c in report.data["oracle"])


def test_run_domination():
    doc = job("domination", {"complex": {
        "lo": 0, "hi": 1, "ranks": [1, 1],
        "differentials": {"1": [[{"0": 1, "1": -1}]]}}})
    report = run(parse_document(doc))
    assert report.data["domination"] == {
        "vanishes_plus": True, "vanishes_minus": True,
        "finitely_dominated": True}
    assert report.text == "\n".join([
        "kind: domination",
        "vanishes over Z((z)): True",
        "vanishes over Z((z^-1)): True",
        "finitely dominated: True"]) + "\n"


def test_run_inequalities():
    ok = run(parse_document(job("inequalities",
                                {"lo": 0, "counts": [1, 1], "bounds": [1, 1]})))
    assert ok.data["satisfied"] is True
    bad = run(parse_document(job("inequalities",
                                 {"lo": 0, "counts": [0, 1], "bounds": [1, 1]})))
    assert bad.data["violations"] == [0]
    assert bad.text == "\n".join(["kind: inequalities", "satisfied: False",
                                  "violated at degrees: 0"]) + "\n"


# One small document per kind whose text report nothing else renders,
# with that report: the knot's base Z --2--> Z has torsion in H_0
TEXT_REPORTS = {
    "complex-homology": (job("complex-homology", {"complex": {
        "lo": 0, "hi": 1, "ranks": [1, 1], "differentials": {"1": [[2]]}}}),
        ["kind: complex-homology",
         "degree  b  q  torsion",
         "     0  0  1  2",
         "     1  0  0  -",
         "morse lower bounds: 0:1 1:1"]),
    "knot": (job("knot", {
        "base": {"lo": 0, "hi": 1, "ranks": [1, 1],
                 "differentials": {"1": [[2]]}},
        "e": {"0": [[1]], "1": [[1]]}}),
        ["kind: knot",
         "alexander[0]: 1",
         "alexander[1]: 1",
         "novikov homology vanishes: True",
         "extreme coefficients +-1: True",
         "fibers: True",
         "note: base homology has torsion the alexander criterion cannot "
         "see: H_0: [2]"]),
}


@pytest.mark.parametrize("direction", ["plus", "minus"])
@pytest.mark.parametrize("text, lines", list(TEXT_REPORTS.values()),
                         ids=list(TEXT_REPORTS))
def test_text_report_is_pinned(tmp_path, capsys, text, lines, direction):
    f = tmp_path / "doc.json"
    f.write_text(text)
    assert main(["run", str(f), "--direction", direction]) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
    assert main(["run", str(f), "--direction", direction, "--oracle",
                 "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert all(c["ok"] for c in report.get("oracle", ()))


def test_knot_report_names_the_base_torsion():
    report = run(parse_document(TEXT_REPORTS["knot"][0]), oracle=True)
    assert report.data["fibering"]["base_torsion"] == {"0": [2]}
    assert [c["ok"] for c in report.data["oracle"]] == [True, True]


def test_direction_flag_beats_document_option():
    doc = parse_document(job("mapping-torus",
                             json.loads(TORUS_MINUS)["payload"],
                             {"direction": "plus"}))
    rep_doc = run(doc)
    rep_flag = run(doc, direction="minus")
    assert rep_doc.data["novikov"]["direction"] == "plus"
    assert rep_flag.data["novikov"]["direction"] == "minus"


def test_oracle_mode_adds_checks():
    report = run(parse_document(TREFOIL), oracle=True)
    checks = report.data["oracle"]
    assert checks and all(c["ok"] for c in checks)
    names = {c["check"] for c in checks}
    assert "short-exact-sequence-factors" in names
    assert "fibering-criteria-agree" in names


def test_fundomain_oracle_checks():
    report = run(parse_document(_read_bundled("scalar_domain.json")),
                 precision=8, oracle=True)
    names = {c["check"]: c["ok"] for c in report.data["oracle"]}
    assert names == {"exact-vs-truncated": True,
                     "cone-vs-algebraic-novikov": True}
    report = run(parse_document(_read_bundled("scalar_domain.json")),
                 precision=8, direction="minus", oracle=True)
    assert report.data["oracle"][1] == {
        "check": "cone-vs-algebraic-novikov", "ok": True,
        "detail": "skipped: F^ exists over Z((z)) only"}
    assert report.data["oracle"][0]["ok"] is True


# A domain where det(1 - z h_D) = 1 - 2z on D_0 is no unit of Z((z^-1)):
# F^ does not exist there, and reading the minus report off F^ gave no
# torsion and a failing cone check
MINUS_DOMAIN = job("fundomain", {"domain": {
    "D": {"lo": 0, "hi": 2, "ranks": [1, 2, 1], "differentials": {}},
    "F": {"lo": 0, "hi": 2, "ranks": [0, 1, 2], "differentials": {}},
    "c": {"1": [[2]], "2": [[0, -2], [0, -2]]},
    "hD": {"0": [[2]], "1": [[-2, 1], [0, -1]], "2": [[-2]]},
    "hF": {"1": [[0, 0]], "2": [[0], [0]]}}})


def test_fundomain_minus_reads_the_cone():
    doc = parse_document(MINUS_DOMAIN)
    report = run(doc, direction="minus", oracle=True)
    assert report.exit_code == 0
    nov = report.data["novikov"]
    assert nov["torsion"]["1"] == [{"0": 1, "1": 2}]  # 1 + 2z
    # the same ideal as 1 + 3z + 2z^2 = (1 + z)(1 + 2z): 1 + z is a unit
    # of Z((z^-1))
    assert associate(LaurentPoly({0: 1, 1: 2}),
                     LaurentPoly({0: 1, 1: 3, 2: 2}), Direction.MINUS)
    assert nov["torsion"]["2"] == [{"0": 1, "1": 2}]  # 1 + 2z
    assert nov == novikov_homology(doc.payload["domain"].cone,
                                   Direction.MINUS).to_json()
    assert all(c["ok"] for c in report.data["oracle"])


def test_exact_vs_truncated_check_names_the_first_mismatch(monkeypatch):
    real = nk.fundomain.algebraic_novikov_complex

    def moved(fd, mode="exact", order=None):
        out = real(fd, mode, order)
        if mode == "truncated":  # entry (0, 0) of d_2 moves by 1
            d = out.differentials[2]
            grid = [list(row) for row in d.entries]
            grid[0][0] += 1
            out = TruncatedComplexPresentation(
                out.lo, out.hi, out.ranks,
                {**out.differentials, 2: Matrix(d.rows, d.cols, grid)},
                out.order)
        return out

    monkeypatch.setattr(nk.fundomain, "algebraic_novikov_complex", moved)
    expanded = count_calls(monkeypatch, "nk.rings", "expand")
    report = run(parse_document(MINUS_DOMAIN), precision=3, oracle=True)
    assert report.data["oracle"][0] == {
        "check": "exact-vs-truncated", "ok": False,
        "detail": "windows through z^3; first mismatch: degree 2, entry (0, 0)"}
    assert len(expanded) == 1  # d_2 is 1 x 2: its entry (0, 1) is not expanded
    assert ("oracle exact-vs-truncated: FAIL (windows through z^3; "
            "first mismatch: degree 2, entry (0, 0))") in report.text


# --- golden round trips ------------------------------------------------------------

@pytest.mark.parametrize("name", bundled_examples())
def test_bundled_examples_golden(name):
    job_doc = parse_document(_read_bundled(name))
    report = run(job_doc)
    frozen = (GOLDEN / (name.replace(".json", "") + ".machine.json")).read_text()
    assert report.machine() == frozen


def test_machine_output_is_deterministic():
    a = run(parse_document(TREFOIL)).machine()
    b = run(parse_document(TREFOIL)).machine()
    assert a == b


def test_no_floats_anywhere_in_reports():
    for name in bundled_examples():
        report = run(parse_document(_read_bundled(name)), oracle=True)

        def walk(x):
            assert not isinstance(x, float)
            if isinstance(x, dict):
                for k, v in x.items():
                    walk(k), walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)
        walk(report.to_json())


# --- the machine emitter -----------------------------------------------------------

def test_the_emitter_prints_the_stdlib_bytes():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # keys such as "-1", "10" and "2" sort as strings, not as the
    # integers they name
    keys = st.sampled_from(["-1", "10", "2", "0", ""]) | st.text()
    trees = st.recursive(
        st.none() | st.booleans()
        | st.integers() | st.integers(min_value=-2 ** 80, max_value=2 ** 80)
        | st.text()
        | st.sampled_from(['"', "\\", "\n\x00\x1f", "\u00e9\u2203\U0001d53d"]),
        lambda children: st.lists(children) | st.dictionaries(keys, children),
        max_leaves=40)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(trees)
    def prints_the_stdlib_bytes(tree):
        assert cli._dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)

    prints_the_stdlib_bytes()


def test_the_emitter_rejects_a_float():
    with pytest.raises(TypeError):
        cli._dumps({"a": [1, 0.5]})


def test_the_emitter_rejects_an_int_key():
    with pytest.raises(TypeError):
        cli._dumps({"a": {2: 3}})


@pytest.mark.parametrize("direction", ["plus", "minus"])
def test_machine_runs_never_render_text(monkeypatch, capsys, direction):
    def no_pretty(self):
        raise AssertionError("pretty called on a machine run")

    monkeypatch.setattr(LaurentPoly, "pretty", no_pretty)
    assert main(["examples", "run-all", "--format", "machine", "--oracle",
                 "--direction", direction]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("direction", ["plus", "minus"])
def test_text_runs_never_build_machine_json(monkeypatch, capsys, direction):
    def no_dumps(obj, pad="\n"):
        raise AssertionError("machine report built on a text run")

    monkeypatch.setattr(cli, "_dumps", no_dumps)
    assert main(["examples", "run-all", "--format", "text", "--oracle",
                 "--direction", direction]) == 0
    assert capsys.readouterr().err == ""


# --- entry point -------------------------------------------------------------------

def test_main_run_and_exit_codes(tmp_path, capsys):
    f = tmp_path / "torus.json"
    f.write_text(TORUS_MINUS)
    assert main(["run", str(f)]) == 0
    out = capsys.readouterr().out
    assert "2 - z" in out

    assert main(["run", str(f), "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["kind"] == "mapping-torus"


def test_main_calls_share_no_options(tmp_path, capsys, monkeypatch):
    """The parser is built once; each call still reads only its own argv,
    and usage errors go to the stderr current at that call."""
    f = tmp_path / "torus.json"
    f.write_text(TORUS_MINUS)
    doc = parse_document(TORUS_MINUS)
    assert main(["run", str(f), "--format", "machine", "--direction", "plus",
                 "--oracle"]) == 0
    assert capsys.readouterr().out == \
        run(doc, None, "plus", True).machine()
    assert main(["run", str(f)]) == 0
    assert capsys.readouterr().out == run(doc, None, None, False).text
    for argv in (["run"], ["run", str(f), "--precision", "-1"]):
        err = io.StringIO()
        monkeypatch.setattr(sys, "stderr", err)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert err.getvalue().startswith("usage: nk run")
    assert capsys.readouterr().err == ""


def test_main_validate(tmp_path, capsys):
    f = tmp_path / "ok.json"
    f.write_text(CIRCLE)
    assert main(["validate", str(f)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(job("complex-homology", {"complex": {
        "lo": 0, "hi": 2, "ranks": [1, 1, 1],
        "differentials": {"1": [[1]], "2": [[1]]}}}))
    assert main(["validate", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    RuntimeError("no such state"), NotAComplex(1), InvalidDomain("c", 0),
    NotAUnit("2 is not a unit"), NotInRationalSubring(LaurentPoly({0: 2})),
    DimensionMismatch("2x2 @ 3x3"), AssertionError("criteria disagree")],
    ids=lambda e: type(e).__name__)
def test_internal_errors_exit_3(tmp_path, capsys, monkeypatch, error):
    """Every user error is raised while parsing, so any exception after
    it, the library's own included, is a defect."""
    def broken(payload, k, dirn):
        raise error

    monkeypatch.setitem(_RUNNERS, "novikov", broken)
    f = tmp_path / "circle.json"
    f.write_text(CIRCLE)
    assert main(["run", str(f)]) == 3
    assert capsys.readouterr().err == \
        f"internal error: {type(error).__name__}: {error}\n"


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_an_answer_past_the_int_digit_limit_is_printed(tmp_path, capsys, fmt):
    """Parsing refuses integers past Python's 4,300-digit limit, but an
    exact answer may be longer: here the factor (a + z)(b + z) of a
    document with 2,501-digit coefficients.  The limit is lifted only
    while main renders the report."""
    a, b = int("7" * 2501), int("3" * 2500 + "1")
    f = tmp_path / "big.json"
    f.write_text(job("novikov", {"complex": {
        "lo": 0, "hi": 1, "ranks": [2, 2], "differentials": {
            "1": [[{"0": a, "1": 1}, 0], [0, {"0": b, "1": 1}]]}}}))
    report = run(parse_document(f.read_text()))
    assert report.data["novikov"]["torsion"]["0"] == [
        {"0": a * b, "1": a + b, "2": 1}]
    limit = getattr(sys, "get_int_max_str_digits", int)()
    assert main(["run", str(f), "--format", fmt]) == 0
    assert getattr(sys, "get_int_max_str_digits", int)() == limit
    out, err = capsys.readouterr()
    assert err == ""
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "text":
            assert out == report.text
        else:
            assert out == json.dumps(json.loads(out), sort_keys=True,
                                     indent=2) + "\n" == report.machine()
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_main_missing_file_exits_2(capsys):
    assert main(["run", "/nonexistent/nowhere.json"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    """Documents are read as UTF-8 whatever the locale; a UTF-8 BOM is
    still the JSON error it was."""
    f = tmp_path / "doc.json"
    f.write_bytes(b'\xff\xfe{"kind": 1}')
    assert main([command, str(f)]) == 2
    assert capsys.readouterr().err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")
    f.write_bytes(b"\xef\xbb\xbf" + CIRCLE.encode())
    assert main([command, str(f)]) == 2
    assert capsys.readouterr().err == \
        "error: line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"


@pytest.mark.parametrize("where", ["alone", "payload"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_json_nested_too_deeply_exits_2(tmp_path, capsys, command, where):
    deep = "[" * 100_000 + "]" * 100_000
    f = tmp_path / "doc.json"
    f.write_text(deep if where == "alone"
                 else '{"kind": "novikov", "payload": ' + deep + "}")
    assert main([command, str(f)]) == 2
    assert capsys.readouterr().err == "error: $: nested too deeply\n"


def test_main_examples_list(capsys):
    assert main(["examples", "list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "trefoil.json" in out and len(out) == 7


@pytest.mark.parametrize("command", ["run", "run-all"])
def test_precision_flag_takes_nonnegative_integers(tmp_path, capsys,
                                                   command):
    f = tmp_path / "scalar.json"
    f.write_text(_read_bundled("scalar_domain.json"))
    argv = ["run", str(f)] if command == "run" else ["examples", "run-all"]
    for bad in ("-5", "abc"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--precision={bad}", "--oracle"])
        assert exc.value.code == 2
        assert "expected a nonnegative integer" in capsys.readouterr().err
    assert main([*argv, "--precision=0", "--oracle"]) == 0


@pytest.mark.parametrize("route", ["option", "flag"])
def test_precision_is_capped(tmp_path, capsys, route):
    f = tmp_path / "circle.json"
    payload = json.loads(CIRCLE)["payload"]
    for k, code in ((MAX_PRECISION, 0), (MAX_PRECISION + 1, 2)):
        if route == "option":
            f.write_text(job("novikov", payload, {"precision": k}))
            assert main(["run", str(f)]) == code
        else:
            f.write_text(CIRCLE)
            argv = ["run", str(f), f"--precision={k}"]
            if code:  # argparse rejects the flag
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == code
            else:
                assert main(argv) == 0
        err = capsys.readouterr().err
        if code:
            path = "$.options.precision" if route == "option" \
                else "--precision"
            assert path in err and f"up to {MAX_PRECISION}" in err
        else:
            assert err == ""


@pytest.mark.parametrize("command", ["run", "run-all"])
def test_precision_past_the_int_digit_limit(tmp_path, capsys, command):
    """A value longer than Python's 4,300-digit limit for ``int`` gets the
    cap's message, not argparse's generic one naming the private type
    function; leading zeros stay accepted, however many."""
    f = tmp_path / "circle.json"
    f.write_text(CIRCLE)
    argv = ["run", str(f)] if command == "run" else ["examples", "run-all"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--precision", "9" * 5000])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"expected a nonnegative integer up to {MAX_PRECISION}" in err
    assert "_precision" not in err
    for value in ("0007", "0" * 5000 + "7"):
        assert main([*argv, "--precision", value]) == 0
    capsys.readouterr()


def test_main_examples_run_all(capsys):
    assert main(["examples", "run-all", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert out.count("== ") == 7


def test_exit_code_1_on_inconclusive_degradation(monkeypatch):
    # starve the reduction so torsion falls back to lower bounds
    monkeypatch.setattr("nk.linalg.REDUCTION_BUDGET", 0)
    report = run(parse_document(TORUS_MINUS))
    assert report.exit_code == 1
    assert report.data["novikov"]["conclusive"] is False
    assert "lower bounds" in report.text
