"""
The ``nk`` command: parse a job document, dispatch to the library, emit
a report.

A job document is a single self-describing JSON file:

    {"kind": "...", "payload": {...}, "options": {"precision": 32,
                                                  "direction": "plus"}}

kinds: complex-homology, novikov, domination, fundomain, mapping-torus,
knot, inequalities.  Polynomials are coefficient maps keyed by decimal
exponent strings ({"0": 1, "1": -2} is 1 - 2z); matrices are arrays of
rows of bare integers or coefficient maps; complexes are
{"lo", "hi", "ranks", "differentials": {degree: matrix}}.

Commands: ``nk run <file>``, ``nk validate <file>``, ``nk examples
list|run-all``.  Exit codes: 0 success, 1 a result was degraded by an
inconclusive diagonalization, 2 errors in the input, 3 internal errors.
All report numerics are exact: integers and coefficient maps, never
floats.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from types import SimpleNamespace

from .rings import (
    DEFAULT_PRECISION,
    Direction,
    LaurentPoly,
    Record,
    TruncatedSeries,
    expand,
)
from .linalg import (
    Inconclusive,
    Matrix,
    associate,
    novikov_diagonalize,
)
from .complexes import (
    BasedChainComplex,
    ChainMap,
    InvalidDomain,
    NotAComplex,
    integral_homology,
    morse_lower_bounds,
)
from .novikov import (
    check_inequalities,
    finite_domination_check,
    morse_novikov_bounds,
    novikov_homology,
)

# nk.fundomain and nk.models are imported by the kinds that use them, when
# called, so a name patched there reaches these callers too; argparse only
# for what _run_args leaves to it.

KINDS = ("complex-homology", "novikov", "domination", "fundomain",
         "mapping-torus", "knot", "inequalities")


class ParseError(Exception):
    """Malformed document; carries the JSON path of the offence."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class ValidationError(Exception):
    """Well-formed JSON that fails a semantic contract (d^2 != 0, a
    fundamental-domain identity, a shape mismatch)."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class JobDocument(Record):
    __slots__ = _fields = ("kind", "payload", "options")

    def __init__(self, kind, payload, options=None):
        self._set(kind, payload, options or {})


# ---------------------------------------------------------------------------
# parsing


def _need(obj, key, path, type_=None):
    if not isinstance(obj, dict):
        raise ParseError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ParseError(f"{path}.{key}", "missing")
    v = obj[key]
    if type_ is not None and not isinstance(v, type_):
        raise ParseError(f"{path}.{key}",
                         f"expected {type_.__name__}, got {type(v).__name__}")
    return v


#: largest |exponent| a document may use: polynomials are stored densely,
#: so an exponent allocates its whole span when the document is parsed
MAX_EXPONENT = 100_000

#: largest series precision: the truncated F^ and the --oracle series
#: checks grow with it (on the bundled scalar domain with --oracle, about
#: 0.06 s at 10,000 and 0.12 s at 20,000 in process, 2-core VM)
MAX_PRECISION = 10_000

#: largest rank per degree: matrices are dense, so a short document with
#: large ranks allocates them all (each kind runs in under 2 s at rank 64)
MAX_RANK = 64

#: largest number of entries of all differentials of a complex together,
#: those of one differential at the rank cap
MAX_ENTRIES = MAX_RANK ** 2


def _int(value, path):
    """The one integer rule: a JSON integer, never a float, a string or
    a boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(path, f"expected an integer, got {json.dumps(value)}")
    return value


#: an exponent or degree key: ASCII decimal with an optional minus sign;
#: leading zeros are allowed, so "01" names the same integer as "1"
_INT_KEY = re.compile(r"-?[0-9]+")


def _int_key(key, seen, path, what):
    """A degree or exponent key as an int, new among the ints in seen."""
    if not _INT_KEY.fullmatch(key):
        raise ParseError(path, f"{what} keys must be integers")
    try:
        i = int(key)
    except ValueError as exc:  # past Python's 4,300-digit limit
        raise ParseError(path, f"{what} key: {exc}") from None
    if i in seen:
        raise ParseError(path, f"repeats {what} {i}")
    return i


def _ints(obj, key, path):
    """The array of integers obj[key]."""
    return [_int(x, f"{path}.{key}[{j}]")
            for j, x in enumerate(_need(obj, key, path, list))]


def _parse_entry(e, path):
    if not isinstance(e, dict):
        return _int(e, path)
    coeffs = {}
    for k, v in e.items():
        j = _int_key(k, coeffs, f"{path}.{k}", "exponent")
        if abs(j) > MAX_EXPONENT:
            raise ParseError(f"{path}.{k}",
                             f"|exponent| exceeds {MAX_EXPONENT}")
        coeffs[j] = _int(v, f"{path}.{k}")
    return LaurentPoly(coeffs)


def _parse_matrix(obj, path, rows=None, cols=None, integral=False):
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ParseError(path, "expected an array of rows")
    width = None
    grid = []
    for i, row in enumerate(obj):
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}[{i}]",
                             f"row has {len(row)} entries, expected {width}")
        grid.append([_parse_entry(e, f"{path}[{i}][{j}]")
                     for j, e in enumerate(row)])
    if width is None:
        width = cols if cols is not None else 0
    m = Matrix(len(grid), width, grid)
    if rows is not None and m.rows != rows or cols is not None and m.cols != cols:
        raise ValidationError(path, f"matrix is {m.rows}x{m.cols}, "
                                    f"expected {rows}x{cols}")
    if integral and any(not isinstance(e, int) for r in grid for e in r):
        raise ValidationError(path, "integral job needs integer entries")
    return m


def _parse_complex(obj, path, integral=False):
    lo = _int(_need(obj, "lo", path), f"{path}.lo")
    hi = _int(_need(obj, "hi", path), f"{path}.hi")
    ranks = _ints(obj, "ranks", path)
    for j, r in enumerate(ranks):
        if not 0 <= r <= MAX_RANK:
            raise ParseError(f"{path}.ranks[{j}]",
                             "expected a nonnegative integer up to "
                             f"{MAX_RANK}")
    if len(ranks) != hi - lo + 1:
        raise ParseError(f"{path}.ranks",
                         f"{len(ranks)} ranks for degrees [{lo},{hi}]")
    if sum(a * b for a, b in zip(ranks, ranks[1:])) > MAX_ENTRIES:
        raise ParseError(f"{path}.ranks", "expected at most "
                         f"{MAX_ENTRIES} entries in all differentials")
    diffs = {}
    raw = obj.get("differentials", {})
    if not isinstance(raw, dict):
        raise ParseError(f"{path}.differentials", "expected an object")
    for key, mat in raw.items():
        i = _int_key(key, diffs, f"{path}.differentials.{key}", "degree")
        if not lo < i <= hi:
            raise ParseError(f"{path}.differentials.{key}",
                             f"degree outside ({lo},{hi}]")
        diffs[i] = _parse_matrix(mat, f"{path}.differentials.{key}",
                                 rows=ranks[i - 1 - lo], cols=ranks[i - lo],
                                 integral=integral)
    try:
        return BasedChainComplex(lo, hi, ranks, diffs)
    except NotAComplex as exc:
        raise ValidationError(path, f"not a complex: d o d != 0 at degree "
                                    f"{exc.degree}")
    except ValueError as exc:
        raise ValidationError(path, str(exc))


def _parse_matrix_family(obj, path):
    if not isinstance(obj, dict):
        raise ParseError(path, "expected an object keyed by degree")
    out = {}
    for key, mat in obj.items():
        i = _int_key(key, out, f"{path}.{key}", "degree")
        out[i] = _parse_matrix(mat, f"{path}.{key}", integral=True)
    return out


def _parse_chain_selfmap(c, fam, path):
    comps = {}
    for i, m in fam.items():
        if (m.rows, m.cols) != (c.rank(i), c.rank(i)):
            raise ValidationError(f"{path}.{i}",
                                  f"component is {m.rows}x{m.cols}, expected "
                                  f"{c.rank(i)}x{c.rank(i)}")
        comps[i] = m
    try:
        return ChainMap(c, c, comps)
    except ValueError as exc:
        raise ValidationError(path, str(exc))


def parse_document(text: str) -> JobDocument:
    """Parse and fully validate a job document.

    Raises ParseError with the JSON path for malformed structure and
    ValidationError for semantic failures (shape mismatches, d^2 != 0,
    broken fundamental-domain identities).
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}", exc.msg)
    except ValueError as exc:  # an integer past Python's digit limit
        raise ParseError("$", str(exc))
    except RecursionError:
        raise ParseError("$", "nested too deeply") from None
    kind = _need(obj, "kind", "$", str)
    if kind not in KINDS:
        raise ParseError("$.kind", f"unknown kind {kind!r}; expected one of "
                                   f"{', '.join(KINDS)}")
    payload = _need(obj, "payload", "$", dict)
    options = obj.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("$.options", "expected an object")
    opts = {}
    if "precision" in options:
        k = _int(options["precision"], "$.options.precision")
        if not 0 <= k <= MAX_PRECISION:
            raise ParseError("$.options.precision",
                             "expected a nonnegative integer up to "
                             f"{MAX_PRECISION}")
        opts["precision"] = k
    if "direction" in options:
        d = options["direction"]
        if d not in ("plus", "minus"):
            raise ParseError("$.options.direction", "expected plus or minus")
        opts["direction"] = d
    parsed = _PARSERS[kind](payload, "$.payload")
    return JobDocument(kind, parsed, opts)


def _parse_payload_complex(payload, path, integral=False):
    return {"complex": _parse_complex(_need(payload, "complex", path, dict),
                                      f"{path}.complex", integral)}


def _parse_payload_fundomain(payload, path):
    from .fundomain import AlgebraicFundamentalDomain
    dom = _need(payload, "domain", path, dict)
    dpath = f"{path}.domain"
    D = _parse_complex(_need(dom, "D", dpath, dict), f"{dpath}.D",
                       integral=True)
    F = _parse_complex(_need(dom, "F", dpath, dict), f"{dpath}.F",
                       integral=True)
    fams = {name: _parse_matrix_family(dom.get(name, {}), f"{dpath}.{name}")
            for name in ("c", "hD", "hF")}
    try:
        fd = AlgebraicFundamentalDomain(D, F, c=fams["c"], h_D=fams["hD"],
                                        h_F=fams["hF"])
    except InvalidDomain as exc:
        raise ValidationError(dpath, str(exc))
    return {"domain": fd}


def _parse_payload_mapping_torus(payload, path):
    c = _parse_complex(_need(payload, "complex", path, dict),
                       f"{path}.complex", integral=True)
    fam = _parse_matrix_family(_need(payload, "h", path, dict), f"{path}.h")
    h = _parse_chain_selfmap(c, fam, f"{path}.h")
    orientation = _need(payload, "orientation", path, str)
    if orientation not in ("plus", "minus"):
        raise ParseError(f"{path}.orientation", "expected plus or minus")
    return {"h": h, "orientation": orientation}


def _parse_payload_knot(payload, path):
    from .models import SeifertData
    base = _parse_complex(_need(payload, "base", path, dict),
                          f"{path}.base", integral=True)
    fam = _parse_matrix_family(_need(payload, "e", path, dict), f"{path}.e")
    e = _parse_chain_selfmap(base, fam, f"{path}.e")
    try:
        return {"seifert": SeifertData(base, e)}
    except ValueError as exc:
        raise ValidationError(f"{path}.base", str(exc))


def _parse_payload_inequalities(payload, path):
    lo = _int(_need(payload, "lo", path), f"{path}.lo")
    counts = _ints(payload, "counts", path)
    bounds = _ints(payload, "bounds", path)
    if len(counts) != len(bounds):
        raise ValidationError(path, "counts and bounds must cover the same "
                                    "degree range")
    return {"lo": lo, "counts": counts, "bounds": bounds}


_PARSERS = {
    "complex-homology": lambda p, path: _parse_payload_complex(
        p, path, integral=True),
    "novikov": _parse_payload_complex,
    "domination": _parse_payload_complex,
    "fundomain": _parse_payload_fundomain,
    "mapping-torus": _parse_payload_mapping_torus,
    "knot": _parse_payload_knot,
    "inequalities": _parse_payload_inequalities,
}


# ---------------------------------------------------------------------------
# running


_json_str = json.encoder.encode_basestring_ascii


def _dumps(obj, pad="\n"):
    """json.dumps(obj, sort_keys=True, indent=2) by string joins, pad
    being the newline and indent of obj's depth.  The stdlib takes its
    pure-Python encoder whenever indent is set; this is several times
    faster on the coefficient maps that make up a report.  Only str
    keys, and str, int, bool, None, list and dict values."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        # nearly every value is a coefficient: an int inlined here
        return "{" + inner + ("," + inner).join([
            f"{_json_str(k)}: {v}" if type(v := obj[k]) is int
            else f"{_json_str(k)}: {_dumps(v, inner)}"
            for k in sorted(obj)]) + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([
            _dumps(v, inner) for v in obj]) + pad + "]"
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


class Report(Record):
    # lines: zero-argument callable building the text report's lines,
    # called only when the text report is printed
    __slots__ = _fields = ("kind", "exit_code", "data", "lines")

    def __init__(self, kind, exit_code, data, lines):
        self._set(kind, exit_code, data, lines)

    @property
    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def to_json(self):
        return {"kind": self.kind, "exit_code": self.exit_code,
                "report": self.data}

    def machine(self) -> str:
        return _dumps(self.to_json()) + "\n"


def run(job: JobDocument, precision=None, direction=None,
        oracle=False) -> Report:
    """Dispatch a parsed job.  CLI flags beat document options beat
    defaults for precision and direction.  Runners return (data, lines,
    conclusive, checks): lines is a zero-argument callable building the
    text report, checks are zero-argument oracle checks over what the
    runner computed, or None for a kind without them."""
    k = precision if precision is not None else \
        job.options.get("precision", DEFAULT_PRECISION)
    d = direction if direction is not None else \
        job.options.get("direction", "plus")
    dirn = Direction.PLUS if d == "plus" else Direction.MINUS
    data, lines, conclusive, checks = _RUNNERS[job.kind](job.payload, k, dirn)
    if oracle and checks is not None:
        data["oracle"] = [check() for check in checks]
        body = lines

        def lines():
            return body() + [f"oracle {c['check']}: "
                             f"{'ok' if c['ok'] else 'FAIL'} ({c['detail']})"
                             for c in data["oracle"]]
    return Report(job.kind, 0 if conclusive else 1, data, lines)


def _novikov_section(rep):
    lines = ["degree  b^Nov  q^Nov  torsion factors"]
    for i in range(rep.lo, rep.hi + 1):
        factors = rep.torsion_factors.get(i, [])
        shown = ", ".join(f.pretty() for f in factors) if factors else "-"
        lines.append(f"{i:>6}  {rep.b(i):>5}  {len(factors):>5}  {shown}")
    concl = "yes" if rep.conclusive else "no (q values are lower bounds)"
    lines.append(f"conclusive: {concl}")
    return lines


def _bounds_line(bounds):
    return " ".join(f"{i}:{bounds[i]}" for i in sorted(bounds))


def _run_complex_homology(payload, k, dirn):
    c = payload["complex"]
    rep = integral_homology(c)
    bounds = morse_lower_bounds(rep)
    data = {"homology": rep.to_json(),
            "morse_bounds": {str(i): bounds[i] for i in sorted(bounds)}}

    def lines():
        out = ["kind: complex-homology", "degree  b  q  torsion"]
        for i in range(rep.lo, rep.hi + 1):
            t = rep.torsion_factors.get(i, [])
            out.append(f"{i:>6}  {rep.b(i)}  {len(t)}  "
                       f"{', '.join(map(str, t)) if t else '-'}")
        out.append(f"morse lower bounds: {_bounds_line(bounds)}")
        return out
    return data, lines, True, [lambda: _euler_check_int(c, rep)]


def _euler_check_int(c, rep):
    chi_ranks = sum((-1) ** i * c.rank(i) for i in c.degrees())
    chi_b = sum((-1) ** i * rep.b(i) for i in c.degrees())
    return {"check": "euler-characteristic", "ok": chi_ranks == chi_b,
            "detail": f"sum (-1)^i rank_i = {chi_ranks}, "
                      f"sum (-1)^i b_i = {chi_b}"}


def _agreement(check, mismatches, skipped):
    """An oracle entry that fails on any mismatch and names the degrees
    it could not compare because a diagonalization was Inconclusive."""
    details = mismatches or [
        "all compared degrees agree" if skipped else "all degrees agree"]
    details += [f"skipped: degree {i} inconclusive" for i in skipped]
    return {"check": check, "ok": not mismatches,
            "detail": "; ".join(details)}


def _rank_vs_diag_check(rep):
    """The Q(z) rank of each differential of a NovikovReport against the
    rank of its diagonalization; Inconclusive degrees are skipped and
    named."""
    pairs = sorted(rep.ranks.items())
    return _agreement(
        "rank-vs-diagonalization",
        [f"degree {i}: rank {r} vs diagonal {s}"
         for i, (r, s) in pairs if s is not None and s != r],
        [i for i, (_, s) in pairs if s is None])


def _run_novikov(payload, k, dirn):
    """novikov and mapping-torus jobs: the Novikov homology of one
    Laurent complex and its Morse-Novikov bounds."""
    if "orientation" in payload:
        from .models import mapping_torus_complex
        o = payload["orientation"]
        c = mapping_torus_complex(payload["h"], o)
        data = {"orientation": o}
        head = f"kind: mapping-torus (orientation {o}, direction {dirn.value})"
    else:
        c = payload["complex"]
        data = {}
        head = f"kind: novikov (direction {dirn.value})"
    rep = novikov_homology(c, dirn)
    bounds = morse_novikov_bounds(rep)
    data["novikov"] = rep.to_json()
    data["morse_novikov_bounds"] = {str(i): bounds[i] for i in sorted(bounds)}

    def lines():
        return [head, *_novikov_section(rep),
                f"morse-novikov bounds: {_bounds_line(bounds)}"]
    return data, lines, rep.conclusive, [lambda: _rank_vs_diag_check(rep)]


def _run_domination(payload, k, dirn):
    verdict = finite_domination_check(payload["complex"])
    data = {"domination": verdict.to_json()}

    def lines():
        return ["kind: domination",
                f"vanishes over Z((z)): {verdict.vanishes_plus}",
                f"vanishes over Z((z^-1)): {verdict.vanishes_minus}",
                f"finitely dominated: {verdict.finitely_dominated}"]
    checks = [lambda: _rank_vs_diag_check(verdict.reports[Direction.PLUS]),
              lambda: _rank_vs_diag_check(verdict.reports[Direction.MINUS])]
    return data, lines, True, checks


def _run_fundomain(payload, k, dirn):
    from .fundomain import (algebraic_novikov_complex, cokernel_iso_check,
                            torsion_zeta)
    fd, F = payload["domain"], payload["domain"].F  # F^ has F's ranks
    # F^ needs det(1 - z h_D) to be a unit, which it is in Z((z)) only;
    # C(phi) is a Laurent complex with the same homology in both, and a
    # minus run builds F^ for the exact-vs-truncated check alone
    fhat = functools.cache(lambda: algebraic_novikov_complex(fd, "exact"))
    rep = novikov_homology(fhat() if dirn is Direction.PLUS else fd.cone, dirn)
    zeta = torsion_zeta(fd)
    coker = cokernel_iso_check(fd, k)
    data = {
        "fhat_ranks": {str(i): F.rank(i) for i in F.degrees()},
        "novikov": rep.to_json(),
        "zeta": zeta.to_json(),
        "cokernel_check": {"passed": coker.passed,
                           "degree": coker.degree, "order": coker.order},
    }

    def lines():
        return [f"kind: fundomain (direction {dirn.value}, precision {k})",
                f"F^ ranks: " + " ".join(f"{i}:{F.rank(i)}"
                                         for i in F.degrees()),
                *_novikov_section(rep),
                f"zeta (torsion of projection): {zeta.pretty()}",
                f"cokernel identification through order {k}: "
                f"{'pass' if coker.passed else f'FAIL at degree {coker.degree}, order {coker.order}'}"]
    checks = [lambda: _exact_vs_truncated_check(fd, fhat(), k),
              lambda: _cone_vs_fhat_check(fd.cone, rep)]
    return data, lines, rep.conclusive, checks


def _exact_vs_truncated_check(fd, fhat, k):
    from .fundomain import algebraic_novikov_complex
    trunc = algebraic_novikov_complex(fd, "truncated", order=k)
    detail = f"windows through z^{k}"
    for i in range(fhat.lo + 1, fhat.hi + 1):
        ex, tr = fhat.differential(i), trunc.differential(i)
        for r in range(ex.rows):
            for c in range(ex.cols):
                w = expand(ex.entry(r, c), precision=k)
                if w != TruncatedSeries.of_poly(tr.entry(r, c), k):
                    return {"check": "exact-vs-truncated", "ok": False,
                            "detail": f"{detail}; first mismatch: "
                                      f"degree {i}, entry ({r}, {c})"}
    return {"check": "exact-vs-truncated", "ok": True, "detail": detail}


def _same_factors(fa, fb, dirn):
    """Equal lengths, and each pair of entries generates the same ideal."""
    return len(fa) == len(fb) and all(associate(a, b, dirn)
                                      for a, b in zip(fa, fb))


def _cone_vs_fhat_check(cone, rb):
    """The cone's Novikov report against rb, the report of F^; skipped
    in the minus direction, where rb is read off the cone itself.
    Betti numbers are compared in every degree, factors only where both
    reports are conclusive: elsewhere they are lower bounds, and the
    degree is named as skipped."""
    dirn = rb.direction
    if dirn is Direction.MINUS:
        return {"check": "cone-vs-algebraic-novikov", "ok": True,
                "detail": "skipped: F^ exists over Z((z)) only"}
    ra = novikov_homology(cone, dirn)
    degrees = range(min(ra.lo, rb.lo), max(ra.hi, rb.hi) + 1)
    skipped = [i for i in degrees
               if any(r.ranks.get(i + 1, (0, 0))[1] is None for r in (ra, rb))]
    ok = all(ra.b(i) == rb.b(i) for i in degrees) and all(
        _same_factors(ra.torsion_factors.get(i, ()),
                      rb.torsion_factors.get(i, ()), dirn)
        for i in degrees if i not in skipped)
    return {"check": "cone-vs-algebraic-novikov", "ok": ok,
            "detail": "; ".join(["reports compared degreewise"] + [
                f"skipped: degree {i} inconclusive" for i in skipped])}


def _run_knot(payload, k, dirn):
    from .models import fibering_check
    verdict = fibering_check(payload["seifert"], dirn)
    own = verdict.novikov[dirn]
    factors = own.factors_by_degree()
    data = {"fibering": verdict.to_json(),
            "novikov_factors": {str(i): [f.to_json() for f in fs]
                                for i, fs in sorted(factors.items()) if fs}}

    def lines():
        out = ["kind: knot"]
        for i in sorted(verdict.alexander):
            out.append(f"alexander[{i}]: {verdict.alexander[i].pretty()}")
        out.append(f"novikov homology vanishes: {verdict.novikov_vanishes}")
        out.append(f"extreme coefficients +-1: {verdict.extreme_coeffs_unit}")
        out.append(f"fibers: {verdict.fibers}")
        for i, fs in sorted(factors.items()):
            if fs:
                out.append(f"novikov torsion factors[{i}]: "
                           + ", ".join(f.pretty() for f in fs))
        if verdict.base_torsion:
            out.append("note: base homology has torsion the alexander "
                       "criterion cannot see: "
                       + ", ".join(f"H_{i}: {list(t)}" for i, t
                                   in sorted(verdict.base_torsion.items())))
        return out
    agree = (verdict.novikov_vanishes == verdict.extreme_coeffs_unit
             or bool(verdict.base_torsion))
    checks = [lambda: _ses_check(verdict.matrices, factors, dirn),
              lambda: {"check": "fibering-criteria-agree", "ok": agree,
                       "detail": "(ii) vs (iii)"}]
    return data, lines, own.conclusive, checks


def _ses_check(matrices, factors, dirn):
    """Novikov factors of the knot complex match the non-unit invariant
    factors of the Alexander matrix e + z(1-e) on each H_i."""
    mismatches, skipped = [], []
    for i, m in sorted(matrices.items()):
        try:
            direct = [f for f in novikov_diagonalize(m, dirn).invariant_factors
                      if f != 1]
        except Inconclusive:
            skipped.append(i)
            continue
        if not _same_factors(factors.get(i, ()), direct, dirn):
            mismatches.append(f"degree {i}")
    return _agreement("short-exact-sequence-factors", mismatches, skipped)


def _run_inequalities(payload, k, dirn):
    lo = payload["lo"]
    counts = {lo + i: v for i, v in enumerate(payload["counts"])}
    bounds = {lo + i: v for i, v in enumerate(payload["bounds"])}
    violations = check_inequalities(counts, bounds)
    data = {"violations": violations, "satisfied": not violations}

    def lines():
        out = ["kind: inequalities", f"satisfied: {not violations}"]
        if violations:
            out.append("violated at degrees: "
                       + ", ".join(str(i) for i in violations))
        return out
    return data, lines, True, None


_RUNNERS = {
    "complex-homology": _run_complex_homology,
    "novikov": _run_novikov,
    "domination": _run_domination,
    "fundomain": _run_fundomain,
    "mapping-torus": _run_novikov,
    "knot": _run_knot,
    "inequalities": _run_inequalities,
}


# ---------------------------------------------------------------------------
# entry point


#: read through __file__: importlib.resources is slow to import
_EXAMPLES = os.path.join(os.path.dirname(__file__), "examples")


def bundled_examples():
    """Names of the documents shipped with the package, in a fixed order."""
    return sorted(n for n in os.listdir(_EXAMPLES) if n.endswith(".json"))


def _read_bundled(name):
    with open(os.path.join(_EXAMPLES, name), encoding="utf-8") as fh:
        return fh.read()


@functools.cache
def _build_argparser():
    """Built once: parsing does not change it, and usage errors go to
    the ``sys.stderr`` of each call."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="nk",
        description="exact circle-valued Morse theory computations")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--precision", type=_precision, default=None,
                       metavar="K",
                       help="series window size (default 32 or the "
                            "document's option)")
        p.add_argument("--direction", choices=("plus", "minus"), default=None,
                       help="which completion to use (default plus)")
        p.add_argument("--format", choices=("text", "machine"),
                       default="text", help="report format")
        p.add_argument("--oracle", action="store_true",
                       help="run redundant cross-checks (exact vs truncated, "
                            "rank vs diagonalization, fibering criteria)")

    p_run = sub.add_parser("run", help="run a job document")
    p_run.add_argument("file")
    add_common(p_run)

    p_val = sub.add_parser("validate", help="parse and validate only")
    p_val.add_argument("file")

    p_ex = sub.add_parser("examples", help="bundled example documents")
    ex_sub = p_ex.add_subparsers(dest="examples_command", required=True)
    ex_sub.add_parser("list", help="list bundled documents")
    p_all = ex_sub.add_parser("run-all", help="run every bundled document")
    add_common(p_all)
    return ap


def _precision(text):
    """--precision follows the document rule: a nonnegative integer up
    to MAX_PRECISION.  Leading zeros are dropped before ``int``, and a
    value with more digits than the cap is refused unread, since ``int``
    refuses strings past Python's digit limit."""
    value = text.lstrip("0") or "0"
    if (not re.fullmatch(r"[0-9]+", text)
            or len(value) > len(str(MAX_PRECISION))
            or int(value) > MAX_PRECISION):
        import argparse
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer up to {MAX_PRECISION}, "
            f"got {text!r}")
    return int(value)


_RUN_CHOICES = {"--format": ("text", "machine"),
                "--direction": ("plus", "minus")}


def _run_args(argv):
    """argparse's namespace for ``run <file> [--format F] [--direction D]
    [--oracle] [--precision K]`` with exact option names, each value its
    own token; None for anything else, which argparse parses itself."""
    if argv[:1] != ["run"]:
        return None
    args = SimpleNamespace(command="run", file=None, precision=None,
                           direction=None, format="text", oracle=False)
    rest = iter(argv[1:])
    for token in rest:
        if token == "--oracle":
            args.oracle = True
        elif token == "--precision":
            try:
                args.precision = _precision(next(rest, None))
            except Exception:  # argparse reports whatever _precision rejects
                return None
        elif token in _RUN_CHOICES:
            value = next(rest, None)
            if value not in _RUN_CHOICES[token]:
                return None
            setattr(args, token[2:], value)
        elif token.startswith("-") or args.file is not None:
            return None
        else:
            args.file = token
    return args if args.file is not None else None


def _render(report, fmt):
    """The report in the one format asked for; the other is never built.
    Python's 4,300-digit int-to-str limit (none before 3.10.7) guards
    parsing only: an exact answer may be longer, so it is lifted here."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return report.machine() if fmt == "machine" else report.text
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _run_args(argv) or _build_argparser().parse_args(argv)
    out, err = sys.stdout, sys.stderr
    try:
        if args.command != "examples":
            with open(args.file, encoding="utf-8") as fh:
                job = parse_document(fh.read())
            if args.command == "validate":
                out.write("ok\n")
                return 0
            report = run(job, args.precision, args.direction, args.oracle)
            out.write(_render(report, args.format))
            return report.exit_code
        if args.examples_command == "list":
            for name in bundled_examples():
                out.write(name + "\n")
            return 0
        code = 0
        for name in bundled_examples():
            job = parse_document(_read_bundled(name))
            report = run(job, args.precision, args.direction, args.oracle)
            out.write(f"== {name}\n" + _render(report, args.format))
            code = max(code, report.exit_code)
        return code
    except (ParseError, ValidationError, OSError, UnicodeDecodeError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except Inconclusive as exc:
        err.write(f"inconclusive: {exc}\n")
        return 1
    except Exception as exc:
        err.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
