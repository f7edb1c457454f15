"""Seeded job documents for the benchmark workloads.

Every generator returns plain JSON documents; the program under test only
ever sees these documents, written to files and passed to ``nk run``.
The constructions follow the routes that are valid by construction (see
the module docstring of ``tests/domains.py``):

* Z-complexes are direct sums of rank-r pieces with zero differential and
  two-term elementary pieces ``Z --x--> Z``, so d o d = 0;
* chain self-maps are blockwise per summand: arbitrary on zero-differential
  summands, scalar on elementary ones;
* fundamental domains come from the cone family (F = 0), the zero family
  (zero differentials, ``c h_F = 0`` by complementary blocks) and the scalar
  family (D = Z in degree 0, F = Z in degrees 0 and 1).

A job also records its scaling-curve bucket and the facts its answer must
satisfy by construction (``expect``), which ``verify.py`` checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Job:
    name: str
    doc: dict
    args: tuple = ()
    bucket: str = ""
    expect: dict = field(default_factory=dict)
    golden: str | None = None

    @property
    def oracle(self):
        return "--oracle" in self.args


# ---------------------------------------------------------------------------
# entries and matrices


def laurent(rng, span=2, bound=2, low=-2):
    """Coefficient map of a random Laurent polynomial z^low (c_0 + ... )."""
    out = {}
    for j in range(span + 1):
        v = rng.randint(-bound, bound)
        if v:
            out[str(low + j)] = v
    return out


def int_matrix(rng, rows, cols, bound=2, dense=False):
    """Entries in [-bound, bound]; with ``dense``, never 0."""
    values = [v for v in range(-bound, bound + 1) if v or not dense]
    return [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]


def laurent_matrix(rng, rows, cols, bound=2):
    return [[laurent(rng, bound=bound) for _ in range(cols)]
            for _ in range(rows)]


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def block_diag(blocks):
    rows = sum(len(b) for b in blocks)
    cols = sum(len(b[0]) if b else 0 for b in blocks)
    out = zeros(rows, cols)
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, e in enumerate(row):
                out[r0 + i][c0 + j] = e
        r0 += len(b)
        c0 += len(b[0]) if b else 0
    return out


def complex_doc(lo, ranks, diffs):
    return {"lo": lo, "hi": lo + len(ranks) - 1, "ranks": list(ranks),
            "differentials": {str(i): m for i, m in sorted(diffs.items())}}


# ---------------------------------------------------------------------------
# Z-complexes and chain self-maps


def _pieces(rng, max_summands=3):
    out = []
    for _ in range(rng.randint(1, max_summands)):
        if rng.random() < 0.5:
            out.append(("free", rng.randint(0, 2), rng.randint(1, 2)))
        else:
            out.append(("elem", rng.randint(1, 3), rng.randint(-3, 3)))
    return out


def _piece_ranks(piece):
    kind, i, x = piece
    return {i: x} if kind == "free" else {i - 1: 1, i: 1}


class ZComplex:
    """A direct sum of pieces, kept with its summand structure."""

    def __init__(self, pieces):
        self.pieces = pieces
        self.piece_ranks = [_piece_ranks(p) for p in pieces]
        self.lo = min(min(r) for r in self.piece_ranks)
        self.hi = max(max(r) for r in self.piece_ranks)

    def rank(self, i):
        return sum(r.get(i, 0) for r in self.piece_ranks)

    def ranks(self):
        return [self.rank(i) for i in range(self.lo, self.hi + 1)]

    def doc(self):
        diffs = {}
        for i in range(self.lo + 1, self.hi + 1):
            m = zeros(self.rank(i - 1), self.rank(i))
            r0 = c0 = 0
            for (kind, top, x), pr in zip(self.pieces, self.piece_ranks):
                if kind == "elem" and top == i and x:
                    m[r0][c0] = x
                r0 += pr.get(i - 1, 0)
                c0 += pr.get(i, 0)
            if any(any(row) for row in m):
                diffs[i] = m
        return complex_doc(self.lo, self.ranks(), diffs)

    def selfmap(self, rng):
        """Blockwise chain self-map: random blocks on free pieces, one
        scalar per elementary piece."""
        scalars = [rng.randint(-2, 2) for _ in self.pieces]
        comps = {}
        for i in range(self.lo, self.hi + 1):
            blocks = []
            for (kind, _, _), pr, s in zip(self.pieces, self.piece_ranks,
                                           scalars):
                r = pr.get(i, 0)
                if not r:
                    continue
                blocks.append(int_matrix(rng, r, r) if kind == "free"
                              else [[s]])
            if blocks:
                comps[str(i)] = block_diag(blocks)
        return comps


def z_complex(rng, max_summands=3):
    return ZComplex(_pieces(rng, max_summands))


def _euler(lo, ranks):
    return sum((-1) ** (lo + k) * r for k, r in enumerate(ranks))


# ---------------------------------------------------------------------------
# documents by kind


def complex_homology_doc(rng, variant=0):
    c = z_complex(rng)
    doc = {"kind": "complex-homology", "payload": {"complex": c.doc()}}
    return doc, {"euler": _euler(c.lo, c.ranks())}


def _mirror(m):
    """Substitute z -> z^-1 in every entry."""
    return [[{str(-int(e)): c for e, c in entry.items()} for entry in row]
            for row in m]


def unit_pivot_doc(rng, n, bound=2, minus=False):
    """n x n Laurent differential congruent to diag(1, ..., 1, c) modulo z,
    with |c| in {2, 3}; every entry has nonzero coefficients of z and z^2
    drawn from [-bound, bound].

    Off-diagonal entries lie in zZ[z], so every Schur complement stays
    congruent to diag(1, ..., 1, c): the reduction over Z((z)) pivots on
    Novikov units n - 1 times and ends with exactly one torsion factor.
    With ``minus`` every exponent is negated, which gives the same
    structure over Z((z^-1)).
    """
    values = [v for v in range(-bound, bound + 1) if v]
    m = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = {"1": rng.choice(values), "2": rng.choice(values)}
            if i == j:
                entry["0"] = 1 if i < n - 1 else rng.choice((-3, -2, 2, 3))
            row.append(entry)
        m.append(row)
    if minus:
        m = _mirror(m)
    doc = {"kind": "novikov", "payload": {"complex": complex_doc(
        0, [n, n], {1: m})}}
    return doc, {"euler": 0, "torsion_counts": {"0": 1, "1": 0}}


def small_novikov_doc(rng, variant=0):
    if variant % 2:
        c = z_complex(rng)
        doc = {"kind": "novikov", "payload": {"complex": c.doc()}}
        return doc, {"euler": _euler(c.lo, c.ranks())}
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    doc = {"kind": "novikov", "payload": {"complex": complex_doc(
        0, [rows, cols], {1: laurent_matrix(rng, rows, cols)})}}
    return doc, {"euler": rows - cols}


def domination_doc(rng, variant=0):
    if variant % 2:
        c = z_complex(rng)
        cx = c.doc()
    else:
        n = (1, 2)[variant // 2 % 2]
        cx = complex_doc(0, [n, n], {1: laurent_matrix(rng, n, n)})
    return {"kind": "domination", "payload": {"complex": cx}}, {}


def torus_doc(rng, rank=None, orientation=None, dense=False):
    """Mapping torus of a chain self-map: of a seeded Z-complex, or of a
    random rank x rank integer matrix in degree 0 when ``rank`` is given."""
    if rank is None:
        c = z_complex(rng)
        cx, h = c.doc(), c.selfmap(rng)
    else:
        cx = complex_doc(0, [rank], {})
        h = {"0": int_matrix(rng, rank, rank, dense=dense)}
    orientation = orientation or rng.choice(("plus", "minus"))
    doc = {"kind": "mapping-torus",
           "payload": {"complex": cx, "h": h, "orientation": orientation}}
    # the torus is acyclic over the completion matching its orientation
    return doc, {"euler": 0, "acyclic_in": orientation}


def knot_doc(rng, variant=0):
    n = (2, 3)[variant % 2]
    doc = {"kind": "knot", "payload": {
        "base": complex_doc(1, [n], {}), "e": {"1": int_matrix(rng, n, n)}}}
    return doc, {}


def inequalities_doc(rng, variant=0):
    k = rng.randint(1, 4)
    doc = {"kind": "inequalities", "payload": {
        "lo": rng.randint(-1, 1),
        "counts": [rng.randint(0, 4) for _ in range(k)],
        "bounds": [rng.randint(0, 4) for _ in range(k)]}}
    return doc, {}


def _domain_doc(D, F, c, hD, hF):
    return {"kind": "fundomain", "payload": {"domain": {
        "D": D, "F": F, "c": c, "hD": hD, "hF": hF}}}


def cone_domain_doc(rng):
    d = z_complex(rng)
    F = complex_doc(d.lo, [0], {})
    return _domain_doc(d.doc(), F, {}, d.selfmap(rng), {}), {}


def zero_domain_doc(rng, lo=None, d_ranks=None, s_ranks=None, t_ranks=None,
                    dense=False):
    """Zero differentials everywhere; h_F lands in the s block of F and c
    reads the t block, so c h_F = 0."""
    if d_ranks is None:
        lo = rng.randint(-1, 1)
        span = rng.randint(1, 2) + 1
        d_ranks = [rng.randint(0, 2) for _ in range(span)]
        s_ranks = [rng.randint(0, 2) for _ in range(span)]
        t_ranks = [rng.randint(0, 2) for _ in range(span)]
    f_ranks = [s + t for s, t in zip(s_ranks, t_ranks)]
    hD, hF, c = {}, {}, {}
    for k, i in enumerate(range(lo, lo + len(d_ranks))):
        d, s, t = d_ranks[k], s_ranks[k], t_ranks[k]
        if d:
            hD[str(i)] = int_matrix(rng, d, d, dense=dense)
            if s + t:
                hF[str(i)] = int_matrix(rng, s, d) + zeros(t, d)
        if k and d_ranks[k - 1] and s + t:
            prev = d_ranks[k - 1]
            c[str(i)] = [[0] * s + row
                         for row in int_matrix(rng, prev, t)]
    doc = _domain_doc(complex_doc(lo, d_ranks, {}),
                      complex_doc(lo, f_ranks, {}), c, hD, hF)
    return doc, {"fhat_euler": _euler(lo, f_ranks)}


def scalar_domain_doc(rng):
    a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
    F = complex_doc(0, [1, 1], {1: [[a]]} if a else {})
    return _domain_doc(complex_doc(0, [1], {}), F, {"1": [[b]]},
                       {"0": [[c]]}, {"0": [[d]]}), {"fhat_euler": 0}


def fundomain_doc(rng, variant=0):
    family = ("cone", "zero", "zero", "scalar")[variant % 4]
    if family == "cone":
        return cone_domain_doc(rng)
    if family == "zero":
        return zero_domain_doc(rng)
    return scalar_domain_doc(rng)


def mixed_torus_doc(rng, variant=0):
    return torus_doc(rng, orientation=("plus", "minus")[variant % 2])


# kind -> generator(rng, variant); the variant cycles the discrete choices
# (family, orientation, size) so that every seed has the same mix
MIXED_KINDS = {
    "complex-homology": complex_homology_doc,
    "novikov": small_novikov_doc,
    "domination": domination_doc,
    "fundomain": fundomain_doc,
    "mapping-torus": mixed_torus_doc,
    "knot": knot_doc,
    "inequalities": inequalities_doc,
}


def exponent_doc(rng, n, span, minus=False):
    """n x n differential congruent to diag(1, ..., 1, c) modulo z whose
    corner entry is 1 +- z^e, e in [0.9 span, span].

    The off-diagonal entries lie in zZ[z] and c has |c| in {2, 3}, so the
    reduction pivots on Novikov units until the last entry, starting from
    the long corner (its extreme coefficients are +-1 on both sides, so
    this holds in either direction), and every later entry is a rational
    function whose denominator has span e.  The result is one torsion
    factor in degree 0.
    """
    def coeff():
        return rng.choice((-3, -2, 2, 3))
    m = [[{"1": coeff(), "2": coeff()} for _ in range(n)] for _ in range(n)]
    for i in range(1, n - 1):
        m[i][i] = {"0": 1, "1": coeff()}
    m[0][0] = {"0": 1, str(rng.randint(span - span // 10, span)):
               rng.choice((-1, 1))}
    m[n - 1][n - 1] = {"0": coeff(), "1": coeff()}
    if minus:
        m = _mirror(m)
    doc = {"kind": "novikov", "payload": {"complex": complex_doc(
        0, [n, n], {1: m})}}
    return doc, {"euler": 0, "torsion_counts": {"0": 1, "1": 0}}


# ---------------------------------------------------------------------------
# workloads


def _direction_args(k, kind, oracle_every_other=False):
    """Every other pair of jobs runs in the minus direction, except
    fundomain jobs: F^ is built over Z((z)), the plus completion."""
    args = ["--direction", "minus"] if k % 4 >= 2 and kind != "fundomain" \
        else []
    if oracle_every_other and k % 2:
        args.append("--oracle")
    return tuple(args)


def bundled_jobs(src):
    out = []
    for path in sorted((src / "nk" / "examples").glob("*.json")):
        out.append(Job(f"example-{path.stem}", json.loads(path.read_text()),
                       bucket="bundled", golden=path.stem))
    return out


def jobs_mixed(rng, src):
    """The bundled examples plus 200 small seeded documents of all seven
    kinds, both directions, --oracle on every other job."""
    jobs = bundled_jobs(src)
    kinds = sorted(MIXED_KINDS)
    for k in range(200):
        kind = kinds[k % len(kinds)]
        doc, expect = MIXED_KINDS[kind](rng, k // len(kinds))
        jobs.append(Job(f"mixed-{k:03d}-{kind}", doc,
                        _direction_args(k, kind, oracle_every_other=True),
                        bucket=kind, expect=expect))
    return jobs


# rank of D -> jobs per pass: weighted to small ranks, always 6 and 7;
# p50 falls inside the rank-3 bucket and p90 inside the rank-5 bucket
FUNDOMAIN_RANKS = {2: 32, 3: 25, 4: 28, 5: 12, 6: 2, 7: 1}


def fundomain_rank(rng, src):
    """Zero-family domains: D of rank r in degrees 0 and 1, F of rank 2
    in each degree, h_D dense with entries in {-2, -1, 1, 2}."""
    jobs = []
    for r, count in FUNDOMAIN_RANKS.items():
        for _ in range(count):
            doc, expect = zero_domain_doc(rng, 0, [r, r], [1, 1], [1, 1],
                                          dense=True)
            jobs.append(Job(f"fundomain-r{r}-{len(jobs):03d}", doc,
                            bucket=f"rank={r}", expect=expect))
    return jobs


# (n, coefficient bound) -> unit-pivot novikov jobs per pass, alternating
# direction plus/minus
DIAG_NOVIKOV = {(4, 2): 30, (4, 5): 10, (5, 2): 5, (5, 5): 5, (6, 2): 12,
                (7, 2): 3, (8, 2): 2}
# rank of h -> mapping-torus jobs per pass, alternating orientation.  In
# time order p50 falls inside the (4, 2) novikov bucket and p90 inside
# the (6, 2) one, away from bucket boundaries.  The largest sizes come in
# pairs so that one document's cost does not swing the pass.
DIAG_TORI = {4: 30, 6: 2, 8: 3, 10: 2}


def diag_rank(rng, src):
    jobs = []
    for (n, bound), count in DIAG_NOVIKOV.items():
        for k in range(count):
            minus = k % 2 == 1
            doc, expect = unit_pivot_doc(rng, n, bound, minus)
            jobs.append(Job(f"diag-n{n}-b{bound}-{len(jobs):03d}", doc,
                            ("--direction", "minus") if minus else (),
                            bucket=f"n={n},bound={bound}", expect=expect))
    for r, count in DIAG_TORI.items():
        for k in range(count):
            orientation = ("plus", "minus")[k % 2]
            doc, expect = torus_doc(rng, r, orientation, dense=True)
            jobs.append(Job(f"torus-r{r}-{orientation}-{len(jobs):03d}", doc,
                            ("--direction", orientation),
                            bucket=f"torus rank={r}", expect=expect))
    return jobs


# (n, exponent span) -> jobs per pass, alternating direction; p50 falls
# inside the span-300 bucket and p90 inside the span-1000 bucket
EXPONENT_SPANS = {(2, 100): 36, (2, 300): 30, (2, 1000): 28, (2, 3000): 2,
                  (3, 100): 4}


def exponent_span(rng, src):
    jobs = []
    for (n, span), count in EXPONENT_SPANS.items():
        for k in range(count):
            minus = k % 2 == 1
            doc, expect = exponent_doc(rng, n, span, minus)
            jobs.append(Job(f"span-{n}x{n}-E{span}-{len(jobs):03d}", doc,
                            ("--direction", "minus") if minus else (),
                            bucket=f"E={span},n={n}", expect=expect))
    return jobs


WORKLOADS = {
    "jobs-mixed": jobs_mixed,
    "fundomain-rank": fundomain_rank,
    "diag-rank": diag_rank,
    "exponent-span": exponent_span,
}


def make_jobs(workload, seed, src: Path):
    """The job list of one pass, in a fixed seeded order."""
    rng = random.Random(f"nk-bench-{workload}-{seed}")
    jobs = WORKLOADS[workload](rng, src)
    rng.shuffle(jobs)
    return jobs
