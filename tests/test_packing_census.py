"""The slot widths and the packing work of the seed-1 ``fundomain-rank``
documents, run in process through ``nk.cli.main`` with each job's
benchmark arguments (``bench/jobs.py`` is only read).

Every width is picked at the packed layer's one width point,
``linalg._slot_width``; the spy attributes it to the kernel on the call
stack.  The pinned multisets are those of the layer's first version, and
a change to the layer that is meant to cost less per call must keep them
and pack and unpack no more often.
"""

import collections
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from nk import linalg, rings
from nk.cli import main

from domains import load_bench

ROOT = Path(__file__).resolve().parent.parent

#: the packing kernels, by the name of the function that picks a width
KERNELS = ("_bareiss", "_product_is", "_schur_step", "solved",
           "cokernel_iso_check")

WIDTHS = {
    "_bareiss": {1: 81, 2: 19},
    "_product_is": {1: 67, 2: 27, 4: 5, 8: 1},
    "_schur_step": {1: 10, 2: 4},
    "cokernel_iso_check": {1: 34, 2: 109, 4: 55, 8: 2},
    "solved": {1: 64, 2: 107, 4: 29},
}


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    """({kernel: Counter of widths}, Counter of _kron and _digits calls)
    over one pass."""
    jobs = load_bench("jobs").make_jobs("fundomain-rank", 1, ROOT / "src")
    path = tmp_path_factory.mktemp("census") / "job.json"
    sites, calls = collections.defaultdict(collections.Counter), \
        collections.Counter()
    slot_width, kron, digits = linalg._slot_width, rings._kron, rings._digits

    def width(bound):
        w, frame = slot_width(bound), sys._getframe(1)
        while frame and frame.f_code.co_name not in KERNELS:
            frame = frame.f_back
        sites[frame.f_code.co_name if frame else None][w] += 1
        return w

    def counted(name, f):
        def spy(*args):
            calls[name] += 1
            return f(*args)
        return spy

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_slot_width", width)
        for module in (rings, linalg):
            mp.setattr(module, "_kron", counted("kron", kron))
            mp.setattr(module, "_digits", counted("digits", digits))
        for job in jobs:
            path.write_text(json.dumps(job.doc))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", str(path), "--format", "machine",
                             *job.args]) == 0, job.name
    return sites, calls


def test_each_kernel_picks_the_pinned_widths(census):
    sites, _ = census
    assert {k: dict(c) for k, c in sites.items()} == WIDTHS


def test_packing_and_unpacking_stay_under_the_pinned_counts(census):
    _, calls = census
    assert calls["kron"] <= 2377
    assert calls["digits"] <= 1701
