"""The parse boundary under mutation: ``nk validate`` exits 0 or 2 on any
mutated document, and never reports an internal error.

The inputs are the seed-1 ``jobs-mixed`` documents of the benchmark,
which include the bundled examples (``bench/jobs.py``, loaded
read-only).  Each example applies one to three mutations: delete a key
or a list item, insert a degree key, or replace a value with one from a
fixed alphabet of wrong types, signs and sizes.  ``nk run`` is left out:
some valid documents still run past any time bound (ROADMAP item 19).
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest

from nk.cli import main

from domains import load_bench

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SRC = Path(__file__).resolve().parent.parent / "src"

ALPHABET = [None, True, 2.5, "1", -1, 0, 10 ** 30, [], {}, [[1]], {"0": 1}]

DEGREE_KEYS = ["-1", "0", "1", "2", "3"]


def _paths(node, path=()):
    """The path of node and of every value below it."""
    yield path
    if isinstance(node, (dict, list)):
        for k, v in (node.items() if isinstance(node, dict)
                     else enumerate(node)):
            yield from _paths(v, path + (k,))


def _at(node, path):
    for k in path:
        node = node[k]
    return node


def _pick(draw, paths):
    """A depth, then a path of that depth: the few fields near the root
    (ranks, degrees, keys) are drawn as often as the many entries of
    the matrices below them."""
    depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
    return draw(st.sampled_from([p for p in paths if len(p) == depth]))


@st.composite
def mutated_documents(draw, documents):
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        op = draw(st.sampled_from(["delete", "insert", "replace"]))
        value = copy.deepcopy(draw(st.sampled_from(ALPHABET)))
        if op == "insert":
            where = _pick(draw, [p for p in paths
                                 if isinstance(_at(doc, p), dict)])
            _at(doc, where)[draw(st.sampled_from(DEGREE_KEYS))] = value
        elif len(paths) > 1:
            *where, key = _pick(draw, paths[1:])
            if op == "delete":
                del _at(doc, where)[key]
            else:
                _at(doc, where)[key] = value
    return doc


def test_validate_exits_0_or_2_on_mutated_documents(tmp_path):
    f = tmp_path / "doc.json"
    jobs = load_bench("jobs").make_jobs("jobs-mixed", 1, SRC)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(mutated_documents([job.doc for job in jobs]))
    def exits_0_or_2(doc):
        f.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["validate", str(f)])
        assert code in (0, 2), err.getvalue()
        assert not err.getvalue().startswith("internal error")

    exits_0_or_2()
