"""Spans around the public functions of every ``nk`` module.

The tracer attaches from outside the program:

* every public function defined in an ``nk`` module is wrapped, and the
  wrapper is bound wherever the function object is reachable by name:
  in every ``nk`` module namespace that holds that object (found by
  identity), so ``from .linalg import novikov_diagonalize`` call sites
  are traced too;
* ``RationalFunction.__init__`` and ``Report.machine`` are wrapped on
  their classes; class names are never rebound, so ``isinstance`` checks
  across modules keep working;
* ``LaurentPoly`` arithmetic is not wrapped (hundreds of thousands of
  calls per heavy job); its time shows as self time of the enclosing span.

A span is (name, start, end, parent, job).  Spans stay in memory in
compact arrays and are handed to the parent after each job; the parent
writes them out when the run ends.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import pstats
import time
from array import array

MODULES = ("rings", "linalg", "complexes", "novikov", "fundomain", "models",
           "cli")
CLASS_MEMBERS = (("rings", "RationalFunction", "__init__",
                  "rings.RationalFunction"),
                 ("cli", "Report", "machine", "cli.Report.machine"))
DIAGONALIZE = "linalg.novikov_diagonalize"


def _modules():
    return [importlib.import_module("nk")] + [
        importlib.import_module(f"nk.{m}") for m in MODULES]


def traced_targets():
    """(span name, function) for each function the tracer wraps."""
    out = []
    for mod in _modules()[1:]:
        short = mod.__name__.split(".")[-1]
        for name, obj in sorted(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and obj.__name__ == name):
                out.append((f"{short}.{name}", obj))
    for modname, cls, attr, span in CLASS_MEMBERS:
        klass = getattr(importlib.import_module(f"nk.{modname}"), cls)
        out.append((span, klass.__dict__[attr]))
    return out


def _coeff_bits(e):
    """Largest coefficient bit length of an int, LaurentPoly or
    RationalFunction entry."""
    if isinstance(e, int):
        return abs(e).bit_length()
    if hasattr(e, "denominator"):
        return max(_coeff_bits(e.numerator), _coeff_bits(e.denominator))
    return max((abs(c).bit_length() for _, c in e.items()), default=0)


def transform_bits(result):
    return max((_coeff_bits(e) for m in (result.U, result.V)
                for row in m.entries for e in row), default=0)


class Tracer:
    def __init__(self):
        self.targets = traced_targets()
        self.names = [name for name, _ in self.targets]
        self.stack = []
        self.job = -1
        self._reset()

    def _reset(self):
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.raised = {}          # (name index, exception type) -> count
        self.bits_max = 0

    def _wrap(self, idx, fn):
        tracer = self
        clock = time.perf_counter
        observe = self.names[idx] == DIAGONALIZE

        def traced(*args, **kwargs):
            stack = tracer.stack
            sid = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(sid)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.span_end[sid] = clock()
                stack.pop()
                key = (idx, type(exc).__name__)
                tracer.raised[key] = tracer.raised.get(key, 0) + 1
                raise
            tracer.span_end[sid] = clock()
            stack.pop()
            if observe:
                tracer.bits_max = max(tracer.bits_max, transform_bits(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Rebind every target, by identity, in every nk namespace."""
        modules = _modules()
        by_id = {}
        for idx, (name, fn) in enumerate(self.targets):
            by_id[id(fn)] = self._wrap(idx, fn)
        for modname, cls, attr, _ in CLASS_MEMBERS:
            klass = getattr(importlib.import_module(f"nk.{modname}"), cls)
            setattr(klass, attr, by_id[id(klass.__dict__[attr])])
        for mod in modules:
            for key, value in list(vars(mod).items()):
                wrapped = by_id.get(id(value))
                if wrapped is not None and value is not wrapped:
                    setattr(mod, key, wrapped)

    def begin_job(self, job):
        self.job = job
        self.stack.clear()
        self._reset()

    def end_job(self):
        """Per-job counts and self times by span name, plus the spans."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, self_s, total = {}, {}, {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            total[name] = total.get(name, 0.0) + dur[i]
        raised = {}
        for (idx, exc), count in self.raised.items():
            raised.setdefault(self.names[idx], {})[exc] = count
        spans = (self.job, self.span_name, self.span_start, self.span_end,
                 self.span_parent)
        return {"calls": calls, "self_s": self_s, "total_s": total,
                "raised": raised, "bits_max": self.bits_max,
                "names": self.names, "spans": spans}


def profile_counts(tracer, argvs, run_one):
    """Run each argv under cProfile with the tracer installed.

    Returns (traced call counts, cProfile call counts of the wrapped
    originals, outcomes).  The two counts agree exactly when every call
    site reaches the original through a wrapper.
    """
    prof = cProfile.Profile()
    traced = {}
    outcomes = []
    for argv in argvs:
        tracer.begin_job(-1)
        prof.enable()
        outcomes.append(run_one(argv))
        prof.disable()
        for name, count in tracer.end_job()["calls"].items():
            traced[name] = traced.get(name, 0) + count
    stats = pstats.Stats(prof).stats
    by_code = {(c.co_filename, c.co_firstlineno, c.co_name): name
               for name, fn in tracer.targets for c in [fn.__code__]}
    profiled = {}
    for key, (_, ncalls, *_rest) in stats.items():
        name = by_code.get(key)
        if name is not None:
            profiled[name] = profiled.get(name, 0) + ncalls
    return traced, profiled, outcomes
