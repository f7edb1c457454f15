"""The worker child process that runs jobs through ``nk.cli.main``.

The timed passes use one worker: a closed loop with one client (the
untimed oracle verification runs two at once).  Each job is sent as an
argv list; the worker runs ``nk.cli.main`` in process with stdout and
stderr captured and answers with the exit code, the captured report, the
exception type if ``main`` raised, the job's wall time and the worker's
peak RSS.  The parent enforces the per-job
timeout with SIGKILL, which no ``except`` clause in the program can
swallow, and starts a fresh worker after a kill.

Interpreter defaults are kept: no ``sys.set_int_max_str_digits`` and no
raised recursion limit, so the program's own limits show as crashes.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait


@dataclass
class Outcome:
    code: int | None          # exit code of main(); None if it did not return
    out: str = ""             # captured stdout (the machine report)
    err: str = ""             # last line of captured stderr
    exc: str | None = None    # exception type name, "Timeout" or "WorkerDied"
    seconds: float = 0.0      # job wall time measured in the worker
    rss_kib: int = 0          # worker peak RSS after the job
    calib_s: float = 0.0      # mean calibration reading around the job

    @property
    def ref_seconds(self):
        """The job's time in reference seconds."""
        return self.seconds * CALIB_REF_S / self.calib_s if self.calib_s \
            else self.seconds


CALIB_N = 20_000              # about 2 ms of pure-Python work
# The calibration reading at median host speed on the 2-core VM the
# benchmark was tuned on.  Times scaled by CALIB_REF_S / reading are in
# reference seconds: seconds at that host speed.
CALIB_REF_S = 0.0016


def calibration_loop(n=CALIB_N):
    """Seconds for a fixed pure-Python loop: a reading of host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def _run_main(main, argv, calibrate=True):
    """Run main(argv) with output captured.  Host speed on a shared VM
    drifts by 20-30% within seconds, so a calibration reading taken just
    before and just after the job goes with its time."""
    # Each `nk run` is a fresh process in real use: collect the previous
    # job's garbage here, untimed, so that it is not charged to this job.
    gc.collect()
    before = calibration_loop() if calibrate else 0.0
    out, err = io.StringIO(), io.StringIO()
    exc = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:  # argparse rejects the command line
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a crash of the program under test is a result
        exc = type(e).__name__
    seconds = time.perf_counter() - t0
    calib_s = (before + calibration_loop()) / 2 if calibrate else 0.0
    lines = err.getvalue().strip().splitlines()
    return Outcome(code, out.getvalue(), lines[-1] if lines else "", exc,
                   seconds,
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   calib_s)


def serve(rx, tx, trace):
    """Worker loop: answer ("job", id, argv) and ("selftest", [argv])
    requests until None arrives."""
    from nk import cli
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    while True:
        msg = rx.recv()
        if msg is None:
            break
        if msg[0] == "job":
            _, job_id, argv = msg
            if tracer is not None:
                tracer.begin_job(job_id)
            outcome = _run_main(cli.main, argv)
            payload = None
            if tracer is not None:
                payload = tracer.end_job()
            tx.send((outcome, payload))
        elif msg[0] == "selftest":
            from tracer import profile_counts
            tx.send(profile_counts(
                tracer, msg[1], lambda argv: _run_main(cli.main, argv, False)))


class Worker:
    """Parent-side handle on one worker child, restarted after a kill.

    The child is ``python3 worker.py`` with ``src`` on its path; requests
    and answers travel as pickles over two pipes that only this module
    writes."""

    def __init__(self, src, trace=False):
        self.src = src
        self.trace = trace
        self.proc = None
        self.restarts = 0
        self.peak_rss_kib = 0
        self._start()

    def _start(self):
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        env = dict(os.environ, PYTHONPATH=str(self.src))
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(down_r), str(up_w),
             str(int(self.trace))], pass_fds=(down_r, up_w), env=env)
        os.close(down_r)
        os.close(up_w)
        self.tx = Connection(down_w, readable=False)
        self.rx = Connection(up_r, writable=False)

    def _stop(self, kill):
        if kill:
            self.proc.kill()
        else:
            try:
                self.tx.send(None)
            except OSError:
                pass
            try:
                self.proc.wait(5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.tx.close()
        self.rx.close()

    def restart(self):
        """Kill the child (SIGKILL) and start a fresh one."""
        self._stop(kill=True)
        self.restarts += 1
        self._start()

    def submit(self, job_id, argv):
        self.tx.send(("job", job_id, argv))

    def collect(self):
        """The answer to the job in flight, once ``rx`` is readable."""
        try:
            outcome, payload = self.rx.recv()
        except EOFError:
            self.restart()
            return Outcome(None, exc="WorkerDied"), None
        self.peak_rss_kib = max(self.peak_rss_kib, outcome.rss_kib)
        return outcome, payload

    def run(self, job_id, argv, timeout):
        """Run one job; returns (Outcome, trace payload or None)."""
        self.submit(job_id, argv)
        if not self.rx.poll(timeout):
            self.restart()
            return Outcome(None, exc="Timeout", seconds=timeout), None
        return self.collect()

    def request(self, msg, timeout):
        """Send a non-job request; None if the worker did not answer."""
        self.tx.send(msg)
        if not self.rx.poll(timeout):
            self.restart()
            return None
        return self.rx.recv()

    def close(self):
        if self.proc is not None:
            self._stop(kill=False)
            self.proc = None


def run_all(workers, tasks, timeout):
    """Run (job id, argv) tasks on several workers at once, each job under
    the same timeout; returns the outcomes by job id."""
    pending = list(reversed(tasks))
    busy = {}
    done = {}
    while pending or busy:
        for w in workers:
            if w not in busy and pending:
                k, argv = pending.pop()
                w.submit(k, argv)
                busy[w] = (k, time.monotonic() + timeout)
        wait_s = max(0.0, min(d for _, d in busy.values()) - time.monotonic())
        ready = wait([w.rx for w in busy], wait_s)
        for w, (k, deadline) in list(busy.items()):
            if w.rx in ready:
                done[k] = w.collect()[0]
            elif time.monotonic() >= deadline:
                w.restart()
                done[k] = Outcome(None, exc="Timeout", seconds=timeout)
            else:
                continue
            del busy[w]
    return done


if __name__ == "__main__":
    # import by name, so that pickled Outcomes name worker.Outcome
    import worker
    worker.serve(Connection(int(sys.argv[1]), writable=False),
                 Connection(int(sys.argv[2]), readable=False),
                 sys.argv[3] == "1")
