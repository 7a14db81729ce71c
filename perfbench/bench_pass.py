"""One pass over a workload's request list, in a fresh interpreter.

    python3 perfbench/bench_pass.py --workload NAME --seed N --trace 0|1 --t0 T

``run.py`` starts this script once per pass with ``src`` on PYTHONPATH and
passes ``--t0``, its ``time.monotonic()`` reading just before the start, so
that set-up covers interpreter start, the import of ``cjl`` and the building
of the inputs.  The requests run one at a time (one client, closed loop);
each is timed alone.  Outputs are checked after the last request, outside
the timed part.  The script prints one JSON line with the pass's figures.
"""

import argparse
import bisect
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction

# Host speed drifts by tens of percent over seconds to minutes, so every
# timing is scaled by the host speed measured while it ran.  A SIGALRM timer
# interrupts the pass every SAMPLE_EVERY_S seconds to time a short burst of
# the kind of Python work the program does (Fraction arithmetic, tuple keys,
# dicts).  A request's factor is REFERENCE_S over the median burst taken
# during it (and the nearest burst on either side); its latency excludes the
# bursts.  Scaled figures read as seconds on a host where one burst takes
# REFERENCE_S.
REFERENCE_S = 0.0015
SAMPLE_EVERY_S = 0.2


def _burst():
    acc = {}
    f = Fraction(3, 7)
    for i in range(400):
        key = (i % 31, i % 17, i % 5)
        acc[key] = acc.get(key, f) * Fraction(i % 11 + 1, 13) + f
    return len(acc)


def calibrate() -> float:
    """Median duration of five bursts."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        _burst()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class HostSpeed:
    """Bursts timed on a timer signal while the requests run."""

    def __init__(self):
        self.samples = []           # (mid time, burst seconds)
        self.spent = 0.0            # time spent in the handler

    def sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        _burst()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.spent += time.perf_counter() - t0

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, start, end) -> float:
        times = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(times, start) - 1, 0)
        hi = min(bisect.bisect_right(times, end) + 1, len(times))
        return REFERENCE_S / statistics.median(d for _, d in self.samples[lo:hi])


def _run_request(req, cli_run):
    if req.call is not None:
        module, name, args = req.call
        return getattr(module, name)(*args)    # looked up now, so tracing sees it
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(req.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_run(req.argv)
    finally:
        sys.stdin = sys.__stdin__
    return code, out.getvalue(), err.getvalue()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans", default=None, help="file for the traced pass's spans")
    ap.add_argument("--setup-only", action="store_true", help="stop after building the inputs")
    args = ap.parse_args()

    import cjl.cli
    import workloads

    here = os.path.dirname(os.path.abspath(__file__))
    scratch = os.path.join(here, "results")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="inputs-", dir=scratch)
    try:
        reqs = workloads.WORKLOADS[args.workload](args.seed, workloads.Inputs(tmpdir))
        setup_s = time.monotonic() - args.t0
        setup_factor = REFERENCE_S / calibrate()
        if args.setup_only:
            sys.stdout.write(json.dumps({"setup_s": setup_s, "setup_factor": setup_factor}) + "\n")
            return

        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        cli_run = cjl.cli.run
        results, errors, latencies, spans = {}, {}, [], []
        host = HostSpeed()
        host.start()
        host.sample()                      # a burst before the first request
        for rid, req in enumerate(reqs):
            if tracer is not None:
                tracer.request = rid
            spent = host.spent
            t = time.perf_counter()
            try:
                out = _run_request(req, cli_run)
            except Exception as exc:  # a request that raises counts as failed
                errors[req.name] = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            latencies.append(t1 - t - (host.spent - spent))
            spans.append((t, t1))
            if req.name not in errors:
                results[req.name] = req.keep(out) if req.keep else out
            out = None
        host.sample()                      # and one after the last
        host.stop()
        factors = [host.factor(a, b) for a, b in spans]
        pass_s = sum(latencies)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()

        failed, wrong = list(errors), []
        for req in reqs:
            if req.name in errors:
                continue
            out = results[req.name]
            if req.call is None and out[0] != 0:       # a cli exit code
                failed.append(req.name)
                continue
            try:
                ok = req.check(out, results)
            except Exception as exc:
                ok = False
                errors[req.name] = f"check raised {type(exc).__name__}: {exc}"
            if not ok:
                failed.append(req.name)
                wrong.append(req.name)
        report = {
            "setup_s": setup_s,
            "setup_factor": setup_factor,
            "pass_s": pass_s,
            "requests": [req.name for req in reqs],
            "latencies": latencies,
            "factors": factors,
            "bursts": len(host.samples),
            "rss_kb": rss_kb,
            "attempted": len(reqs),
            "failed": sorted(failed),
            "wrong": sorted(wrong),
            "errors": errors,
        }
        if tracer is not None:
            # the layers' self times include the bursts taken inside them
            report["layers"] = tracer.summary(sum(b - a for a, b in spans))
            if args.spans:
                tracer.write_spans(args.spans)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
