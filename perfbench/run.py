"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/cjl``).  A run makes
whole passes over the workload's request list, each pass in a fresh
interpreter (``bench_pass.py``), one at a time, and starts another pass only
while it can end within ``--seconds``.  Timings are medians over the passes
of times scaled to a fixed host speed (see ``bench_pass.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: ``pass_s`` (median pass), ``req_p50_s`` (median request
latency over all passes), ``setup_s`` (median interpreter start, import and
input building, over the passes and eight start-ups that stop there) and
``peak_rss_mb`` (median peak resident size of a pass).
With ``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer figures of the traced passes plus ``trace.overhead``, the
traced over the untraced median pass time.  Pass reports and span files go
to ``perfbench/results/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("analyze-ladder", "resonance-ideals", "artin-deformation")
DEADLINE_S = 170          # a run must end within 180 s whatever happens
SETUP_PROBES = 8          # extra start-ups per run, for a steadier setup_s


class PassError(Exception):
    pass


def run_pass(workload, seed, trace, timeout, spans=None, setup_only=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "bench_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassError(f"a pass ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise PassError(f"a pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_s"] = time.monotonic() - t0
    return report


def scaled_pass(p):
    """Pass time with every request scaled by its host-speed factor."""
    return sum(x * f for x, f in zip(p["latencies"], p["factors"]))


def layer_metrics(traced, untraced):
    """Per-layer metrics: counts must repeat exactly, times are medians of
    times scaled by their pass's mean host-speed factor."""
    out = {}
    for name, value in traced[0]["layers"].items():
        values = [p["layers"][name] for p in traced]
        if isinstance(value, int):
            if len(set(values)) != 1:
                raise PassError(f"count {name} differs between traced passes: {values}")
            out[name] = (value, "count")
        elif name.startswith("trace."):
            out[name] = (statistics.median(values), "ratio")
        else:
            out[name] = (statistics.median(v * scaled_pass(p) / p["pass_s"]
                                           for v, p in zip(values, traced)), "s")
    out["trace.overhead"] = (statistics.median(scaled_pass(p) for p in traced)
                             / statistics.median(scaled_pass(p) for p in untraced), "ratio")
    return out


def measure(args):
    """Run the passes (and set-up probes) of one run; return the result."""
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    start = time.monotonic()
    passes = []
    # trace 0: untraced passes only; trace 1: untraced and traced in turn
    kinds = [0] if not args.trace else [0, 1]
    probes = 0 if args.trace else SETUP_PROBES
    while True:
        kind = kinds[len(passes) % len(kinds)]
        spans = os.path.join(RESULTS, f"spans-{tag}-pass{len(passes)}.jsonl") if kind else None
        rep = run_pass(args.workload, args.seed, kind, DEADLINE_S - (time.monotonic() - start),
                       spans)
        rep["traced"] = kind
        passes.append(rep)
        sys.stderr.write(f"pass {len(passes)} trace={kind}: {rep['pass_s']:.3f} s, "
                         f"setup {rep['setup_s']:.3f} s, failed {len(rep['failed'])}\n")
        elapsed = time.monotonic() - start
        nxt = kinds[len(passes) % len(kinds)]
        same = [p["wall_s"] for p in passes if p["traced"] == nxt] or [rep["wall_s"]]
        reserve = probes * 1.5 * statistics.median(p["setup_s"] for p in passes)
        if len(passes) >= len(kinds) and elapsed + max(same) + reserve > args.seconds:
            break
    setups = [(p["setup_s"], p["setup_factor"]) for p in passes]
    for _ in range(probes):
        rep = run_pass(args.workload, args.seed, 0, DEADLINE_S - (time.monotonic() - start),
                       setup_only=True)
        setups.append((rep["setup_s"], rep["setup_factor"]))
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "setups": setups}, fh)

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        metrics = layer_metrics([p for p in passes if p["traced"]], plain)
    else:
        metrics = {
            "pass_s": (statistics.median(scaled_pass(p) for p in plain), "s"),
            "req_p50_s": (statistics.median(x * f for p in plain
                                            for x, f in zip(p["latencies"], p["factors"])), "s"),
            "setup_s": (statistics.median(s * f for s, f in setups), "s"),
            "peak_rss_mb": (statistics.median(p["rss_kb"] for p in plain) / 1024, "MB"),
        }
        sys.stderr.write("unscaled: pass_s %.4f req_p50_s %.4f setup_s %.4f\n" % (
            statistics.median(p["pass_s"] for p in plain),
            statistics.median(x for p in plain for x in p["latencies"]),
            statistics.median(s for s, _ in setups)))
    for p in passes:
        for name in p["failed"]:
            sys.stderr.write(f"failed: {name} {p['errors'].get(name, '')}\n")
    return {
        "correct": not any(p["wrong"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cjl", "cli.py")):
        sys.stderr.write(f"no cjl sources under {SRC}: run from the root of a checkout\n")
        return 2
    try:
        result = measure(args)
    except PassError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
