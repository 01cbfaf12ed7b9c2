"""pspeclab benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload psgrid-rotated --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that has src/pspeclab.  With
--trace 0 it reports setup_s, op_s, op_s_tail and peak_rss_mb; with
--trace 1 the per-layer metrics of tracer.METRICS.  Every line but the
last is a human-readable report (inputs, machine, gate verdicts, each
metric with its unit); the last line is one JSON object with the keys
correct, attempted, failed and metrics.  The workload runs in a child
process (worker.py), so peak_rss_mb is that workload's own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("psgrid-rotated", "wick-proximity", "repro-suites")
SETUP_RUNS = 3          # set-up is sampled this many times per run
TIME_LIMIT_S = 170.0    # whole run, set-ups included
TAIL_BEYOND = 10        # op_s_tail has this many samples above it


class BenchError(Exception):
    pass


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the smoke test")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    loadavg = os.getloadavg()
    if not (ROOT / "src" / "pspeclab" / "__init__.py").is_file():
        print(f"error: no pspeclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_work"
    work = scratch / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setups, ready, result = [], [], None
        for k in range(1 if args.trace else SETUP_RUNS):
            setup_only = k < SETUP_RUNS - 1 and not args.trace
            s, r, res = _spawn(args, work, setup_only,
                               start + TIME_LIMIT_S - time.perf_counter())
            setups.append(s)
            ready.append(r)
            result = res
        trace_file = work / "trace.jsonl"
        if trace_file.exists():
            trace_file.replace(scratch / f"trace-{args.workload}-seed{args.seed}.jsonl")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = result["attempted"] + sum(1 for r in ready[:-1])
    failed = result["failed"] + sum(1 for r in ready[:-1] if not r["ok"])
    verdicts = [v for r in ready[:-1] for v in r["verdicts"]] + result["verdicts"]
    if args.trace:
        metrics = {k: (v, result["units"][k]) for k, v in result["layers"].items()}
        notes = {"traced ops": len(result["traced_op_times"]),
                 "untraced ops": len(result["op_times"])}
    else:
        times = sorted(result["op_times"])
        if not times:
            print("error: no operation completed", file=sys.stderr)
            for v in verdicts:
                print(v, file=sys.stderr)
            return 1
        n = len(times)
        tail_idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s": (statistics.median(times), "s"),
            "op_s_tail": (times[tail_idx], "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups (fresh process: import, "
                       f"inputs, one warm-up op): "
                       + ", ".join(f"{s:.4f}" for s in setups),
            "op_s": f"median of {n} ops of {result['size']}",
            "op_s_tail": (f"p{100.0 * (tail_idx + 1) / n:.1f}: {n - 1 - tail_idx} "
                          f"of {n} samples above it"
                          + ("" if n > TAIL_BEYOND else
                             f"; fewer than {TAIL_BEYOND + 1} samples, so the max")),
            "peak_rss_mb": "peak RSS of the workload process",
        }

    machine = dict(result["machine"], loadavg_at_start=list(loadavg))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}" + ("  tiny" if args.tiny else ""))
    print("machine  " + json.dumps(machine, sort_keys=True))
    print("inputs   " + json.dumps(result["inputs"], sort_keys=True))
    print(f"gates    {attempted - failed} of {attempted} ops passed")
    for v in verdicts:
        print(f"         {v}")
    for k, v in result["notes"].items():
        print(f"note     {k}: {v}")
    for name, (value, unit) in metrics.items():
        extra = notes.get(name, "")
        print(f"metric   {name:<36} {value:>14.6g} {unit:<6} {extra}")
    for k, v in notes.items():
        if k not in metrics:
            print(f"note     {k}: {v}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def _spawn(args, work, setup_only, budget_s):
    """Run one worker; return (set-up seconds, ready message, result)."""
    if budget_s <= 0:
        raise BenchError("time limit reached before the workload ran")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--tiny"] if args.tiny else []
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(budget_s, proc.kill)
    timer.start()
    setup_s = ready = result = None
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if msg["event"] == "ready":
                setup_s = time.perf_counter() - t0
                ready = msg
            elif msg["event"] == "result":
                result = msg
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None or (result is None and not setup_only):
        raise BenchError(f"worker exited with code {rc} "
                         f"({'no ready line' if ready is None else 'no result'})")
    return setup_s, ready, result


if __name__ == "__main__":
    sys.exit(main())
