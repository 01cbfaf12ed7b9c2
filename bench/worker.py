"""One workload in its own process: set up, warm up, then a closed loop.

Started by run.py, never by hand.  Protocol lines go to the original
stdout as JSON; anything pspeclab prints is discarded.  The first line,
{"event": "ready"}, marks the end of set-up (import, input generation
and one checked warm-up operation); with --setup-only the worker stops
there.  The last line, {"event": "result", ...}, carries the op times,
the gate verdicts and, with --trace 1, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = open(os.devnull, "w")

    def emit(event, **payload):
        proto.write(json.dumps({"event": event, **payload}) + "\n")

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import pspeclab
    if not Path(pspeclab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"pspeclab imported from {pspeclab.__file__}, "
                         f"not from {ROOT / 'src'}")
    from workloads import WORKLOADS, GateError

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, work, tiny=args.tiny)
    verdicts = []
    attempted = failed = 0
    tracer = None
    if args.trace:
        from tracer import METRICS, Tracer
        tracer = Tracer()

    def attempt(label, fn, check=None, traced=False):
        """Time fn, then check its output outside the timing.  A raised
        exception or a failed gate counts the op as failed."""
        nonlocal attempted, failed
        attempted += 1
        try:
            if traced:
                tracer.reset()
                tracer.install()
            try:
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            if check is not None:
                check(out)
        except GateError as exc:
            failed += 1
            verdicts.append(f"FAIL {label}: {exc}")
            return None
        except Exception as exc:  # a crash of the program is a failed op
            failed += 1
            verdicts.append(f"FAIL {label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        return dt, out

    warm = attempt("warm-up op", wl.op)
    emit("ready", ok=warm is not None, verdicts=verdicts)
    if args.setup_only:
        return 0
    if warm is not None:
        attempted -= 1      # the warm-up op and its gates are one op
        attempt("warm-up op", lambda: warm[1],
                lambda out: wl.check(out, full=True))

    times, traced_times, layer_ops = [], [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        # with tracing, every other op is traced; the rest run untouched
        traced = tracer is not None and i % 2 == 1
        done = attempt(f"op {i}", wl.op, wl.check, traced)
        if done is not None:
            (traced_times if traced else times).append(done[0])
            if traced:
                layer_ops.append(tracer.op_metrics())
                tracer.keep(f"op {i}")
        i += 1

    layers = {}
    if tracer is not None:
        layers = _median_metrics(layer_ops)
        for label, fn in wl.extras():
            done = attempt(label, fn, traced=True)
            if done is not None:
                layers.update(done[1])
                layers.update({k: v for k, v in tracer.op_metrics().items()
                               if k.startswith("repro.") and v})
                tracer.keep(label)
        if times and traced_times:
            layers["trace.overhead_frac"] = (_median(traced_times)
                                             / _median(times) - 1.0)
        # a layer the workload never reaches reads 0
        layers = {name: layers.get(name, 0) for name in METRICS}
        tracer.write(work / "trace.jsonl")

    import resource
    emit("result", attempted=attempted, failed=failed, verdicts=verdicts,
         op_times=times, traced_op_times=traced_times, layers=layers,
         units=METRICS if tracer is not None else {}, notes=wl.notes,
         size=wl.size,
         peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         inputs=wl.inputs, machine=_machine())
    return 0


def _median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def _median_metrics(per_op):
    if not per_op:
        return {}
    return {k: _median([m[k] for m in per_op]) for k in per_op[0]}


def _machine():
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "blas_env": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS") if k in os.environ}}


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import glob
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
