"""Layer tracing for the benchmark, kept entirely outside the program.

The tracer wraps the public functions of pspeclab's modules and binds
the wrappers under every name a pspeclab module looks them up by
(`cli.pseudospectrum_grid`, `repro.weyl_quantize_grid`, the defining
module's own global, ...), so calls made along the real CLI and repro
paths are recorded.  Spans live in memory with parent links; self time
is a span's duration minus the durations of its children (the calls are
sequential, so children never overlap).  `uninstall` restores the
original objects, so untraced operations run the program unchanged.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("quantize", "spectral", "symbols", "quasimodes", "weights",
          "classical", "artifacts", "cli", "repro")

# per-layer metric -> prefixes of the span names whose self times it sums
SELF_TIME = {
    "quantize.weyl_grid.s": ("quantize.weyl_quantize_grid",),
    "quantize.weyl_poly.s": ("quantize.weyl_quantize_poly",),
    "quantize.fbi.s": ("quantize.fbi_transform",),
    "spectral.eig.s": ("spectral.eigendecompose",),
    "spectral.resolvent_norm.svd.s": ("spectral.resolvent_norm.svd",),
    "spectral.resolvent_norm.lu.s": ("spectral.resolvent_norm.lu",),
    "spectral.resolvent_norm.auto.s": ("spectral.resolvent_norm.auto",),
    "spectral.contour.s": ("spectral.contour_extract",),
    "quasimodes.residual_sweep.s": ("quasimodes.residual_sweep",),
    "quasimodes.build.s": ("quasimodes.build_quasimode",),
    "quasimodes.localization.s": ("quasimodes.localization_report",),
    "weights.dissipative_build.s": ("weights.dissipative_build",),
    "weights.dissipative_check.s": ("weights.dissipative_resolvent_check",),
    "weights.conjugate.s": ("weights.conjugate_operator",),
    "classical.s": ("classical.",),
    "artifacts.write.s": ("artifacts.write_", "artifacts.grid_to_",
                          "artifacts.spectrum_to_", "artifacts.atlas_to_",
                          "artifacts.levelset_to_", "artifacts.fbi_to_",
                          "artifacts.quasimode_to_",
                          "artifacts.escape_weight_to_",
                          "artifacts.operator_to_"),
    "artifacts.sha256.s": ("artifacts.sha256_file",),
    "cli.self.s": ("cli.",),
}

CALLS = {
    "quantize.wick.calls": "quantize.wick_quantize",
    "quantize.weyl_grid.calls": "quantize.weyl_quantize_grid",
    "quantize.weyl_poly.calls": "quantize.weyl_quantize_poly",
    "spectral.eig.calls": "spectral.eigendecompose",
    "spectral.resolvent_norm.svd.calls": "spectral.resolvent_norm.svd",
    "spectral.resolvent_norm.lu.calls": "spectral.resolvent_norm.lu",
    "spectral.resolvent_norm.auto.calls": "spectral.resolvent_norm.auto",
}

SUITES = ("paper-examples", "invariants", "scaling-laws")
WEYL_SPANS = ("quantize.weyl_quantize_grid", "quantize.weyl_quantize_poly")

# every per-layer metric the benchmark reports, with its unit
METRICS = {
    "spectral.sweep.s": "s",
    "spectral.sweep.us_per_node": "us",
    "spectral.sweep.nodes": "count",
    "spectral.sweep.svd_fallbacks": "count",
    "spectral.sweep.useful_frac": "frac",
    "spectral.sweep.floored": "count",
    "spectral.schur.s": "s",
    "spectral.sweep.thread_speedup": "x",
    "symbols.eval_grid.calls": "count",
    "symbols.eval_grid.points": "count",
    "quantize.weyl_grid.max_M": "count",
    "spectral.eig.max_M": "count",
    "spectral.eig.rejected": "count",
    "artifacts.bytes": "B",
    "quantize.wick.s": "s",
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in CALLS},
    **{f"repro.{suite}.s": "s" for suite in SUITES},
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []          # [name, parent index, t0, t1, info]
        self._stack = []
        self.counters = {}
        self.kept = []
        self._patches = []       # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def reset(self):
        self.spans = []
        self._stack = []
        self.counters = {}

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, name_of, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_of(args, kwargs),
                   tracer._stack[-1] if tracer._stack else -1,
                   time.perf_counter(), 0.0, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                tracer._stack.pop()
            if post is not None:
                rec[4] = post(args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Bind wrappers under every pspeclab name of each public function."""
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "pspeclab" or n.startswith("pspeclab."))]
        for layer in LAYERS:
            mod = sys.modules[f"pspeclab.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(fn, _namer(layer, attr), _POST.get(attr))
                for owner in modules:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, name, wrapper)
        symbols = sys.modules["pspeclab.symbols"]
        quantize = sys.modules["pspeclab.quantize"]
        self._patch(symbols.SymbolExpr, "eval_grid",
                    self._counting_eval_grid(symbols.SymbolExpr.eval_grid))
        self._patch(quantize, "_symbol_values",
                    self._spanning_symbol_values(quantize._symbol_values,
                                                 symbols.SymbolExpr))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _counting_eval_grid(self, original):
        tracer = self

        @functools.wraps(original)
        def eval_grid(sym, coords):
            out = original(sym, coords)
            tracer.count("symbols.eval_grid.calls")
            tracer.count("symbols.eval_grid.points", int(out.size))
            return out

        return eval_grid

    def _spanning_symbol_values(self, original, symbol_type):
        # a plain callable symbol (the Wick quadrature's smoothed profile,
        # and the damping it sums) is evaluated here, not through
        # SymbolExpr.eval_grid; its span takes that time out of
        # weyl_quantize_grid's self time
        traced = self._wrap(original, lambda args, kwargs: "symbols.eval_callable",
                            lambda args, kwargs, out: {"points": int(out.size)})

        @functools.wraps(original)
        def symbol_values(p, X, XI):
            if isinstance(p, symbol_type):
                return original(p, X, XI)
            return traced(p, X, XI)

        return symbol_values

    # -- derived metrics --------------------------------------------------

    def op_metrics(self):
        """Per-layer numbers for the spans and counters recorded so far."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_time = {}
        for (name, _, t0, t1, _), c in zip(self.spans, child):
            self_time[name] = self_time.get(name, 0.0) + (t1 - t0 - c)
        # Wick time is everything under a wick_quantize span except the
        # Weyl quantization it ends in (the quadrature runs inside that
        # call, as evaluations of the smoothed symbol)
        in_wick, wick_s = [], 0.0
        for (name, parent, t0, t1, _), c in zip(self.spans, child):
            in_wick.append(name == "quantize.wick_quantize"
                           or (parent >= 0 and in_wick[parent]))
            if in_wick[-1] and name not in WEYL_SPANS:
                wick_s += t1 - t0 - c
        # count only innermost callable evaluations: the smoothed profile
        # is one call that sums many evaluations of the damping
        outer = {s[1] for s in self.spans
                 if s[0] == "symbols.eval_callable" and s[1] >= 0}
        leaves = [s[4]["points"] for i, s in enumerate(self.spans)
                  if s[0] == "symbols.eval_callable" and i not in outer]
        out = {"quantize.wick.s": wick_s}
        for metric, prefixes in SELF_TIME.items():
            out[metric] = sum(v for k, v in self_time.items()
                              if k.startswith(prefixes))
        names = [s[0] for s in self.spans]
        for metric, span in CALLS.items():
            out[metric] = names.count(span)
        for suite in SUITES:
            out[f"repro.{suite}.s"] = sum(
                s[3] - s[2] for s in self.spans
                if s[0] == f"repro.run_reproduction_suite.{suite}")
        sweep_s = nodes = fallbacks = floored = schur_s = 0
        eig_max = eig_rejected = grid_max = nbytes = 0
        for name, parent, _, _, info in self.spans:
            if not info:
                continue
            if name == "spectral.pseudospectrum_grid":
                sweep_s += info["sweep_s"]
                schur_s += info["factorization_s"]
                nodes += info["nodes"]
                fallbacks += info["svd_fallbacks"]
                floored += info["floored"]
            elif name == "spectral.eigendecompose":
                eig_max = max(eig_max, info["M"])
                eig_rejected += info["rejected"]
            elif name == "quantize.weyl_quantize_grid":
                grid_max = max(grid_max, info["M"])
            elif "bytes" in info and (
                    parent < 0 or not self.spans[parent][0].startswith("artifacts.")):
                nbytes += info["bytes"]
        out.update({
            "spectral.sweep.s": sweep_s,
            "spectral.sweep.us_per_node": 1e6 * sweep_s / nodes if nodes else 0.0,
            "spectral.sweep.nodes": nodes,
            "spectral.sweep.svd_fallbacks": fallbacks,
            "spectral.sweep.useful_frac": (nodes - fallbacks) / nodes if nodes else 0.0,
            "spectral.sweep.floored": floored,
            "spectral.schur.s": schur_s,
            "spectral.eig.max_M": eig_max,
            "spectral.eig.rejected": eig_rejected,
            "quantize.weyl_grid.max_M": grid_max,
            "artifacts.bytes": nbytes,
            "symbols.eval_grid.calls":
                self.counters.get("symbols.eval_grid.calls", 0) + len(leaves),
            "symbols.eval_grid.points":
                self.counters.get("symbols.eval_grid.points", 0) + sum(leaves),
        })
        return out

    def keep(self, label):
        """Keep the spans and counters recorded since `reset` under label."""
        self.kept.append({"label": label, "spans": self.spans,
                          "counters": self.counters})

    def write(self, path):
        """Write every kept record as one JSON line."""
        with open(path, "w") as f:
            for record in self.kept:
                f.write(json.dumps(record, default=_jsonable) + "\n")


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    return str(obj)


def _namer(layer, attr):
    name = f"{layer}.{attr}"
    if attr == "resolvent_norm":
        def by_method(args, kwargs):
            method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
            return f"{name}.{method}"
        return by_method
    if attr == "run_reproduction_suite":
        return lambda args, kwargs: f"{name}.{args[0] if args else kwargs['name']}"
    return lambda args, kwargs: name


def _grid_info(args, kwargs, grid):
    t = grid.timing
    return {"sweep_s": t["sweep_s"], "factorization_s": t["factorization_s"],
            "nodes": t["nodes"], "svd_fallbacks": t["svd_fallbacks"],
            "floored": int(grid.floored.sum())}


def _eig_info(args, kwargs, rep):
    return {"M": int(rep.eigenvalues.size), "rejected": int((~rep.accepted).sum())}


def _weyl_grid_info(args, kwargs, op):
    return {"M": int(op.size)}


def _written(args, kwargs, result):
    # the first argument is the file written; a path third argument is
    # the JSON sidecar of a PGM
    paths = [args[0] if args else kwargs["path"], kwargs.get("sidecar_path")]
    if len(args) > 2 and isinstance(args[2], (str, os.PathLike)):
        paths.append(args[2])
    return {"bytes": sum(os.path.getsize(p) for p in paths
                         if p is not None and os.path.exists(p))}


_POST = {
    "pseudospectrum_grid": _grid_info,
    "eigendecompose": _eig_info,
    "weyl_quantize_grid": _weyl_grid_info,
    **{name: _written for name in (
        "write_json", "write_csv", "write_pgm", "atlas_to_csv", "atlas_to_json",
        "levelset_to_json", "grid_to_csv", "grid_to_pgm", "spectrum_to_json",
        "spectrum_to_csv", "fbi_to_csv", "fbi_to_pgm", "quasimode_to_csv",
        "escape_weight_to_json", "operator_to_file")},
}
