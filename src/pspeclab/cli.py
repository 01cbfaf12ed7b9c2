"""Command-line driver: reproducible experiments from JSON configs.

Every run writes its artifacts plus a manifest.json echoing the fully
resolved config and the sha256 of each artifact.  Exit codes: 0 success,
2 config error, 3 numerical failure (diagnostics in the manifest).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import artifacts as io
from .classical import sample_symbol_range, sigma_infinity
from .errors import ConfigError, PspecError, SymbolSyntaxError, \
    VariableIndexError
from .quantize import (
    FourierGrid,
    HermiteBasis,
    fbi_transform,
    schrodinger_matrix,
    weyl_quantize_grid,
    weyl_quantize_poly,
    wick_quantize,
)
from .quasimodes import build_quasimode, localization_report, residual_sweep
from .spectral import contour_extract, eigendecompose, pseudospectrum_grid
from .symbols import parse_symbol
from .weights import conjugate_operator, dissipative_build, \
    dissipative_resolvent_check, escape_weight

DEFAULT_SEED = 2024


# ---------------------------------------------------------------------------
# config handling

def _check_keys(cfg, required, optional, where):
    unknown = set(cfg) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys in {where}: {sorted(missing)}")


def _load_config(args, required, optional):
    if args.config:
        with open(args.config) as f:
            cfg = json.load(f)
    else:
        cfg = {}
    for key, val in vars(args).items():
        if key in ("command", "config", "out", "threads", "func") or val is None:
            continue
        cfg[key] = val
    _check_keys(cfg, required, optional, args.command)
    cfg.setdefault("seed", DEFAULT_SEED)
    return cfg


def _config_int(value, key, low):
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"'{key}' must be an integer >= {low}, got {value!r}")
    return value


def _config_float(value, key, positive=False):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (positive and value <= 0)):
        kind = "positive" if positive else "finite"
        raise ConfigError(f"'{key}' must be a {kind} number, got {value!r}")
    return float(value)


def _config_list(value, key, length):
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"'{key}' must be a list of {length} numbers, "
                          f"got {value!r}")
    return value


def _symbol(cfg, key="symbol", dim_key="dim"):
    return parse_symbol(cfg[key], int(cfg.get(dim_key, 1)))


def _complex_of(v):
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    if isinstance(v, dict):
        return complex(v["re"], v["im"])
    return complex(v)


def _build_operator(cfg):
    """Shared quantization from a config block."""
    p = _symbol(cfg)
    path = cfg.get("path", "hermite")
    h = _config_float(cfg["h"], "h", positive=True)
    M = _config_int(cfg["M"], "M", 1)
    if path == "hermite":
        return weyl_quantize_poly(p, HermiteBasis(M, n=int(cfg.get("dim", 1))), h)
    grid = FourierGrid(float(cfg.get("L", 8.0)), M, n=int(cfg.get("dim", 1)))
    if path == "grid":
        lim = cfg.get("xi_limit", "auto")
        return weyl_quantize_grid(p, grid, h, xi_limit=lim,
                                  tail_frac_tol=float(cfg.get("tail_tol", 0.01)))
    if path == "schrodinger":
        return schrodinger_matrix(p, grid, h)
    if path == "wick":
        return wick_quantize(p, grid, h)
    raise ConfigError(f"unknown quantization path '{path}'")


class _Run:
    """Tracks artifacts so partial output is removed on failure."""

    def __init__(self, out_dir):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files = []
        self.t0 = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.cleanup()
        return False

    def path(self, name):
        p = self.dir / name
        self.files.append(p)
        return p

    def cleanup(self):
        for p in self.files:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass

    def manifest(self, cfg, extra=None):
        checksums = {p.name: io.sha256_file(p) for p in self.files if p.exists()}
        payload = {"config": cfg, "artifacts": checksums,
                   "elapsed_s": time.perf_counter() - self.t0}
        if extra:
            payload.update(extra)
        io.write_json(self.dir / "manifest.json", payload)


def _box_pairs(box):
    """Accept [[lo, hi], ...] or a flat [lo, hi, lo, hi, ...]."""
    box = list(box)
    if box and not isinstance(box[0], (list, tuple)):
        if len(box) % 2:
            raise ConfigError("flat box needs an even number of values")
        box = [[box[i], box[i + 1]] for i in range(0, len(box), 2)]
    return [(float(lo), float(hi)) for lo, hi in box]


def _fail_manifest(out_dir, cfg, exc):
    try:
        io.write_json(Path(out_dir) / "manifest.json",
                      {"config": cfg, "error": f"{type(exc).__name__}: {exc}",
                       "artifacts": {}})
    except OSError:
        pass


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args):
    cfg = _load_config(args, required=["symbol", "box", "res"],
                       optional=["dim", "seed", "sigma_radii", "cone"])
    p = _symbol(cfg)
    with _Run(args.out) as run:
        atlas = sample_symbol_range(p, _box_pairs(cfg["box"]), int(cfg["res"]))
        if cfg.get("sigma_radii"):
            atlas.sigma_inf = sigma_infinity(p, cfg["sigma_radii"])
        if cfg.get("cone"):
            c = cfg["cone"]
            atlas.cone_test(_complex_of(c["z0"]), float(c["direction"]),
                            float(c["aperture"]))
        io.atlas_to_csv(run.path("atlas.csv"), atlas)
        io.atlas_to_json(run.path("atlas.json"), atlas)
        run.manifest(cfg)
    return 0


def cmd_quantize(args):
    cfg = _load_config(args, required=["symbol", "h", "M"],
                       optional=["dim", "path", "L", "xi_limit", "tail_tol",
                                 "seed"])
    with _Run(args.out) as run:
        op = _build_operator(cfg)
        io.operator_to_file(run.path("operator.bin"), op)
        io.write_json(run.path("operator.json"),
                      {"norm": op.norm(), "size": op.size, "h": op.h,
                       "hermiticity_defect": op.hermiticity_defect(),
                       "provenance": op.provenance})
        run.manifest(cfg)
    return 0


def cmd_spectrum(args):
    cfg = _load_config(args, required=["symbol", "h", "M"],
                       optional=["dim", "path", "L", "xi_limit", "tail_tol",
                                 "seed"])
    with _Run(args.out) as run:
        op = _build_operator(cfg)
        rep = eigendecompose(op)
        io.spectrum_to_json(run.path("spectrum.json"), rep)
        io.spectrum_to_csv(run.path("spectrum.csv"), rep)
        run.manifest(cfg)
    return 0


def cmd_psgrid(args):
    cfg = _load_config(args, required=["symbol", "h", "M", "rectangle", "shape"],
                       optional=["dim", "path", "L", "xi_limit", "tail_tol",
                                 "seed", "levels"])
    with _Run(args.out) as run:
        rect = [_config_float(v, "rectangle")
                for v in _config_list(cfg["rectangle"], "rectangle", 4)]
        if not (rect[1] > rect[0] and rect[3] > rect[2]):
            raise ConfigError(f"'rectangle' needs re_max > re_min and "
                              f"im_max > im_min, got {rect}")
        shape = [_config_int(n, "shape", 2)
                 for n in _config_list(cfg["shape"], "shape", 2)]
        op = _build_operator(cfg)
        grid = pseudospectrum_grid(op, rect, shape, threads=args.threads)
        io.grid_to_csv(run.path("grid.csv"), grid)
        io.grid_to_pgm(run.path("grid.pgm"), grid, run.path("grid_pgm.json"))
        if cfg.get("levels"):
            lines = contour_extract(grid, cfg["levels"])
            io.write_json(run.path("contours.json"),
                          {str(eps): [{"closed": pl.closed, "points": pl.points}
                                      for pl in pls]
                           for eps, pls in lines.items()})
        run.manifest(cfg, {"timing": grid.timing})
    return 0


def cmd_quasimode(args):
    cfg = _load_config(args, required=["symbol", "point", "order", "delta",
                                       "h_list"],
                       optional=["dim", "path", "seed", "model", "fbi"])
    with _Run(args.out) as run:
        p = _symbol(cfg)
        fit, rec = residual_sweep(p, cfg["point"], int(cfg["order"]),
                                  float(cfg["delta"]), cfg["h_list"],
                                  path=cfg.get("path", "grid"),
                                  model=cfg.get("model", "power"))
        io.write_json(run.path("residuals.json"),
                      {"sweep": rec["sweep"], "model": fit.model,
                       "exponent": fit.exponent, "r_squared": fit.r_squared})
        qm = rec["quasimode"]
        h_min = min(cfg["h_list"])
        from .quasimodes import _grid_for_beam
        grid = _grid_for_beam(qm, h_min, abs(qm.w0[0]) + 2 * qm.delta + 2.0, 16)
        x = grid.points_1d()
        io.quasimode_to_csv(run.path("vector.csv"), x, qm.sample(x, h_min))
        if cfg.get("fbi"):
            io.write_json(run.path("localization.json"),
                          localization_report(qm, h_min))
        run.manifest(cfg)
    return 0


def cmd_scaling(args):
    cfg = _load_config(args, required=["experiment"],
                       optional=["symbol", "dim", "k", "h_list", "z", "M",
                                 "L", "model", "seed"])
    with _Run(args.out) as run:
        from .repro import rational_resolvent_experiment, resolvent_decay_experiment, \
            subelliptic_experiment
        kind = cfg["experiment"]
        if kind == "subelliptic":
            fit, _ = subelliptic_experiment(int(cfg["k"]), cfg["h_list"],
                                            M=int(cfg.get("M", 256)))
        elif kind == "resolvent-decay":
            fit, _ = resolvent_decay_experiment(_symbol(cfg),
                                                _complex_of(cfg["z"]),
                                                cfg["h_list"],
                                                int(cfg.get("M", 200)))
        elif kind == "rational":
            fit, _ = rational_resolvent_experiment(cfg["h_list"])
        else:
            raise ConfigError(f"unknown scaling experiment '{kind}'")
        io.write_json(run.path("scaling.json"),
                      {"model": fit.model, "exponent": fit.exponent,
                       "prefactor": fit.prefactor, "r_squared": fit.r_squared,
                       "samples": fit.samples, "excluded": fit.excluded})
        run.manifest(cfg)
    return 0


def cmd_weight(args):
    cfg = _load_config(args, required=["symbol", "z0", "box", "T0"],
                       optional=["dim", "seed", "exit_tol"])
    with _Run(args.out) as run:
        p = _symbol(cfg)
        w = escape_weight(p, _complex_of(cfg["z0"]), _box_pairs(cfg["box"]), float(cfg["T0"]),
                          exit_tol=float(cfg.get("exit_tol", 1e-3)))
        io.escape_weight_to_json(run.path("weight.json"), w)
        run.manifest(cfg)
    return 0


def cmd_conjugate(args):
    cfg = _load_config(args, required=["symbol", "h", "M", "weight", "eps"],
                       optional=["dim", "path", "L", "seed", "z_list",
                                 "cond_cap"])
    with _Run(args.out) as run:
        op = _build_operator(cfg)
        G = parse_symbol(cfg["weight"], int(cfg.get("dim", 1)))
        zs = [_complex_of(z) for z in cfg.get("z_list", [])]
        Pe, rep = conjugate_operator(op, G, float(cfg["eps"]), float(cfg["h"]),
                                     z_list=zs,
                                     cond_cap=float(cfg.get("cond_cap", 1e12)))
        io.operator_to_file(run.path("conjugated.bin"), Pe)
        io.write_json(run.path("conjugation.json"),
                      {"eps": rep.eps, "cond": rep.cond,
                       "spectrum_displacement": rep.spectrum_displacement,
                       "sigma_min": {str(z): v for z, v in rep.sigma_min.items()}})
        run.manifest(cfg)
    return 0


def cmd_dissipative(args):
    cfg = _load_config(args, required=["q", "a", "h", "M"],
                       optional=["dim", "seed", "z_list"])
    with _Run(args.out) as run:
        n = int(cfg.get("dim", 1))
        D = dissipative_build(parse_symbol(cfg["q"], n), parse_symbol(cfg["a"], n),
                              HermiteBasis(int(cfg["M"]), n=n), float(cfg["h"]))
        rep = eigendecompose(D.P)
        io.spectrum_to_json(run.path("spectrum.json"), rep)
        payload = {"hermiticity_defect": D.hermiticity_defect,
                   "w_min_eig": D.w_min_eig}
        if cfg.get("z_list"):
            check = dissipative_resolvent_check(
                D, [_complex_of(z) for z in cfg["z_list"]])
            payload["resolvent_check"] = check
        io.write_json(run.path("dissipative.json"), payload)
        run.manifest(cfg)
    return 0


def cmd_fbi(args):
    cfg = _load_config(args, required=["symbol", "point", "h"],
                       optional=["dim", "order", "delta", "seed", "span",
                                 "out_points"])
    with _Run(args.out) as run:
        p = _symbol(cfg)
        qm = build_quasimode(p, cfg["point"], int(cfg.get("order", 0)),
                             float(cfg.get("delta", 0.5)))
        h = float(cfg["h"])
        from .quasimodes import _grid_for_beam
        grid = _grid_for_beam(qm, h, abs(qm.w0[0]) + 2 * qm.delta + 2.0, 16)
        u = qm.sample(grid.points_1d(), h)
        span = float(cfg.get("span", 1.5))
        pts = int(cfg.get("out_points", 81))
        x_out = np.linspace(qm.w0[0] - span, qm.w0[0] + span, pts)
        xi_out = np.linspace(qm.w0[1] - span, qm.w0[1] + span, pts)
        field = fbi_transform(u, grid, h, x_out, xi_out)
        io.fbi_to_csv(run.path("fbi.csv"), field)
        io.fbi_to_pgm(run.path("fbi.pgm"), field, run.path("fbi_pgm.json"))
        run.manifest(cfg)
    return 0


def cmd_repro(args):
    from .repro import run_reproduction_suite
    rows, all_pass = run_reproduction_suite(args.suite)
    width = max(len(r["name"]) for r in rows) + 2
    print(f"{'experiment':<{width}} {'measured':>14} {'expected':>22} verdict")
    for r in rows:
        verdict = "PASS" if r["ok"] else "FAIL"
        print(f"{r['name']:<{width}} {r['measured']:>14} {r['expected']:>22} "
              f"{verdict}")
    if args.out:
        run = _Run(args.out)
        io.write_json(run.path("repro.json"),
                      {"suite": args.suite, "rows": rows,
                       "all_pass": all_pass})
        run.manifest({"suite": args.suite})
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# entry point

def make_parser():
    ap = argparse.ArgumentParser(
        prog="pspeclab",
        description="Numerical laboratory for semiclassical pseudospectra")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, with_out=True):
        sp.add_argument("--config", help="JSON config file")
        if with_out:
            sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--threads", type=int, default=1)

    sp = sub.add_parser("classify", help="sample the classical sets")
    common(sp)
    sp.add_argument("--symbol")
    sp.add_argument("--dim", type=int)
    sp.add_argument("--box", type=float, nargs=4,
                    metavar=("XLO", "XHI", "XILO", "XIHI"))
    sp.add_argument("--res", type=int)
    sp.set_defaults(func=cmd_classify)

    for name, fn in [("quantize", cmd_quantize), ("spectrum", cmd_spectrum)]:
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--symbol")
        sp.add_argument("--h", type=float)
        sp.add_argument("--M", type=int)
        sp.add_argument("--path")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("psgrid", help="sigma_min sweep over a z-rectangle")
    common(sp)
    sp.set_defaults(func=cmd_psgrid)

    sp = sub.add_parser("quasimode", help="WKB beam residual sweep")
    common(sp)
    sp.set_defaults(func=cmd_quasimode)

    sp = sub.add_parser("scaling", help="resolvent scaling experiments")
    common(sp)
    sp.set_defaults(func=cmd_scaling)

    sp = sub.add_parser("weight", help="escape-function construction")
    common(sp)
    sp.set_defaults(func=cmd_weight)

    sp = sub.add_parser("conjugate", help="weighted conjugation experiment")
    common(sp)
    sp.set_defaults(func=cmd_conjugate)

    sp = sub.add_parser("dissipative", help="Q - iW build and checks")
    common(sp)
    sp.set_defaults(func=cmd_dissipative)

    sp = sub.add_parser("fbi", help="FBI transform of a quasimode")
    common(sp)
    sp.set_defaults(func=cmd_fbi)

    sp = sub.add_parser("repro", help="run a canned reproduction suite")
    sp.add_argument("suite", choices=["paper-examples", "invariants",
                                      "scaling-laws"])
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_repro)
    return ap


def main(argv=None):
    ap = make_parser()
    args = ap.parse_args(argv)
    run_dir = getattr(args, "out", None)
    cfg_snapshot = {"argv": argv if argv is not None else sys.argv[1:]}
    try:
        return args.func(args)
    except (ConfigError, SymbolSyntaxError, VariableIndexError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        if run_dir:
            _fail_manifest(run_dir, cfg_snapshot, exc)
        return 2
    except (PspecError, ValueError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        if run_dir:
            _fail_manifest(run_dir, cfg_snapshot, exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
