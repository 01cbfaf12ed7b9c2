"""Command-line driver: reproducible experiments from JSON configs.

Every key a subcommand accepts is declared once in `_SCHEMA`, with the
check of its type and range and its default.  `_load_config` applies
the table before any numerics runs: unknown, missing and malformed keys
and config files that cannot be read as a JSON object are config errors.
Every run writes its artifacts plus a manifest.json echoing the resolved
config (defaults included) and the sha256 of each artifact.  Exit codes:
0 success, 2 config error, 3 numerical failure or any other exception
escaping a run (diagnostics in the manifest, partial artifacts removed).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import artifacts as io
from .classical import sample_symbol_range, sigma_infinity
from .errors import ConfigError, SymbolSyntaxError, VariableIndexError
from .quantize import (
    FourierGrid,
    HermiteBasis,
    fbi_transform,
    schrodinger_matrix,
    weyl_quantize_grid,
    weyl_quantize_poly,
    wick_quantize,
)
from .quasimodes import _grid_for_beam, build_quasimode, localization_report, \
    residual_sweep
from .repro import rational_resolvent_experiment, resolvent_decay_experiment, \
    run_reproduction_suite, subelliptic_experiment
from .spectral import contour_extract, eigendecompose, pseudospectrum_grid, \
    scaling_fit
from .symbols import parse_symbol
from .weights import conjugate_operator, dissipative_build, \
    dissipative_resolvent_check, escape_weight

DEFAULT_SEED = 2024


# ---------------------------------------------------------------------------
# config checks.  Each takes (value, cfg), where cfg holds the checked values
# of the keys declared above it, and returns the typed value or raises
# ConfigError.

def _number(positive=False):
    kind = "positive" if positive else "finite"

    def check(v, cfg=None):
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not math.isfinite(v) or (positive and v <= 0)):
            raise ConfigError(f"must be a {kind} number, got {v!r}")
        return float(v)
    return check


_finite = _number()
_positive = _number(positive=True)


def _int(low):
    def check(v, cfg=None):
        if isinstance(v, bool) or not isinstance(v, int) or v < low:
            raise ConfigError(f"must be an integer >= {low}, got {v!r}")
        return v
    return check


def _one_of(*options):
    def check(v, cfg=None):
        if not any(type(v) is type(o) and v == o for o in options):
            raise ConfigError(f"must be one of {list(options)}, got {v!r}")
        return v
    return check


def _list_of(item, length=None, min_len=0):
    def check(v, cfg=None):
        if (not isinstance(v, list) or len(v) < min_len
                or (length is not None and len(v) != length)):
            count = f"at least {min_len}" if length is None else length
            raise ConfigError(f"must be a list of {count} values, got {v!r}")
        return [item(x, cfg) for x in v]
    return check


def _optional(check):
    """null or an empty list or object, like leaving the key out, switches
    the feature off."""
    return lambda v, cfg: None if v in (None, [], {}) else check(v, cfg)


def _symbol(v, cfg):
    if not isinstance(v, str):
        raise ConfigError(f"must be a symbol string, got {v!r}")
    p = parse_symbol(v, cfg["dim"])
    # a constant subtree that divides by zero, overflows or is not finite
    # fails every evaluation of the symbol: the symbol is malformed
    try:
        values = p.constant_values()
    except (ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"has a constant that cannot be evaluated "
                          f"({type(exc).__name__}: {exc}), got {v!r}") from None
    if not all(cmath.isfinite(c) for c in values):
        raise ConfigError(f"has a constant that is not finite, got {v!r}")
    return p


def _complex(v, cfg=None):
    """[re, im], {"re": re, "im": im}, a real number or a string like "2+1j"."""
    if isinstance(v, dict) and sorted(v) == ["im", "re"]:
        v = [v["re"], v["im"]]
    elif isinstance(v, str):
        try:
            z = complex(v)
        except ValueError:
            raise ConfigError(f"must be a complex number, got {v!r}") from None
        v = [z.real, z.imag]
    elif not isinstance(v, list):
        v = [v, 0.0]
    return complex(*_list_of(_finite, length=2)(v))


def _xi_limit(v, cfg):
    """The xi-limit: "auto", null (no limit subtracted), a number or a string
    like "2+1j"."""
    if v is None or v == "auto":
        return v
    if not isinstance(v, (int, float, str)):
        raise ConfigError(f"must be \"auto\", null, a number or a complex "
                          f"string, got {v!r}")
    return _complex(v)


def _ranges(v, count):
    """`count` (lo, hi) ranges, given flat as [lo, hi, lo, hi, ...]."""
    flat = _list_of(_finite, length=2 * count)(v)
    pairs = list(zip(flat[::2], flat[1::2]))
    if not all(hi > lo for lo, hi in pairs):
        raise ConfigError(f"needs hi > lo in every range, got {pairs}")
    return pairs


def _box(v, cfg):
    """2*dim (lo, hi) ranges, as [[lo, hi], ...] or flat [lo, hi, lo, hi, ...]."""
    if isinstance(v, list) and all(isinstance(r, list) for r in v):
        v = [x for r in v for x in _list_of(_finite, length=2)(r)]
    return _ranges(v, 2 * cfg["dim"])


def _rectangle(v, cfg):
    """[re_min, re_max, im_min, im_max]."""
    return [x for pair in _ranges(v, 2) for x in pair]


def _cone(v, cfg):
    if not isinstance(v, dict) or sorted(v) != ["aperture", "direction", "z0"]:
        raise ConfigError(f"must hold exactly z0, direction and aperture, got {v!r}")
    return {"z0": _complex(v["z0"]), "direction": _finite(v["direction"]),
            "aperture": _positive(v["aperture"])}


def _needed_by(experiment, check):
    """A scaling key that `experiment` needs and the other experiments ignore."""
    def run(v, cfg):
        if v is None and cfg["experiment"] == experiment:
            raise ConfigError(f"is needed by experiment '{experiment}'")
        return None if v is None else check(v, cfg)
    return run


def _scaling_L(v, cfg):
    """Box half-width of the subelliptic and rational grids.
    resolvent-decay runs on the Hermite basis, which has no box."""
    if cfg["experiment"] == "resolvent-decay":
        raise ConfigError("is not used by experiment 'resolvent-decay' "
                          "(Hermite basis, no box)")
    return _positive(v)


def _scaling_M(v, cfg):
    """Grid points (subelliptic) or Hermite modes (resolvent-decay)."""
    if v is None:
        return {"subelliptic": 256, "resolvent-decay": 200}.get(cfg["experiment"])
    return _int(1)(v)


# ---------------------------------------------------------------------------
# the schema: {subcommand: {key: (check, default or REQUIRED)}}.  Keys are
# checked in table order, so `dim` precedes the keys parsed or sized by it.
# `seed` is recorded in the manifest; no run draws random numbers from it.

REQUIRED = object()

_DIM = (_int(1), 1)
_SEED = (_int(0), DEFAULT_SEED)
_BASE = {"dim": _DIM, "symbol": (_symbol, REQUIRED), "seed": _SEED}
_H_LIST = (_list_of(_positive, min_len=1), REQUIRED)
# the beam is sampled on a 1-D grid, so quasimode and fbi run in one dimension
_BEAM_DIM = (_one_of(1), 1)
_POINT = (_list_of(_finite, length=2), REQUIRED)     # (x, xi)
_OPERATOR = {
    **_BASE, "h": (_positive, REQUIRED), "M": (_int(1), REQUIRED),
    "path": (_one_of("hermite", "grid", "schrodinger", "wick"), "hermite"),
    "L": (_positive, 8.0)}
_XI_LIMIT = {"xi_limit": (_xi_limit, "auto"), "tail_tol": (_positive, 0.01)}

_SCHEMA = {
    "classify": {
        **_BASE, "box": (_box, REQUIRED), "res": (_int(2), REQUIRED),
        "sigma_radii": (_optional(_list_of(_positive, min_len=3)), None),
        "cone": (_optional(_cone), None)},
    "quantize": {**_OPERATOR, **_XI_LIMIT},
    "spectrum": {**_OPERATOR, **_XI_LIMIT},
    "psgrid": {
        **_OPERATOR, **_XI_LIMIT, "rectangle": (_rectangle, REQUIRED),
        "shape": (_list_of(_int(2), length=2), REQUIRED),
        "levels": (_optional(_list_of(_positive)), None)},
    "quasimode": {
        **_BASE, "dim": _BEAM_DIM, "point": _POINT, "order": (_int(0), REQUIRED),
        "delta": (_positive, REQUIRED), "h_list": _H_LIST,
        "path": (_one_of("grid", "hermite"), "grid"),
        "model": (_one_of("power", "exponential"), "power"),
        "fbi": (_one_of(False, True), False)},
    "scaling": {
        "experiment": (_one_of("subelliptic", "resolvent-decay", "rational"),
                       REQUIRED),
        "dim": _DIM, "seed": _SEED,
        "symbol": (_needed_by("resolvent-decay", _symbol), None),
        "z": (_needed_by("resolvent-decay", _complex), None),
        "k": (_needed_by("subelliptic", _int(1)), None),
        "h_list": _H_LIST, "M": (_scaling_M, None),
        # null keeps each experiment's own box
        "L": (_optional(_scaling_L), None),
        # refit the samples to this model instead of the experiment's own
        "model": (_optional(_one_of("power", "exponential")), None)},
    "weight": {
        **_BASE, "z0": (_complex, REQUIRED), "box": (_box, REQUIRED),
        "T0": (_positive, REQUIRED), "exit_tol": (_positive, 1e-3)},
    "conjugate": {
        **_OPERATOR, "weight": (_symbol, REQUIRED), "eps": (_finite, REQUIRED),
        "z_list": (_list_of(_complex), []), "cond_cap": (_positive, 1e12)},
    "dissipative": {
        "dim": _DIM, "seed": _SEED,
        "q": (_symbol, REQUIRED), "a": (_symbol, REQUIRED),
        "h": (_positive, REQUIRED), "M": (_int(1), REQUIRED),
        "z_list": (_optional(_list_of(_complex)), None)},
    "fbi": {
        **_BASE, "dim": _BEAM_DIM, "point": _POINT, "h": (_positive, REQUIRED),
        "order": (_int(0), 0), "delta": (_positive, 0.5),
        "span": (_positive, 1.5), "out_points": (_int(2), 81)},
}


def _load_config(args):
    """Check the subcommand's config (flags override the file) against
    `_SCHEMA`.  Returns (cfg, echo): the typed values the run reads, and
    the config as given plus every default, for the manifest."""
    raw = {}
    if args.config:
        try:
            with open(args.config) as f:
                raw = json.load(f)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file must hold a JSON object, "
                              f"got {type(raw).__name__}")
    for key, val in vars(args).items():
        if key in ("command", "config", "out", "threads", "func") or val is None:
            continue
        raw[key] = val
    schema = _SCHEMA[args.command]
    unknown = sorted(set(raw) - set(schema))
    missing = [key for key, (_, default) in schema.items()
               if default is REQUIRED and key not in raw]
    if unknown or missing:
        raise ConfigError(f"{args.command} config: unknown keys {unknown}, "
                          f"missing keys {missing}")
    cfg, echo = {}, {}
    for key, (check, default) in schema.items():
        try:
            cfg[key] = check(raw.get(key, default), cfg)
        except (ConfigError, SymbolSyntaxError, VariableIndexError) as exc:
            raise ConfigError(f"'{key}' {exc}") from exc
        echo[key] = raw[key] if key in raw else cfg[key]
    return cfg, echo


def _build_operator(cfg):
    """Shared quantization from a checked operator block."""
    p, h, M, n = cfg["symbol"], cfg["h"], cfg["M"], cfg["dim"]
    if cfg["path"] == "hermite":
        return weyl_quantize_poly(p, HermiteBasis(M, n=n), h)
    grid = FourierGrid(cfg["L"], M, n=n)
    if cfg["path"] == "grid":
        return weyl_quantize_grid(p, grid, h, xi_limit=cfg["xi_limit"],
                                  tail_frac_tol=cfg["tail_tol"])
    if cfg["path"] == "schrodinger":
        return schrodinger_matrix(p, grid, h)
    return wick_quantize(p, grid, h)


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


def _fail_manifest(out_dir, cfg, exc):
    """Record a failed run; a config error may come before the directory exists."""
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        io.write_json(Path(out_dir) / "manifest.json",
                      {"config": cfg, "error": f"{type(exc).__name__}: {exc}",
                       "artifacts": {}})
    except OSError:
        pass


def _subcommand(body):
    """cmd(args): check the config, run body(args, cfg, run) in a _Run and
    write the manifest, plus any entries body returns."""
    @functools.wraps(body)
    def cmd(args):
        cfg, echo = _load_config(args)
        with _Run(args.out) as run:
            extra = body(args, cfg, run)
            run.manifest(echo, extra)
        return 0
    return cmd


# ---------------------------------------------------------------------------
# subcommands

@_subcommand
def cmd_classify(args, cfg, run):
    p = cfg["symbol"]
    atlas = sample_symbol_range(p, cfg["box"], cfg["res"])
    if cfg["sigma_radii"]:
        atlas.sigma_inf = sigma_infinity(p, cfg["sigma_radii"])
    if cfg["cone"]:
        atlas.cone_test(**cfg["cone"])
    io.atlas_to_csv(run.path("atlas.csv"), atlas)
    io.atlas_to_json(run.path("atlas.json"), atlas)


@_subcommand
def cmd_quantize(args, cfg, run):
    op = _build_operator(cfg)
    io.operator_to_file(run.path("operator.bin"), op)
    io.write_json(run.path("operator.json"),
                  {"norm": op.norm(), "size": op.size, "h": op.h,
                   "hermiticity_defect": op.hermiticity_defect(),
                   "provenance": op.provenance})


@_subcommand
def cmd_spectrum(args, cfg, run):
    rep = eigendecompose(_build_operator(cfg))
    io.spectrum_to_json(run.path("spectrum.json"), rep)
    io.spectrum_to_csv(run.path("spectrum.csv"), rep)


@_subcommand
def cmd_psgrid(args, cfg, run):
    grid = pseudospectrum_grid(_build_operator(cfg), cfg["rectangle"],
                               cfg["shape"], threads=args.threads)
    io.grid_to_csv(run.path("grid.csv"), grid)
    io.grid_to_pgm(run.path("grid.pgm"), grid, run.path("grid_pgm.json"))
    if cfg["levels"]:
        lines = contour_extract(grid, cfg["levels"])
        io.write_json(run.path("contours.json"),
                      {str(eps): [{"closed": pl.closed, "points": pl.points}
                                  for pl in pls]
                       for eps, pls in lines.items()})
    return {"timing": grid.timing}


@_subcommand
def cmd_quasimode(args, cfg, run):
    fit, rec = residual_sweep(cfg["symbol"], cfg["point"], cfg["order"],
                              cfg["delta"], cfg["h_list"], path=cfg["path"],
                              model=cfg["model"])
    io.write_json(run.path("residuals.json"),
                  {"sweep": rec["sweep"], "model": fit.model,
                   "exponent": fit.exponent, "r_squared": fit.r_squared,
                   "phase_positivity": rec["phase_positivity"]})
    qm = rec["quasimode"]
    h_min = min(cfg["h_list"])
    x = _grid_for_beam(qm, h_min).points_1d()
    io.quasimode_to_csv(run.path("vector.csv"), x, qm.sample(x, h_min))
    if cfg["fbi"]:
        io.write_json(run.path("localization.json"),
                      localization_report(qm, h_min))


@_subcommand
def cmd_scaling(args, cfg, run):
    kind = cfg["experiment"]
    box = {} if cfg["L"] is None else {"L": cfg["L"]}
    if kind == "subelliptic":
        fit, samples = subelliptic_experiment(cfg["k"], cfg["h_list"],
                                              M=cfg["M"], **box)
    elif kind == "resolvent-decay":
        fit, samples = resolvent_decay_experiment(cfg["symbol"], cfg["z"],
                                                  cfg["h_list"], cfg["M"])
    else:
        fit, samples = rational_resolvent_experiment(cfg["h_list"], **box)
    if cfg["model"] is not None:
        fit = scaling_fit(samples, cfg["model"])
    io.write_json(run.path("scaling.json"),
                  {"model": fit.model, "exponent": fit.exponent,
                   "prefactor": fit.prefactor, "r_squared": fit.r_squared,
                   "samples": fit.samples, "excluded": fit.excluded})


@_subcommand
def cmd_weight(args, cfg, run):
    w = escape_weight(cfg["symbol"], cfg["z0"], cfg["box"], cfg["T0"],
                      exit_tol=cfg["exit_tol"])
    io.escape_weight_to_json(run.path("weight.json"), w)


@_subcommand
def cmd_conjugate(args, cfg, run):
    # conjugate takes no xi-limit keys: a grid operator gets their defaults
    op = _build_operator({**cfg, "xi_limit": "auto", "tail_tol": 0.01})
    Pe, rep = conjugate_operator(op, cfg["weight"], cfg["eps"], cfg["h"],
                                 z_list=cfg["z_list"], cond_cap=cfg["cond_cap"])
    io.operator_to_file(run.path("conjugated.bin"), Pe)
    io.write_json(run.path("conjugation.json"),
                  {"eps": rep.eps, "cond": rep.cond,
                   "spectrum_displacement": rep.spectrum_displacement,
                   "sigma_min": {str(z): v for z, v in rep.sigma_min.items()}})


@_subcommand
def cmd_dissipative(args, cfg, run):
    D = dissipative_build(cfg["q"], cfg["a"],
                          HermiteBasis(cfg["M"], n=cfg["dim"]), cfg["h"])
    rep = eigendecompose(D.P)
    io.spectrum_to_json(run.path("spectrum.json"), rep)
    payload = {"hermiticity_defect": D.hermiticity_defect,
               "w_min_eig": D.w_min_eig}
    if cfg["z_list"]:
        payload["resolvent_check"] = dissipative_resolvent_check(D, cfg["z_list"])
    io.write_json(run.path("dissipative.json"), payload)


@_subcommand
def cmd_fbi(args, cfg, run):
    qm = build_quasimode(cfg["symbol"], cfg["point"], cfg["order"], cfg["delta"])
    h, span, pts = cfg["h"], cfg["span"], cfg["out_points"]
    grid = _grid_for_beam(qm, h)
    u = qm.sample(grid.points_1d(), h)
    x_out = np.linspace(qm.w0[0] - span, qm.w0[0] + span, pts)
    xi_out = np.linspace(qm.w0[1] - span, qm.w0[1] + span, pts)
    field = fbi_transform(u, grid, h, x_out, xi_out)
    io.fbi_to_csv(run.path("fbi.csv"), field)
    io.fbi_to_pgm(run.path("fbi.pgm"), field, run.path("fbi_pgm.json"))


def cmd_repro(args):
    rows, all_pass = run_reproduction_suite(args.suite)
    width = max(len(r["name"]) for r in rows) + 2
    print(f"{'experiment':<{width}} {'measured':>14} {'expected':>22} verdict")
    for r in rows:
        verdict = "PASS" if r["ok"] else "FAIL"
        print(f"{r['name']:<{width}} {r['measured']:>14} {r['expected']:>22} "
              f"{verdict}")
    if args.out:
        with _Run(args.out) as run:
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

    commands = [
        ("classify", cmd_classify, "sample the classical sets"),
        ("quantize", cmd_quantize, "quantize a symbol into an operator"),
        ("spectrum", cmd_spectrum, "filtered spectrum of the quantized symbol"),
        ("psgrid", cmd_psgrid, "sigma_min sweep over a z-rectangle"),
        ("quasimode", cmd_quasimode, "WKB beam residual sweep"),
        ("scaling", cmd_scaling, "resolvent scaling experiments"),
        ("weight", cmd_weight, "escape-function construction"),
        ("conjugate", cmd_conjugate, "weighted conjugation experiment"),
        ("dissipative", cmd_dissipative, "Q - iW build and checks"),
        ("fbi", cmd_fbi, "FBI transform of a quasimode"),
    ]
    parsers = {}
    for name, fn, text in commands:
        sp = parsers[name] = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--threads", type=int, default=1)
        sp.set_defaults(func=fn)
    parsers["classify"].add_argument("--symbol")
    parsers["classify"].add_argument("--dim", type=int)
    parsers["classify"].add_argument("--box", type=float, nargs=4,
                                     metavar=("XLO", "XHI", "XILO", "XIHI"))
    parsers["classify"].add_argument("--res", type=int)
    for name in ("quantize", "spectrum"):
        parsers[name].add_argument("--symbol")
        parsers[name].add_argument("--h", type=float)
        parsers[name].add_argument("--M", type=int)
        parsers[name].add_argument("--path")

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
    except Exception as exc:
        # the contract's last line: whatever else escapes a run exits 3
        config_error = isinstance(exc, ConfigError)
        print(f"{'config error' if config_error else 'numerical failure'}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        if run_dir:
            _fail_manifest(run_dir, cfg_snapshot, exc)
        return 2 if config_error else 3


if __name__ == "__main__":
    sys.exit(main())
