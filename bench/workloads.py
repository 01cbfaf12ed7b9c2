"""The benchmark's workloads: seeded inputs, one operation, its gates.

Each workload is a closed loop: one client issues the next operation
when the last one has finished.  The seed only moves inputs inside
ranges that keep the amount of work fixed; pspeclab sees nothing but
the generated inputs.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import scipy.linalg

# calls go through the pspeclab modules, never through names bound here,
# so the tracer's wrappers on those modules see them
from pspeclab import (FourierGrid, HermiteBasis, classical, cli, parse_symbol,
                      quantize, quasimodes, repro, spectral)

ROTATED = "xi1^2+xi1*1i+x1^2"
# the known-red thousandfold-drop clause of criterion 2 and its measured value
KNOWN_RED_ROW = "blow-up ratio sigma(0.025)/sigma(0.1)"
KNOWN_RED_VALUE = "1.50e-03"
LU_TOL = 1e-4


class GateError(Exception):
    """An operation's output failed a correctness gate."""


def _gate(ok, message):
    if not ok:
        raise GateError(message)


def _check_manifest(out_dir):
    """Every checksum in manifest.json matches the file it names."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    _gate(manifest.get("artifacts"), f"{out_dir.name}: manifest lists no artifacts")
    for name, digest in manifest["artifacts"].items():
        actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        _gate(actual == digest, f"{out_dir.name}/{name}: checksum mismatch")
    return manifest


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""

    def __init__(self, seed, work_dir, tiny=False):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.work = Path(work_dir)
        self.tiny = tiny
        self.notes = {}     # reported beside the metrics

    def op(self):
        """One operation; returns what `check` inspects."""
        raise NotImplementedError

    def check(self, out, full=False):
        """Raise GateError unless the output of `op` is correct."""
        raise NotImplementedError

    def extras(self):
        """Gated operations made once per traced run: [(label, fn)], each
        fn returns a dict of per-layer metrics (may be empty)."""
        return []


# ---------------------------------------------------------------------------

class PsgridRotated(Workload):
    name = "psgrid-rotated"
    SHAPE, M, TINY_SHAPE, TINY_M = (26, 21), 200, (6, 5), 40
    RECT = (-0.5, 2.0, -1.0, 1.0)
    H, THREADS, CHECK_NODES, CHECK_NODES_FULL = 0.05, 2, 4, 32

    def __init__(self, seed, work_dir, tiny=False):
        super().__init__(seed, work_dir, tiny)
        self.shape = self.TINY_SHAPE if tiny else self.SHAPE
        m = self.TINY_M if tiny else self.M
        # shift the rectangle by at most 5% of a grid step, keeping its
        # shape: larger shifts move nodes in or out of the neighbourhoods
        # where inverse iteration falls back to an SVD (0 to 3 fallbacks,
        # each worth ~50 nodes), which would change the work per op
        lo_re, hi_re, lo_im, hi_im = self.RECT
        step_re = (hi_re - lo_re) / (self.shape[0] - 1)
        step_im = (hi_im - lo_im) / (self.shape[1] - 1)
        du, dv = self.rng.uniform(-0.05, 0.05, 2)
        self.rect = [lo_re + du * step_re, hi_re + du * step_re,
                     lo_im + dv * step_im, hi_im + dv * step_im]
        self.cfg = {"symbol": ROTATED, "h": self.H, "M": m,
                    "rectangle": self.rect, "shape": list(self.shape),
                    "levels": [1e-4]}
        self.cfg_path = self.work / "rotated.json"
        self.cfg_path.write_text(json.dumps(self.cfg))
        self.out = self.work / "psgrid"
        self.ops = 0        # seeds the choice of nodes each check compares
        self.size = f"{self.shape[0]}x{self.shape[1]} nodes at M={m}"
        self.inputs = {"symbol": ROTATED, "h": self.H, "M": m,
                       "rectangle": self.rect, "shape": list(self.shape),
                       "nodes": self.shape[0] * self.shape[1],
                       "threads": self.THREADS}
        self._P = None

    def argv(self, threads):
        return ["psgrid", "--config", str(self.cfg_path), "--out", str(self.out),
                "--threads", str(threads)]

    def op(self):
        _fresh(self.out)
        return cli.main(self.argv(self.THREADS))

    def operator(self):
        if self._P is None:
            self._P = quantize.weyl_quantize_poly(parse_symbol(ROTATED, 1),
                                         HermiteBasis(self.cfg["M"]), self.H)
        return self._P

    def check(self, rc, full=False):
        self.ops += 1
        _gate(rc == 0, f"psgrid exited {rc}")
        _check_manifest(self.out)
        lines = (self.out / "grid.csv").read_text().split()
        rows = [line.split(",") for line in lines[1:]]
        _gate(len(rows) == self.shape[0] * self.shape[1], "grid.csv row count")
        P = self.operator()
        floor = spectral.FLOOR_FACTOR * np.finfo(float).eps * P.norm()
        eye = np.eye(P.size)
        rng = np.random.default_rng([self.seed, self.ops])
        count = self.CHECK_NODES_FULL if full else self.CHECK_NODES
        for k in rng.choice(len(rows), size=min(count, len(rows)), replace=False):
            re, im, sigma = (float(v) for v in rows[k][:3])
            ref = float(scipy.linalg.svdvals(P.matrix - complex(re, im) * eye)[-1])
            ref = max(ref, floor)
            # below the floor neither method resolves sigma_min, so a
            # difference smaller than the floor itself is not an error
            _gate(abs(sigma - ref) <= 1e-8 * ref + floor,
                  f"node {re}+{im}i: sigma_min {sigma!r} vs SVD {ref!r} "
                  f"(floor {floor:.2e})")

    def extras(self):
        return [("threads=1 vs threads=2 grids", self._thread_speedup)]

    def _thread_speedup(self):
        P = self.operator()
        g1 = spectral.pseudospectrum_grid(P, self.rect, self.shape, threads=1)
        g2 = spectral.pseudospectrum_grid(P, self.rect, self.shape, threads=self.THREADS)
        _gate(g1.sigma.tobytes() == g2.sigma.tobytes()
              and g1.floored.tobytes() == g2.floored.tobytes(),
              "threads=1 and threads=2 grids differ")
        return {"spectral.sweep.thread_speedup":
                g1.timing["sweep_s"] / g2.timing["sweep_s"]}


# ---------------------------------------------------------------------------

class WickProximity(Workload):
    name = "wick-proximity"
    HS, GRID_M, TINY_GRID_M = (0.05, 0.025), 64, 32

    def __init__(self, seed, work_dir, tiny=False):
        super().__init__(seed, work_dir, tiny)
        self.grid_m = self.TINY_GRID_M if tiny else self.GRID_M
        self.support_r2 = 6.0 * (1.0 + self.rng.uniform(-0.05, 0.05))
        self.strength = 1e-2 * (1.0 + self.rng.uniform(-0.1, 0.1))
        self.size = f"2 proximity runs (h=0.05, 0.025) at grid_M={self.grid_m}"
        self.inputs = {"h": list(self.HS), "grid_L": 7.0, "grid_M": self.grid_m,
                       "support_r2": self.support_r2, "strength": self.strength}

    def op(self):
        return [repro.proximity_experiment(h, grid_M=self.grid_m,
                                           support_r2=self.support_r2,
                                           strength=self.strength)
                for h in self.HS]

    def check(self, results, full=False):
        for res in results:
            h = res["h"]
            _gate(res["accepted_count"] > 0, f"h={h}: no accepted eigenvalue")
            _gate(math.isfinite(res["dist"])
                  and res["dist"] <= 10 * res["residual"] / h,
                  f"h={h}: dist {res['dist']:.3e} > 10 residual/h "
                  f"({10 * res['residual'] / h:.3e})")


# ---------------------------------------------------------------------------

def _row(name, measured, expected, ok):
    return {"name": name, "measured": str(measured), "expected": str(expected),
            "ok": bool(ok)}


def _check_rows(rows, where):
    """Every row passes except the known-red criterion-2 row, which must
    keep its measured value and never counts as a pass."""
    for r in rows:
        if r["name"] == KNOWN_RED_ROW:
            _gate(not r["ok"] and r["measured"] == KNOWN_RED_VALUE,
                  f"{where}: known-red row reads {r['measured']} "
                  f"(ok={r['ok']}), expected {KNOWN_RED_VALUE} and red")
        else:
            _gate(r["ok"], f"{where}: row '{r['name']}' failed "
                           f"({r['measured']} vs {r['expected']})")


class ReproSuites(Workload):
    """Few shifts on many matrices: SVD and LU sigma_min at single z,
    conjugation, classical sets, quasimode sweeps and the canned
    `repro invariants` suite, plus `pspeclab dissipative` on Davies."""

    name = "repro-suites"
    DAVIES_M, TINY_DAVIES_M, Z_COUNT = 12, 8, 8
    DECAY_H = [0.1, 0.07, 0.05, 0.035, 0.025]
    RATIONAL_H, TINY_RATIONAL_H = 0.05, 0.1

    def __init__(self, seed, work_dir, tiny=False):
        super().__init__(seed, work_dir, tiny)
        zs = [[float(re), float(im)] for re, im in
              zip(self.rng.uniform(0.0, 3.0, self.Z_COUNT),
                  self.rng.uniform(0.05, 1.0, self.Z_COUNT))]
        self.davies = {"q": "xi1^2+xi2^2+x1^2", "a": "x2^2", "dim": 2, "h": 0.1,
                       "M": self.TINY_DAVIES_M if tiny else self.DAVIES_M,
                       "z_list": zs}
        self.davies_path = self.work / "davies.json"
        self.davies_path.write_text(json.dumps(self.davies))
        self.rational_h = self.TINY_RATIONAL_H if tiny else self.RATIONAL_H
        W = 12.0 * self.rational_h ** (-1.0 / 3.0)
        self.rational_m = int(math.ceil(W * 2.5 / (math.pi * self.rational_h)))
        self.size = (f"invariants + Davies M={self.davies['M']} (dim 2), "
                     f"{self.Z_COUNT} z + 5 SVDs and 1 auto at M=200 + "
                     f"rational LU at M={self.rational_m}")
        self.inputs = {"davies": self.davies, "decay_h": self.DECAY_H,
                       "rational_h": self.rational_h,
                       "rational_M": self.rational_m}
        self.rot = parse_symbol(ROTATED, 1)
        self.rational = parse_symbol(repro.RATIONAL_SECTION3, 1)
        self.remark = parse_symbol(repro.RATIONAL_REMARK, 1)

    def op(self):
        inv = _fresh(self.work / "invariants")
        diss = _fresh(self.work / "dissipative")
        rc_inv = cli.main(["repro", "invariants", "--out", str(inv)])
        rc_diss = cli.main(["dissipative", "--config", str(self.davies_path),
                            "--out", str(diss)])
        rows = []
        fit, samples = repro.resolvent_decay_experiment(self.rot, 2.0 + 1.0j,
                                                        self.DECAY_H)
        rows.append(_row("resolvent blow-up at z=2+i (exp fit)",
                         f"rate={fit.exponent:.3f}, R2={fit.r_squared:.3f}",
                         "rate > 0, R2 >= 0.9",
                         fit.exponent > 0 and fit.r_squared >= 0.9))
        ratio = samples[-1][1] / samples[0][1]
        rows.append(_row(KNOWN_RED_ROW, f"{ratio:.2e}", "<= 1e-3", ratio <= 1e-3))
        P = quantize.weyl_quantize_poly(self.rot, HermiteBasis(200), self.DECAY_H[-1])
        auto = spectral.resolvent_norm(P, 2.0 + 1.0j)
        rel = abs(auto - samples[-1][1]) / samples[-1][1]
        rows.append(_row("auto vs svd sigma_min at z=2+i, h=0.025",
                         f"{rel:.1e}", "<= 1e-8", rel <= 1e-8))
        defect, _ = repro.conjugation_identity_experiment()
        rows.append(_row("conjugation identity interior defect",
                         f"{defect:.2e}", "<= 1e-6", defect <= 1e-6))
        ls = classical.solve_level_set(self.rational, 0.0, [(-3, 3), (-3, 3)], 15)
        roots = np.sort(ls.solutions[:, 1]) if len(ls) else np.array([])
        rows.append(_row("rational level set p^{-1}(0)", f"{len(ls)} roots",
                         "{(0,1),(0,-1)} to 1e-8",
                         len(ls) == 2
                         and np.allclose(ls.solutions[:, 0], 0.0, atol=1e-8)
                         and np.allclose(roots, [-1.0, 1.0], atol=1e-8)))
        s = classical.sign_sum(self.remark, 0.1, [(-3, 3), (-3, 3)], seeds_per_axis=30)
        iota, _ = classical.winding_number(self.remark, 0.1, 10.0)
        rows.append(_row("remark symbol: sign sum and winding at z=0.1",
                         f"sum={s}, iota={iota}", "2 and 2", s == 2 and iota == 2))
        f0, _ = quasimodes.residual_sweep(self.rot, [1, 1], 0, 0.5, self.DECAY_H)
        rows.append(_row("beam residual slope N=0", f"{f0.exponent:.3f}",
                         "[0.9, 1.5]", 0.9 <= f0.exponent <= 1.5))
        grid = FourierGrid(2.5, self.rational_m)
        Pr = quantize.weyl_quantize_grid(self.rational, grid, self.rational_h,
                                         xi_limit=1.0, tail_frac_tol=1.0)
        sigma = spectral.resolvent_norm(Pr, 0.0, method="lu")
        rows.append(_row(f"rational sigma_min(P) at h={self.rational_h} "
                         f"(M={self.rational_m})", f"{sigma:.6e}",
                         "finite, > 0", math.isfinite(sigma) and sigma > 0))
        return {"rc_invariants": rc_inv, "rc_dissipative": rc_diss,
                "rows": rows, "rational_op": Pr, "rational_sigma": sigma}

    def check(self, out, full=False):
        inv, diss = self.work / "invariants", self.work / "dissipative"
        _gate(out["rc_invariants"] == 0, f"repro invariants exited {out['rc_invariants']}")
        _check_manifest(inv)
        _check_rows(json.loads((inv / "repro.json").read_text())["rows"],
                    "repro invariants")
        _gate(out["rc_dissipative"] == 0,
              f"dissipative exited {out['rc_dissipative']}")
        _check_manifest(diss)
        check = json.loads((diss / "dissipative.json").read_text())["resolvent_check"]
        _gate(check["ok"] and len(check["rows"]) == self.Z_COUNT,
              "dissipative resolvent check not ok")
        _check_rows(out["rows"], "repro rows")
        red = next(r for r in out["rows"] if r["name"] == KNOWN_RED_ROW)
        self.notes["known red (criterion 2)"] = (
            f"{red['name']} = {red['measured']} (expected {red['expected']}); "
            f"recorded, never counted as a pass")
        if full:
            # the LU path stops when two iterates agree to 1e-11, which
            # does not bound its error; the measured error is reported
            ref = float(scipy.linalg.svdvals(out["rational_op"].matrix)[-1])
            rel = abs(out["rational_sigma"] - ref) / ref
            self.notes["rational LU vs SVD"] = f"relative difference {rel:.1e}"
            _gate(rel <= LU_TOL, f"rational LU sigma_min {out['rational_sigma']!r} "
                                 f"vs SVD {ref!r}: {rel:.1e} > {LU_TOL:g}")

    def extras(self):
        suites = ["paper-examples"] if self.tiny else ["paper-examples", "scaling-laws"]
        return [(f"repro {suite} (full suite)", lambda s=suite: self._suite(s))
                for suite in suites]

    def _suite(self, suite):
        out = _fresh(self.work / suite)
        rc = cli.main(["repro", suite, "--out", str(out)])
        _check_manifest(out)
        rows = json.loads((out / "repro.json").read_text())["rows"]
        _check_rows(rows, f"repro {suite}")
        red = any(r["name"] == KNOWN_RED_ROW for r in rows)
        _gate(rc == (1 if red else 0), f"repro {suite} exited {rc}")
        return {}


WORKLOADS = {w.name: w for w in (PsgridRotated, WickProximity, ReproSuites)}
