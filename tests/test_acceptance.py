"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS|FAIL` line (visible with
pytest -s or in failure output).  A clause that a `pspeclab repro` suite
also checks is declared once, as an entry of the `_CHECKS` table in
`pspeclab/repro.py`; its test asserts that entry's rows.
"""

import time

import numpy as np
import pytest

from pspeclab import repro
from pspeclab.classical import sign_sum
from pspeclab.errors import DynamicalConditionViolated
from pspeclab.quantize import (
    FourierGrid,
    HermiteBasis,
    fbi_transform,
    weyl_quantize_poly,
)
from pspeclab.repro import moyal_matrix_oracle_experiment, proximity_experiment
from pspeclab.spectral import eigendecompose, pseudospectrum_grid, \
    resolvent_norm
from pspeclab.symbols import parse_symbol
from pspeclab.weights import dissipative_build, dissipative_resolvent_check, \
    escape_weight

ROT = parse_symbol("xi1^2 + xi1*1i + x1^2", 1)
DAVIES = parse_symbol("xi1^2+xi2^2+x1^2-1i*x2^2", 2)


def _report(num, ok, detail="", rows=()):
    """Print the verdict on `ok` and on every row's own `ok`."""
    ok = ok and all(r["ok"] for r in rows)
    parts = [f"{r['name']}: {r['measured']} ({r['expected']})" for r in rows]
    detail = "; ".join(parts + ([detail] if detail else []))
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _rows(criterion, key, **kwargs):
    """The rows of repro check `key`, which declares `criterion`."""
    tag, check = repro._CHECKS[key]
    assert tag == criterion
    return check(**kwargs)


def test_criterion_01_rotated_oscillator_spectrum():
    t0 = time.perf_counter()
    rows = _rows(1, "spectrum")
    elapsed = time.perf_counter() - t0
    assert _report(1, elapsed < 10.0, f"runtime {elapsed:.1f}s (< 10 s)", rows)


def test_criterion_02_resolvent_blowup_fit():
    assert _report("2 (fit)", True, rows=_rows(2, "blow-up")[:1])


def test_criterion_02_thousandfold_drop():
    # the ratio against WKB and the drop at h = 0.02
    assert _report("2 (ratio)", True, rows=_rows(2, "blow-up")[1:])


def test_criterion_03_boundary_exclusion():
    worst = np.inf
    for h in (0.05, 0.035, 0.025):
        rep = eigendecompose(weyl_quantize_poly(ROT, HermiteBasis(200), h))
        worst = min(worst, rep.distance(0.0))
    ok = worst >= 0.2
    assert _report(3, ok,
                   f"min |lambda - 0| over accepted spectra = {worst:.4f} "
                   f">= 0.2 for h <= 0.05")


def test_criterion_04_subelliptic_scaling():
    assert _report(4, True, rows=_rows(4, "subelliptic"))


def test_criterion_05_rational_counterexample():
    assert _report(5, True, rows=_rows(5, "rational-exponent")
                   + _rows(5, "level-set"))


def test_criterion_06_quasimode_residuals():
    assert _report(6, True, rows=_rows(6, "residual-slopes"))


def test_criterion_07_localization_and_isometry():
    rows = _rows(7, "beam-mass")
    # discrete isometry on 20 random smooth vectors
    h = 0.05
    grid = FourierGrid(8.0, 384)
    y = grid.points_1d()
    rng = np.random.default_rng(23)
    x_out = np.linspace(-5, 5, 141)
    xi_out = np.linspace(-2.5, 2.5, 141)
    worst = 0.0
    for _ in range(20):
        coef = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        u = sum(c * np.exp(-y ** 2 / 2) * y ** k / (1 + k)
                for k, c in enumerate(coef))
        u = u / np.sqrt((np.abs(u) ** 2).sum() * grid.dx)
        field = fbi_transform(u.astype(complex), grid, h, x_out, xi_out)
        worst = max(worst, abs(field.mass() - 1.0))
    assert _report(7, worst <= 1.5e-3,
                   f"worst isometry defect {worst:.2e} (tol ~1e-3)", rows)


def test_criterion_08_sign_sum_identity():
    p = parse_symbol("xi1^2 + x1^2 - 1i*x1", 1)
    box = [(-3.0, 3.0), (-3.0, 3.0)]
    sums = []
    for j in range(10):
        z = complex(1.0 + 0.08 * j, -(0.2 + 0.03 * j))
        sums.append(sign_sum(p, z, box, seeds_per_axis=16))
    assert _report(8, all(s == 0 for s in sums),
                   f"Schrodinger sign sums {sums} (all 0)", _rows(8, "remark"))


def test_criterion_09_moyal_commutator_consistency():
    worst = moyal_matrix_oracle_experiment(M=128, h=0.1, block=50)
    ok = worst <= 1e-9
    assert _report(9, ok,
                   f"max interior-block defect of Weyl(p1 # p2) vs "
                   f"Weyl(p1)Weyl(p2): {worst:.2e} <= 1e-9, five pairs")


def test_criterion_10_wick_and_dissipative():
    rows = _rows(10, "wick-positivity", count=50) + _rows(10, "davies")
    D = dissipative_build(parse_symbol("xi1^2+xi2^2+x1^2", 2),
                          parse_symbol("x2^2", 2), HermiteBasis(24, n=2), 0.1)
    rng = np.random.default_rng(31)
    zs = [complex(rng.uniform(-0.5, 2.5), rng.uniform(0.1, 2.0))
          for _ in range(20)]
    check = dissipative_resolvent_check(D, zs)
    assert _report(10, check["ok"], "20 resolvent bounds "
                   f"{'hold' if check['ok'] else 'VIOLATED'}", rows)


def test_criterion_11_conjugation_identity():
    assert _report(11, True, rows=_rows(11, "conjugation"))


def test_criterion_12_escape_function():
    p = parse_symbol("xi1 + 1i*(x1^2 - 1)", 1)
    box = [(-2.5, 2.5), (-2.5, 2.5)]
    w1 = escape_weight(p, 0.0, box, T0=5.0, seeds_per_axis=13)
    w2 = escape_weight(p, 0.0, box, T0=5.0, seeds_per_axis=27)
    stable = abs(w2.gamma - w1.gamma) <= 0.1 * abs(w1.gamma)
    violated = False
    try:
        escape_weight(DAVIES, 1.0, [(-1.6, 1.6)] * 4, T0=5.0)
    except DynamicalConditionViolated:
        violated = True
    ok = w1.gamma > 0 and stable and violated
    assert _report(12, ok,
                   f"gamma = {w1.gamma:.3f} > 0, doubling gives "
                   f"{w2.gamma:.3f} (+-10%); Davies at z0=1 -> "
                   f"{'violated' if violated else 'NO VIOLATION'}")


def test_criterion_13_proximity():
    rows = []
    ok = True
    for h in (0.05, 0.025):
        rep = proximity_experiment(h)
        bound = 10.0 * rep["residual"] / h
        ok = ok and rep["dist"] <= bound
        rows.append(f"h={h}: dist {rep['dist']:.2e} <= {bound:.2e}")
    assert _report(13, ok, "; ".join(rows))


def test_criterion_14_determinism_and_speed():
    op = weyl_quantize_poly(ROT, HermiteBasis(200), 0.05)
    rect, shape = (-0.5, 2.0, -1.0, 1.0), (101, 81)
    # min of two timings shields the ratio from transient machine load
    t_fast = np.inf
    for _ in range(2):
        t0 = time.perf_counter()
        g1 = pseudospectrum_grid(op, rect, shape, threads=1)
        t_fast = min(t_fast, time.perf_counter() - t0)
    g8 = pseudospectrum_grid(op, rect, shape, threads=8)
    identical = g1.sigma.tobytes() == g8.sigma.tobytes()
    t0 = time.perf_counter()
    g_svd = pseudospectrum_grid(op, rect, shape, force_svd=True)
    t_svd = time.perf_counter() - t0
    speedup = t_svd / t_fast
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s_svd = resolvent_norm(A, z, method="svd")
        s_fast = resolvent_norm(A, z, method="auto")
        worst = max(worst, abs(s_fast - s_svd) / max(s_svd, 1e-300))
    agreement = np.abs(g1.sigma - g_svd.sigma).max()
    ok = (identical and speedup >= 5.0 and worst <= 1e-8
          and agreement <= 1e-8)
    assert _report(14, ok,
                   f"threads byte-identical: {identical}; Schur speedup "
                   f"{speedup:.1f}x >= 5; fast-vs-SVD on 100 cases "
                   f"{worst:.1e} <= 1e-8; grid |difference| "
                   f"{agreement:.1e} <= 1e-8")


@pytest.mark.parametrize("key", [key for key, (tag, _) in repro._CHECKS.items()
                                 if tag is None])
def test_suite_only_checks_pass(key):
    # the `repro invariants` rows that no criterion declares
    assert key in repro._SUITES["invariants"]
    rows = repro._CHECKS[key][1]()
    assert rows and all(r["ok"] for r in rows), rows
