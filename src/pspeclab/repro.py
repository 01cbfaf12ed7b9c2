"""Canned reproduction experiments behind `pspeclab repro` and the
acceptance suite.

Each experiment returns plain data.  The `_CHECKS` table turns them
into pass/fail rows with the bounds spelled out, so a failed row shows
the measured number next to the expectation.  Each check is tagged with
the acceptance criterion it declares; a suite is a list of check keys.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.linalg

from .classical import sign_sum, solve_level_set, winding_number
from .quantize import (
    FourierGrid,
    HermiteBasis,
    hermite_functions,
    moyal_product,
    weyl_quantize_grid,
    weyl_quantize_poly,
    wick_quantize,
)
from .quasimodes import build_quasimode, localization_report, residual_sweep
from .spectral import eigendecompose, pseudospectrum_grid, resolvent_norm, \
    scaling_fit
from .symbols import parse_symbol
from .weights import conjugate_operator, dissipative_build, \
    quasimode_spectrum_proximity

ROTATED = "xi1^2 + xi1*1i + x1^2"
RATIONAL_SECTION3 = ("(xi1^2-1+1i*xi1*x1^2/(1+x1^2))"
                     "/(1+xi1^2+1i*xi1*x1^2/(1+x1^2))")
RATIONAL_REMARK = "(xi1+1i*x1)^2/(1+x1^2+xi1^2)"


# ---------------------------------------------------------------------------
# shared experiments

def rotated_oscillator_spectrum(M=200, h=0.05, count=10):
    """Largest error of the lowest accepted eigenvalues against
    (2k+1) h + 1/4."""
    p = parse_symbol(ROTATED, 1)
    rep = eigendecompose(weyl_quantize_poly(p, HermiteBasis(M), h))
    acc = rep.accepted_eigenvalues
    low = acc[np.argsort(acc.real)][:count]
    expect = (2 * np.arange(count) + 1) * h + 0.25
    err = float(np.abs(np.sort(low.real) - expect).max()
                + np.abs(low.imag).max())
    return err


def rotated_oscillator_action(z):
    """WKB action S(z) behind sigma_min(P_h - z) ~ C h^{1/2} e^{-S(z)/h}.

    Inside the parabola Re z > (Im z)^2, p^{-1}(z) is the pair
    (x, xi) = (+-x0, Im z) with x0 = sqrt(Re z - (Im z)^2).  S(z) is
    -int Im xi(x) dx over [-x0, x0] along the root
    xi(x) = -i/2 + sqrt(w - x^2), w = z - 1/4, that joins them:

        S(z) = x0 - Im[x0 sqrt(w - x0^2) + w arcsin(x0 / sqrt(w))]

    with principal branches, valid for Im z > 0.  The operator has real
    coefficients, so S(conj z) = S(z).
    """
    z = complex(z.real, abs(z.imag))
    if z.imag == 0.0 or z.real <= z.imag ** 2:
        raise ValueError(f"z = {z} is not inside Re z > (Im z)^2, Im z != 0")
    w = z - 0.25
    x0 = math.sqrt(z.real - z.imag ** 2)
    return x0 - (x0 * cmath.sqrt(w - x0 ** 2)
                 + w * cmath.asin(x0 / cmath.sqrt(w))).imag


def rotated_oscillator_blowup_ratio(h0, h1, z):
    """Leading-order sigma_min(P_h1 - z) / sigma_min(P_h0 - z),
    sqrt(h1/h0) exp(-S(z) (1/h1 - 1/h0)); its relative error is O(h0)."""
    S = rotated_oscillator_action(z)
    return math.sqrt(h1 / h0) * math.exp(-S * (1.0 / h1 - 1.0 / h0))


def resolvent_decay_experiment(p, z, h_list, M=200):
    """sigma_min(P - z) across h on the Hermite path, exponential fit."""
    samples = []
    for h in h_list:
        op = weyl_quantize_poly(p, HermiteBasis(M), h)
        samples.append((h, resolvent_norm(op, z, method="svd")))
    return scaling_fit(samples, "exponential"), samples


def subelliptic_experiment(k, h_list, L=1.5, M=512):
    """Masked sigma_min of the grid quantization of xi + i x^k at 0.

    The domain is restricted to test vectors supported in |x| <= 1
    (rectangular column mask), the image keeps the full grid.
    """
    p = parse_symbol(f"xi1 + 1i*x1^{k}", 1)
    samples = []
    for h in h_list:
        grid = FourierGrid(L, M)
        P = weyl_quantize_grid(p, grid, h, xi_limit=None, tail_frac_tol=1.0)
        x = grid.points_1d()
        A = P.matrix[:, np.abs(x) <= 1.0]
        samples.append((h, float(scipy.linalg.svdvals(A)[-1])))
    return scaling_fit(samples, "power"), samples


def rational_resolvent_experiment(h_list=(0.05, 0.035, 0.025, 0.018, 0.0125),
                                  L=2.5, window_scale=12.0):
    """sigma_min of the section-3 rational symbol at z = 0 across h.

    The dual window grows like h^{-1/3} (the subelliptic frequency
    scale); sigma_min per h comes from LU inverse Lanczos.
    """
    p = parse_symbol(RATIONAL_SECTION3, 1)
    samples = []
    for h in h_list:
        grid = FourierGrid(L, rational_order(h, L, window_scale))
        P = weyl_quantize_grid(p, grid, h, xi_limit=1.0, tail_frac_tol=1.0)
        samples.append((h, resolvent_norm(P, 0.0, method="lu")))
    return scaling_fit(samples, "power"), samples


def rational_order(h, L=2.5, window_scale=12.0):
    """Grid order of rational_resolvent_experiment at h: a dual window of
    half-width window_scale h^{-1/3} resolved on [-L, L).  Raises
    OverflowError when h is so small that the order is not finite."""
    W = window_scale * h ** (-1.0 / 3.0)
    return int(math.ceil(W * L / (math.pi * h)))


def conjugation_identity_experiment(M=60, h=1.0):
    """Interior-block defect of e^{eps G/h} P e^{-eps G/h} against
    Weyl(xi^2 + x^2) + 1/4, with G = -x/2 and eps = h.

    The weight exponent eps G / h equals the -x/(2h) of the exact
    conjugation identity precisely when eps = h; run at h = 1 where
    that holds and cond(E) stays moderate.
    """
    basis = HermiteBasis(M)
    P = weyl_quantize_poly(parse_symbol(ROTATED, 1), basis, h)
    Pe, rep = conjugate_operator(P, parse_symbol("-x1/2", 1), eps=h, h=h)
    T = weyl_quantize_poly(parse_symbol("xi1^2 + x1^2", 1), basis, h).matrix \
        + 0.25 * np.eye(M)
    blk = np.s_[: M // 2, : M // 2]
    defect = float(np.linalg.norm(Pe.matrix[blk] - T[blk])
                   / np.linalg.norm(T[blk]))
    return defect, rep


def davies_experiment(M=24, h=0.1):
    """Davies operator: dissipativity plus the 1-D tensor oracle.
    Returns (max Im of the accepted spectrum, oracle error)."""
    D = dissipative_build(parse_symbol("xi1^2+xi2^2+x1^2", 2),
                          parse_symbol("x2^2", 2), HermiteBasis(M, n=2), h)
    spec2 = eigendecompose(D.P)
    acc2 = spec2.accepted_eigenvalues
    bas1 = HermiteBasis(M)
    A1 = weyl_quantize_poly(parse_symbol("xi1^2+x1^2", 1), bas1, h)
    A2 = dissipative_build(parse_symbol("xi1^2", 1), parse_symbol("x1^2", 1),
                           bas1, h).P
    sums = (eigendecompose(A1).accepted_eigenvalues[:, None]
            + eigendecompose(A2).accepted_eigenvalues[None, :]).ravel()
    oracle_err = float(max(np.abs(sums - lam).min() for lam in acc2))
    max_im = float(acc2.imag.max())
    return max_im, oracle_err


def wick_positivity_experiment(count=50, M=40, h=0.1, seed=17):
    """Random nonnegative symbols keep their Wick matrices PSD."""
    rng = np.random.default_rng(seed)
    basis = HermiteBasis(M)
    worst = 0.0
    for _ in range(count):
        c = rng.uniform(-1, 1, size=6)
        text = (f"(({c[0]:.3f})+({c[1]:.3f})*x1+({c[2]:.3f})*xi1)^2"
                f" + (({c[3]:.3f})+({c[4]:.3f})*x1+({c[5]:.3f})*xi1)^2"
                f" + {abs(c[0]):.3f}")
        op = wick_quantize(parse_symbol(text, 1), basis, h)
        lam = np.linalg.eigvalsh((op.matrix + op.matrix.conj().T) / 2)
        worst = min(worst, float(lam.min() / max(np.abs(lam).max(), 1e-300)))
    return worst


def moyal_matrix_oracle_experiment(M=128, h=0.1, block=50):
    """Weyl(p1 # p2) vs Weyl(p1) Weyl(p2) on the interior block for
    five polynomial pairs of degree <= 3."""
    basis = HermiteBasis(M)
    pairs = [
        ("x1^2+xi1^2", "x1*xi1"),
        ("x1^3", "xi1"),
        ("x1+xi1", "x1^2-xi1^2"),
        ("x1*xi1^2", "x1^2"),
        ("1+x1+xi1^3", "x1^2+xi1"),
    ]
    worst = 0.0
    blk = np.s_[:block, :block]
    for ta, tb in pairs:
        a = parse_symbol(ta, 1).to_poly()
        b = parse_symbol(tb, 1).to_poly()
        lhs = weyl_quantize_poly(moyal_product(a, b, h), basis, h).matrix
        rhs = weyl_quantize_poly(a, basis, h).matrix \
            @ weyl_quantize_poly(b, basis, h).matrix
        scale = max(1.0, float(np.abs(rhs[blk]).max()))
        worst = max(worst, float(np.abs(lhs[blk] - rhs[blk]).max() / scale))
    return worst


def proximity_experiment(h, grid_L=7.0, grid_M=512, support_r2=6.0,
                         strength=1e-2):
    """Vanishing-damping proximity: ground state of the oscillator under
    a Wick damping supported away from the origin."""
    grid = FourierGrid(grid_L, grid_M)
    q = parse_symbol("xi1^2 + x1^2", 1)

    def damping(X, XI):
        s = X ** 2 + XI ** 2 - support_r2
        return np.where(s > 0, s, 0.0) ** 3 * strength

    D = dissipative_build(q, damping, grid, h)
    x = grid.points_1d()
    u = hermite_functions(1, x, h)[0].astype(complex)
    shift = float(np.real(np.vdot(u, D.W.matrix @ u) / np.vdot(u, u)))
    return quasimode_spectrum_proximity(D, u, h + shift)


# ---------------------------------------------------------------------------
# checks: each runs its experiment once and returns pass/fail rows, and
# declares every bound it applies; the suites and tests/test_acceptance.py
# both take their rows from _CHECKS

def _row(name, measured, expected, ok):
    return {"name": name, "measured": str(measured), "expected": str(expected),
            "ok": bool(ok)}


def _spectrum():
    err = rotated_oscillator_spectrum()
    return [_row("rotated-oscillator spectrum (2k+1)h + 1/4",
                 f"{err:.2e}", "err <= 1e-6", err <= 1e-6)]


def _blowup():
    # the ratio follows the WKB rate to O(h_max); the thousandfold drop
    # first holds past the predicted crossover h* = 0.0239
    p = parse_symbol(ROTATED, 1)
    z, h_list = 2.0 + 1.0j, [0.1, 0.07, 0.05, 0.035, 0.025]
    fit, samples = resolvent_decay_experiment(p, z, h_list)
    ratio = samples[-1][1] / samples[0][1]
    wkb = rotated_oscillator_blowup_ratio(h_list[0], h_list[-1], z)
    drop = resolvent_norm(weyl_quantize_poly(p, HermiteBasis(200), 0.02), z,
                          method="svd") / samples[0][1]
    wkb_drop = rotated_oscillator_blowup_ratio(h_list[0], 0.02, z)
    return [_row("resolvent blow-up at z=2+i (exp fit)",
                 f"rate={fit.exponent:.3f}, R2={fit.r_squared:.3f}",
                 "rate > 0, R2 >= 0.9",
                 fit.exponent > 0 and fit.r_squared >= 0.9),
            _row("blow-up ratio sigma(0.025)/sigma(0.1) vs WKB",
                 f"{ratio:.2e} (WKB {wkb:.2e})", "WKB to rel 0.1",
                 abs(ratio / wkb - 1.0) <= h_list[0]),
            _row("thousandfold drop sigma(0.02)/sigma(0.1)",
                 f"{drop:.2e} (WKB {wkb_drop:.2e})", "<= 1e-3", drop <= 1e-3)]


def _subelliptic():
    rows = []
    for k, h_list, tol in ((2, [0.1, 0.05, 0.025, 0.0125, 0.00625], 0.05),
                           (4, [0.04, 0.02, 0.01, 0.005], 0.08)):
        fit, _ = subelliptic_experiment(k, h_list)
        target = k / (k + 1)
        ok = (abs(fit.exponent - target) <= tol and fit.r_squared >= 0.98
              and max(h_list) / min(h_list) >= 8)
        rows.append(_row(f"subelliptic exponent k={k}",
                         f"{fit.exponent:.4f} (R2={fit.r_squared:.4f})",
                         f"{target:.4f} +- {tol}, R2 >= 0.98, span >= 8", ok))
    return rows


def _level_set():
    ls = solve_level_set(parse_symbol(RATIONAL_SECTION3, 1), 0.0,
                         [(-3, 3), (-3, 3)], 15)
    pts = np.sort(ls.solutions[:, 1])
    ok = (len(ls) == 2
          and np.allclose(ls.solutions[:, 0], 0.0, atol=1e-8)
          and np.allclose(pts, [-1.0, 1.0], atol=1e-8))
    return [_row("rational level set p^{-1}(0)",
                 f"{len(ls)} roots", "{(0,1),(0,-1)} to 1e-8", ok)]


def _rational_exponent():
    fit, _ = rational_resolvent_experiment()
    return [_row("rational symbol resolvent exponent", f"{fit.exponent:.4f}",
                 "0.667 +- 0.1", abs(fit.exponent - 2.0 / 3.0) <= 0.1)]


def _residual_slopes():
    # the N=2 beam is fit at delta = 0.3: at 0.5 its phase turns negative
    # in the cutoff ramp (worst margin -0.048), and the row requires the
    # beam's own phase-positivity check
    rot = parse_symbol(ROTATED, 1)
    f0, _ = residual_sweep(rot, [1, 1], 0, 0.5, [0.1, 0.07, 0.05, 0.035, 0.025])
    f2, r2 = residual_sweep(rot, [1, 1], 2, 0.3, [0.02, 0.014, 0.01, 0.007, 0.005])
    phase_ok = r2["phase_positivity"]["ok"]
    fm, _ = residual_sweep(parse_symbol("xi1 - 1i*x1", 1), [0, 0], 0, 0.8,
                           [0.1, 0.07, 0.05, 0.035, 0.025],
                           model="exponential")
    return [_row("beam residual slope N=0", f"{f0.exponent:.3f}",
                 "[0.9, 1.5]", 0.9 <= f0.exponent <= 1.5),
            _row("beam residual slope N=2", f"{f2.exponent:.3f}, phase ok={phase_ok}",
                 ">= 2.7, phase ok=True", f2.exponent >= 2.7 and phase_ok),
            _row("model beam exponential rate", f"{fm.exponent:.3f}",
                 "> 0 with R2 >= 0.9", fm.exponent > 0 and fm.r_squared >= 0.9)]


def _beam_mass():
    qm = build_quasimode(parse_symbol(ROTATED, 1), [1.0, 1.0], 0, 0.5)
    m = localization_report(qm, 0.01)["masses_outside"][0.5]
    return [_row("beam FBI mass outside r=0.5 at h=0.01",
                 f"{m:.2e}", "< 0.01", m < 0.01)]


def _remark():
    p = parse_symbol(RATIONAL_REMARK, 1)
    s = sign_sum(p, 0.1, [(-3, 3), (-3, 3)], seeds_per_axis=30)
    iota, _ = winding_number(p, 0.1, 10.0)
    return [_row("remark symbol: sign sum and winding at z=0.1",
                 f"sum={s}, iota={iota}", "2 and 2", s == 2 and iota == 2)]


def _wick_positivity(count=10):
    worst = wick_positivity_experiment(count=count)
    return [_row(f"Wick positivity ({count} draws)", f"{worst:.1e}",
                 ">= -1e-10", worst >= -1e-10)]


def _davies():
    max_im, oracle = davies_experiment()
    return [_row("Davies spectrum: dissipative + tensor oracle",
                 f"Im<={max_im:.1e}, err={oracle:.1e}",
                 "Im <= 1e-8, err <= 1e-5", max_im <= 1e-8 and oracle <= 1e-5)]


def _conjugation():
    defect, rep = conjugation_identity_experiment()
    moved, bound = rep.spectrum_displacement, 1e-6 * rep.cond
    return [_row("conjugation identity interior defect",
                 f"{defect:.2e}", "<= 1e-6", defect <= 1e-6),
            _row("conjugation spectrum displacement", f"{moved:.1e}",
                 f"<= 1e-6 cond(E) = {bound:.1e}", moved <= bound)]


def _hermitian():
    op = weyl_quantize_poly(parse_symbol("x1^2+xi1^2", 1), HermiteBasis(64), 0.1)
    d = op.hermiticity_defect()
    return [_row("real symbol Hermitian", f"{d:.1e}", "<= 1e-12", d <= 1e-12)]


def _moyal_commutator():
    x = parse_symbol("x1", 1).to_poly()
    xi = parse_symbol("xi1", 1).to_poly()
    comm = moyal_product(x, xi, 0.25) - moyal_product(xi, x, 0.25)
    c = comm.coeffs.get((0, 0), 0.0)
    return [_row("Moyal commutator x#xi - xi#x", f"{c}", "i h = 0.25i",
                 abs(c - 0.25j) < 1e-14)]


def _determinism():
    op = weyl_quantize_poly(parse_symbol(ROTATED, 1), HermiteBasis(60), 0.1)
    g1 = pseudospectrum_grid(op, (0.0, 1.0, -0.4, 0.4), (12, 10), threads=1)
    g8 = pseudospectrum_grid(op, (0.0, 1.0, -0.4, 0.4), (12, 10), threads=8)
    same = g1.sigma.tobytes() == g8.sigma.tobytes()
    return [_row("grid determinism across threads",
                 "identical" if same else "DIFFERS", "byte-identical", same)]


# key -> (acceptance criterion, or None for a suite-only check; check)
_CHECKS = {
    "spectrum": (1, _spectrum),
    "blow-up": (2, _blowup),
    "subelliptic": (4, _subelliptic),
    "level-set": (5, _level_set),
    "rational-exponent": (5, _rational_exponent),
    "residual-slopes": (6, _residual_slopes),
    "beam-mass": (7, _beam_mass),
    "remark": (8, _remark),
    "wick-positivity": (10, _wick_positivity),
    "davies": (10, _davies),
    "conjugation": (11, _conjugation),
    "hermitian": (None, _hermitian),
    "moyal-commutator": (None, _moyal_commutator),
    "determinism": (None, _determinism),
}

_SUITES = {
    "paper-examples": ("spectrum", "level-set", "remark", "conjugation",
                       "davies"),
    "invariants": ("hermitian", "moyal-commutator", "wick-positivity",
                   "determinism", "beam-mass"),
    "scaling-laws": ("subelliptic", "blow-up", "rational-exponent",
                     "residual-slopes"),
}


def run_reproduction_suite(name):
    if name not in _SUITES:
        raise ValueError(f"unknown suite '{name}' (choose from {sorted(_SUITES)})")
    rows = [row for key in _SUITES[name] for row in _CHECKS[key][1]()]
    return rows, all(r["ok"] for r in rows)
