import tracemalloc

import numpy as np
import pytest

from pspeclab import quasimodes
from pspeclab.brackets import poisson_bracket
from pspeclab.errors import GridResolutionError, PspecError
from pspeclab.quantize import (
    FourierGrid,
    HermiteBasis,
    hermite_functions,
    weyl_quantize_grid,
    weyl_quantize_poly,
)
from pspeclab.quasimodes import (
    _grid_for_beam,
    _one_residual,
    build_quasimode,
    hessian_construct,
    localization_report,
    plateau_cutoff,
    residual_sweep,
)
from pspeclab.spectral import scaling_fit
from pspeclab.symbols import parse_symbol

ROT = parse_symbol("xi1^2 + xi1*1i + x1^2", 1)
ROT_CONJ = parse_symbol("xi1^2 - xi1*1i + x1^2", 1)
MODEL = parse_symbol("xi1 - 1i*x1", 1)
CRITERION_6_H = [0.1, 0.07, 0.05, 0.035, 0.025]


def test_cutoff_shape():
    assert plateau_cutoff(np.array([0.0, 0.3, 0.5]), 0.5).tolist() == [1, 1, 1]
    vals = plateau_cutoff(np.array([0.75, 1.0, 1.2]), 0.5)
    assert 0 < vals[0] < 1
    assert vals[1] == 0.0 and vals[2] == 0.0


def test_hessian_rotated_oscillator():
    A = hessian_construct(ROT, [1.0, 1.0])
    assert A[0, 0] == pytest.approx((-4 + 2j) / 5)
    assert A[0, 0].imag == pytest.approx(0.4)


def test_hessian_model():
    A = hessian_construct(MODEL, [0.0, 0.0])
    assert A[0, 0] == pytest.approx(1j)


def test_hessian_identity_at_random_admissible_points():
    # 1-D identity: Im A = -{Re p, Im p} / |p_xi|^2
    rng = np.random.default_rng(4)
    re = parse_symbol("xi1^2 + x1^2", 1)
    im = parse_symbol("xi1", 1)
    count = 0
    while count < 30:
        w = rng.uniform(-2, 2, size=2)
        brk = poisson_bracket(re, im, w).real
        if brk >= -1e-3:
            continue
        A = hessian_construct(ROT, w)
        jet_xi = 2 * w[1] + 1j
        expect = -brk / abs(jet_xi) ** 2
        assert A[0, 0].imag == pytest.approx(expect, rel=1e-10)
        count += 1


def test_hessian_rejects_positive_bracket():
    with pytest.raises(PspecError, match="not negative"):
        hessian_construct(ROT, [-1.0, 1.0])
    # the conjugate symbol at the reflected point is admissible instead
    A = hessian_construct(ROT_CONJ, [-1.0, -1.0])
    assert A[0, 0].imag > 0


def test_hessian_n2_davies_point():
    p = parse_symbol("xi1^2+xi2^2+x1^2-1i*x2^2", 2)
    w0 = [0.5, 1.0, 0.5, 1.0]
    A = hessian_construct(p, w0)
    assert np.allclose(A, A.T)
    gamma = np.linalg.eigvalsh((A - A.conj().T) / 2j).min()
    assert gamma > 0
    # first-order eikonal constraint A grad_xi = -grad_x
    grad_xi = np.array([1.0, 2.0])
    grad_x = np.array([1.0, -2.0j])
    assert np.linalg.norm(A @ grad_xi + grad_x) < 1e-9


def test_model_beam_exact_phase():
    qm = build_quasimode(MODEL, [0.0, 0.0], 0, 0.8)
    assert qm.z == 0
    assert qm.phase[2] == pytest.approx(0.5j)
    assert np.allclose(qm.phase[:2], 0)
    assert qm.records["phase_positivity"]["ok"]


def test_model_residual_is_cutoff_only():
    hs = [0.1, 0.07, 0.05, 0.035, 0.025]
    fit, rec = residual_sweep(MODEL, [0, 0], 0, 0.8, hs, model="exponential")
    assert fit.exponent > 0
    assert fit.r_squared >= 0.9


def test_rotated_beam_order0_slope():
    hs = [0.1, 0.07, 0.05, 0.035, 0.025]
    fit, _ = residual_sweep(ROT, [1, 1], 0, 0.5, hs)
    assert 0.9 <= fit.exponent <= 1.5


@pytest.mark.parametrize("N, delta, ok", [(3, 0.5, False), (2, 0.5, False),
                                         (2, 0.3, True), (1, 0.5, True)])
def test_residual_sweep_reports_the_phase_positivity_check(N, delta, ok):
    # at delta = 0.5 the order-2 and order-3 phases turn negative in the
    # cutoff ramp (worst margins -0.048 and -0.133); the sweep says so
    hs = [0.02, 0.014, 0.01, 0.007, 0.005]
    _, rec = residual_sweep(ROT, [1, 1], N, delta, hs)
    check = rec["phase_positivity"]
    assert check is rec["quasimode"].records["phase_positivity"]
    assert check["ok"] is ok and (check["worst_margin"] >= 0) is ok
    if N == 3:
        assert check["worst_margin"] == pytest.approx(-0.1326, abs=1e-4)


def test_rotated_beam_slopes_monotone_in_order():
    # at delta = 0.3 every beam passes its own phase-positivity check (at
    # 0.5 the N=2 phase turns negative in the cutoff ramp)
    hs = [0.05, 0.035, 0.025, 0.018, 0.0125]
    slopes = []
    for N in (0, 1, 2):
        fit, rec = residual_sweep(ROT, [1, 1], N, 0.3, hs)
        assert rec["phase_positivity"]["ok"], N
        slopes.append(fit.exponent)
    assert slopes[0] <= slopes[1] <= slopes[2]
    assert slopes[1] >= 1.8   # transport solved at order 1


@pytest.mark.parametrize("p, w0, N, delta, hs, model", [
    (ROT, [1, 1], 0, 0.5, CRITERION_6_H, "power"),
    (ROT, [1, 1], 2, 0.5, [0.02, 0.014, 0.01, 0.007, 0.005], "power"),
    (MODEL, [0, 0], 0, 0.8, CRITERION_6_H, "exponential"),
    (ROT, [1, 1], 1, 0.5, [0.05, 0.035, 0.025, 0.018, 0.0125], "power"),
], ids=["criterion6-N0", "criterion6-N2", "criterion6-model", "slopes-N1"])
def test_matrix_free_residuals_match_the_dense_grid(p, w0, N, delta, hs, model):
    # the grid path applies a polynomial symbol matrix-free; the dense
    # grid matrix is the reference, on the sweep's grid and on the half
    # grid of refine_check
    qm = build_quasimode(p, w0, N, delta)
    free, dense = [], []
    for h in hs:
        grid = _grid_for_beam(qm, h)
        for g in (grid, FourierGrid(grid.L, max(64, grid.M // 2), 1)):
            r, nrm = _one_residual(p, qm, h, g, "grid")
            u = qm.sample(g.points_1d(), h)
            P = weyl_quantize_grid(p, g, h, xi_limit="auto", tail_frac_tol=1.0)
            ref = np.linalg.norm(P.matrix @ u - qm.z * u) / nrm
            assert abs(r - ref) <= 1e-10 * ref + 1e-14, (h, g.M, r, ref)
            if g is grid:
                free.append((h, r))
                dense.append((h, ref))
    assert scaling_fit(free, model).exponent == pytest.approx(
        scaling_fit(dense, model).exponent, rel=0, abs=1e-9)


def test_refine_check_passes_on_the_rotated_sweep():
    fit, _ = residual_sweep(ROT, [1, 1], 0, 0.5, CRITERION_6_H,
                            refine_check=True)
    assert 0.9 <= fit.exponent <= 1.5


def test_refine_check_rejects_an_under_resolved_beam():
    # two points per beam width: the full and half grids disagree by
    # more than 10% at h = 0.07 (2.405e-01 vs 2.846e-01)
    with pytest.raises(GridResolutionError, match="h=0.07"):
        residual_sweep(ROT, [1, 1], 0, 0.5, CRITERION_6_H,
                       points_per_width=2, refine_check=True)


def test_hermite_and_grid_paths_agree():
    fg, rg = residual_sweep(ROT, [1, 1], 0, 0.5, CRITERION_6_H, path="grid")
    fh, rh = residual_sweep(ROT, [1, 1], 0, 0.5, CRITERION_6_H, path="hermite")
    for g, hm in zip(rg["sweep"], rh["sweep"]):
        assert hm["residual"] == pytest.approx(g["residual"], rel=1e-3)
    assert fh.exponent == pytest.approx(fg.exponent, rel=0, abs=1e-3)


def test_hermite_residual_samples_the_beam_support_in_blocks():
    # at h = 1e-3 the rotated beam lies on an M = 8192 grid, where a full
    # table of the 800 Hermite functions takes 50 MiB; blocks on the
    # cutoff support keep the peak near the 10 MiB M = 800 Hermite matrix
    qm = build_quasimode(ROT, [1, 1], 0, 0.5)
    h = 1e-3
    grid = _grid_for_beam(qm, h)
    assert grid.M == 8192
    _one_residual(ROT, qm, h, grid, "hermite")          # warm-up
    tracemalloc.start()
    try:
        r, _ = _one_residual(ROT, qm, h, grid, "hermite")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak
    # the whole-grid table, real and imaginary parts apart
    x = grid.points_1d()
    u = qm.sample(x, h)
    funcs = hermite_functions(800, x, h)
    coeffs = (funcs @ u.real + 1j * (funcs @ u.imag)) * grid.dx
    P = weyl_quantize_poly(ROT, HermiteBasis(800), h).matrix
    ref = np.linalg.norm(P @ coeffs - qm.z * coeffs) / np.linalg.norm(coeffs)
    assert r == pytest.approx(ref, rel=1e-12, abs=0)


def test_non_polynomial_beam_takes_the_dense_grid_path(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[2])
        return weyl_quantize_grid(*args, **kwargs)
    monkeypatch.setattr(quasimodes, "weyl_quantize_grid", spy)
    p = parse_symbol("xi1^2+xi1*1i+x1^2/(1+0.01*x1^2)", 1)
    fit, _ = residual_sweep(p, [1, 1], 0, 0.5, CRITERION_6_H)
    assert calls == CRITERION_6_H
    assert fit.exponent == pytest.approx(0.9805, abs=1e-3)
    # a polynomial symbol builds no dense matrix
    residual_sweep(ROT, [1, 1], 0, 0.5, CRITERION_6_H)
    assert calls == CRITERION_6_H


def test_eikonal_defect_scaling():
    qm = build_quasimode(ROT, [1.0, 1.0], 2, 0.5)
    rho = np.array([0.05, 0.1, 0.2])
    d = qm.eikonal_defect(ROT, rho)
    slopes = np.diff(np.log(d)) / np.diff(np.log(rho))
    # phase degree 2(N+1) kills the eikonal through u^5: local slope 6
    assert np.all(np.abs(slopes - 6.0) < 0.5)
    qm0 = build_quasimode(ROT, [1.0, 1.0], 0, 0.5)
    d0 = qm0.eikonal_defect(ROT, rho)
    s0 = np.diff(np.log(d0)) / np.diff(np.log(rho))
    assert np.all(np.abs(s0 - 2.0) < 0.2)


def test_norm_concentrates_on_half_grid():
    from pspeclab.quantize import FourierGrid
    qm = build_quasimode(ROT, [1.0, 1.0], 0, 0.5)
    for h in (0.05, 0.02):
        full = FourierGrid(5.0, 2048)
        xf = full.points_1d()
        uf = qm.sample(xf, h)
        mask = np.abs(xf - 1.0) <= 2.5
        n_full = (np.abs(uf) ** 2).sum() * full.dx
        n_half = (np.abs(uf[mask]) ** 2).sum() * full.dx
        assert n_half == pytest.approx(n_full, rel=1e-6)


def test_localization_mass_decreases_in_h():
    qm = build_quasimode(ROT, [1.0, 1.0], 0, 0.5)
    masses = []
    for h in (0.1, 0.05, 0.02, 0.01):
        rep = localization_report(qm, h, radii=(0.5,))
        masses.append(rep["masses_outside"][0.5])
    assert all(a >= b for a, b in zip(masses, masses[1:]))
    assert masses[-1] < 0.01


def test_coherent_state_fbi_peak():
    # A = i gives the coherent state; FBI peaks at w0 up to grid rounding
    qm = build_quasimode(MODEL, [0.0, 0.0], 0, 1.0)
    from pspeclab.quantize import FourierGrid, fbi_transform
    h = 0.02
    grid = FourierGrid(4.0, 1024)
    u = qm.sample(grid.points_1d(), h)
    xs = np.linspace(-0.5, 0.5, 41)
    field = fbi_transform(u, grid, h, xs, xs)
    idx = np.unravel_index(np.abs(field.values).argmax(), field.values.shape)
    assert abs(xs[idx[0]]) <= 0.026
    assert abs(xs[idx[1]]) <= 0.026


def test_n2_beam_order_restriction():
    p = parse_symbol("xi1^2+xi2^2+x1^2-1i*x2^2", 2)
    w0 = [0.5, 1.0, 0.5, 1.0]
    qm = build_quasimode(p, w0, 0, 0.4)
    assert qm.n == 2
    pts = np.stack(np.meshgrid(np.linspace(0, 1, 9), np.linspace(0.5, 1.5, 9),
                               indexing="ij"), axis=-1).reshape(-1, 2)
    # sample on a plane through x0 to confirm decay away from the center
    vals = qm.sample(np.concatenate([pts], axis=1), 0.05)
    assert np.isfinite(vals).all()
    with pytest.raises(PspecError):
        build_quasimode(p, w0, 1, 0.4)


def test_subprincipal_hook_changes_amplitude():
    qm0 = build_quasimode(ROT, [1.0, 1.0], 1, 0.5)
    qm1 = build_quasimode(ROT, [1.0, 1.0], 1, 0.5,
                          subprincipal=parse_symbol("x1", 1))
    assert not np.allclose(qm0.amplitudes[0], qm1.amplitudes[0])
    assert np.allclose(qm0.phase, qm1.phase)


@pytest.mark.parametrize("p1, N, delta, hs, slope", [
    ("0.3", 2, 0.5, [0.02, 0.014, 0.01, 0.007, 0.005], 2.7),
    ("0.3i", 2, 0.5, [0.02, 0.014, 0.01, 0.007, 0.005], 2.7),
    # p1 depends on xi, so its Weyl terms T_m (m >= 1) enter the transport
    # right-hand sides; at delta = 0.4 the order-4 phase stays positive
    ("3*xi1", 4, 0.4, [0.01, 0.007, 0.005, 0.0035, 0.0025], 5.0),
], ids=["real-constant", "imaginary-constant", "xi-dependent"])
def test_subprincipal_terms_keep_the_residual_order(p1, N, delta, hs, slope):
    # the beam for Op^w(p + h p1), against that operator: with p1 in the
    # transport hierarchy the residual keeps its order in h; without it
    # the O(h) term h p1 u is left over and the slope falls to about 1
    sub = parse_symbol(p1, 1)
    slopes = []
    for hook in (sub, None):
        qm = build_quasimode(ROT, [1.0, 1.0], N, delta, subprincipal=hook)
        samples = []
        for h in hs:
            grid = _grid_for_beam(qm, h)
            u = qm.sample(grid.points_1d(), h)
            r = (grid.apply_weyl(ROT, h, u) + h * grid.apply_weyl(sub, h, u)
                 - qm.z * u)
            samples.append((h, np.linalg.norm(r) / np.linalg.norm(u)))
        slopes.append(scaling_fit(samples, "power").exponent)
    assert slopes[0] >= slope
    assert slopes[1] <= 1.6


def test_condition_psi_violating_point_reports_failure():
    # xi - i x^3 (odd power): the bracket -3x^2 vanishes at the origin,
    # so the standard builder reports the designated error there and
    # works at nearby admissible points
    p = parse_symbol("xi1 - 1i*x1^3", 1)
    with pytest.raises(PspecError, match="not negative"):
        build_quasimode(p, [0.0, 0.0], 0, 0.5)
    qm = build_quasimode(p, [0.5, 0.125], 0, 0.3)
    assert qm.gamma_A > 0
