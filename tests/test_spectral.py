import numpy as np
import pytest

from pspeclab import spectral
from pspeclab.errors import ConvergenceError, PspecError
from pspeclab.quantize import HermiteBasis, OperatorMatrix, weyl_quantize_poly
from pspeclab.spectral import (
    contour_extract,
    eigendecompose,
    pseudospectrum_grid,
    resolvent_norm,
    ResolventGrid,
    scaling_fit,
)
from pspeclab.symbols import parse_symbol

ROT = parse_symbol("xi1^2 + xi1*1i + x1^2", 1)
OSC = parse_symbol("xi1^2 + x1^2", 1)


def _raw_operator(mat, h=0.1):
    return OperatorMatrix(np.asarray(mat, dtype=complex), h, basis=None,
                          provenance="raw")


def test_harmonic_oscillator_all_accepted():
    op = weyl_quantize_poly(OSC, HermiteBasis(48), h=0.1)
    rep = eigendecompose(op)
    # interior eigenvalues h(2k+1) all accepted except modes hugging the
    # truncation edge
    acc = rep.accepted_eigenvalues
    expect = 0.1 * (2 * np.arange(30) + 1)
    for e in expect:
        assert np.abs(acc - e).min() < 1e-8


def test_rotated_oscillator_accepted_spectrum():
    op = weyl_quantize_poly(ROT, HermiteBasis(200), h=0.05)
    rep = eigendecompose(op)
    acc = rep.accepted_eigenvalues
    assert acc.size >= 10
    # the 10 lowest are conditioned well enough for 1e-6; higher modes
    # carry eigenvalue condition numbers ~ e^{c k / h} and drift
    expect = (2 * np.arange(10) + 1) * 0.05 + 0.25
    low_full = acc[np.argsort(acc.real)][:10]
    assert np.allclose(low_full.real, expect, atol=1e-6)
    assert np.abs(low_full.imag).max() < 1e-6


def test_similarity_invariance_raw_matrix():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    S = np.eye(50) + 0.1 * rng.standard_normal((50, 50))
    B = np.linalg.solve(S, A @ S)
    ra = eigendecompose(_raw_operator(A))
    rb = eigendecompose(_raw_operator(B))
    la = np.sort_complex(ra.accepted_eigenvalues)
    lb = np.sort_complex(rb.accepted_eigenvalues)
    assert la.size == lb.size == 50
    assert np.abs(la - lb).max() < 1e-8 * np.abs(la).max()


def test_resolvent_norm_hermitian_distance():
    op = weyl_quantize_poly(OSC, HermiteBasis(64), h=0.1)
    lam = 0.1 * (2 * np.arange(64) + 1)
    for z in (0.35 + 0.2j, 1.0 + 0.0j, -0.5 + 0.1j):
        smin = resolvent_norm(op, z, method="svd")
        dist = np.abs(lam - z).min()
        assert smin == pytest.approx(dist, abs=1e-10)


@pytest.mark.parametrize("method", ["auto", "schur", "lu"])
def test_fast_path_matches_svd_random(method):
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = 40
        A = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
        op = _raw_operator(A)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s1 = resolvent_norm(op, z, method="svd")
        s2 = resolvent_norm(op, z, method=method)
        assert abs(s1 - s2) <= 1e-8 * max(s1, 1e-12)


def test_resolvent_norm_at_an_eigenvalue():
    # z = 0.3 = 3h is an eigenvalue: the solves hit a zero pivot
    op = weyl_quantize_poly(OSC, HermiteBasis(64), h=0.1)
    ref = resolvent_norm(op, 0.3, method="svd")
    assert resolvent_norm(op, 0.3, method="lu") == ref
    assert resolvent_norm(op, 0.3, method="auto") == ref
    with pytest.raises(ConvergenceError):
        resolvent_norm(op, 0.3, method="schur")


@pytest.mark.parametrize("shifts_per_block", [None, 7])
def test_grid_nodes_match_single_shift(monkeypatch, shifts_per_block):
    # near this corner inverse iteration stalls at some nodes and not at
    # others, so converged and fallback shifts share a block
    op = weyl_quantize_poly(ROT, HermiteBasis(60), h=0.05)
    if shifts_per_block:
        monkeypatch.setattr(spectral, "_SHIFT_ENTRIES", 60 * shifts_per_block)
    grid = pseudospectrum_grid(op, (-0.6, -0.4, -1.1, -0.9), (5, 5))
    assert 0 < grid.timing["svd_fallbacks"] < grid.sigma.size
    for z, sigma in zip(grid.node_values().ravel(), grid.sigma.ravel()):
        ref = max(resolvent_norm(op, z, method="auto"), grid.floor)
        assert sigma == pytest.approx(ref, rel=1e-12)


def _fourier_collocation(h, N=512, L=8.0):
    """-h^2 d^2/dx^2 + h d/dx + x^2 on the periodic grid [-L, L)."""
    x = -L + 2 * L * np.arange(N) / N
    k = 2 * np.pi * np.fft.fftfreq(N, 2 * L / N)
    F = np.fft.fft(np.eye(N), axis=0)
    D = np.fft.ifft((h * h * k * k + 1j * h * k)[:, None] * F, axis=0)
    return D + np.diag(x * x)


@pytest.mark.parametrize("h", [0.1, 0.025])
def test_rotated_oscillator_sigma_min_matches_fourier_collocation(h):
    # an independent discretisation of the same operator: the Hermite
    # path's sigma_min at z = 2+i is the operator's, not the basis's
    z = 2.0 + 1.0j
    sigma = resolvent_norm(weyl_quantize_poly(ROT, HermiteBasis(200), h), z,
                           method="svd")
    A = _fourier_collocation(h)
    ref = np.linalg.svd(A - z * np.eye(A.shape[0]), compute_uv=False)[-1]
    assert sigma == pytest.approx(ref, rel=1e-8)


def test_far_field_lower_bound():
    op = weyl_quantize_poly(ROT, HermiteBasis(80), h=0.1)
    z = 1.0 + 10.0j
    smin = resolvent_norm(op, z, method="svd")
    # sup |Im p| on the spectral window is about 1; far z gives smin >= Im z - sup
    assert smin >= 10.0 - 1.5


def test_pseudospectrum_grid_contract():
    op = weyl_quantize_poly(ROT, HermiteBasis(120), h=0.08)
    grid = pseudospectrum_grid(op, (-0.2, 1.4, -0.6, 0.6), (25, 19))
    rep = eigendecompose(op)
    Z = grid.node_values()
    # sigma_min never exceeds the distance to the accepted spectrum
    for i in range(Z.shape[0]):
        for j in range(Z.shape[1]):
            dist = rep.distance(Z[i, j])
            assert grid.sigma[i, j] <= dist + rep.residual_tol * rep.norm + 1e-9


def test_grid_threads_bitwise_identical():
    op = weyl_quantize_poly(ROT, HermiteBasis(60), h=0.1)
    g1 = pseudospectrum_grid(op, (0.0, 1.0, -0.4, 0.4), (12, 10), threads=1)
    g8 = pseudospectrum_grid(op, (0.0, 1.0, -0.4, 0.4), (12, 10), threads=8)
    assert g1.sigma.tobytes() == g8.sigma.tobytes()


def test_grid_fast_vs_svd_path():
    op = weyl_quantize_poly(ROT, HermiteBasis(60), h=0.1)
    rect, shape = (0.0, 1.0, -0.4, 0.4), (9, 7)
    fast = pseudospectrum_grid(op, rect, shape)
    slow = pseudospectrum_grid(op, rect, shape, force_svd=True)
    rel = np.abs(fast.sigma - slow.sigma) / np.maximum(slow.sigma, slow.floor)
    assert rel.max() < 1e-7


def test_hermitian_grid_equals_distance_field():
    op = weyl_quantize_poly(OSC, HermiteBasis(64), h=0.2)
    lam = 0.2 * (2 * np.arange(64) + 1)
    grid = pseudospectrum_grid(op, (0.1, 1.5, -0.5, 0.5), (15, 11))
    Z = grid.node_values()
    dist = np.abs(Z[..., None] - lam).min(axis=-1)
    assert np.abs(grid.sigma - dist).max() < 1e-8


def test_scaling_fit_exact_power():
    hs = [0.1, 0.05, 0.025, 0.0125, 0.00625]
    fit = scaling_fit([(h, 3.0 * h ** (2 / 3)) for h in hs], "power")
    assert fit.exponent == pytest.approx(2 / 3, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-10)


def test_scaling_fit_exponential():
    hs = [0.1, 0.05, 0.025, 0.0125]
    fit = scaling_fit([(h, 2.0 * np.exp(-0.3 / h)) for h in hs], "exponential")
    assert fit.exponent == pytest.approx(0.3, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_scaling_fit_guards():
    with pytest.raises(PspecError):
        scaling_fit([(0.1, 1.0), (0.09, 1.0), (0.08, 1.0), (0.07, 1.0)], "power")
    fit = scaling_fit([(0.1, 1.0), (0.05, 0.5), (0.025, 0.25),
                       (0.0125, 0.125), (0.00625, -1.0)], "power")
    assert len(fit.excluded) == 1
    with pytest.raises(PspecError):
        fit.predict(1.0)


def test_contour_circle_field():
    re = np.linspace(-2, 2, 161)
    im = np.linspace(-2, 2, 161)
    Z = re[:, None] + 1j * im[None, :]
    grid = ResolventGrid(re, im, np.abs(Z), np.zeros_like(np.abs(Z), dtype=bool),
                         h=0.1, floor=0.0)
    lines = contour_extract(grid, [1.0])[1.0]
    pts = np.concatenate([pl.points for pl in lines])
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert np.abs(radii - 1.0).max() < 0.01
    assert any(pl.closed for pl in lines)


def test_contour_monotone_containment():
    op = weyl_quantize_poly(ROT, HermiteBasis(80), h=0.1)
    grid = pseudospectrum_grid(op, (-0.1, 1.2, -0.5, 0.5), (41, 31))
    big = grid.sigma <= 1e-1
    small = grid.sigma <= 1e-2
    assert np.all(big | ~small)  # eps2 region inside eps1 region
    lines = contour_extract(grid, [1e-1, 1e-2])
    assert len(lines[1e-1]) >= 1


def test_contour_outside_range_empty():
    re = np.linspace(0, 1, 11)
    im = np.linspace(0, 1, 11)
    field = np.full((11, 11), 0.5)
    grid = ResolventGrid(re, im, field, np.zeros_like(field, dtype=bool), 0.1, 0.0)
    assert contour_extract(grid, [2.0])[2.0] == []


def test_pseudospectrum_portrait_qualitative():
    # qualitative content of the resolvent-growth and exclusion results:
    # outside the parabola Re z >= (Im z)^2 the resolvent stays tame,
    # well inside it blows up despite the distant spectrum
    op = weyl_quantize_poly(ROT, HermiteBasis(200), h=0.05)
    grid = pseudospectrum_grid(op, (-0.5, 2.0, -1.0, 1.0), (41, 31))
    rep = eigendecompose(op)
    Z = grid.node_values()
    outside = Z.real < Z.imag ** 2 - 0.1
    assert grid.sigma[outside].min() >= 0.05
    inside_deep = (Z.real > Z.imag ** 2 + 0.4)
    dist = np.abs(Z[..., None] - rep.accepted_eigenvalues).min(axis=-1)
    probe = inside_deep & (dist >= 0.1)
    assert probe.any()
    assert grid.sigma[probe].min() <= 1e-6


def test_contour_encloses_spectrum():
    op = weyl_quantize_poly(ROT, HermiteBasis(200), h=0.05)
    grid = pseudospectrum_grid(op, (-0.1, 1.6, -0.6, 0.6), (81, 61))
    rep = eigendecompose(op)
    lines = contour_extract(grid, [1e-4])[1e-4]
    assert lines
    # every accepted eigenvalue inside the rectangle sits in the
    # sub-level region bounded by the eps-contour
    Z = grid.node_values()
    for lam in rep.accepted_eigenvalues:
        if not (-0.1 < lam.real < 1.6 and -0.6 < lam.imag < 0.6):
            continue
        node = np.unravel_index(np.abs(Z - lam).argmin(), Z.shape)
        assert grid.sigma[node] < 1e-4
