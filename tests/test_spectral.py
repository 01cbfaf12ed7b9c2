import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from pspeclab import _blas, repro, spectral
from pspeclab.errors import ConvergenceError, PspecError
from pspeclab.quantize import (
    FourierGrid,
    HermiteBasis,
    OperatorMatrix,
    weyl_quantize_grid,
    weyl_quantize_poly,
)
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


def test_auto_is_the_lu_path_for_one_shift():
    op = weyl_quantize_poly(ROT, HermiteBasis(200), h=0.05)
    auto = resolvent_norm(op, 2.0 + 1.0j, method="auto")
    assert auto == resolvent_norm(op, 2.0 + 1.0j, method="lu")
    assert auto == pytest.approx(resolvent_norm(op, 2.0 + 1.0j, method="svd"),
                                 rel=1e-10)


def test_resolvent_norm_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="'svd', 'auto', 'lu' or 'schur'"):
        resolvent_norm(np.diag([1.0, 2.0, 3.0]) + 0j, 0.5, method="svds")


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
    # the nodes 0.3 and 0.7 are eigenvalues of the diagonal oscillator
    # matrix: their solves are non-finite and fall back to the SVD, while
    # the other shifts of their blocks converge
    op = weyl_quantize_poly(OSC, HermiteBasis(64), h=0.1)
    if shifts_per_block:
        monkeypatch.setattr(spectral, "_SHIFT_ENTRIES", 64 * shifts_per_block)
    grid = pseudospectrum_grid(op, (0.3, 0.7, -0.2, 0.2), (5, 5))
    assert grid.timing["factor"] == "tridiagonal"     # diagonal, in fact
    assert grid.timing["svd_fallbacks"] == 2
    for z, sigma in zip(grid.node_values().ravel(), grid.sigma.ravel()):
        # one shift on the Schur path, or the SVD where that fails
        try:
            ref = resolvent_norm(op, z, method="schur")
        except ConvergenceError:
            ref = resolvent_norm(op, z, method="svd")
        assert sigma == pytest.approx(max(ref, grid.floor), rel=1e-12)


def test_tridiagonal_grid_matches_the_schur_path(monkeypatch):
    # the rotated oscillator's Hermite matrix is exactly tridiagonal; its
    # stacked LU agrees with the Schur path node by node, in stacks of 5
    # shifts (compacted as shifts finish) as in one stack
    op = weyl_quantize_poly(ROT, HermiteBasis(60), h=0.1)
    assert spectral._tridiagonal_bands(op.matrix) is not None
    rect, shape = (0.0, 1.0, -0.4, 0.4), (9, 7)
    grid = pseudospectrum_grid(op, rect, shape)
    monkeypatch.setattr(spectral, "_STACK_ENTRIES", 60 * 5)
    small = pseudospectrum_grid(op, rect, shape)
    assert grid.timing["factor"] == small.timing["factor"] == "tridiagonal"
    assert grid.timing["svd_fallbacks"] == small.timing["svd_fallbacks"] == 0
    for z, a, b in zip(grid.node_values().ravel(), grid.sigma.ravel(),
                       small.sigma.ravel()):
        ref = max(resolvent_norm(op, z, method="schur"), grid.floor)
        assert a == pytest.approx(ref, rel=1e-12)
        assert b == pytest.approx(ref, rel=1e-12)
        if ref > grid.floor:
            assert resolvent_norm(op, z, method="lu") == pytest.approx(ref, rel=1e-12)


def test_tridiagonal_solves_are_the_dense_solves_and_leave_x_alone():
    # column j becomes (C^H C)^{-1} x_j, C = A - z_j, for the stacked
    # block and after it is compacted to one shift; X keeps its bytes
    A = weyl_quantize_poly(ROT, HermiteBasis(40), h=0.1).matrix
    zs = np.array([0.5 + 0.2j, 1.3 - 0.1j, 0.3 + 0.4j])
    kind, factor, _ = spectral._factor(A)
    assert kind == "tridiagonal"
    solve = factor(zs)
    rng = np.random.default_rng(3)
    for rows in (np.arange(3), np.array([0, 2]), np.array([2])):
        X = rng.standard_normal((40, rows.size)) + 1j * rng.standard_normal((40, rows.size))
        before = X.tobytes()
        Y = solve(X, rows)
        assert X.tobytes() == before and Y.flags.c_contiguous
        for j, r in enumerate(rows):
            C = A - zs[r] * np.eye(40)
            ref = np.linalg.solve(C, np.linalg.solve(C.conj().T, X[:, j]))
            assert np.abs(Y[:, j] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_schur_method_still_builds_the_schur_factor(monkeypatch):
    op = weyl_quantize_poly(ROT, HermiteBasis(40), h=0.1)
    calls = []

    def schur_T(A):
        calls.append(A.shape)
        return _schur_T(A)

    _schur_T = spectral._schur_T
    monkeypatch.setattr(spectral, "_schur_T", schur_T)
    resolvent_norm(op, 0.5 + 0.2j, method="lu")
    resolvent_norm(op, 0.5 + 0.2j, method="auto")
    pseudospectrum_grid(op, (0.0, 1.0, -0.4, 0.4), (4, 3))
    assert calls == []
    resolvent_norm(op, 0.5 + 0.2j, method="schur")
    assert calls == [(40, 40)]


def test_structure_test_is_exact():
    A = weyl_quantize_poly(ROT, HermiteBasis(30), h=0.1).matrix
    sub, diag, sup = spectral._tridiagonal_bands(A)
    assert np.array_equal(np.diag(sub, -1) + np.diag(diag) + np.diag(sup, 1), A)
    B = A.copy()
    B[0, 29] = 1e-300                  # one entry off the bands
    assert spectral._tridiagonal_bands(B) is None
    assert spectral._tridiagonal_bands(A[:2, :2]) is None   # below gttrf's order
    # a quartic symbol has bands at offsets 2 and 4: the Schur path
    quartic = weyl_quantize_poly(parse_symbol("xi1^2 + x1^4", 1), HermiteBasis(30), 0.1)
    assert spectral._tridiagonal_bands(quartic.matrix) is None


# sha256 of the grid's sigma bytes and the lu value at 0.45+0.1i on the
# Schur and dense LU paths, which operators that are not tridiagonal keep
_PINNED = {
    "complex grid": ("7139c7305ce5778e81d869db5dd4f8c97406f7b3123bcfe2af6b2e0f1782d8e9",
                     "0x1.12e986e37fdf0p-8"),
    "real quartic": ("989640431bc15fdfc6da28ea6d38bd04072d60ba54b9a8178e83e85ae88350fc",
                     "0x1.1437cb74bf319p-3"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_operators_off_the_tridiagonal_path_keep_their_bytes(name):
    if name == "complex grid":
        op = weyl_quantize_grid(ROT, FourierGrid(2.5, 64), 0.1, xi_limit=1.0,
                                tail_frac_tol=1.0)
    else:
        op = weyl_quantize_poly(parse_symbol("xi1^2 + x1^4", 1), HermiteBasis(60), 0.1)
    grid = pseudospectrum_grid(op, (0.0, 1.0, -0.4, 0.4), (9, 7))
    assert grid.timing["factor"] == "schur"
    digest = hashlib.sha256(grid.sigma.tobytes()).hexdigest()
    assert (digest, resolvent_norm(op, 0.45 + 0.1j, method="lu").hex()) == _PINNED[name]


def test_schur_solve_is_the_row_formula():
    # the row loop divides by the shift differences of a whole diagonal
    # block, in place; the bytes are those of the plain row formula
    A = weyl_quantize_poly(ROT, HermiteBasis(70), h=0.1).matrix
    rng = np.random.default_rng(5)
    zs = rng.uniform(-1, 2, 9) + 1j * rng.uniform(-1, 1, 9)
    X = rng.standard_normal((70, 9)) + 1j * rng.standard_normal((70, 9))
    T = spectral._schur_T(A)
    TH, d = np.ascontiguousarray(T.conj().T), np.diag(T)
    blocks = [(s, min(s + spectral._BLOCK, 70)) for s in range(0, 70, spectral._BLOCK)]
    ref = X.copy()
    for s, e in blocks:
        ref[s:e] -= TH[s:e, :s] @ ref[:s]
        for i in range(s, e):
            ref[i] = (ref[i] - TH[i, s:i] @ ref[s:i]) / np.conj(d[i] - zs)
    for s, e in reversed(blocks):
        ref[s:e] -= T[s:e, e:] @ ref[e:]
        for i in range(e - 1, s - 1, -1):
            ref[i] = (ref[i] - T[i, i + 1:e] @ ref[i + 1:e]) / (d[i] - zs)
    assert spectral._schur_solves(A)(X, zs).tobytes() == ref.tobytes()


def test_real_schur_factor_is_triangular_and_similar():
    # the rotated oscillator's Hermite matrix is exactly real: dgees's
    # quasi-triangular form, with each 2x2 block split by a rotation
    A = weyl_quantize_poly(ROT, HermiteBasis(200), h=0.05).matrix
    assert A.dtype == complex and not A.imag.any()
    T = spectral._schur_T(A)
    assert T.dtype == complex and np.array_equal(T, np.triu(T))
    assert np.linalg.norm(T) == pytest.approx(np.linalg.norm(A), rel=1e-14)
    a = np.array(A.real, order="F")
    gees = scipy.linalg.lapack.dgees
    lwork = int(gees(lambda wr, wi: None, a, compute_v=0, lwork=-1)[-2][0])
    _, _, wr, wi, _, _, info = gees(lambda wr, wi: None, a, compute_v=0,
                                    lwork=lwork)
    assert info == 0 and (wi > 0).sum() == 81
    # lambda_j = wr_j + i wi_j lands on T[j, j], conjugate pairs included
    # (position by position, so no sort has to pair them up)
    lam = wr + 1j * wi
    assert np.abs(np.diag(T) - lam).max() <= 1e-13 * np.linalg.norm(A, 2)


def test_complex_schur_factor_is_scipys():
    A = weyl_quantize_grid(ROT, FourierGrid(2.5, 64), 0.1, xi_limit=1.0,
                           tail_frac_tol=1.0).matrix
    assert A.imag.any()
    T = spectral._schur_T(A)
    assert T.tobytes() == scipy.linalg.schur(A, output="complex")[0].tobytes()


def test_real_grid_does_not_depend_on_the_storage_dtype():
    # the factor depends on the values only; the norm (and with it the
    # floor) comes from LAPACK per dtype, so both share the complex one
    op = weyl_quantize_poly(ROT, HermiteBasis(80), h=0.1)
    real = OperatorMatrix(op.matrix.real.copy(), op.h, op.basis,
                          meta={"norm2": op.norm()})
    rect, shape = (-0.5, 2.0, -1.0, 1.0), (9, 7)
    g_complex = pseudospectrum_grid(op, rect, shape)
    g_real = pseudospectrum_grid(real, rect, shape)
    assert g_real.sigma.tobytes() == g_complex.sigma.tobytes()
    assert g_real.floored.tobytes() == g_complex.floored.tobytes()
    # and it matches the SVD to 1e-12 relative, plus the 2 eps ||P||
    # that a backward-stable SVD of P - z may itself be off by
    svd = pseudospectrum_grid(real, rect, shape, force_svd=True)
    err = np.abs(g_real.sigma - svd.sigma)
    assert (err <= 1e-12 * svd.sigma + 2 * np.finfo(float).eps * op.norm()).all()
    assert g_real.timing["svd_fallbacks"] == 0


def test_shifted_copy_is_the_eye_formula():
    # one Fortran-ordered copy with its diagonal shifted in place holds
    # the bytes of A - z I, for complex and real matrices and shifts
    rng = np.random.default_rng(11)
    mats = [weyl_quantize_poly(ROT, HermiteBasis(70), h=0.1).matrix,
            rng.standard_normal((30, 30))]
    for A in mats:
        for z in (0.0, 1.5, -2.0, 2 + 1j, -1 + 1j, -0.5 - 0.3j, 0.3j, 1 - 1j):
            B = spectral._shifted(A, z)
            ref = A - z * np.eye(A.shape[0])
            assert B.flags.f_contiguous and B.dtype == ref.dtype
            assert np.ascontiguousarray(B).tobytes() == ref.tobytes(), z


@pytest.mark.parametrize("h", [0.1, 0.07])
def test_rational_symbol_sigma_min_splits_a_near_double_value(h):
    # s2 / s1 - 1 is 2.1e-6 at h = 0.1 (M = 206) and 1.8e-7 at h = 0.07
    # (M = 332), the construction of repro.rational_resolvent_experiment
    M = int(math.ceil(12.0 * h ** (-1.0 / 3.0) * 2.5 / (math.pi * h)))
    P = weyl_quantize_grid(parse_symbol(repro.RATIONAL_SECTION3, 1),
                           FourierGrid(2.5, M), h, xi_limit=1.0,
                           tail_frac_tol=1.0)
    ref = resolvent_norm(P, 0.0, method="svd")
    for method in ("lu", "auto", "schur"):
        assert resolvent_norm(P, 0.0, method=method) == pytest.approx(ref, rel=1e-10)


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
    # entry k counts the shifts that stopped after k + 1 Lanczos steps
    steps = grid.timing["sigma_steps"]
    assert sum(steps) == 25 * 19 and len(steps) <= spectral.SIGMA_MAX_ITER
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
    assert g1.timing["blas_threads"] == (1 if _blas._find_controls() else None)


_THREAD_GRIDS = """
import hashlib, json
from pspeclab import (HermiteBasis, parse_symbol, pseudospectrum_grid,
                      spectral, weyl_quantize_poly)
rot = parse_symbol("xi1^2 + xi1*1i + x1^2", 1)
sweep, failed = spectral._sigma_min_shifts, []

def recorded(*args, **kwargs):
    out = sweep(*args, **kwargs)
    failed.append(out[1].tolist())
    return out

spectral._sigma_min_shifts = recorded
runs = {}
for M, h, shape in ((200, 0.05, (101, 81)), (400, 0.025, (26, 21))):
    g = pseudospectrum_grid(weyl_quantize_poly(rot, HermiteBasis(M), h),
                            (-0.5, 2.0, -1.0, 1.0), shape)
    runs[M] = {"sigma": hashlib.sha256(g.sigma.tobytes()).hexdigest(),
               "floored": hashlib.sha256(g.floored.tobytes()).hexdigest(),
               "svd_fallbacks": g.timing["svd_fallbacks"],
               "fallback_nodes": failed.pop()}
    if M == 400:
        runs["400_nodes"] = {"sigma": g.sigma.ravel().tolist(),
                             "floored": g.floored.ravel().tolist()}
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def blas_thread_runs():
    """The criterion-14 grid (M=200) and a grid above the BLAS thread
    crossover (M=400), each run under OPENBLAS_NUM_THREADS 1 and 2."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _THREAD_GRIDS],
                             env=env, capture_output=True, text=True,
                             timeout=600, check=True).stdout
        runs.append(json.loads(out))
    return runs


def test_grid_bytes_do_not_depend_on_blas_threads(blas_thread_runs):
    # below the crossover the kernels run on one thread either way
    one, two = (run["200"] for run in blas_thread_runs)
    assert one == two


def test_fallbacks_above_the_crossover_do_not_depend_on_blas_threads(
        blas_thread_runs):
    # at M=400 the kernels run on two threads and the grids differ in
    # their last bits; no shift may converge or fail on that rounding
    one, two = (run["400"] for run in blas_thread_runs)
    assert one["svd_fallbacks"] == two["svd_fallbacks"]
    assert one["fallback_nodes"] == two["fallback_nodes"]


def test_tridiagonal_sweep_above_the_crossover_does_not_depend_on_blas_threads(
        blas_thread_runs):
    # the stacked tridiagonal sweep calls no BLAS: only the floor, from
    # the threaded SVD of P.norm(), moves with the thread count
    one, two = (run["400_nodes"] for run in blas_thread_runs)
    assert one["floored"] == two["floored"]
    kept = ~np.array(one["floored"]) & ~np.array(two["floored"])
    assert kept.sum() > 400
    s1, s2 = np.array(one["sigma"])[kept], np.array(two["sigma"])[kept]
    assert s1.tobytes() == s2.tobytes()


class _FakeBlas:
    """A thread setter and getter pair that records every set."""

    def __init__(self, threads):
        self.threads, self.sets = threads, []

    def set(self, n):
        self.sets.append(n)
        self.threads = n

    def get(self):
        return self.threads


def _fakes(*counts):
    libs = [_FakeBlas(n) for n in counts]
    return libs, [(lib.set, lib.get) for lib in libs]


def test_limiter_restores_counts_on_exit_and_on_error():
    libs, controls = _fakes(2, 4, 1)
    with _blas.single_thread_below(200, controls) as threads:
        assert threads == 1
        assert [lib.threads for lib in libs] == [1, 1, 1]
    assert [lib.threads for lib in libs] == [2, 4, 1]
    # a library already at one thread is never set, so no count rises
    assert libs[2].sets == []
    with pytest.raises(ZeroDivisionError):
        with _blas.single_thread_below(200, controls):
            1 / 0
    assert [lib.threads for lib in libs] == [2, 4, 1]


def test_limiter_nests():
    libs, controls = _fakes(2, 2)
    with _blas.single_thread_below(100, controls):
        with _blas.single_thread_below(50, controls) as inner:
            assert inner == 1
        assert [lib.threads for lib in libs] == [1, 1]
    assert [lib.threads for lib in libs] == [2, 2]
    assert libs[0].sets == [1, 2]


def test_limiter_leaves_large_kernels_alone():
    libs, controls = _fakes(2, 3)
    with _blas.single_thread_below(_blas.SINGLE_THREAD_BELOW, controls) as threads:
        assert threads == 3
        assert [lib.threads for lib in libs] == [2, 3]
    assert libs[0].sets == libs[1].sets == []


def test_limiter_without_setters_is_a_recorded_no_op():
    with _blas.single_thread_below(10, []) as threads:
        assert threads is None


def test_limiter_sets_the_loaded_openblas_copies():
    controls = _blas._find_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread setter in this process")
    before = [get() for _, get in controls]
    with _blas.single_thread_below(10):
        assert [get() for _, get in controls] == [1] * len(controls)
    assert [get() for _, get in controls] == before


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


def _chain_segments_rounding_per_lookup(segments, digits=9):
    """spectral._chain_segments before each endpoint's key was computed
    once: every lookup rounds the endpoint again."""
    def key(p):
        return (round(p[0], digits), round(p[1], digits))

    adj = {}
    for a, b in segments:
        adj.setdefault(key(a), []).append((a, b))
        adj.setdefault(key(b), []).append((b, a))
    used = set()
    lines = []
    for a, b in segments:
        if (key(a), key(b)) in used or (key(b), key(a)) in used:
            continue
        chain = [a, b]
        used.add((key(a), key(b)))
        for _ in range(2):
            extended = True
            while extended:
                extended = False
                for (p, q) in adj.get(key(chain[-1]), []):
                    pair = (key(p), key(q))
                    if pair in used or (pair[1], pair[0]) in used:
                        continue
                    chain.append(q)
                    used.add(pair)
                    extended = True
                    break
            chain.reverse()
        lines.append((np.array(chain), key(chain[0]) == key(chain[-1])))
    return lines


def test_contour_chaining_keeps_the_bytes():
    # the rotated grid's contours leave the rectangle; the circle field's
    # close
    op = weyl_quantize_poly(ROT, HermiteBasis(200), h=0.05)
    grid = pseudospectrum_grid(op, (-0.5, 2.0, -1.0, 1.0), (26, 21))
    t = np.linspace(-2, 2, 41)
    circle = np.abs(t[:, None] + 1j * t[None, :])
    cases = [(grid.re, grid.im, grid.sigma, level) for level in (1e-4, 1e-2, 0.3)]
    for xs, ys, field, level in cases + [(t, t, circle, 1.0)]:
        segments = spectral._marching_squares(xs, ys, field, level)
        got = spectral._chain_segments(segments)
        ref = _chain_segments_rounding_per_lookup(segments)
        assert len(got) == len(ref) > 0
        for pl, (points, closed) in zip(got, ref):
            assert pl.closed == closed
            assert pl.points.tobytes() == points.tobytes()


def test_contour_saddle_cells_follow_the_cell_center():
    # one cell with corners (0,0) = 1, (1,0) = 0, (1,1) = 1, (0,1) = 0:
    # the bilinear interpolant is 1/2 + 2 (x - 1/2)(y - 1/2), a saddle
    # with value 1/2 at the center.  Below it the high corners (0,0) and
    # (1,1) join across the cell and the isolines cut off the low
    # corners; at and above it they cut off the high corners.
    xs = ys = np.array([0.0, 1.0])
    field = np.array([[1.0, 0.0], [0.0, 1.0]])
    expected = {
        0.4: {((0.6, 0.0), (1.0, 0.4)), ((0.4, 1.0), (0.0, 0.6))},
        0.5: {((0.5, 0.0), (0.0, 0.5)), ((1.0, 0.5), (0.5, 1.0))},
        0.6: {((0.4, 0.0), (0.0, 0.4)), ((1.0, 0.6), (0.6, 1.0))},
    }
    for level, segments in expected.items():
        got = spectral._marching_squares(xs, ys, field, level)
        rounded = {tuple(tuple(round(c, 12) for c in p) for p in seg)
                   for seg in got}
        assert rounded == segments, level
        for (a, b) in got:
            # the segment's midpoint lies in the cut-off corner's region
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            f_mid = 0.5 + 2 * (mid[0] - 0.5) * (mid[1] - 0.5)
            assert (f_mid > level) != (0.5 > level), (level, a, b)


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
