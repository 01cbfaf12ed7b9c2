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

from pspeclab import _blas, quantize, repro, spectral
from pspeclab.errors import ConvergenceError, NonFiniteError, PspecError
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
from pspeclab.weights import dissipative_build

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
    assert op._structure.tridiagonal
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
    # row j becomes (C^H C)^{-1} x_j, C = A - z_j, for the stacked
    # block and after it is compacted to one shift; X keeps its bytes
    A = weyl_quantize_poly(ROT, HermiteBasis(40), h=0.1).matrix
    zs = np.array([0.5 + 0.2j, 1.3 - 0.1j, 0.3 + 0.4j])
    kind, factor, _ = spectral._factor(A, quantize._scan(A))
    assert kind == "tridiagonal"
    solve = factor(zs)
    rng = np.random.default_rng(3)
    for rows in (np.arange(3), np.array([0, 2]), np.array([2])):
        X = rng.standard_normal((40, rows.size)) + 1j * rng.standard_normal((40, rows.size))
        X = np.ascontiguousarray(X.T)          # shift-major rows
        before = X.tobytes()
        Y = solve(X, rows)
        assert X.tobytes() == before and Y.flags.c_contiguous
        for j, r in enumerate(rows):
            C = A - zs[r] * np.eye(40)
            ref = np.linalg.solve(C, np.linalg.solve(C.conj().T, X[j]))
            assert np.abs(Y[j] - ref).max() <= 1e-12 * np.abs(ref).max()


def _band_to_dense(run):
    """The upper triangular R of one (M, 3) run of LAPACK upper band
    storage, kd = 2."""
    return sum(np.diag(run[k:, 2 - k], k) for k in range(3))


def _tridiagonal(A):
    return np.diag(np.diagonal(A, -1), -1) + np.diag(np.diagonal(A)) + np.diag(np.diagonal(A, 1), 1)


def test_givens_factor_is_a_qr_of_every_shift():
    # U^H diag(1/w) U = (A - z)^H (A - z) to 1e-14 ||A - z||^2, U unit
    # upper triangular and w positive, on the
    # rotated oscillator (real bands), a diagonal matrix (every t_i = 0)
    # and a random complex tridiagonal
    rng = np.random.default_rng(9)
    M = 30
    cases = {
        "rotated": (weyl_quantize_poly(ROT, HermiteBasis(M), h=0.1).matrix,
                    [0.5 + 0.2j, 1.3 - 0.1j, 2.0 + 1.0j, 0.0]),
        "diagonal": (np.diag(rng.standard_normal(M)) + 0j, [0.25 + 0.5j, -1.0, 3j]),
        "random": (_tridiagonal(rng.standard_normal((M, M))
                                + 1j * rng.standard_normal((M, M))),
                   [0.1 + 0.1j, -0.7 + 0.3j, 1.5 - 2.0j]),
    }
    for name, (A, zs) in cases.items():
        factor = spectral._TridiagonalFactor(A)
        runs, w = spectral._givens_factor(factor.bands, np.array(zs, dtype=complex))
        assert runs.shape == (len(zs), M, 3) and w.shape == (len(zs), M)
        assert not runs[:, 0, :2].any() and not runs[:, 1, 0].any()    # no couplings
        for z, run, wz in zip(zs, runs, w):
            C = A - z * np.eye(M)
            U = _band_to_dense(run)
            assert (run[:, 2] == 1).all() and (wz > 0).all()
            err = np.abs(U.conj().T @ (U / wz[:, None]) - C.conj().T @ C).max()
            assert err <= 1e-14 * np.linalg.norm(C, 2) ** 2, name


def test_exact_eigenvalue_gets_an_identity_block():
    # z = 0.3 = 3h is an eigenvalue of the diagonal oscillator matrix: a
    # zero on R's diagonal and nan after it.  Its solves read nan, its
    # neighbours in the stacked band stay finite and exact, and the grid
    # sends it to the SVD
    op = weyl_quantize_poly(OSC, HermiteBasis(64), h=0.1)
    A = op.matrix
    zs = np.array([0.25 + 0.05j, 0.3, 0.35 - 0.05j])
    kind, factor, _ = spectral._factor(A, quantize._scan(A))
    assert kind == "tridiagonal"
    with np.errstate(all="ignore"):
        _, w = spectral._givens_factor(factor.bands, zs)
        assert np.isinf(w[1]).any()
        solve = factor(zs)
    X = np.ones((3, 64), complex)
    Y = solve(X, np.arange(3))
    assert np.isnan(Y[1]).all() and np.isfinite(Y[[0, 2]]).all()
    for j in (0, 2):
        C = A - zs[j] * np.eye(64)
        ref = np.linalg.solve(C, np.linalg.solve(C.conj().T, X[j]))
        assert np.abs(Y[j] - ref).max() <= 1e-12 * np.abs(ref).max()
    sigma, failed, _ = spectral._sigma_min_shifts(A, op._structure, zs, kind, factor,
                                                  10 ** 4)
    assert failed.tolist() == [1]
    assert sigma[1] == resolvent_norm(op, 0.3, method="svd")
    assert np.isfinite(sigma).all()


def test_tridiagonal_grid_keeps_its_bytes_in_any_block_size(monkeypatch):
    # each shift's solves, dots and Ritz steps touch only its own rows:
    # blocks of 5 shifts, compacted as shifts finish, give one stack's bytes
    op = weyl_quantize_poly(ROT, HermiteBasis(60), h=0.1)
    rect, shape = (0.0, 1.0, -0.4, 0.4), (9, 7)
    grids = []
    for entries in (60 * 5, 60 * 63):
        monkeypatch.setattr(spectral, "_STACK_ENTRIES", entries)
        grids.append(pseudospectrum_grid(op, rect, shape))
    one, five = grids[1], grids[0]
    assert one.sigma.tobytes() == five.sigma.tobytes()
    assert one.timing["sigma_steps"] == five.timing["sigma_steps"]


def test_tridiagonal_grid_keeps_its_bytes_in_any_factor_chunk(monkeypatch):
    # the Givens pass treats each shift on its own: passes of 2 shifts, of
    # 3 (a 5-shift Lanczos block takes two passes) and of the whole grid
    # (one chunk, served block by block) give the same sigma bytes and
    # stop decisions, and so do Lanczos blocks of 62 shifts and 1, the
    # last node taking its QR rows and not the one-shift LU
    op = weyl_quantize_poly(ROT, HermiteBasis(60), h=0.1)
    rect, shape = (0.0, 1.0, -0.4, 0.4), (9, 7)
    grids = []
    for block, shifts in ((5, 2), (5, 3), (62, 63), (5, 63)):
        monkeypatch.setattr(spectral, "_STACK_ENTRIES", 60 * block)
        monkeypatch.setattr(spectral, "_FACTOR_ENTRIES", 60 * shifts)
        grids.append(pseudospectrum_grid(op, rect, shape))
    whole = grids[-1]
    for grid in grids[:-1]:
        assert grid.sigma.tobytes() == whole.sigma.tobytes()
        assert grid.timing["sigma_steps"] == whole.timing["sigma_steps"]


def _refined_solve(C, b):
    """C^{-1} b refined once, its residual taken in extended precision."""
    y = np.linalg.solve(C, b)
    wide = np.clongdouble
    r = b.astype(wide) - C.astype(wide) @ y.astype(wide)
    return y + np.linalg.solve(C, r.astype(complex))


def test_tridiagonal_solves_meet_a_refined_reference():
    # row j becomes (C^H C)^{-1} x_j, C = A - z_j, within 0.1 cond(C) eps
    # of a reference whose two solves are each refined once; the shifts
    # lie near the eigenvalues 0.35, 0.55, ... (cond up to 4e7) and away
    # from them (cond down to 24; below about 20 the rounding of the
    # reference itself reaches 0.1 cond eps)
    A = weyl_quantize_poly(ROT, HermiteBasis(36), h=0.1).matrix
    zs = np.array([0.35 + 1e-3j, 0.55 - 1e-2j, 0.75 + 0.05j, 0.95 - 0.02j,
                   1.3 - 0.1j, 1.5 + 0.01j, 2.2 + 0.1j, 2.6 - 0.05j,
                   1.8 + 0.4j, 0.5 + 0.2j, 0.3 + 0.4j, 0.45j])
    solve = spectral._factor(A, quantize._scan(A))[1](zs)
    rng = np.random.default_rng(12)
    X = rng.standard_normal((12, 36)) + 1j * rng.standard_normal((12, 36))
    Y = solve(X, np.arange(12))
    eps = np.finfo(float).eps
    for x, y, z in zip(X, Y, zs):
        C = A - z * np.eye(36)
        ref = _refined_solve(C, _refined_solve(C.conj().T, x))
        err = np.abs(y - ref).max() / np.abs(ref).max()
        assert err <= 0.1 * np.linalg.cond(C) * eps, z


def test_schur_method_still_builds_the_schur_factor(monkeypatch):
    op = weyl_quantize_poly(ROT, HermiteBasis(40), h=0.1)
    calls = []

    def schur_T(A, real):
        calls.append(A.shape)
        return _schur_T(A, real)

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
    assert quantize._scan(A).tridiagonal
    sub, diag, sup = (np.diagonal(A, k) for k in (-1, 0, 1))
    assert np.array_equal(np.diag(sub, -1) + np.diag(diag) + np.diag(sup, 1), A)
    B = A.copy()
    B[0, 29] = 1e-300                  # one entry off the bands
    assert not quantize._scan(B).tridiagonal
    assert not quantize._scan(A[:2, :2]).tridiagonal   # below gttrf's order
    # a quartic symbol has bands at offsets 2 and 4: the Schur path
    quartic = weyl_quantize_poly(parse_symbol("xi1^2 + x1^4", 1), HermiteBasis(30), 0.1)
    assert not quartic._structure.tridiagonal


def _eigh_ritz(ab):
    """The Ritz step with eigenvectors: the eigenvalues of each
    tridiagonal from a batched eigh, and ab[:, 1, -1] |y_k| for the unit
    eigenvector y of the largest."""
    n, _, k = ab.shape
    T = np.zeros((n, k, k))
    i = np.arange(k)
    T[:, i, i] = ab[:, 0]
    T[:, i[1:], i[:-1]] = T[:, i[:-1], i[1:]] = ab[:, 1, :-1]
    vals, vecs = np.linalg.eigh(T)
    return vals, ab[:, 1, -1] * np.abs(vecs[:, -1, -1])


def _assert_ritz_is_eigh(ab):
    # theta to 1e-14 of ||T||; the residual to 1e-8 relative, or to the
    # 4 eps ||T|| that eigh's own eigenvector entries may be off by
    vals, ref = _eigh_ritz(ab)
    theta, res = spectral._top_ritz(ab)
    scale = np.abs(vals).max(axis=1)
    assert (np.abs(theta - vals[:, -1]) <= 1e-14 * scale).all()
    err = np.abs(res - ref)
    assert ((err <= 1e-8 * ref) | (err <= 4 * np.finfo(float).eps * scale)).all()
    return theta, res


def test_top_ritz_matches_eigh_on_random_jacobi_matrices():
    # random diagonals and positive off-diagonals, where the bottom-up
    # recurrence is often unstable and the rows take eigh; plus one zero
    # row, as the sweep leaves after a non-finite solve
    rng = np.random.default_rng(17)
    for k in range(1, 41):
        ab = rng.standard_normal((32, 2, k))
        ab[:, 1] = np.abs(ab[:, 1]) + 1e-3
        ab[0] = 0
        theta, _ = _assert_ritz_is_eigh(ab)
        assert theta[0] == 0                   # never counts as done


def test_top_ritz_matches_eigh_on_lanczos_tridiagonals(monkeypatch):
    # the tridiagonals of real sweeps and single shifts, on the
    # tridiagonal and the Schur path, step by step up to convergence;
    # none of the rows is unstable enough to need eigh
    seen = []
    top_ritz = spectral._top_ritz
    monkeypatch.setattr(spectral, "_top_ritz",
                        lambda ab: seen.append(ab.copy()) or top_ritz(ab))
    quartic = weyl_quantize_poly(parse_symbol("xi1^2 + x1^4 + 1i*x1", 1),
                                 HermiteBasis(60), 0.1)
    for op in (weyl_quantize_poly(ROT, HermiteBasis(120), h=0.08), quartic):
        pseudospectrum_grid(op, (-0.5, 2.0, -1.0, 1.0), (9, 7))
        resolvent_norm(op, 0.45 + 0.1j, method="lu")
    monkeypatch.undo()
    assert len(seen) >= 20 and min(ab.shape[0] for ab in seen) == 1
    for ab in seen:
        _assert_ritz_is_eigh(ab)

    def no_eigh(*args):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for ab in seen:
        spectral._top_ritz(ab)


def test_rotated_grid_stop_decisions_are_pinned():
    # the step histogram of the bench-shaped grid as the Ritz step with
    # eigenvectors (batched eigh) gave it: a change to the Ritz step that
    # moves one stop decision moves it
    op = weyl_quantize_poly(ROT, HermiteBasis(200), h=0.05)
    grid = pseudospectrum_grid(op, (-0.5, 2.0, -1.0, 1.0), (26, 21))
    assert grid.timing["factor"] == "tridiagonal"
    assert grid.timing["sigma_steps"] == [0, 112, 99, 53, 32, 28, 19, 22, 20,
                                          21, 27, 24, 25, 30, 15, 13, 6]
    assert grid.timing["svd_fallbacks"] == 0


# sha256 of the grid's sigma bytes and the lu value at 0.45+0.1i on the
# Schur and dense LU paths, which operators that are not tridiagonal keep
_PINNED = {
    "complex grid": ("4aa5a152f701e6556bef6b4ed601d54fc31f706a888815ee39daeac1d55aeaf7",
                     "0x1.12e986e37fdf0p-8"),
    "real quartic": ("88601fa202f4887574a19583a6b2295696c6032b89806fc8f5649c6aef1fb87b",
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
    T = spectral._schur_T(A, quantize._scan(A).real)
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
    solves = spectral._schur_solves(A, quantize._scan(A).real)
    assert solves(X, zs).tobytes() == ref.tobytes()


def test_real_schur_factor_is_triangular_and_similar():
    # the rotated oscillator's Hermite matrix is exactly real: dgees's
    # quasi-triangular form, with each 2x2 block split by a rotation
    A = weyl_quantize_poly(ROT, HermiteBasis(200), h=0.05).matrix
    assert A.dtype == complex and not A.imag.any()
    T = spectral._schur_T(A, quantize._scan(A).real)
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
    T = spectral._schur_T(A, quantize._scan(A).real)
    assert T.tobytes() == scipy.linalg.schur(A, output="complex")[0].tobytes()


def test_real_grid_does_not_depend_on_the_storage_dtype():
    # the factor depends on the values only, and so does the norm (and
    # with it the floor): the band norm builds complex band storage from
    # either dtype
    op = weyl_quantize_poly(ROT, HermiteBasis(80), h=0.1)
    real = OperatorMatrix(op.matrix.real.copy(), op.h, op.basis)
    assert real.norm().hex() == op.norm().hex()
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
# the band SVD at M=400, on the tridiagonal rotated oscillator and the
# pentadiagonal Davies oscillator: the widths it ran at, the norm and the
# values
runs["band"] = {}
for name, symbol in (("rotated", "xi1^2 + xi1*1i + x1^2"),
                     ("davies", "xi1^2 + 1i*x1^2")):
    op = weyl_quantize_poly(parse_symbol(symbol, 1), HermiteBasis(400), 0.025)
    A = op.matrix
    runs["band"][name] = {
        "widths": op._structure.band,
        "norm": op.norm().hex(),
        "sigma": [spectral.resolvent_norm(A, z, method="svd").hex()
                  for z in (2 + 1j, 0.5 + 0.3j, 3.0 - 0.2j, 1.0)]}
# one shift on the tridiagonal rotated oscillator at M=400, through the
# lu and auto paths, at the four shifts of the band SVD entry
A = weyl_quantize_poly(rot, HermiteBasis(400), 0.025).matrix
runs["single"] = {m: [spectral.resolvent_norm(A, z, method=m).hex()
                      for z in (2 + 1j, 0.5 + 0.3j, 3.0 - 0.2j, 1.0)]
                  for m in ("lu", "auto")}
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
    # at M=400 the kernels run on two threads; no shift may converge or
    # fail on their rounding
    one, two = (run["400"] for run in blas_thread_runs)
    assert one["svd_fallbacks"] == two["svd_fallbacks"]
    assert one["fallback_nodes"] == two["fallback_nodes"]


def test_tridiagonal_sweep_above_the_crossover_does_not_depend_on_blas_threads(
        blas_thread_runs):
    # neither the stacked tridiagonal sweep nor the band norm behind the
    # floor calls a threaded BLAS kernel: the whole grid keeps its bytes,
    # its floored nodes included
    one, two = (run["400_nodes"] for run in blas_thread_runs)
    assert sum(one["floored"]) > 0
    assert one == two
    assert blas_thread_runs[0]["400"]["sigma"] == blas_thread_runs[1]["400"]["sigma"]


def test_band_svd_does_not_depend_on_blas_threads(blas_thread_runs):
    # zgbbrd and dstebz call no threaded BLAS kernel: at M=400 the band
    # SVD and the band norm keep their bytes under 1 and 2 threads
    one, two = (run["band"] for run in blas_thread_runs)
    assert all("norm" in one[name] for name in ("rotated", "davies"))
    assert one["rotated"]["widths"] == [1, 1]
    assert one["davies"]["widths"] == [2, 2]
    assert one == two


def test_single_shift_tridiagonal_solves_do_not_depend_on_blas_threads(
        blas_thread_runs):
    # the one-shift tridiagonal LU calls no threaded BLAS kernel either
    one, two = (run["single"] for run in blas_thread_runs)
    assert len(one["lu"]) == len(one["auto"]) == 4
    assert one == two


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


def _threads_at_each_call(monkeypatch, owner, name, libs):
    """Replace owner.name with a spy that records the fake BLAS thread
    count each call runs at."""
    seen, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(libs[0].threads)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return seen


def test_fbi_product_runs_on_one_thread(monkeypatch):
    from pspeclab import quantize

    libs, controls = _fakes(2, 2)
    monkeypatch.setattr(_blas, "_find_controls", lambda: controls)
    seen = _threads_at_each_call(monkeypatch, np, "matmul", libs)
    quantize._fbi_calibration.cache_clear()
    grid, h = FourierGrid(8.0, 1024), 0.05
    u = np.exp(-grid.points_1d() ** 2 / (2 * h))
    quantize.fbi_transform(u, grid, h, np.linspace(-2, 2, 81),
                           np.linspace(-2, 2, 81))
    # the calibration's product and the transform's own
    assert seen == [1, 1]
    assert [lib.threads for lib in libs] == [2, 2]


def test_hermiticity_defect_runs_on_one_thread(monkeypatch):
    libs, controls = _fakes(2, 2)
    monkeypatch.setattr(_blas, "_find_controls", lambda: controls)
    seen = _threads_at_each_call(monkeypatch, np.linalg, "norm", libs)
    OperatorMatrix(np.eye(144, dtype=complex), 0.1, None).hermiticity_defect()
    assert seen == [1, 1]
    assert [lib.threads for lib in libs] == [2, 2]


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


def _marching_squares_per_cell(xs, ys, field, level):
    """Marching squares one cell at a time: corner k of cell (i, j) is
    node (i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1), edge k joins
    corners k and (k + 1) % 4, and a saddle's corners on the cell-center
    value's side of the level join across the cell."""
    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            v = [field[i, j], field[i + 1, j], field[i + 1, j + 1], field[i, j + 1]]
            corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]),
                       (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            crossings = {}
            for k in range(4):
                a, b = k, (k + 1) % 4
                if (v[a] > level) != (v[b] > level):
                    t = (level - v[a]) / (v[b] - v[a])
                    crossings[k] = tuple(p + t * (q - p)
                                         for p, q in zip(corners[a], corners[b]))
            if len(crossings) == 2:
                segments.append(tuple(crossings[k] for k in sorted(crossings)))
            elif len(crossings) == 4:
                if (sum(v) / 4.0 > level) == (v[0] > level):
                    segments += [(crossings[0], crossings[1]), (crossings[2], crossings[3])]
                else:
                    segments += [(crossings[0], crossings[3]), (crossings[1], crossings[2])]
    return segments


def test_marching_squares_is_the_per_cell_loop():
    # the README grid's levels, a random field full of saddles, values
    # equal to the level, and nan; the segments, their order and the
    # numpy float type of every coordinate (which _chain_segments rounds)
    op = weyl_quantize_poly(ROT, HermiteBasis(200), h=0.05)
    grid = pseudospectrum_grid(op, (-0.5, 2.0, -1.0, 1.0), (101, 81))
    rng = np.random.default_rng(23)
    xs, ys = np.linspace(0, 1, 31), np.linspace(-1, 1, 17)
    noise = rng.standard_normal((31, 17))
    ties = np.round(noise, 1)
    holes = noise.copy()
    holes[rng.random(holes.shape) < 0.1] = np.nan
    cases = [(grid.re, grid.im, grid.sigma, level) for level in (1e-4, 1e-8, 0.1)]
    cases += [(xs, ys, f, level) for f in (noise, ties, holes)
              for level in (-0.5, 0.0, 0.3)]
    above = noise > 0.0
    saddles = ((above[:-1, :-1] == above[1:, 1:]) & (above[1:, :-1] == above[:-1, 1:])
               & (above[:-1, :-1] != above[1:, :-1]))
    assert saddles.sum() > 10
    for xs_, ys_, field, level in cases:
        got = spectral._marching_squares(xs_, ys_, field, level)
        ref = _marching_squares_per_cell(xs_, ys_, field, level)
        assert len(got) == len(ref) > 0
        assert np.array(got).tobytes() == np.array(ref).tobytes()
        assert {type(c) for seg in got for p in seg for c in p} == {np.float64}
    for eps, lines in contour_extract(grid, [1e-4, 1e-8, 0.1]).items():
        ref = spectral._chain_segments(
            _marching_squares_per_cell(grid.re, grid.im, grid.sigma, eps))
        assert [(pl.closed, pl.points.tobytes()) for pl in lines] == \
            [(pl.closed, pl.points.tobytes()) for pl in ref]


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


# ---------------------------------------------------------------------------
# the band SVD behind method="svd"

def _band_matrix(M, kl, ku, seed):
    rng = np.random.default_rng(seed)
    A = np.zeros((M, M), dtype=complex)
    for s in range(-kl, ku + 1):
        n = M - abs(s)
        A += np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n), s)
    return A


def _seeded_shifts(seed, count):
    rng = np.random.default_rng(seed)
    return list(rng.uniform(-0.5, 3.0, count) + 1j * rng.uniform(-1.0, 1.5, count))


def _davies_P():
    return dissipative_build(parse_symbol("xi1^2+xi2^2+x1^2", 2),
                             parse_symbol("x2^2", 2), HermiteBasis(12, n=2),
                             0.1).P.matrix


def _bidiagonal_on_its_eigenvalue():
    # upper bidiagonal with 0.7 on its diagonal: A - 0.7 is singular
    A = _band_matrix(96, 0, 1, seed=4)
    A[40, 40] = 0.7
    return A


_BAND_CASES = {
    "rotated M=60": (lambda: weyl_quantize_poly(ROT, HermiteBasis(60), 0.1).matrix,
                     (1, 1), _seeded_shifts(21, 6)),
    "rotated M=200": (lambda: weyl_quantize_poly(ROT, HermiteBasis(200), 0.05).matrix,
                      (1, 1), [2 + 1j] + _seeded_shifts(22, 6)),
    "davies": (_davies_P, (2, 2), _seeded_shifts(23, 8)),
    "asymmetric band": (lambda: _band_matrix(96, 1, 3, seed=5), (1, 3),
                        _seeded_shifts(24, 6)),
    "real": (lambda: weyl_quantize_poly(parse_symbol("xi1^2 + x1^4", 1),
                                        HermiteBasis(144), 0.1).matrix.real.copy(),
             (4, 4), [0.7, -0.2, 2.5]),
    "on an eigenvalue": (_bidiagonal_on_its_eigenvalue, (0, 1), [0.7]),
}


@pytest.mark.parametrize("name", sorted(_BAND_CASES))
def test_band_svd_is_the_dense_svd(monkeypatch, name):
    # the band kernel against scipy's dense SVD of A - z, to 1e-12
    # relative plus the 2 eps ||A|| a backward-stable SVD may be off by
    build, widths, shifts = _BAND_CASES[name]
    A = build()
    band = []
    monkeypatch.setattr(spectral, "_sigma_min_band",
                        _recording(spectral._sigma_min_band, band))
    bound = 2 * np.finfo(float).eps * np.linalg.norm(A, 2)
    for z in shifts:
        sigma = resolvent_norm(A, z, method="svd")
        ref = scipy.linalg.svdvals(A - z * np.eye(A.shape[0]))[-1]
        assert abs(sigma - ref) <= 1e-12 * ref + bound, (z, sigma, ref)
    assert [call[2:] for call in band] == [widths] * len(shifts)
    if name == "on an eigenvalue":
        assert sigma <= bound


@pytest.mark.parametrize("name", sorted(_BAND_CASES) + ["order 1", "zero"])
def test_band_norm_is_the_dense_svd(monkeypatch, name):
    # ||A|| of a band matrix is eigenvalue 2M of the Golub-Kahan
    # tridiagonal that method="svd" reduces A to, against the dense SVD
    # to 1e-14 relative; the dense norm is never called
    if name == "order 1":
        A, widths = np.array([[3.0 - 4.0j]]), (0, 0)
    elif name == "zero":
        A, widths = np.zeros((40, 40), dtype=complex), (0, 0)
    else:
        build, widths, _ = _BAND_CASES[name]
        A = build()
    ref = np.linalg.norm(A, 2)
    band, dense = [], []
    monkeypatch.setattr(quantize, "_band_singular_value",
                        _recording(quantize._band_singular_value, band))
    norm_of = np.linalg.norm

    def norm_spy(x, ord=None, *args, **kwargs):
        if ord == 2:
            dense.append(x.shape)
        return norm_of(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm_spy)
    norm = OperatorMatrix(A, 0.1, None).norm()
    assert dense == []
    assert [call[2:] for call in band] == [(*widths, 2 * A.shape[0])]
    assert type(norm) is float
    assert abs(norm - ref) <= 1e-14 * ref, (norm, ref)


def _recording(fn, calls):
    def spy(*args):
        calls.append(args)
        return fn(*args)
    return spy


@pytest.mark.parametrize("build", [
    lambda: weyl_quantize_poly(ROT, HermiteBasis(60), h=0.1),
    lambda: weyl_quantize_grid(ROT, FourierGrid(2.5, 48), 0.1, xi_limit=1.0,
                               tail_frac_tol=1.0)], ids=["tridiagonal", "dense"])
def test_one_operator_is_scanned_once(monkeypatch, build):
    # a grid, a spectrum and eight single-shift SVDs read the structure
    # the operator's construction found; none scans the matrix again
    scans, walks = [], []
    scan = quantize._scan
    for module in (quantize, spectral):
        monkeypatch.setattr(module, "_scan", _recording(scan, scans))
    monkeypatch.setattr(quantize, "_bandwidths",
                        _recording(quantize._bandwidths, walks))
    op = build()
    pseudospectrum_grid(op, (0.0, 1.0, -0.4, 0.4), (4, 3))
    eigendecompose(op)
    for z in np.linspace(0.0, 2.0, 8) + 0.3j:
        resolvent_norm(op, z, method="svd")
    assert len(scans) == len(walks) == 1


@pytest.mark.parametrize("symbol, widths", [("xi1^2 + xi1*1i + x1^2", (1, 1)),
                                            ("xi1^2 + 1i*x1^2", (2, 2))])
def test_band_svd_meets_a_40_digit_svd(symbol, widths):
    # a tri- and a pentadiagonal Hermite matrix at M=24 against mpmath's
    # complex SVD at 40 digits, sigma_min and the norm; the dense kernel
    # for comparison
    mpmath = pytest.importorskip("mpmath")
    A = weyl_quantize_poly(parse_symbol(symbol, 1), HermiteBasis(24), 0.1).matrix
    assert quantize._bandwidths(A, 24) == widths
    bound = 2 * np.finfo(float).eps * np.linalg.norm(A, 2)
    for z in (0.9 + 0.4j, 2.0 + 1.0j):
        B = A - z * np.eye(24)
        with mpmath.workdps(40):
            exact = min(mpmath.svd_c(mpmath.matrix(B.tolist()), compute_uv=False))
            exact = float(exact)
        assert abs(spectral._sigma_min_band(A, z, *widths) - exact) <= bound
        assert abs(spectral._sigma_min_dense(A, z) - exact) <= bound
    # the band norm, eigenvalue 2M of the same tridiagonal at z = 0
    with mpmath.workdps(40):
        top = float(max(mpmath.svd_c(mpmath.matrix(A.tolist()), compute_uv=False)))
    assert abs(quantize._band_singular_value(A, 0, *widths, 48) - top) <= bound


def test_band_svd_rejects_non_finite_bands():
    # a raw ndarray raises ValueError on every path
    A = weyl_quantize_poly(ROT, HermiteBasis(60), 0.1).matrix.copy()
    A[7, 8] = np.nan
    for method in ("svd", "auto", "lu", "schur"):
        with pytest.raises(ValueError, match="infs or NaNs"):
            resolvent_norm(A, 0.5 + 0.5j, method=method)


def test_operator_matrix_rejects_non_finite_bands():
    # an OperatorMatrix refuses the same matrix when it is built, and a
    # nan off the band, which makes the matrix dense to the scan
    A = weyl_quantize_poly(ROT, HermiteBasis(60), 0.1).matrix.copy()
    for entry in ((7, 8), (0, 50)):
        B = A.copy()
        B[entry] = np.nan
        with pytest.raises(NonFiniteError, match="non-finite entries"):
            OperatorMatrix(B, 0.1, None)


def _refuse(*args):
    raise AssertionError("band SVD called")


def test_forced_svd_grid_stays_dense(monkeypatch):
    # the independent reference of criterion 14 never takes the band kernel
    op = weyl_quantize_poly(ROT, HermiteBasis(200), 0.05)
    dense = []
    monkeypatch.setattr(spectral, "_sigma_min_dense",
                        _recording(spectral._sigma_min_dense, dense))
    monkeypatch.setattr(spectral, "_sigma_min_band", _refuse)
    grid = pseudospectrum_grid(op, (0.0, 1.0, -0.4, 0.4), (3, 2), force_svd=True)
    assert len(dense) == 6 and grid.timing["force_svd"]


def test_sweep_fallbacks_take_the_band_svd(monkeypatch):
    # the nodes 0.3 and 0.7 on the diagonal oscillator fail inverse
    # Lanczos (see test_grid_nodes_match_single_shift); their SVDs are band
    op = weyl_quantize_poly(OSC, HermiteBasis(64), h=0.1)
    band = []
    monkeypatch.setattr(spectral, "_sigma_min_band",
                        _recording(spectral._sigma_min_band, band))
    monkeypatch.setattr(spectral, "_sigma_min_dense", _refuse)
    grid = pseudospectrum_grid(op, (0.3, 0.7, -0.2, 0.2), (5, 5))
    assert grid.timing["factor"] == "tridiagonal"
    assert grid.timing["svd_fallbacks"] == 2
    assert sorted(complex(call[1]).real for call in band) == [0.3, 0.7]
    assert all(call[2:] == (0, 0) for call in band)


def test_dense_operator_svd_keeps_its_bytes(monkeypatch):
    # a grid-basis operator has no band: method="svd" is the dense SVD,
    # with the bytes it had before the band kernel existed
    op = weyl_quantize_grid(ROT, FourierGrid(2.5, 64), 0.1, xi_limit=1.0,
                            tail_frac_tol=1.0)
    monkeypatch.setattr(spectral, "_sigma_min_band", _refuse)
    assert resolvent_norm(op, 0.45 + 0.1j, method="svd").hex() == "0x1.12e986e37fd5cp-8"


@pytest.fixture
def no_zgbbrd_capsule(monkeypatch):
    """scipy's cython_lapack without its zgbbrd capsule, the binding
    looked up again; the cached binding is dropped on both sides."""
    from scipy.linalg import cython_lapack
    capi = {k: v for k, v in cython_lapack.__pyx_capi__.items() if k != "zgbbrd"}
    _blas._zgbbrd.cache_clear()
    monkeypatch.setattr(cython_lapack, "__pyx_capi__", capi)
    yield
    monkeypatch.undo()
    _blas._zgbbrd.cache_clear()


def test_band_matrices_take_the_dense_svd_without_the_capsule(no_zgbbrd_capsule,
                                                              monkeypatch):
    assert not _blas.band_bidiagonal_found()
    monkeypatch.setattr(spectral, "_sigma_min_band", _refuse)
    A = weyl_quantize_poly(ROT, HermiteBasis(200), 0.05).matrix
    with _blas.single_thread_below(200):        # as resolvent_norm runs it
        dense = spectral._sigma_min_dense(A, 2 + 1j)
    assert resolvent_norm(A, 2 + 1j, method="svd") == dense


def test_band_norm_takes_the_dense_svd_without_the_capsule(no_zgbbrd_capsule):
    A = weyl_quantize_poly(ROT, HermiteBasis(200), 0.05).matrix
    norm = OperatorMatrix(A, 0.05, None).norm()
    assert norm.hex() == float(np.linalg.norm(A, 2)).hex()


def test_band_bidiagonal_rejects_bad_storage_and_reports_info():
    A = _band_matrix(40, 1, 1, seed=6)
    ab = np.zeros((3, 40), dtype=complex)               # C order
    with pytest.raises(ValueError, match="Fortran"):
        _blas.band_bidiagonal(ab, 1, 1)
    with pytest.raises(ValueError, match="kl \\+ ku \\+ 1"):
        _blas.band_bidiagonal(np.zeros((3, 40), complex, order="F"), 2, 1)
    # kl < 0 is LAPACK's argument 5: zgbbrd returns info = -5
    with pytest.raises(np.linalg.LinAlgError, match="info = -5"):
        _blas.band_bidiagonal(np.zeros((3, 40), complex, order="F"), -1, 3)
    # the bidiagonal keeps the singular values
    ab = np.zeros((3, 40), dtype=complex, order="F")
    for s in (-1, 0, 1):
        ab[1 - s, max(s, 0):40 + min(s, 0)] = np.diagonal(A, s)
    d, e = _blas.band_bidiagonal(ab, 1, 1)
    B = np.diag(d) + np.diag(e, 1)
    assert np.allclose(scipy.linalg.svdvals(B), scipy.linalg.svdvals(A),
                       rtol=0, atol=1e-13 * np.linalg.norm(A, 2))
