"""Eigendecomposition with spurious-mode filtering, fast sigma_min
sweeps with Schur reuse, pseudospectrum grids, contours and scaling fits.

sigma_min(P - z) is the reciprocal of the resolvent norm and the
computational currency of every experiment here.  One inverse-Lanczos
driver serves any set of shifts: it runs Lanczos on ((P - z)^H (P - z))^{-1},
whose largest eigenvalue is sigma_min^-2, and stops a shift once the Ritz
residual of its top Ritz value is at most SIGMA_TOL times that value.  A
grid shares one complex Schur factor T of P = Q T Q* (Q is never
formed), and all its shifts advance together at O(M^2) per step each, instead of the O(M^3) of a full
SVD; a single shift may use an LU factor.  An exactly tridiagonal P (the
Hermite matrix of the rotated oscillator, whose x^2 and xi^2 terms cancel
off the three diagonals) skips both: each shift gets its own
O(M) Givens QR factor, and a block of shifts is solved by one band
triangular solve pair on the stacked R factors (a single shift takes
the tridiagonal LU).

The direct measure, method="svd" and the fallback of a shift inverse
Lanczos fails, is an SVD of P - z: a band SVD when every non-zero of P
lies within a narrow band (zgbbrd's bidiagonal, then one bisection for
the smallest singular value, O(M^2 (kl + ku))), the dense O(M^3) one
otherwise.  force_svd grids always take the dense SVD, the reference
the fast paths are checked against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._blas import single_thread_below
from .errors import ConvergenceError, PspecError
from .quantize import (OperatorMatrix, _band_singular_value, _band_widths,
                       _tridiagonal_bands)
from .quantize import _BAND_RATIO, _bandwidths  # noqa: F401  (re-exported)

__all__ = [
    "SpectrumReport",
    "eigendecompose",
    "resolvent_norm",
    "ResolventGrid",
    "pseudospectrum_grid",
    "ScalingFit",
    "scaling_fit",
    "contour_extract",
]

EIG_SIZE_CAP = 4096
RESIDUAL_TOL = 1e-8      # relative to ||P||
TAIL_TOL = 1e-6
FLOOR_FACTOR = 1e3       # floor = FLOOR_FACTOR * eps * ||P||


# ---------------------------------------------------------------------------
# eigendecomposition with filtering

@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    residuals: np.ndarray
    tail_mass: np.ndarray
    accepted: np.ndarray
    norm: float
    residual_tol: float
    tail_tol: float

    @property
    def accepted_eigenvalues(self):
        return self.eigenvalues[self.accepted]

    def distance(self, z):
        """Distance from z to the accepted spectrum (inf when empty)."""
        acc = self.accepted_eigenvalues
        if acc.size == 0:
            return np.inf
        return float(np.abs(acc - z).min())


def eigendecompose(P: OperatorMatrix) -> SpectrumReport:
    """Dense nonsymmetric eigendecomposition plus acceptance filtering.

    An eigenpair is accepted when its matrix residual ||(P-lam)v|| is
    below RESIDUAL_TOL * ||P|| and its basis-tail mass is below
    TAIL_TOL.  Discretization truncation produces spurious interior
    eigenvalues for non-normal operators; the tail test is what rejects
    them.
    """
    A = P.matrix
    if A.shape[0] > EIG_SIZE_CAP:
        raise PspecError(f"matrix size {A.shape[0]} exceeds cap {EIG_SIZE_CAP}")
    with single_thread_below(A.shape[0]):
        lam, V = scipy.linalg.eig(A)
        norms = np.linalg.norm(V, axis=0)
        V = V / norms
        R = A @ V - V * lam
        residuals = np.linalg.norm(R, axis=0)
        opnorm = P.norm()
    tails = np.zeros(V.shape[1]) if P.basis is None else P.basis.tail_mass(V)
    accepted = (residuals <= RESIDUAL_TOL * max(opnorm, 1e-300)) & (tails <= TAIL_TOL)
    order = np.argsort(lam.real, kind="stable")
    return SpectrumReport(lam[order], residuals[order], tails[order],
                          accepted[order], opnorm, RESIDUAL_TOL, TAIL_TOL)


# ---------------------------------------------------------------------------
# sigma_min

SIGMA_TOL = 1e-10        # relative Ritz residual that stops inverse Lanczos
SIGMA_MAX_ITER = 50
_BLOCK = 32              # diagonal block size of the Schur substitution
_SHIFT_ENTRIES = 1 << 21  # cap on (shifts advanced together) x M
_STACK_ENTRIES = 1 << 15  # the same cap when each shift keeps its own factor
_RITZ_BACKWARD = 1e-2 * SIGMA_TOL  # backward error the Ritz recurrence may keep


def _shifted(A, z):
    """A - z I as one Fortran-ordered copy (the layout LAPACK factors in
    place), its diagonal shifted in place.  The bytes are those of
    A - z * np.eye(M), except that an off-diagonal -0 of A stays -0 where
    subtracting a signed zero of z * np.eye(M) can make it +0."""
    B = np.array(A, dtype=np.result_type(A.dtype, z), order="F")
    B.flat[::B.shape[0] + 1] -= z
    return B


def _sigma_min_svd(A, z):
    """sigma_min(A - z) by a direct SVD: the band kernel when A is a
    narrow band matrix (see _band_widths), else the dense one."""
    widths = _band_widths(A)
    if widths is None:
        return _sigma_min_dense(A, z)
    return _sigma_min_band(A, z, *widths)


def _sigma_min_dense(A, z):
    return float(scipy.linalg.svdvals(_shifted(A, z), overwrite_a=True)[-1])


def _sigma_min_band(A, z, kl, ku):
    """sigma_min(A - z) for A with kl sub- and ku super-diagonals:
    eigenvalue M + 1 of the Golub-Kahan tridiagonal, the smallest
    non-negative one (see _band_singular_value)."""
    return _band_singular_value(A, z, kl, ku, A.shape[0] + 1)


def _schur_T(A):
    """Upper triangular T unitarily similar to A; no Schur vectors.

    A complex A takes scipy's complex Schur form (zgees).  A real A (real
    dtype, or an imaginary part that is exactly zero) takes the real
    quasi-triangular form of dgees, and each 2x2 diagonal block, rows j
    and j+1, is split by one complex Givens rotation applied to T alone,
    by the rule of scipy.linalg.rsf2csf (Golub & Van Loan, section 7.4):
    with lambda_j = wr_j + i wi_j the block eigenvalue dgees returns,
    mu = lambda_j - T[j+1, j+1] and (c, s) = (mu, T[j+1, j]) / |(mu,
    T[j+1, j])|, G_j = [[conj(c), s], [-s, c]] makes G_j T G_j^H zero at
    (j+1, j) and puts lambda_j at (j, j).  The G_j act on disjoint row
    and column pairs, so they are applied all at once."""
    if np.iscomplexobj(A) and A.imag.any():
        return scipy.linalg.schur(A, output="complex")[0]
    a = np.array(np.asarray_chkfinite(A).real, order="F")
    gees = scipy.linalg.lapack.dgees
    select = lambda wr, wi: None            # never called: sort_t=0
    lwork = int(gees(select, a, compute_v=0, lwork=-1)[-2][0])
    T, _, wr, wi, _, _, info = gees(select, a, compute_v=0, lwork=lwork,
                                    overwrite_a=True)
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found")
    j = np.flatnonzero(wi > 0)              # first rows of the 2x2 blocks
    mu = wr[j] + 1j * wi[j] - T[j + 1, j + 1]
    r = np.hypot(np.abs(mu), T[j + 1, j])
    c, s = mu / r, T[j + 1, j] / r
    T = T.astype(complex)
    c, s = c[:, None], s[:, None]           # rows of the block pairs
    top, bottom = T[j], T[j + 1]
    T[j], T[j + 1] = c.conj() * top + s * bottom, c * bottom - s * top
    c, s = c.T, s.T                         # columns of the block pairs
    left, right = T[:, j], T[:, j + 1]
    T[:, j], T[:, j + 1] = c * left + s * right, c.conj() * right - s * left
    T[j + 1, j] = 0.0
    return T


def _schur_solves(A):
    """Solve pair on the complex Schur factor T of A (see _schur_T):
    column j of X becomes ((T - z_j)^H (T - z_j))^{-1} x_j, in place.
    The off-diagonal blocks of T - z_j do not depend on z_j, so one GEMM
    updates every shift; only the diagonal blocks are solved per shift,
    row by row."""
    T = _schur_T(A)
    M = T.shape[0]
    TH = np.ascontiguousarray(T.conj().T)
    d = np.diag(T)
    blocks = [(s, min(s + _BLOCK, M)) for s in range(0, M, _BLOCK)]

    def solve(X, zs):
        for s, e in blocks:                  # (T - z)^H Y = X, top down
            X[s:e] -= TH[s:e, :s] @ X[:s]
            for i, dc in zip(range(s, e), np.conj(d[s:e, None] - zs)):
                xi = X[i]
                xi -= TH[i, s:i] @ X[s:i]
                xi /= dc
        for s, e in reversed(blocks):        # (T - z) U = Y, bottom up
            X[s:e] -= T[s:e, e:] @ X[e:]
            for i, di in zip(range(e - 1, s - 1, -1), (d[s:e, None] - zs)[::-1]):
                xi = X[i]
                xi -= T[i, i + 1:e] @ X[i + 1:e]
                xi /= di
        return X

    return solve


def _lu_solves(A, z):
    """Solve pair for one shift z through an LU factor of A - z.  A zero
    pivot (z on the spectrum) makes the solves non-finite."""
    B = _shifted(A, complex(z))
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (B,))
    lu, piv, _ = getrf(B, overwrite_a=True)
    return lambda X, rows: getrs(lu, piv, getrs(lu, piv, X.T)[0], trans=2)[0].T


class _TridiagonalFactor:
    """Block factor (see _sigma_min_shifts) of an exactly tridiagonal A,
    from a Givens QR of each A - z = QR (see _givens_band).  Since
    (A - z)^H (A - z) = R^H R, the Lanczos operator is R^{-1} R^{-H}: two
    band triangular sweeps, done by one LAPACK zpbtrs call, and Q is never
    formed.  Plane rotations make the factor backward stable (Golub &
    Van Loan, Matrix Computations, 4th ed., section 5.2), with no pivots.

    R is upper triangular with two superdiagonals, kept in LAPACK's upper
    band storage (kd = 2) as one (M, 3) run per shift, shift after shift:
    a block of n shifts is one (3, n M) Fortran-ordered band whose
    couplings between blocks are exact zeros.  Finished shifts leave by
    moving the runs of kept shifts into their slots, in the order the
    driver moves its rows.  A shift whose R diagonal holds a zero or a
    non-finite entry (z on the spectrum) gets an identity block, since its
    inf times a zero coupling would be nan in its neighbours, and its
    solves read nan.  A block of one shift, as resolvent_norm makes,
    takes the tridiagonal LU instead (see _lu).  seconds sums the time
    spent in factoring."""

    def __init__(self, bands):
        # real off-diagonals stay real, and so does each sine s
        self.bands = [b if b.imag.any() else b.real for b in bands]
        self.seconds = 0.0

    def __call__(self, zs):
        t0 = time.perf_counter()
        solve = self._lu(zs[0]) if zs.size == 1 else self._qr(zs)
        self.seconds += time.perf_counter() - t0
        return solve

    def _qr(self, zs):
        R = _givens_band(self.bands, zs)
        n, M, _ = R.shape
        bad = ~(np.isfinite(R[:, :, 2]) & (R[:, :, 2] != 0)).all(axis=1)
        R[bad] = 0
        R[bad, :, 2] = 1
        kept = np.arange(n)

        def solve(X, rows):
            nonlocal R, kept
            k = rows.size
            if k < kept.size:                  # fill the finished slots
                at = np.empty(n, int)
                at[kept] = np.arange(kept.size)
                src = at[rows]
                moved = np.flatnonzero(src != np.arange(k))
                R[moved] = R[src[moved]]
                R, kept = R[:k], rows
            b = X.reshape(-1, 1).copy()        # shift after shift
            zpbtrs = scipy.linalg.lapack.zpbtrs
            b = zpbtrs(R.reshape(-1, 3).T, b, lower=0, overwrite_b=1)[0]
            Y = b.reshape(k, M)
            Y[bad[rows]] = np.nan
            return Y

        return solve

    def _lu(self, z):
        """Solve for one shift through LAPACK's tridiagonal LU with
        partial pivoting (gttrf, then a gttrs pair): for one shift the
        Givens loop's M numpy steps would cost more than the whole
        resolvent_norm call.  A zero pivot gives nan solves."""
        lapack = scipy.linalg.lapack
        sub, diag, sup = self.bands
        *lu, info = lapack.zgttrf(sub, diag - z, sup)
        if info:
            return lambda X, rows: np.full_like(X, np.nan)
        return lambda X, rows: lapack.zgttrs(
            *lu, lapack.zgttrs(*lu, X.T, trans="C")[0], trans="N")[0].T


def _givens_band(bands, zs):
    """R of A - z = QR for each shift z in zs, A tridiagonal with sub-,
    main and super-diagonal bands = (t, d, u), in LAPACK's upper band
    storage: R[j, i] = (R_{i-2,i}, R_{i-1,i}, R_ii) for zs[j], zeros
    above the matrix.  A numpy loop over the rows, vectorized across the
    shifts: row i carries a_i on the diagonal and b_i right of it
    (a_0 = d_0, b_0 = u_0) and is rotated against row i + 1 by
    [[conj c, conj s], [-s, c]], c = a_i / r_i, s = t_i / r_i,
    r_i = |(a_i, t_i)|, which writes R_ii = r_i,
    R_{i,i+1} = conj(c) b_i + conj(s) d_{i+1} and R_{i,i+2} = conj(s) u_{i+1},
    and carries a_{i+1} = c d_{i+1} - s b_i and b_{i+1} = c u_{i+1}."""
    sub, diag, sup = bands
    sup = np.append(sup, 0)                    # no R_{M-2, M}
    dz = np.subtract.outer(diag, zs)
    a, b = dz[0], sup[0]
    on, first, second = [], [], []             # R_ii, R_{i,i+1}, R_{i,i+2}
    for i, t in enumerate(sub):
        d, u = dz[i + 1], sup[i + 1]
        r = np.hypot(np.abs(a), abs(t))
        c, s = a / r, t / r
        sc = s.conjugate()
        on.append(r)
        first.append(c.conjugate() * b + sc * d)
        second.append(sc * u)
        a, b = c * d - s * b, c * u
    on.append(a)
    R = np.zeros((zs.size, diag.size, 3), complex)
    R[:, :, 2], R[:, 1:, 1], R[:, 2:, 0] = (np.array(v).T for v in (on, first, second[:-1]))
    return R


def _factor(A, z=None, schur=False):
    """(kind, block factor, entries) for _sigma_min_shifts on A: the
    stacked tridiagonal QR when A is exactly tridiagonal and schur is not
    set; otherwise the shared Schur factor, or without schur and for the
    one shift z, the LU factor of A - z.  entries caps the blocks."""
    bands = None if schur else _tridiagonal_bands(A)
    if bands is not None:
        return ("tridiagonal", _TridiagonalFactor(bands),
                min(_STACK_ENTRIES, _SHIFT_ENTRIES))
    if z is not None and not schur:
        solve = _lu_solves(A, z)
        return "lu", lambda zs: solve, _SHIFT_ENTRIES
    solves = _schur_solves(A)
    return ("schur", lambda zs: lambda X, rows: solves(X.T.copy(), zs[rows]).T,
            _SHIFT_ENTRIES)


def _sigma_min_shifts(A, zs, kind, factor, entries, strict=False):
    """sigma_min(A - z) for every shift z in zs by inverse Lanczos, on the
    factor of kind kind (see _factor).

    Blocks of at most entries // M shifts advance together, one Lanczos
    vector per shift in the rows of a (shifts, M) array: C-ordered for
    the tridiagonal factor, the transpose of a C-ordered (M, shifts)
    array for the Schur and LU factors, whose solves run down columns.
    factor(zb) prepares a block zb and returns its solve(X, rows): row j
    of X, for the shift zb[rows[j]], becomes B_j x_j, with
    B_j = (C_j^H C_j)^{-1} and C_j unitarily similar to A - z_j or its
    adjoint, in a new array of X's layout; X is left alone, and rows only
    loses entries from call to call.  The shifts of a block start from
    one seed vector, each running the three-term Lanczos recurrence on
    its own B_j.  After step k a shift's largest Ritz value theta (top
    eigenvalue of its k x k tridiagonal, unit eigenvector y) has residual
    ||B_j v - theta v|| = beta_k |y_k|; once that is at most
    SIGMA_TOL * theta the shift leaves the active set with
    sigma = theta^{-1/2}, and the kept rows past the new active count
    move into the finished shifts' slots.  A shift stops before its top
    Ritz pair loses orthogonality, so no reorthogonalization is done.  A
    non-finite solve, or SIGMA_MAX_ITER steps, fails a shift: it takes
    the SVD of A - z (or raises ConvergenceError when strict).  Returns
    (sigma, indices of the SVD fallbacks, steps run by each shift).
    """
    zs = np.asarray(zs, dtype=complex)
    M = A.shape[0]
    sigma = np.full(zs.size, np.nan)
    steps = np.full(zs.size, SIGMA_MAX_ITER)
    rng = np.random.default_rng(2024)
    seed = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    seed /= np.linalg.norm(seed)
    rowwise = kind == "tridiagonal"
    width = max(1, entries // M)
    with np.errstate(all="ignore"):
        for lo in range(0, zs.size, width):
            active = np.arange(lo, min(lo + width, zs.size))
            solve = factor(zs[active])
            if rowwise:
                Q = np.tile(seed, (active.size, 1))
            else:
                Q = np.repeat(seed[:, None], active.size, 1).T
            Qprev = np.zeros_like(Q)         # beta_0 = ab[:, 1, -1] = 0
            ab = np.zeros((active.size, 2, SIGMA_MAX_ITER))   # alpha, beta
            for k in range(SIGMA_MAX_ITER):
                W = solve(Q, active - lo)
                W -= np.multiply(Qprev, ab[:, 1, k - 1, None], out=Qprev)  # spent
                ab[:, 0, k] = alpha = _real_dots(Q, W, rowwise)
                W -= np.multiply(Q, alpha[:, None], out=Qprev)
                ab[:, 1, k] = beta = np.sqrt(_real_dots(W, W, rowwise))
                ok = np.isfinite(ab[:, :, k]).all(axis=1)
                ab[~ok] = 0                  # a zero tridiagonal never stops
                theta, res = _top_ritz(ab[:, :, :k + 1])
                done = (theta > 0) & (res <= SIGMA_TOL * theta)
                sigma[active[done]] = 1.0 / np.sqrt(theta[done])
                keep = ok & ~done
                steps[active[~keep]] = k + 1
                if not keep.any():
                    break
                del Qprev
                n = np.count_nonzero(keep)
                if n < keep.size:
                    src = n + np.flatnonzero(keep[n:])
                    dst = np.flatnonzero(~keep[:n])
                    for X in (Q, W, ab, active, beta):
                        X[dst] = X[src]
                    Q, W, ab, active, beta = Q[:n], W[:n], ab[:n], active[:n], beta[:n]
                W /= beta[:, None]
                Qprev, Q = Q, W
    failed = np.flatnonzero(np.isnan(sigma))
    if strict and failed.size:
        raise ConvergenceError("inverse Lanczos did not converge")
    for k in failed:
        sigma[k] = _sigma_min_svd(A, zs[k])
    return sigma, failed, steps


def _real_dots(X, Y, rowwise):
    """Re(x_j^H y_j) for every row pair of two (shifts, M) complex arrays
    in the layout of _sigma_min_shifts: along each C-ordered row's
    interleaved real and imaginary parts when rowwise, else down the
    columns of the transposes, real and imaginary sums apart."""
    if rowwise:
        return np.einsum("ij,ij->i", X.view(float), Y.view(float))
    return np.einsum("ij,ij->j", X.T.view(float),
                     Y.T.view(float)).reshape(-1, 2).sum(1)


def _top_ritz(ab):
    """Largest eigenvalue theta of each tridiagonal with diagonal ab[:, 0]
    and off-diagonal ab[:, 1, :-1], and its Ritz residual ab[:, 1, -1]
    |y_k|, y the unit eigenvector of theta (Parlett, The Symmetric
    Eigenvalue Problem, ch. 7 and 13).

    theta comes from a batched eigvalsh, which reads the lower triangle
    and computes no eigenvectors.  y is the eigenvector scaled to y_k = 1
    by the three-term recurrence run from the bottom row up: r_k = 1,
    r_{i-1} = ((theta - alpha_i) r_i - beta_i r_{i+1}) / beta_{i-1}, and
    |y_k| = 1 / ||r||.  Every row but the first holds exactly, so r is an
    eigenvector of T less a rank-one term of norm |gamma| / ||r||, gamma
    the first row's residual, and the Ritz residual it reports is off by
    at most that much.  The recurrence is unstable where y decays toward
    the top; a row keeps it only when |gamma| / ||r|| is at most
    _RITZ_BACKWARD * ||T|| (and ||r|| is finite), and otherwise takes its
    eigenvector from eigh."""
    n, _, k = ab.shape
    T = np.zeros((n, k, k))
    flat = T.reshape(n, k * k)
    alpha, beta = ab[:, 0], ab[:, 1]
    flat[:, ::k + 1] = alpha
    flat[:, k::k + 1] = beta[:, :-1]
    vals = np.linalg.eigvalsh(T)
    theta = vals[:, -1]
    with np.errstate(all="ignore"):
        r, below, squares = np.ones(n), np.zeros(n), np.ones(n)
        for i in range(k - 1, 0, -1):
            r, below = ((theta - alpha[:, i]) * r - beta[:, i] * below) / beta[:, i - 1], r
            squares += r * r
        length = np.sqrt(squares)
        gamma = (alpha[:, 0] - theta) * r + beta[:, 0] * below
        scale = np.maximum(theta, -vals[:, 0])     # ||T||
        res = beta[:, -1] / length
        ok = np.abs(gamma) <= _RITZ_BACKWARD * scale * length
    bad = np.flatnonzero(~(ok & np.isfinite(length)))
    if bad.size:
        res[bad] = beta[bad, -1] * np.abs(np.linalg.eigh(T[bad])[1][:, -1, -1])
    return theta, res


def resolvent_norm(P: OperatorMatrix | np.ndarray, z: complex,
                   method: str = "auto"):
    """sigma_min(P - z I) = 1 / ||(P - z)^{-1}||.

    method "svd" is a direct SVD of P - z: the band SVD when P is a band
    matrix with kl + ku <= M // _BAND_RATIO (see _sigma_min_band), the
    dense one otherwise.  The others run inverse Lanczos: "auto" and
    "lu" on an LU factor of P - z (LAPACK's O(M) tridiagonal LU, gttrf,
    when P is exactly tridiagonal), falling back to that SVD on failure,
    a zero pivot included; "schur"
    on a complex Schur factor, raising ConvergenceError instead.  For
    one z the LU factor costs a fraction of the Schur form.
    """
    if method not in ("svd", "auto", "lu", "schur"):
        raise ValueError(f"unknown resolvent_norm method {method!r}; "
                         "expected 'svd', 'auto', 'lu' or 'schur'")
    A = P.matrix if isinstance(P, OperatorMatrix) else np.asarray(P)
    with single_thread_below(A.shape[0]):
        if method == "svd":
            return _sigma_min_svd(A, z)
        sigma = _sigma_min_shifts(A, [z], *_factor(A, z, schur=method == "schur"),
                                  strict=method == "schur")[0]
    return float(sigma[0])


# ---------------------------------------------------------------------------
# pseudospectrum grid

@dataclass
class ResolventGrid:
    re: np.ndarray              # (nre,) real axis nodes
    im: np.ndarray              # (nim,)
    sigma: np.ndarray           # (nre, nim) sigma_min values (floored)
    floored: np.ndarray         # (nre, nim) bool
    h: float
    floor: float
    timing: dict = field(default_factory=dict)

    def node_values(self):
        Z = self.re[:, None] + 1j * self.im[None, :]
        return Z


def pseudospectrum_grid(P: OperatorMatrix, rectangle, shape, threads: int = 1,
                        force_svd: bool = False) -> ResolventGrid:
    """sigma_min(P - z) over a rectangular z-grid.

    rectangle = (re_min, re_max, im_min, im_max); shape = (n_re, n_im).
    One Schur factorization serves every node, or, for an exactly
    tridiagonal P, one Givens QR factor per node, stacked block by block
    into one band (timing["factor"] names which, None with force_svd;
    see _TridiagonalFactor); the nodes advance together
    through the blocked inverse Lanczos, whose Ritz step computes no
    eigenvectors (see _top_ritz), and nodes that fail it fall back to a
    direct SVD, band or dense as in resolvent_norm(method="svd") (count
    logged in timing).  The step histogram is timing["sigma_steps"]:
    entry k counts the nodes that stopped after k + 1 steps (empty with
    force_svd).  force_svd takes the dense SVD at every node, band
    matrices included.  Values below the floor FLOOR_FACTOR * eps *
    ||P|| are clamped to it and flagged; ||P|| is P.norm(), which a
    tridiagonal P takes from its bands.  threads is only recorded in timing:
    neither the work nor the output depends on it.  The BLAS thread
    count the kernels ran at (one below _blas.SINGLE_THREAD_BELOW, None
    when it cannot be set) is recorded as blas_threads.
    """
    re_min, re_max, im_min, im_max = map(float, rectangle)
    n_re, n_im = shape
    if not (re_max > re_min and im_max > im_min):
        raise ValueError("rectangle is degenerate")
    re = np.linspace(re_min, re_max, n_re)
    im = np.linspace(im_min, im_max, n_im)
    A = P.matrix
    zs = (re[:, None] + 1j * im[None, :]).ravel()
    with single_thread_below(A.shape[0]) as blas_threads:
        floor = FLOOR_FACTOR * np.finfo(float).eps * max(P.norm(), 1e-300)
        t0 = time.perf_counter()
        if force_svd:
            kind, t_factor = None, 0.0
            sigma = np.array([_sigma_min_dense(A, z) for z in zs])
            failed, steps = [], np.zeros(0, int)
        else:
            kind, factor, entries = _factor(A)
            t_factor = time.perf_counter() - t0
            sigma, failed, steps = _sigma_min_shifts(A, zs, kind, factor, entries)
            if kind == "tridiagonal":        # factored block by block
                t_factor += factor.seconds
        t_sweep = time.perf_counter() - t0 - t_factor
    sigma = sigma.reshape(n_re, n_im)
    floored = sigma < floor
    sigma = np.where(floored, floor, sigma)
    timing = {"factorization_s": t_factor, "sweep_s": t_sweep,
              "nodes": n_re * n_im, "svd_fallbacks": len(failed),
              "sigma_steps": np.bincount(steps - 1).tolist(),
              "threads": threads, "blas_threads": blas_threads,
              "factor": kind, "force_svd": force_svd}
    return ResolventGrid(re, im, sigma, floored, P.h, floor, timing)


# ---------------------------------------------------------------------------
# scaling fits

@dataclass
class ScalingFit:
    model: str                  # "power" or "exponential"
    prefactor: float
    exponent: float             # s in C h^s, or rate c in C e^{-c/h}
    r_squared: float
    samples: list
    excluded: list              # (h, value) pairs dropped (nonpositive)
    h_range: tuple

    def predict(self, h):
        if not (self.h_range[0] <= h <= self.h_range[1]):
            raise PspecError(
                f"refusing to extrapolate outside sampled h-range {self.h_range}")
        if self.model == "power":
            return self.prefactor * h ** self.exponent
        return self.prefactor * np.exp(-self.exponent / h)


def scaling_fit(samples, model: str) -> ScalingFit:
    """Least-squares fit of (h, value) pairs to a scaling law.

    power:        value ~ C h^s        (regress log value on log h)
    exponential:  value ~ C e^{-c/h}   (regress log value on 1/h)

    Nonpositive or non-finite values are excluded and reported.
    """
    if model not in ("power", "exponential"):
        raise ValueError("model must be 'power' or 'exponential'")
    samples = [(float(h), float(v)) for h, v in samples]
    good = [(h, v) for h, v in samples if v > 0 and np.isfinite(v) and h > 0]
    excluded = [s for s in samples if s not in good]
    if len(good) < 4:
        raise PspecError(f"need >= 4 usable samples, have {len(good)}")
    hs = np.array([h for h, _ in good])
    vs = np.array([v for _, v in good])
    if hs.max() / hs.min() < 4.0:
        raise PspecError("h values must span a factor >= 4")
    y = np.log(vs)
    x = np.log(hs) if model == "power" else 1.0 / hs
    Amat = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(Amat, y, rcond=None)
    yhat = Amat @ coef
    ss_res = float(((y - yhat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if model == "power":
        exponent = float(coef[0])
    else:
        exponent = float(-coef[0])     # value ~ C e^{-c/h}: slope = -c
    return ScalingFit(model, float(np.exp(coef[1])), exponent, r2,
                      good, excluded, (float(hs.min()), float(hs.max())))


# ---------------------------------------------------------------------------
# marching squares

@dataclass
class Polyline:
    points: np.ndarray
    closed: bool


def contour_extract(grid: ResolventGrid, levels):
    """Marching-squares isolines of sigma_min = eps, per level.

    Returns {level: [Polyline, ...]}; levels outside the field's value
    range produce empty lists.
    """
    out = {}
    for eps in levels:
        if eps <= 0:
            raise ValueError("contour levels must be positive")
        segments = _marching_squares(grid.re, grid.im, grid.sigma, float(eps))
        out[float(eps)] = _chain_segments(segments)
    return out


def _crossed_edges(code):
    """Edge pairs a cell with corner code code (bit k set when corner k
    is above the level) joins, in order; edge k runs from corner k to
    corner (k + 1) % 4, and -1 marks no second segment.  The saddles 5
    and 10 cross all four edges and list one of their two pairings."""
    edges = [k for k in range(4) if (code >> k & 1) != (code >> (k + 1) % 4 & 1)]
    if len(edges) == 4:
        return (0, 1), (2, 3)
    return (tuple(edges) if edges else (-1, -1)), (-1, -1)


_CELL_EDGES = np.array([_crossed_edges(code) for code in range(16)])


def _marching_squares(xs, ys, field, level):
    """Isoline segments of field at level, cell by cell in (i, j) order,
    each a pair of (x, y) points of numpy floats.  Corner k of cell
    (i, j) is node (i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1) for
    k = 0..3.  The cells are classified at once and only those the level
    crosses are visited; a crossing is linear interpolation along its
    edge, t = (level - v_a) / (v_b - v_a).  In a saddle cell (corners 0
    and 2 on one side, 1 and 3 on the other) the corners on the
    cell-center value's side of the level join across the cell, so the
    segments cut off the other two corners."""
    xs, ys, field = np.asarray(xs), np.asarray(ys), np.asarray(field)
    above = field > level
    code = (above[:-1, :-1] + 2 * above[1:, :-1] + 4 * above[1:, 1:]
            + 8 * above[:-1, 1:])
    I, J = np.nonzero((code != 0) & (code != 15))
    code = code[I, J]
    ci = I + np.array([0, 1, 1, 0])[:, None]      # (corner, cell)
    cj = J + np.array([0, 0, 1, 1])[:, None]
    v, px, py = field[ci, cj], xs[ci], ys[cj]
    b = [1, 2, 3, 0]                              # far corner of each edge
    with np.errstate(all="ignore"):              # edges without a crossing
        t = (level - v) / (v[b] - v)
        ex, ey = px + t * (px[b] - px), py + t * (py[b] - py)
    edges = _CELL_EDGES[code]                     # (cell, segment, end)
    saddle = np.flatnonzero((code == 5) | (code == 10))
    center = (v[0, saddle] + v[1, saddle] + v[2, saddle] + v[3, saddle]) / 4.0
    split = (center > level) != (v[0, saddle] > level)
    edges[saddle[split]] = (0, 3), (1, 2)
    cell = np.repeat(np.arange(code.size), 2)
    edges = edges.reshape(-1, 2)
    used = edges[:, 0] >= 0
    cell, (ea, eb) = cell[used], edges[used].T
    starts = zip(ex[ea, cell], ey[ea, cell])
    ends = zip(ex[eb, cell], ey[eb, cell])
    return list(zip(starts, ends))


def _chain_segments(segments):
    """Join segments into polylines by matching endpoints, rounded to
    9 digits; each endpoint's key is computed once and travels with it."""
    def key(p):
        return (round(p[0], 9), round(p[1], 9))

    keyed = [(a, b, key(a), key(b)) for a, b in segments]
    adj = {}
    for a, b, ka, kb in keyed:
        adj.setdefault(ka, []).append((b, (ka, kb)))
        adj.setdefault(kb, []).append((a, (kb, ka)))
    used = set()
    lines = []
    for a, b, ka, kb in keyed:
        if (ka, kb) in used or (kb, ka) in used:
            continue
        chain, keys = [a, b], [ka, kb]
        used.add((ka, kb))
        # extend forward, then backward
        for _ in range(2):
            extended = True
            while extended:
                extended = False
                for q, pair in adj[keys[-1]]:
                    if pair in used or (pair[1], pair[0]) in used:
                        continue
                    chain.append(q)
                    keys.append(pair[1])
                    used.add(pair)
                    extended = True
                    break
            chain.reverse()
            keys.reverse()
        lines.append(Polyline(np.array(chain), keys[0] == keys[-1]))
    return lines
