"""Eigendecomposition with spurious-mode filtering, fast sigma_min
sweeps with Schur reuse, pseudospectrum grids, contours and scaling fits.

sigma_min(P - z) is the reciprocal of the resolvent norm and the
computational currency of every experiment here.  One inverse-Lanczos
driver serves any set of shifts: it runs Lanczos on ((P - z)^H (P - z))^{-1},
whose largest eigenvalue is sigma_min^-2, and stops a shift once the Ritz
residual of its top Ritz value is at most SIGMA_TOL times that value.  Its
factor, and every SVD, follows the record of P's one scan (P._structure,
see quantize._scan).  A grid shares one Schur factor T of P = Q T Q* (Q
is never formed; the real form for a real P), and its shifts advance
together at O(M^2) per step each instead of the O(M^3) of a full SVD; a
single shift may use an LU factor.  An exactly tridiagonal P (the
Hermite matrix of the rotated oscillator) skips both: each shift gets
its own O(M) Givens QR factor, a diagonal and a unit triangular band,
and a block of shifts is solved by two band triangular sweeps (a single
shift takes the tridiagonal LU).

The direct measure, method="svd" and the fallback of a shift inverse
Lanczos fails, is an SVD of P - z: a band SVD when every non-zero of P
lies within a narrow band (zgbbrd's bidiagonal, then one bisection,
O(M^2 (kl + ku))), the dense O(M^3) one otherwise.  force_svd grids
always take the dense SVD, the reference the fast paths are checked
against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._blas import single_thread_below
from .errors import ConvergenceError, PspecError
from .quantize import OperatorMatrix, _band_singular_value, _scan

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
_FACTOR_ENTRIES = 1 << 16  # cap on (shifts in one Givens pass) x M
_RITZ_BACKWARD = 1e-2 * SIGMA_TOL  # backward error the Ritz recurrence may keep


def _shifted(A, z):
    """A - z I as one Fortran-ordered copy (the layout LAPACK factors in
    place), its diagonal shifted in place.  The bytes are those of
    A - z * np.eye(M), except that an off-diagonal -0 of A stays -0 where
    subtracting a signed zero of z * np.eye(M) can make it +0."""
    B = np.array(A, dtype=np.result_type(A.dtype, z), order="F")
    B.flat[::B.shape[0] + 1] -= z
    return B


def _sigma_min_svd(A, s, z):
    """sigma_min(A - z) by a direct SVD: the band kernel where A's
    structure s has band set (see _scan), else the dense one."""
    band = s.band
    return _sigma_min_dense(A, z) if band is None else _sigma_min_band(A, z, *band)


def _sigma_min_dense(A, z):
    return float(scipy.linalg.svdvals(_shifted(A, z), overwrite_a=True)[-1])


def _sigma_min_band(A, z, kl, ku):
    """sigma_min(A - z) for A with kl sub- and ku super-diagonals:
    eigenvalue M + 1 of the Golub-Kahan tridiagonal, the smallest
    non-negative one (see _band_singular_value)."""
    return _band_singular_value(A, z, kl, ku, A.shape[0] + 1)


def _schur_T(A, real):
    """Upper triangular T unitarily similar to A; no Schur vectors.

    A complex A takes scipy's complex Schur form (zgees).  A real A (real
    set, see _scan) takes the real quasi-triangular form of dgees, and
    each 2x2 diagonal block, rows j and j+1, is split by one complex
    Givens rotation applied to T alone, by the rule of
    scipy.linalg.rsf2csf (Golub & Van Loan, section 7.4): with
    lambda_j = wr_j + i wi_j the block eigenvalue dgees returns,
    mu = lambda_j - T[j+1, j+1] and (c, s) = (mu, T[j+1, j]) / |(mu,
    T[j+1, j])|, G_j = [[conj(c), s], [-s, c]] makes G_j T G_j^H zero at
    (j+1, j) and puts lambda_j at (j, j).  The G_j act on disjoint row
    and column pairs, so they are applied all at once."""
    if not real:
        return scipy.linalg.schur(A, output="complex", check_finite=False)[0]
    a = np.array(A.real, order="F")
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


def _schur_solves(A, real):
    """Solve pair on the complex Schur factor T of A (see _schur_T):
    column j of X becomes ((T - z_j)^H (T - z_j))^{-1} x_j, in place.
    The off-diagonal blocks of T - z_j do not depend on z_j, so one GEMM
    updates every shift; only the diagonal blocks are solved per shift,
    row by row."""
    T = _schur_T(A, real)
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
    from a Givens QR of each A - z = QR (see _givens_factor), kept as
    R = D U: D is R's diagonal and U is unit upper triangular with two
    superdiagonals.  Since (A - z)^H (A - z) = R^H R = U^H diag(1/w) U
    with w = 1/|D|^2, the Lanczos operator is U^{-1} diag(w) U^{-H}: two
    unit-diagonal band triangular sweeps (BLAS ztbsv, conjugate transpose
    and then no transpose) around a real scaling, with no complex
    division, and Q is never formed.  Plane rotations make the factor
    backward stable (Golub & Van Loan, Matrix Computations, 4th ed.,
    section 5.2), with no pivots.

    U is kept in LAPACK's upper band storage (kd = 2, the unit diagonal
    slot unread) as one (M, 3) run per shift, shift after shift: a block
    of n shifts is one (3, n M) Fortran-ordered band whose couplings
    between shifts are exact zeros, and w is one (n, M) real array.  The
    factor is wide: asked for the block zs[lo:hi], it factors a chunk of
    shifts from lo, all the rest of zs when they fit in
    _FACTOR_ENTRIES // M shifts and else as many whole blocks of hi - lo
    shifts as fit (a block wider than that takes several Givens passes),
    and serves the next blocks of the chunk as views, each row once.  A
    block's solve is spent once the next block is asked for, which frees
    its rows (and a chunk served in full) before a new chunk is
    allocated.  Finished shifts leave by moving the runs of kept shifts,
    and their w rows, into their slots, in the order the driver moves
    its rows.  A shift whose R diagonal holds a zero or a non-finite
    entry (z on the spectrum; some w_i not finite and positive) gets an
    identity block, U = I and w = 1, since its inf times a zero coupling
    would be nan in its neighbours, and its solves read nan.  A lone
    shift, as resolvent_norm makes, takes the tridiagonal LU instead (see
    _lu); a block of one shift in a longer zs takes its rows of the
    chunk like any other.  seconds sums the time spent in factoring."""

    def __init__(self, A):
        # real off-diagonals stay real, and so does each sine s
        self.bands = [b if b.imag.any() else b.real for b in map(A.diagonal, (-1, 0, 1))]
        self.seconds = 0.0
        self._ahead = None      # (zs, lo, U, w): a chunk's rows from zs[lo] on
        self._swept = None      # (U, w, kept, bad) of the block being swept

    def __call__(self, zs, lo=0, hi=None):
        t0 = time.perf_counter()
        hi = zs.size if hi is None else hi
        self._swept = None      # the last block's solve is spent
        if zs.size == 1:
            solve = self._lu(zs[0])
        else:
            U, w = self._block(zs, lo, hi)
            bad = ~(np.isfinite(w) & (w > 0)).all(axis=1)
            U[bad, :, :2] = 0
            w[bad] = 1
            self._swept, solve = (U, w, np.arange(hi - lo), bad), self._solve
        self.seconds += time.perf_counter() - t0
        return solve

    def _block(self, zs, lo, hi):
        """(U, w) of the block zs[lo:hi]: views into the rest of the chunk
        factored ahead when that starts at lo, else into a new chunk."""
        ahead = self._ahead
        if ahead is None or ahead[0] is not zs or ahead[1] != lo or len(ahead[3]) < hi - lo:
            self._ahead = ahead = None         # frees the old chunk first
            M, k = self.bands[1].size, hi - lo
            width = max(1, _FACTOR_ENTRIES // M)
            end = zs.size if zs.size - lo <= width else lo + max(k, width // k * k)
            U, w = np.empty((end - lo, M, 3), complex), np.empty((end - lo, M))
            for p in range(0, end - lo, width):
                q = min(p + width, end - lo)
                _givens_factor(self.bands, zs[lo + p:lo + q], (U[p:q], w[p:q]))
            ahead = zs, lo, U, w
        _, _, U, w = ahead
        k = hi - lo
        self._ahead = (zs, hi, U[k:], w[k:]) if k < len(w) else None
        return U[:k], w[:k]

    def _solve(self, X, rows):
        """Row j of X, for the shift rows[j] of the block being swept,
        becomes U^{-1} diag(w) U^{-H} x_j, in a new array."""
        U, w, kept, bad = self._swept
        k = rows.size
        if k < kept.size:                      # fill the finished slots
            at = np.empty(bad.size, int)
            at[kept] = np.arange(kept.size)
            src = at[rows]
            moved = np.flatnonzero(src != np.arange(k))
            U[moved], w[moved] = U[src[moved]], w[src[moved]]
            U, w = U[:k], w[:k]
            self._swept = U, w, rows, bad
        band = U.reshape(-1, 3).T
        tbsv = scipy.linalg.blas.ztbsv
        y = tbsv(2, band, X.reshape(-1), trans=2, diag=1)       # U^H y = x
        Y = y.reshape(k, -1)
        Y *= w
        tbsv(2, band, y, trans=0, diag=1, overwrite_x=1)        # U x = y
        Y[bad[rows]] = np.nan
        return Y

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


def _givens_factor(bands, zs, out=None):
    """(U, w) of A - z = Q D U for each shift z in zs (see
    _TridiagonalFactor), A tridiagonal with sub-, main and super-diagonal
    bands = (t, d, u): U[j] is the (M, 3) run of LAPACK's upper band
    storage of U for zs[j], U[j, i] = (U_{i-2,i}, U_{i-1,i}, 1), zeros
    above the matrix, and w[j, i] = 1/|D_i|^2.  Written into out, a pair
    of (shifts, M, 3) complex and (shifts, M) real arrays, when given.

    A numpy loop over the rows, vectorized across the shifts: row i
    carries a_i on the diagonal and b_i right of it (a_0 = d_0,
    b_0 = u_0) and is rotated against row i + 1 by
    [[conj c, conj s], [-s, c]], c = a_i / r_i, s = t_i / r_i, with
    rho_i = |a_i|^2 + |t_i|^2 and r_i = sqrt(rho_i).  That makes
    D_i = r_i and, dividing by multiplying with 1/rho_i and 1/r_i, writes
    U_{i,i+1} = (conj(a_i) b_i + conj(t_i) d_{i+1}) / rho_i,
    U_{i,i+2} = conj(t_i) u_{i+1} / rho_i and w_i = 1/rho_i, and carries
    a_{i+1} = (a_i d_{i+1} - t_i b_i) / r_i and b_{i+1} = a_i u_{i+1} / r_i;
    the last row has D_{M-1} = a_{M-1}.  Each row's w_i and U_{i,i+1}
    are written straight into w and U, and U_{i,i+2} = conj(t_i) u_{i+1}
    w_i after the loop: no scratch of size M x shifts is allocated."""
    sub, diag, sup = bands
    M = diag.size
    U, w = out or (np.empty((zs.size, M, 3), complex), np.empty((zs.size, M)))
    U[:, :2, 0] = U[:, 0, 1] = 0               # no couplings
    U[:, :, 2] = 1
    sup = np.append(sup, 0)                    # nothing right of the last row
    tt, tc = abs(sub) ** 2, np.conj(sub)
    a, b = diag[0] - zs, sup[0]
    for i, t in enumerate(sub):
        d = diag[i + 1] - zs
        ac = a.conj()
        inv = np.divide(1, (a * ac).real + tt[i], out=w[:, i])
        first = ac * b
        first += tc[i] * d
        np.multiply(first, inv, out=U[:, i + 1, 1])
        ir = np.sqrt(inv)
        a, b = (a * d - t * b) * ir, a * (sup[i + 1] * ir)
    np.multiply(tc[:-1] * sup[1:-1], w[:, :-2], out=U[:, 2:, 0])
    np.divide(1, (a * a.conj()).real, out=w[:, -1])
    return U, w


def _factor(A, s, z=None, schur=False):
    """(kind, block factor, entries) for _sigma_min_shifts on A of
    structure s: the stacked tridiagonal QR when s.tridiagonal and not
    schur; else the shared Schur factor (real when s.real), or without
    schur and for one shift z, the LU factor of A - z.

    factor(zs, lo, hi) prepares the block zs[lo:hi] of the shift array
    zs (all of it by default) and returns its solve; the tridiagonal
    factor reads the shifts after the block to factor them ahead."""
    if s.tridiagonal and not schur:
        return "tridiagonal", _TridiagonalFactor(A), _STACK_ENTRIES
    if z is not None and not schur:
        solve = _lu_solves(A, z)
        return "lu", lambda zs, lo=0, hi=None: solve, _SHIFT_ENTRIES
    solves = _schur_solves(A, s.real)
    return ("schur", lambda zs, lo=0, hi=None: lambda X, rows:
            solves(X.T.copy(), zs[lo:hi][rows]).T, _SHIFT_ENTRIES)


def _sigma_min_shifts(A, s, zs, kind, factor, entries, strict=False):
    """sigma_min(A - z) for every shift z in zs by inverse Lanczos, on the
    factor of kind kind of A, of structure s (see _factor).

    Blocks of at most entries // M shifts advance together, one Lanczos
    vector per shift in the rows of a (shifts, M) array: C-ordered for
    the tridiagonal factor, the transpose of a C-ordered (M, shifts)
    array for the Schur and LU factors, whose solves run down columns.
    factor(zs, lo, hi) prepares the block zb = zs[lo:hi] and returns its
    solve(X, rows): row j of X, for the shift zb[rows[j]], becomes
    B_j x_j, with B_j = (C_j^H C_j)^{-1} and C_j unitarily similar to
    A - z_j or its adjoint, in a new array of X's layout; X is left
    alone, rows only loses entries from call to call, and a block's
    solve is not called once the next block is prepared.  The shifts of
    a block start from one seed vector, each running the three-term
    Lanczos recurrence on its own B_j.  After step k a shift's largest
    Ritz value theta (top eigenvalue of its k x k tridiagonal, unit
    eigenvector y) has residual ||B_j v - theta v|| = beta_k |y_k|; once
    that is at most SIGMA_TOL * theta the shift leaves the active set
    with sigma = theta^{-1/2}, and the kept rows past the new active
    count move into the finished shifts' slots.  A shift stops before
    its top Ritz pair loses orthogonality, so no reorthogonalization is
    done.  A non-finite solve, or SIGMA_MAX_ITER steps, fails a shift:
    it takes the SVD of A - z (band or dense, see _sigma_min_svd), or
    raises ConvergenceError when strict.  Returns (sigma, indices of the
    SVD fallbacks, steps run by each shift).
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
            solve = factor(zs, lo, lo + active.size)
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
        sigma[k] = _sigma_min_svd(A, s, zs[k])
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

    method "svd" is a direct SVD of P - z, band or dense as P's structure
    says (see _scan).  "auto" and "lu" run inverse Lanczos on an LU
    factor of P - z (gttrf's O(M) one when P is exactly tridiagonal) and
    fall back to that SVD on failure, a zero pivot included; "schur"
    runs it on a Schur factor and raises ConvergenceError instead.  For
    one z the LU factor costs a fraction of the Schur form.  A raw
    ndarray is scanned here, and an inf or nan in it raises ValueError.
    """
    if method not in ("svd", "auto", "lu", "schur"):
        raise ValueError(f"unknown resolvent_norm method {method!r}; "
                         "expected 'svd', 'auto', 'lu' or 'schur'")
    A = P.matrix if isinstance(P, OperatorMatrix) else np.asarray(P)
    s = P._structure if isinstance(P, OperatorMatrix) else _scan(A)
    if not s.finite:
        raise ValueError("array must not contain infs or NaNs")
    with single_thread_below(A.shape[0]):
        if method == "svd":
            return _sigma_min_svd(A, s, z)
        sigma = _sigma_min_shifts(A, s, [z], *_factor(A, s, z, schur=method == "schur"),
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
    The nodes advance together through the blocked inverse Lanczos (see
    _sigma_min_shifts) on one Schur factor or, for an exactly tridiagonal
    P, one Givens QR factor per node (see _TridiagonalFactor):
    timing["factor"] names which (None with force_svd), and
    timing["factorization_s"] counts each chunk of the factor once.  Nodes
    that fail it fall back to a direct SVD, band or dense as in
    resolvent_norm(method="svd") (count logged in timing).  The step
    histogram is timing["sigma_steps"]: entry k counts the nodes that
    stopped after k + 1 steps (empty with force_svd).  force_svd takes the
    dense SVD at every node, band matrices included.  Values below the
    floor FLOOR_FACTOR * eps * ||P|| (P.norm()) are clamped to it and
    flagged.  threads is only recorded in timing: neither the work nor the
    output depends on it.  The BLAS thread count the kernels ran at (one
    below _blas.SINGLE_THREAD_BELOW, None when it cannot be set) is
    recorded as blas_threads.
    """
    re_min, re_max, im_min, im_max = map(float, rectangle)
    n_re, n_im = shape
    if not (re_max > re_min and im_max > im_min):
        raise ValueError("rectangle is degenerate")
    re = np.linspace(re_min, re_max, n_re)
    im = np.linspace(im_min, im_max, n_im)
    A, s = P.matrix, P._structure
    zs = (re[:, None] + 1j * im[None, :]).ravel()
    with single_thread_below(A.shape[0]) as blas_threads:
        floor = FLOOR_FACTOR * np.finfo(float).eps * max(P.norm(), 1e-300)
        t0 = time.perf_counter()
        if force_svd:
            kind, t_factor = None, 0.0
            sigma = np.array([_sigma_min_dense(A, z) for z in zs])
            failed, steps = [], np.zeros(0, int)
        else:
            kind, factor, entries = _factor(A, s)
            t_factor = time.perf_counter() - t0
            sigma, failed, steps = _sigma_min_shifts(A, s, zs, kind, factor, entries)
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
