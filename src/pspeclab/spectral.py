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
O(M) tridiagonal LU factor, and a block of shifts is solved as one
block-diagonal tridiagonal system.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._blas import single_thread_below
from .errors import ConvergenceError, PspecError
from .quantize import OperatorMatrix

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


def eigendecompose(P: OperatorMatrix, residual_tol=RESIDUAL_TOL,
                   tail_tol=TAIL_TOL) -> SpectrumReport:
    """Dense nonsymmetric eigendecomposition plus acceptance filtering.

    An eigenpair is accepted when its matrix residual ||(P-lam)v|| is
    below residual_tol * ||P|| and its basis-tail mass is below
    tail_tol.  Discretization truncation produces spurious interior
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
    accepted = (residuals <= residual_tol * max(opnorm, 1e-300)) & (tails <= tail_tol)
    order = np.argsort(lam.real, kind="stable")
    return SpectrumReport(lam[order], residuals[order], tails[order],
                          accepted[order], opnorm, residual_tol, tail_tol)


# ---------------------------------------------------------------------------
# sigma_min

SIGMA_TOL = 1e-10        # relative Ritz residual that stops inverse Lanczos
SIGMA_MAX_ITER = 50
_BLOCK = 32              # diagonal block size of the Schur substitution
_SHIFT_ENTRIES = 1 << 21  # cap on (shifts advanced together) x M
_STACK_ENTRIES = 1 << 15  # the same cap when each shift keeps its own factor


def _shifted(A, z):
    """A - z I as one Fortran-ordered copy (the layout LAPACK factors in
    place), its diagonal shifted in place.  The bytes are those of
    A - z * np.eye(M), except that an off-diagonal -0 of A stays -0 where
    subtracting a signed zero of z * np.eye(M) can make it +0."""
    B = np.array(A, dtype=np.result_type(A.dtype, z), order="F")
    B.flat[::B.shape[0] + 1] -= z
    return B


def _sigma_min_svd(A, z):
    return float(scipy.linalg.svdvals(_shifted(A, z), overwrite_a=True)[-1])


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
    return lambda X, rows: getrs(lu, piv, getrs(lu, piv, X)[0], trans=2)[0]


def _tridiagonal_bands(A):
    """The sub-, main and super-diagonal of A when every other entry is
    an exact zero and the order is at least 3 (LAPACK's gttrf bound for
    the stacked system), else None.  Counting the non-zeros makes no
    M x M temporary."""
    if A.shape[0] < 3:
        return None
    bands = [np.diagonal(A, k) for k in (-1, 0, 1)]
    if np.count_nonzero(A) != sum(map(np.count_nonzero, bands)):
        return None
    return bands


class _TridiagonalFactor:
    """Block factor (see _sigma_min_shifts) of an exactly tridiagonal A.

    A block of n shifts is stacked into one block-diagonal tridiagonal
    system of order n M, the couplings between blocks exact zeros, and
    factored by one LAPACK gttrf call: LU with partial pivoting, whose
    growth factor on a tridiagonal matrix is at most 2 (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 9.5).  A zero
    coupling never wins a pivot, so each block is the factor of its own
    A - z: finished shifts leave by dropping their blocks, and the pivot
    indices of the later blocks move up with them.  Each solve pair is
    one gttrs call with trans='C' and one with 'N' on the shifts still
    active.  A shift with a zero pivot (z on the spectrum) gets a unit
    diagonal and no couplings in the stacked system, since its inf times
    a zero coupling would be nan in its neighbours, and its solves read
    nan.  seconds sums the time spent in factoring."""

    def __init__(self, bands):
        self.bands = [np.asarray(b, dtype=complex) for b in bands]
        self.seconds = 0.0

    def __call__(self, zs):
        t0 = time.perf_counter()
        sub, diag, sup = self.bands
        n, M = zs.size, diag.size
        F = np.zeros((4, n, M), complex)       # dl, d, du, du2 of each block
        F[0, :, :-1], F[2, :, :-1] = sub, sup
        np.subtract(diag, zs[:, None], out=F[1])
        flat = F.reshape(4, -1)
        _, _, _, du2, ipiv, _ = scipy.linalg.lapack.zgttrf(
            flat[0, :-1], flat[1], flat[2, :-1],
            overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        flat[3, :-2] = du2
        ipiv = ipiv.reshape(n, M)
        bad = (F[1] == 0).any(axis=1)
        F[:, bad] = 0
        F[1, bad] = 1
        kept = np.arange(n)
        self.seconds += time.perf_counter() - t0

        def solve(X, rows):
            nonlocal F, ipiv, kept
            k = rows.size
            if k < kept.size:                  # compact in place
                keep = np.isin(kept, rows)
                for plane in F:                # one (k, M) copy at a time
                    plane[:k] = plane[keep]
                # pivots count from the top of the stack
                moved = np.flatnonzero(keep) - np.arange(k)
                ipiv[:k] = ipiv[keep] - M * moved[:, None]
                F, ipiv, kept = F[:, :k], ipiv[:k], rows
            dl, d, du, du2 = (f.ravel() for f in F)
            stacked = (dl[:-1], d, du[:-1], du2[:-2], ipiv.ravel())
            b = X.T.copy().reshape(-1, 1)      # shift after shift
            gttrs = scipy.linalg.lapack.zgttrs
            b = gttrs(*stacked, b, trans="C", overwrite_b=1)[0]
            b = gttrs(*stacked, b, trans="N", overwrite_b=1)[0]
            Y = b.reshape(k, M)
            Y[bad[rows]] = np.nan
            return np.ascontiguousarray(Y.T)

        return solve


def _factor(A, z=None, schur=False):
    """(kind, block factor, entries) for _sigma_min_shifts on A: the
    stacked tridiagonal LU when A is exactly tridiagonal and schur is not
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
    return ("schur", lambda zs: lambda X, rows: solves(X.copy(), zs[rows]),
            _SHIFT_ENTRIES)


def _sigma_min_shifts(A, zs, factor, entries, strict=False):
    """sigma_min(A - z) for every shift z in zs by inverse Lanczos.

    Blocks of at most entries // M shifts advance together.  factor(zb)
    prepares a block zb and returns its solve(X, rows): column j of X,
    for the shift zb[rows[j]], becomes B_j x_j, with B_j = (C_j^H C_j)^{-1}
    and C_j unitarily similar to A - z_j or its adjoint, in a new C-ordered
    array; X is left alone, and rows only loses entries from call to
    call.  The shifts of a block start from one seed vector,
    each running the three-term Lanczos recurrence on its own B_j.  After
    step k a shift's largest Ritz value theta (top eigenvalue of its k x k
    tridiagonal, unit eigenvector y) has residual ||B_j v - theta v|| =
    beta_k |y_k|; once that is at most SIGMA_TOL * theta the shift leaves
    the active set with sigma = theta^{-1/2}.  A shift stops before its
    top Ritz pair loses orthogonality, so no reorthogonalization is done.
    A non-finite solve, or SIGMA_MAX_ITER steps, fails a shift: it takes
    the SVD of A - z (or raises ConvergenceError when strict).  Returns
    (sigma, indices of the SVD fallbacks, steps run by each shift).
    """
    zs = np.asarray(zs, dtype=complex)
    M = A.shape[0]
    sigma = np.full(zs.size, np.nan)
    steps = np.full(zs.size, SIGMA_MAX_ITER)
    rng = np.random.default_rng(2024)
    seed = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    width = max(1, entries // M)
    with np.errstate(all="ignore"):
        for lo in range(0, zs.size, width):
            active = np.arange(lo, min(lo + width, zs.size))
            solve = factor(zs[active])
            Q = np.repeat(seed[:, None] / np.linalg.norm(seed), active.size, 1)
            Qprev = np.zeros_like(Q)         # beta_0 = ab[:, 1, -1] = 0
            ab = np.zeros((active.size, 2, SIGMA_MAX_ITER))   # alpha, beta
            for k in range(SIGMA_MAX_ITER):
                W = solve(Q, active - lo)
                W -= np.multiply(Qprev, ab[:, 1, k - 1], out=Qprev)  # spent
                ab[:, 0, k] = alpha = _real_dots(Q, W)
                W -= np.multiply(Q, alpha, out=Qprev)
                ab[:, 1, k] = beta = np.sqrt(_real_dots(W, W))
                ok = np.isfinite(ab[:, :, k]).all(axis=1)
                ab[~ok] = 0                  # a zero tridiagonal never stops
                theta, res = _top_ritz(ab[:, :, :k + 1])
                done = (theta > 0) & (res <= SIGMA_TOL * theta)
                sigma[active[done]] = 1.0 / np.sqrt(theta[done])
                keep = ok & ~done
                steps[active[~keep]] = k + 1
                if not keep.any():
                    break
                del Qprev                    # one compacted copy at a time
                active, ab, beta = active[keep], ab[keep], beta[keep]
                Q = np.compress(keep, Q, axis=1)     # C order, unlike
                W = np.compress(keep, W, axis=1)     # Q[:, keep]
                W /= beta
                Qprev, Q = Q, W
    failed = np.flatnonzero(np.isnan(sigma))
    if strict and failed.size:
        raise ConvergenceError("inverse Lanczos did not converge")
    for k in failed:
        sigma[k] = _sigma_min_svd(A, zs[k])
    return sigma, failed, steps


def _real_dots(X, Y):
    """Re(x_j^H y_j) for every column pair of two C-ordered complex
    arrays, summed over their interleaved real and imaginary parts."""
    return np.einsum("ij,ij->j", X.view(float), Y.view(float)).reshape(-1, 2).sum(1)


def _top_ritz(ab):
    """Largest eigenvalue theta of each tridiagonal with diagonal ab[:, 0]
    and off-diagonal ab[:, 1, :-1], and its Ritz residual ab[:, 1, -1]
    |y_k|, y the unit eigenvector of theta."""
    n, _, k = ab.shape
    T = np.zeros((n, k, k))
    i = np.arange(k)
    T[:, i, i] = ab[:, 0]
    T[:, i[1:], i[:-1]] = T[:, i[:-1], i[1:]] = ab[:, 1, :-1]
    vals, vecs = np.linalg.eigh(T)
    return vals[:, -1], ab[:, 1, -1] * np.abs(vecs[:, -1, -1])


def resolvent_norm(P: OperatorMatrix | np.ndarray, z: complex,
                   method: str = "auto"):
    """sigma_min(P - z I) = 1 / ||(P - z)^{-1}||.

    method "svd" is the reference path.  The others run inverse
    Lanczos: "auto" and "lu" on an LU factor of P - z (the O(M)
    tridiagonal one when P is exactly tridiagonal), falling back to the
    SVD on failure; "schur" on a complex Schur factor, raising
    ConvergenceError instead.  For one z the LU factor costs a fraction
    of the Schur form.
    """
    if method not in ("svd", "auto", "lu", "schur"):
        raise ValueError(f"unknown resolvent_norm method {method!r}; "
                         "expected 'svd', 'auto', 'lu' or 'schur'")
    A = P.matrix if isinstance(P, OperatorMatrix) else np.asarray(P)
    with single_thread_below(A.shape[0]):
        if method == "svd":
            return _sigma_min_svd(A, z)
        _, factor, entries = _factor(A, z, schur=method == "schur")
        sigma = _sigma_min_shifts(A, [z], factor, entries,
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
    tridiagonal P, one tridiagonal LU factor per node (timing["factor"]
    names which, None with force_svd); the nodes advance together
    through the blocked inverse Lanczos, and nodes that fail it fall
    back to a full SVD (count logged in timing).  The step
    histogram is timing["sigma_steps"]: entry k counts the nodes that
    stopped after k + 1 steps (empty with force_svd).  force_svd takes
    the SVD at every node.  threads is only recorded in timing:
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
            sigma = np.array([_sigma_min_svd(A, z) for z in zs])
            failed, steps = [], np.zeros(0, int)
        else:
            kind, factor, entries = _factor(A)
            t_factor = time.perf_counter() - t0
            sigma, failed, steps = _sigma_min_shifts(A, zs, factor, entries)
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


def _interp(p1, v1, p2, v2, level):
    t = (level - v1) / (v2 - v1)
    return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))


def _marching_squares(xs, ys, field, level):
    segments = []
    nx, ny = field.shape
    for i in range(nx - 1):
        for j in range(ny - 1):
            v = [field[i, j], field[i + 1, j], field[i + 1, j + 1], field[i, j + 1]]
            corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]),
                       (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            idx = sum((1 << k) for k in range(4) if v[k] > level)
            if idx in (0, 15):
                continue
            # edge k joins corner k and corner (k+1) % 4
            crossings = {}
            for k in range(4):
                a, b = k, (k + 1) % 4
                if (v[a] > level) != (v[b] > level):
                    crossings[k] = _interp(corners[a], v[a], corners[b], v[b], level)
            ks = sorted(crossings)
            if len(ks) == 2:
                segments.append((crossings[ks[0]], crossings[ks[1]]))
            elif len(ks) == 4:
                # saddle: the corners on the cell-center value's side of
                # the level join across the cell, so the segments cut off
                # the other two corners (corner k sits between edges k-1
                # and k)
                center = sum(v) / 4.0
                if (center > level) == (v[0] > level):
                    segments.append((crossings[0], crossings[1]))
                    segments.append((crossings[2], crossings[3]))
                else:
                    segments.append((crossings[0], crossings[3]))
                    segments.append((crossings[1], crossings[2]))
    return segments


def _chain_segments(segments, digits=9):
    """Join segments into polylines by matching endpoints, rounded to
    digits; each endpoint's key is computed once and travels with it."""
    def key(p):
        return (round(p[0], digits), round(p[1], digits))

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
