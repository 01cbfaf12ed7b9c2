"""Eigendecomposition with spurious-mode filtering, fast sigma_min
sweeps with Schur reuse, pseudospectrum grids, contours and scaling fits.

sigma_min(P - z) is the reciprocal of the resolvent norm and the
computational currency of every experiment here.  One inverse-iteration
driver serves any set of shifts.  A grid shares one complex Schur factor
P = Q T Q*, and all its shifts advance together at O(M^2) per step each,
instead of the O(M^3) of a full SVD; a single shift may use an LU factor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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

SIGMA_TOL = 1e-10        # relative agreement that stops inverse iteration
SIGMA_MAX_ITER = 50
_BLOCK = 32              # diagonal block size of the Schur substitution
_SHIFT_ENTRIES = 1 << 21  # cap on (shifts advanced together) x M


def _sigma_min_svd(A):
    return float(scipy.linalg.svdvals(A)[-1])


def _schur_solves(A):
    """Solve pair on the complex Schur factor T of A: column j of X
    becomes ((T - z_j)^H (T - z_j))^{-1} x_j, in place.  The off-diagonal
    blocks of T - z_j do not depend on z_j, so one GEMM updates every
    shift; only the diagonal blocks are solved per shift, row by row."""
    T = scipy.linalg.schur(A, output="complex")[0]
    M = T.shape[0]
    TH = np.ascontiguousarray(T.conj().T)
    d = np.diag(T)
    blocks = [(s, min(s + _BLOCK, M)) for s in range(0, M, _BLOCK)]

    def solve(X, zs):
        for s, e in blocks:                  # (T - z)^H Y = X, top down
            X[s:e] -= TH[s:e, :s] @ X[:s]
            for i in range(s, e):
                X[i] = (X[i] - TH[i, s:i] @ X[s:i]) / np.conj(d[i] - zs)
        for s, e in reversed(blocks):        # (T - z) U = Y, bottom up
            X[s:e] -= T[s:e, e:] @ X[e:]
            for i in range(e - 1, s - 1, -1):
                X[i] = (X[i] - T[i, i + 1:e] @ X[i + 1:e]) / (d[i] - zs)
        return X

    return solve


def _lu_solves(A, z):
    """Solve pair for one shift z through an LU factor of A - z.  A zero
    pivot (z on the spectrum) makes the solves non-finite."""
    B = A - complex(z) * np.eye(A.shape[0])
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (B,))
    lu, piv, _ = getrf(B)
    return lambda X, zs: getrs(lu, piv, getrs(lu, piv, X)[0], trans=2)[0]


def _sigma_min_shifts(A, zs, solve, strict=False):
    """sigma_min(A - z) for every shift z in zs by inverse iteration.

    solve(X, zs) maps column j of X to (B_j^H B_j)^{-1} x_j, with B_j
    unitarily similar to A - z_j or its adjoint, and may overwrite X.
    Blocks of shifts advance together from one seed vector; a shift
    leaves the active set once its estimate agrees to SIGMA_TOL with the
    two before it.  A non-finite or zero solve, or SIGMA_MAX_ITER steps,
    fails a shift: it takes the SVD of A - z (or raises ConvergenceError
    when strict).  Returns (sigma, number of SVD fallbacks).
    """
    zs = np.asarray(zs, dtype=complex)
    M = A.shape[0]
    sigma = np.full(zs.size, np.nan)
    rng = np.random.default_rng(2024)
    seed = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    width = max(1, _SHIFT_ENTRIES // M)
    with np.errstate(all="ignore"):
        for lo in range(0, zs.size, width):
            active = np.arange(lo, min(lo + width, zs.size))
            X = np.repeat(seed[:, None] / np.linalg.norm(seed), active.size, 1)
            prev = prev2 = np.full(active.size, np.nan)
            for _ in range(SIGMA_MAX_ITER):
                X = solve(X, zs[active])
                nu = np.linalg.norm(X, axis=0)
                s = 1.0 / np.sqrt(nu)
                live = np.isfinite(nu) & (nu > 0)
                done = (live & (abs(s - prev) <= SIGMA_TOL * s)
                        & (abs(s - prev2) <= SIGMA_TOL * s))
                sigma[active[done]] = s[done]
                keep = live & ~done
                if not keep.any():
                    break
                active, X = active[keep], X[:, keep] / nu[keep]
                prev, prev2 = s[keep], prev[keep]
    failed = np.flatnonzero(np.isnan(sigma))
    if strict and failed.size:
        raise ConvergenceError("inverse iteration did not converge")
    for k in failed:
        sigma[k] = _sigma_min_svd(A - zs[k] * np.eye(M))
    return sigma, failed.size


def resolvent_norm(P: OperatorMatrix | np.ndarray, z: complex,
                   method: str = "auto"):
    """sigma_min(P - z I) = 1 / ||(P - z)^{-1}||.

    method "svd" is the reference path.  The others run inverse
    iteration: "auto" on a Schur factor and "lu" on an LU factor
    (cheapest for one z on a large matrix), both falling back to the
    SVD on failure; "schur" raises ConvergenceError instead.
    """
    A = P.matrix if isinstance(P, OperatorMatrix) else np.asarray(P)
    if method == "svd":
        return _sigma_min_svd(A - z * np.eye(A.shape[0]))
    solve = _lu_solves(A, z) if method == "lu" else _schur_solves(A)
    sigma, _ = _sigma_min_shifts(A, [z], solve, strict=method == "schur")
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
    One Schur factorization serves every node; the nodes advance
    together through the blocked inverse iteration, and nodes that fail
    it fall back to a full SVD (count logged in timing).  force_svd
    takes the SVD at every node.  threads is only recorded in timing:
    neither the work nor the output depends on it.
    """
    re_min, re_max, im_min, im_max = map(float, rectangle)
    n_re, n_im = shape
    if not (re_max > re_min and im_max > im_min):
        raise ValueError("rectangle is degenerate")
    re = np.linspace(re_min, re_max, n_re)
    im = np.linspace(im_min, im_max, n_im)
    A = P.matrix
    floor = FLOOR_FACTOR * np.finfo(float).eps * max(P.norm(), 1e-300)
    zs = (re[:, None] + 1j * im[None, :]).ravel()
    t0 = time.perf_counter()
    if force_svd:
        t1 = time.perf_counter()
        eye = np.eye(A.shape[0])
        sigma, fallbacks = np.array([_sigma_min_svd(A - z * eye) for z in zs]), 0
    else:
        solve = _schur_solves(A)
        t1 = time.perf_counter()
        sigma, fallbacks = _sigma_min_shifts(A, zs, solve)
    t_sweep = time.perf_counter() - t1
    sigma = sigma.reshape(n_re, n_im)
    floored = sigma < floor
    sigma = np.where(floored, floor, sigma)
    timing = {"factorization_s": t1 - t0, "sweep_s": t_sweep,
              "nodes": n_re * n_im, "svd_fallbacks": fallbacks,
              "threads": threads, "force_svd": force_svd}
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
                # saddle: disambiguate with the cell-center value
                center = sum(v) / 4.0
                if (center > level) == (v[0] > level):
                    segments.append((crossings[0], crossings[3]))
                    segments.append((crossings[1], crossings[2]))
                else:
                    segments.append((crossings[0], crossings[1]))
                    segments.append((crossings[2], crossings[3]))
    return segments


def _chain_segments(segments, digits=9):
    """Join segments into polylines by matching endpoints."""
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
        # extend forward
        for _ in range(2):
            extended = True
            while extended:
                extended = False
                tail = chain[-1]
                for (p, q) in adj.get(key(tail), []):
                    pair = (key(p), key(q))
                    if pair in used or (pair[1], pair[0]) in used:
                        continue
                    chain.append(q)
                    used.add(pair)
                    extended = True
                    break
            chain.reverse()
        closed = key(chain[0]) == key(chain[-1])
        lines.append(Polyline(np.array(chain), closed))
    return lines
