"""Escape-function weights, conjugation experiments, and the
dissipative-operator suite.

The escape weight G is assembled from explicit bumps laid along
numerically integrated trajectories of the H_{Re p} flow, mirroring the
finite-sum construction used to prove that H_{Re p} G > 0 on the
characteristic set; success is certified by sampling that derivative.
The conjugation experiment realizes e^{eps G / h} P e^{-eps G / h} at
matrix level with a conditioning cap standing in for the eps-window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._blas import single_thread_below
from .classical import solve_level_set
from .errors import (
    ConditioningError,
    DynamicalConditionViolated,
    EscapeConstructionError,
    PspecError,
)
from .quantize import OperatorMatrix, _wick_poly, wick_quantize
from .quasimodes import bump
from .spectral import eigendecompose, resolvent_norm
from .symbols import SymbolExpr, _check_finite

__all__ = [
    "EscapeWeight",
    "escape_weight",
    "conjugate_operator",
    "ConjugationReport",
    "boundary_exclusion_experiment",
    "DissipativeOperator",
    "dissipative_build",
    "dissipative_resolvent_check",
    "quasimode_spectrum_proximity",
]

DRIFT_TOL = 1e-8         # per-step drift of Re p, relative to max(1, |Re p|)


# ---------------------------------------------------------------------------
# escape function

def _bump_grad_factor(t):
    """B'(t)/t for the radial profile B, safe at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = bump(ti) * (-2.0 / (1.0 - ti * ti) ** 2)
    return out


@dataclass
class EscapeWeight:
    """Sum of bumps with linear profiles along flow segments.

    Piece i contributes B(|w - c_i| / r_i) * <d_i, w - c_i>: a compactly
    supported bump around a trajectory point times the linear ramp in
    the local flow direction.  The gradient at every center is exactly
    d_i, so H_{Re p} G > 0 holds robustly on the trajectory itself;
    gamma is the verified minimum of H_{Re p} G over a fresh level-set
    sample.
    """

    symbol: str
    z0: complex
    centers: np.ndarray          # (m, 2n)
    radii: np.ndarray            # (m,)
    directions: np.ndarray       # (m, 2n) ramp slopes (unit flow tangents)
    gamma: float
    sample_count: int
    T0: float
    vacuous: bool = False
    diagnostics: dict = field(default_factory=dict)

    def __call__(self, *coords):
        """Evaluate G on coordinate arrays (x..., xi...)."""
        coords = [np.asarray(c, dtype=float) for c in coords]
        shape = np.broadcast_shapes(*[c.shape for c in coords])
        total = np.zeros(shape)
        for c, r, d in zip(self.centers, self.radii, self.directions):
            d2 = np.zeros(shape)
            ramp = np.zeros(shape)
            for k, x in enumerate(coords):
                d2 = d2 + (x - c[k]) ** 2
                ramp = ramp + d[k] * (x - c[k])
            total += bump(np.sqrt(d2) / r) * ramp
        return total

    def gradient(self, w):
        """Exact gradient of G at one phase-space point."""
        w = np.asarray(w, dtype=float)
        g = np.zeros_like(w)
        for c, r, d in zip(self.centers, self.radii, self.directions):
            diff = w - c
            dist = np.linalg.norm(diff)
            if dist >= r:
                continue
            ramp = float(np.dot(d, diff))
            g += bump(np.array(dist / r)) * d
            if dist > 0:
                g += _bump_grad_factor(dist / r) * ramp * diff / (r * r)
        return g


def _hamilton_field(p, pts):
    """H_{Re p} = (d_xi Re p, -d_x Re p) at an array of points (m, 2n)."""
    n = pts.shape[1] // 2
    _, grads = p.eval_with_gradient([pts[:, k] for k in range(2 * n)])
    gx = np.stack([np.real(grads[j]) for j in range(n)], axis=1)
    gxi = np.stack([np.real(grads[n + j]) for j in range(n)], axis=1)
    return np.concatenate([gxi, -gx], axis=1)


def _flow_trajectories(p, z0, starts, T0, exit_tol):
    """Batched H_{Re p} flow from the start points until each trajectory
    leaves {|Im(p - z0)| <= exit_tol} or time runs out.

    One shared adaptive RK4 step (halved whenever any active trajectory
    drifts in Re p, which is conserved along its own flow).  Returns a
    list of (points, times, exited) triples.
    """
    W = np.array(starts, dtype=float)
    m, d = W.shape
    coords = [W[:, k] for k in range(d)]
    e_prev = np.real(p.eval_grid(coords))
    drift_ref = np.maximum(1.0, np.abs(e_prev))
    active = np.ones(m, dtype=bool)
    paths = [[W[i].copy()] for i in range(m)]
    times = [[0.0] for _ in range(m)]
    t, dt = 0.0, 1e-3
    max_steps = 50000
    steps = 0
    while t < T0 and active.any() and steps < max_steps:
        steps += 1
        dt = min(dt, T0 - t)
        idx = np.where(active)[0]
        Wa = W[idx]
        k1 = _hamilton_field(p, Wa)
        k2 = _hamilton_field(p, Wa + 0.5 * dt * k1)
        k3 = _hamilton_field(p, Wa + 0.5 * dt * k2)
        k4 = _hamilton_field(p, Wa + dt * k3)
        W_new = Wa + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        vals = _check_finite(p.eval_grid([W_new[:, k] for k in range(d)]),
                             "symbol evaluation failed along the H_{Re p} flow")
        # per-step drift of Re p, conserved along its own flow
        drift = np.abs(np.real(vals) - e_prev[idx])
        if (drift > DRIFT_TOL * drift_ref[idx]).any() and dt > 1e-6:
            dt *= 0.5
            continue
        t += dt
        W[idx] = W_new
        e_prev[idx] = np.real(vals)
        exited = np.abs(np.imag(vals - z0)) > exit_tol
        for row, i in enumerate(idx):
            paths[i].append(W_new[row].copy())
            times[i].append(t)
            if exited[row]:
                active[i] = False
        if (drift < 0.1 * DRIFT_TOL * drift_ref[idx]).all():
            dt *= 1.6
    return [(np.array(paths[i]), np.array(times[i]), not active[i])
            for i in range(m)]


def escape_weight(p: SymbolExpr, z0: complex, box, T0: float,
                  exit_tol: float = 1e-3, seeds_per_axis: int = None
                  ) -> EscapeWeight:
    """Construct G with H_{Re p} G > 0 on the sampled level set p^{-1}(z0).

    Every level-set sample is flowed along H_{Re p}; a trajectory that
    fails to leave {|Im(p - z0)| <= exit_tol} before T0 raises
    DynamicalConditionViolated.  Bumps with linearly increasing
    amplitudes are laid along each trajectory and summed; the result is
    certified by evaluating gamma = min H_{Re p} G on a fresh, denser
    sample of the level set.
    """
    n = p.n
    if seeds_per_axis is None:
        seeds_per_axis = 13 if n == 1 else 7
    ls = solve_level_set(p, z0, box, seeds_per_axis)
    if len(ls) == 0:
        return EscapeWeight(p.to_string(), complex(z0), np.zeros((0, 2 * n)),
                            np.zeros(0), np.zeros((0, 2 * n)), gamma=np.inf,
                            sample_count=0, T0=T0, vacuous=True,
                            diagnostics={"note": "empty level set in the box"})
    starts = _subsample_points(ls.solutions, max_count=48)
    results = _flow_trajectories(p, z0, starts, T0, exit_tol)
    stuck = [starts[i] for i, (_, _, exited) in enumerate(results)
             if not exited]
    trajectories = [(pts, times) for pts, times, exited in results if exited]
    if stuck:
        raise DynamicalConditionViolated(
            f"dynamical condition violated: {len(stuck)} of {len(starts)} "
            f"trajectories stay in the characteristic set past T0 = {T0}",
            stuck_points=stuck)

    box_scale = float(np.mean([hi - lo for lo, hi in box]))
    centers, radii, dirs = [], [], []
    for pts, times in trajectories:
        seg_len = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        total_len = float(seg_len.sum())
        r = min(max(2.0 * total_len, 0.05 * box_scale), 0.5 * box_scale)
        spacing = r / 2.0
        arc = np.concatenate([[0.0], np.cumsum(seg_len)])
        targets = np.arange(0.0, total_len + 0.5 * spacing, spacing) \
            if total_len > 0 else np.array([0.0])
        for s in targets:
            idx = int(np.searchsorted(arc, min(s, arc[-1]), side="left"))
            idx = min(max(idx, 1), len(pts) - 1) if len(pts) > 1 else 0
            if len(pts) > 1:
                lo_a, hi_a = arc[idx - 1], arc[idx]
                frac = (s - lo_a) / max(hi_a - lo_a, 1e-300)
                frac = min(max(frac, 0.0), 1.0)
                c = pts[idx - 1] + frac * (pts[idx] - pts[idx - 1])
            else:
                c = pts[0]
            tangent = _hamilton_field(p, c[None, :])[0]
            speed = np.linalg.norm(tangent)
            if speed < 1e-12:
                continue
            centers.append(c)
            radii.append(r)
            dirs.append(tangent / speed)
    centers = np.array(centers)
    radii = np.array(radii)
    dirs = np.array(dirs)

    weight = EscapeWeight(p.to_string(), complex(z0), centers, radii, dirs,
                          gamma=0.0, sample_count=len(ls), T0=T0)
    gamma = _verify_gamma(p, z0, box, weight, 2 * seeds_per_axis + 1)
    if gamma <= 0:
        raise EscapeConstructionError(
            f"assembled weight fails positivity: gamma = {gamma:.3e}")
    weight.gamma = gamma
    return weight


def _subsample_points(pts, max_count):
    """Greedy thinning keeping well-separated representatives."""
    pts = np.asarray(pts)
    if len(pts) <= max_count:
        return pts
    scale = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)) + 1e-12
    sep = scale / max(np.sqrt(max_count), 2.0) / 2.0
    kept = []
    for w in pts:
        if all(np.linalg.norm(w - k) >= sep for k in kept):
            kept.append(w)
        if len(kept) >= max_count:
            break
    return np.array(kept)


def _verify_gamma(p, z0, box, weight, seeds_per_axis):
    fresh = solve_level_set(p, z0, box, seeds_per_axis)
    if len(fresh) == 0:
        return np.inf
    vals = []
    for w in fresh.solutions:
        H = _hamilton_field(p, w[None, :])[0]
        vals.append(float(np.dot(weight.gradient(w), H)))
    weight.diagnostics["verify_points"] = len(fresh)
    return min(vals)


# ---------------------------------------------------------------------------
# conjugation

@dataclass
class ConjugationReport:
    eps: float
    cond: float
    spectrum_displacement: float | None
    sigma_min: dict


def _quantize_weight(G, basis, h):
    # an EscapeWeight is a callable with compact support: no xi-limit,
    # and no polynomial form for a Hermite basis
    if isinstance(G, EscapeWeight):
        return basis.weyl(G, h, xi_limit=None)
    if isinstance(G, SymbolExpr):
        return basis.weyl(G, h)
    raise PspecError("G must be a SymbolExpr or an EscapeWeight")


def conjugate_operator(P: OperatorMatrix, G, eps: float, h: float,
                       z_list=(), cond_cap: float = 1e12,
                       eps_window=None, compare_spectra: bool = True):
    """P_eps = expm((eps/h) G^w) P expm(-(eps/h) G^w) with diagnostics.

    Raises ConditioningError when cond(E) exceeds cond_cap (the discrete
    stand-in for leaving the eps-window); an explicit eps_window =
    (lo, hi) is checked when given.  Returns (P_eps, ConjugationReport).
    """
    if eps_window is not None:
        lo, hi = eps_window
        if not lo <= eps <= hi:
            raise PspecError(f"eps = {eps} outside the window {eps_window}")
    with single_thread_below(P.size):
        Gop = _quantize_weight(G, P.basis, h)
        W = (eps / h) * Gop.matrix
        herm = np.linalg.norm(W - W.conj().T) <= 1e-12 * max(np.linalg.norm(W), 1e-300)
        if eps == 0:
            E = np.eye(P.size)
            Einv = np.eye(P.size)
            cond = 1.0
        elif herm:
            lam = np.linalg.eigvalsh((W + W.conj().T) / 2)
            cond = float(np.exp(lam.max() - lam.min()))
            if cond > cond_cap:
                raise ConditioningError(
                    f"weight too strong for this basis: cond(E) = {cond:.3e}")
            E = scipy.linalg.expm(W)
            Einv = scipy.linalg.expm(-W)
        else:
            E = scipy.linalg.expm(W)
            Einv = scipy.linalg.expm(-W)
            cond = float(np.linalg.norm(E, 2) * np.linalg.norm(Einv, 2))
            if cond > cond_cap:
                raise ConditioningError(
                    f"weight too strong for this basis: cond(E) = {cond:.3e}")
        Pe_mat = E @ P.matrix @ Einv
        Pe = OperatorMatrix(Pe_mat, h, P.basis,
                            provenance=f"conjugate(eps={eps})", meta=dict(P.meta))
        displacement = None
        if compare_spectra and P.size <= 600:
            a = eigendecompose(P).accepted_eigenvalues
            b = np.linalg.eigvals(Pe_mat)
            if a.size:
                displacement = float(max(np.abs(b - lam).min() for lam in a))
        sig = {complex(z): resolvent_norm(Pe, complex(z), method="svd")
               for z in z_list}
    return Pe, ConjugationReport(float(eps), cond, displacement, sig)


def boundary_exclusion_experiment(p, z0, escape, h_list, build,
                                  C2: float = 2.0, exclusion_margin: float = 1.0,
                                  cond_cap: float = 1e10):
    """Per-h conjugation experiment near a boundary point z0.

    build(h) -> OperatorMatrix quantizes the symbol.  For each h the
    weight is applied with eps = min(C2 h log(1/h), eps_cond_cap); the
    report records m(h) = min |lambda - z0| over the accepted spectrum,
    sigma_min(P_eps - z) on a circle around z0, and the comparison
    booleans (nothing is asserted, radii are observed).
    """
    rows = []
    for h in h_list:
        P = build(h)
        Gop = _quantize_weight(escape, P.basis, h)
        lam = np.linalg.eigvalsh((Gop.matrix + Gop.matrix.conj().T) / 2)
        rng = float(lam.max() - lam.min())
        eps_cap = h * math.log(cond_cap) / max(rng, 1e-12)
        eps = min(C2 * h * math.log(1.0 / h), eps_cap)
        radius = max(2 * h, 0.05)
        zs = [z0 + radius * np.exp(2j * np.pi * k / 8) for k in range(8)]
        Pe, rep = conjugate_operator(P, escape, eps, h, z_list=zs,
                                     cond_cap=cond_cap * 10,
                                     compare_spectra=False)
        spec = eigendecompose(P)
        m_h = spec.distance(z0)
        smin_circle = min(rep.sigma_min.values())
        rows.append({
            "h": float(h),
            "eps": float(eps),
            "cond": rep.cond,
            "m": float(m_h),
            "hlog": float(h * math.log(1.0 / h)),
            "m_exceeds_margin": bool(m_h >= exclusion_margin * h * math.log(1.0 / h)),
            "sigma_min_circle": float(smin_circle),
            "sigma_exceeds_eps_over_C": bool(smin_circle >= eps / 50.0),
        })
    return rows


# ---------------------------------------------------------------------------
# dissipative suite

@dataclass
class DissipativeOperator:
    Q: OperatorMatrix
    W: OperatorMatrix
    P: OperatorMatrix
    hermiticity_defect: float
    w_min_eig: float
    n: int

    @property
    def h(self):
        return self.P.h


def dissipative_build(q: SymbolExpr, a, disc, h: float
                      ) -> DissipativeOperator:
    """P = Q - i W with Q = Weyl(q) (q real) and W = Wick(a) (a >= 0).

    a is a SymbolExpr or, on a 1-D FourierGrid, a plain callable
    a(X, XI), as wick_quantize accepts.  The reality of q and
    nonnegativity of a are checked by sampling on the discretization
    window; Hermiticity of Q and the minimum eigenvalue of W are
    certified on the matrices.
    """
    _wick_poly(a, disc)                # rejects a before any work
    n = q.n
    R = disc.window(h)
    pts = np.random.default_rng(99).uniform(-R, R, size=(3000, R.size))
    cols = [pts[:, k] for k in range(2 * n)]
    qv = _check_finite(q.eval_grid(cols), "q evaluation failed on the window")
    if np.abs(qv.imag).max() > 1e-10 * max(1.0, np.abs(qv).max()):
        raise PspecError("q must be real-valued on the window")
    av = a.eval_grid(cols) if isinstance(a, SymbolExpr) else a(*cols)
    av = _check_finite(np.asarray(av, dtype=complex),
                       "a evaluation failed on the window")
    if np.abs(av.imag).max() > 1e-10 * max(1.0, np.abs(av).max()):
        raise PspecError("a must be real-valued on the window")
    if av.real.min() < -1e-10 * max(1.0, np.abs(av).max()):
        raise PspecError(f"sampled negativity of a: min = {av.real.min():.3e}")
    Q = disc.weyl(q, h)
    defect = Q.hermiticity_defect()
    if defect > 1e-10:
        raise PspecError(f"Hermiticity defect of Q too large: {defect:.3e}")
    Qm = (Q.matrix + Q.matrix.conj().T) / 2
    Q = OperatorMatrix(Qm, h, disc, provenance=Q.provenance, meta=dict(Q.meta))
    W = wick_quantize(a, disc, h)
    Wm = (W.matrix + W.matrix.conj().T) / 2
    with single_thread_below(disc.size):
        wmin = float(np.linalg.eigvalsh(Wm).min())
    W = OperatorMatrix(Wm, h, disc, provenance=W.provenance, meta=dict(W.meta))
    P = OperatorMatrix(Qm - 1j * Wm, h, disc, provenance="dissipative")
    return DissipativeOperator(Q, W, P, defect, wmin, n)


def dissipative_resolvent_check(D: DissipativeOperator, z_list):
    """sigma_min(P - z) >= Im z - 1e-8 ||P|| for Im z > 0; reports margins."""
    with single_thread_below(D.P.size):
        tol = 1e-8 * D.P.norm()
    rows = []
    for z in z_list:
        z = complex(z)
        if z.imag <= 0:
            raise PspecError("dissipative check needs Im z > 0")
        smin = resolvent_norm(D.P, z, method="svd")
        rows.append({"z": z, "sigma_min": smin, "bound": z.imag,
                     "margin": smin - z.imag,
                     "ok": bool(smin >= z.imag - tol)})
    violations = [r for r in rows if not r["ok"]]
    return {"rows": rows, "ok": not violations,
            "note": ("W not PSD numerically?" if violations else "")}


def quasimode_spectrum_proximity(D: DissipativeOperator, u, lam: float):
    """Measure dist(accepted spectrum, lam) against the residual.

    Returns the residual r = ||(P - lam) u|| / ||u||, the spectral
    distance, h, and the ratio dist / (r h^{-n}); callers assert
    dist <= K r h^{-n} for their configured K.
    """
    u = np.asarray(u, dtype=complex)
    nrm = np.linalg.norm(u)
    if nrm == 0:
        raise PspecError("u must be nonzero")
    r = float(np.linalg.norm(D.P.matrix @ u - lam * u) / nrm)
    spec = eigendecompose(D.P)
    dist = spec.distance(lam)
    h = D.h
    scale = r * h ** (-D.n)
    return {"residual": r, "dist": float(dist), "h": h, "n": D.n,
            "ratio": float(dist / scale) if scale > 0 else np.inf,
            "accepted_count": int(spec.accepted.sum())}
