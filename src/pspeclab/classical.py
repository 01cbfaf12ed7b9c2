"""Classical pseudospectrum sets: range sampling, values at infinity,
winding numbers, level sets, and the 1-D sign-sum identity."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brackets import BRACKET_TOL, LEVEL_TOL, real_bracket_values
from .errors import ContourError, DegenerateValueError, PspecError
from .symbols import SymbolExpr, _check_finite

__all__ = [
    "RangeAtlas",
    "sample_symbol_range",
    "SigmaInfinity",
    "sigma_infinity",
    "winding_number",
    "LevelSet",
    "solve_level_set",
    "sign_sum",
]


# ---------------------------------------------------------------------------
# range atlas

@dataclass
class ConeTest:
    z0: complex
    direction: float
    aperture: float
    empty: bool
    n_hits: int


@dataclass
class RangeAtlas:
    """Sampled classical data of one symbol over a phase-space box.

    The bracket column holds {Re p, Im p}; {p, pbar} = -2i * bracket.
    """

    symbol: str
    n: int
    box: tuple
    resolution: int
    points: np.ndarray          # (N, 2n)
    values: np.ndarray          # (N,) complex
    brackets: np.ndarray        # (N,) real
    skipped: int = 0
    bracket_tol: float = 0.0
    sigma_inf: "SigmaInfinity | None" = None
    cone_tests: list = field(default_factory=list)

    @property
    def lambda_plus_mask(self):
        return self.brackets > self.bracket_tol

    @property
    def lambda_minus_mask(self):
        return self.brackets < -self.bracket_tol

    @property
    def lambda_mask(self):
        return np.abs(self.brackets) > self.bracket_tol

    @property
    def lambda_values(self):
        return self.values[self.lambda_mask]

    @property
    def lambda_plus_values(self):
        return self.values[self.lambda_plus_mask]

    @property
    def lambda_minus_values(self):
        return self.values[self.lambda_minus_mask]

    @property
    def sigma_values(self):
        """All sampled values (the numerical stand-in for Sigma(p))."""
        return self.values

    def cone_test(self, z0, direction, aperture):
        """Check whether the truncated cone at z0 misses every sampled
        Lambda value.  Empirical only; an empty verdict is monotone in
        the aperture by construction."""
        rel = self.lambda_values - z0
        r = np.abs(rel)
        inside_r = (r > 0) & (r < aperture)
        ang = np.angle(rel)
        dist = np.angle(np.exp(1j * (ang - direction)))
        inside = inside_r & (np.abs(dist) < aperture)
        result = ConeTest(complex(z0), float(direction), float(aperture),
                          bool(~inside.any()), int(inside.sum()))
        self.cone_tests.append(result)
        return result


def sample_symbol_range(p: SymbolExpr, box, resolution: int) -> RangeAtlas:
    """Evaluate p and {Re p, Im p} on a uniform grid over the box.

    box is a sequence of (lo, hi) pairs, one per phase-space coordinate
    (2n of them).  Grid points where the value or the bracket is not
    finite (poles) are skipped and counted.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != 2 * p.n:
        raise ValueError(f"box needs {2 * p.n} coordinate ranges")
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    for lo, hi in box:
        if not hi > lo:
            raise ValueError("box is degenerate")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = [m.ravel() for m in mesh]
    values, brackets = real_bracket_values(p, coords)
    finite = np.isfinite(values) & np.isfinite(brackets)
    skipped = int((~finite).sum())
    points = np.stack(coords, axis=1)[finite]
    values = np.asarray(values).ravel()[finite]
    brackets = np.asarray(brackets).ravel()[finite]
    return RangeAtlas(p.to_string(), p.n, tuple(box), resolution, points,
                      values, brackets, skipped, _bracket_scale(brackets))


def _bracket_scale(brackets):
    if brackets.size == 0:
        return BRACKET_TOL
    return BRACKET_TOL * max(1.0, float(np.abs(brackets).max()))


# ---------------------------------------------------------------------------
# values at infinity

@dataclass
class SigmaInfinity:
    radii: tuple
    candidates: np.ndarray        # complex values persisting at the two largest radii
    candidate_radius: float       # radius at which candidates were observed
    unbounded_directions: np.ndarray   # (m, 2n) unit directions with divergent values
    cluster_tol: float


def sigma_infinity(p: SymbolExpr, radii, divergence: float = 1e6) -> SigmaInfinity:
    """Approximate the limit set of p at phase-space infinity.

    Samples p on spheres |w| = R.  A direction contributes a candidate
    when the values at the two largest radii agree within the cluster
    tolerance; directions whose values diverge are reported separately.
    """
    radii = sorted(float(r) for r in radii)
    if len(radii) < 3:
        raise ValueError("need at least 3 radii")
    dirs = _sphere_directions(2 * p.n, 720)
    vals = []
    for R in radii[-2:]:
        coords = [R * dirs[:, k] for k in range(2 * p.n)]
        vals.append(p.eval_grid(coords))
    v1, v2 = vals  # second-largest, largest radius
    finite = np.isfinite(v2)
    scale = np.median(np.abs(v2[finite])) if finite.any() else 1.0
    cluster_tol = 1e-2 * max(1.0, scale)
    big = (~np.isfinite(v1)) | (~np.isfinite(v2)) | (np.abs(v2) > divergence)
    # compare only where both values are finite (inf - inf is nan)
    settled = ~big
    settled[settled] = np.abs(v2[settled] - v1[settled]) <= cluster_tol
    return SigmaInfinity(tuple(radii), v2[settled], radii[-1],
                         dirs[big], cluster_tol)


def _sphere_directions(dim, count):
    if dim == 2:
        theta = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# winding number

def winding_number(p: SymbolExpr, z: complex, R: float):
    """Index of p - z along the circle |w| = R, oriented positively for
    the symplectic area form (parametrized (x, xi) = (R sin t, R cos t)).

    The argument variation is accumulated over adaptively refined arcs
    with per-arc increment < pi/2.  Returns (iota, trace dict).
    """
    if p.n != 1:
        raise PspecError("winding_number is a 1-D operation")
    theta = np.linspace(0.0, 2 * np.pi, 65)
    vals = _circle_values(p, z, R, theta)
    scale = np.abs(vals).max()
    rounds = 0
    while True:
        if np.abs(vals).min() <= 1e-9 * max(1.0, scale):
            raise ContourError(
                f"p - z vanishes on the contour |w| = {R} (min |p-z| = "
                f"{np.abs(vals).min():.3e})")
        inc = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(inc) >= np.pi / 2
        if not bad.any():
            break
        rounds += 1
        if rounds > 24:
            raise ContourError("arc refinement did not converge")
        mids = 0.5 * (theta[:-1][bad] + theta[1:][bad])
        theta = np.sort(np.concatenate([theta, mids]))
        vals = _circle_values(p, z, R, theta)
    total = float(np.angle(vals[1:] / vals[:-1]).sum())
    iota = int(np.round(total / (2 * np.pi)))
    defect = abs(total / (2 * np.pi) - iota)
    if defect >= 0.01:
        raise ContourError(f"winding certificate failed: defect {defect:.3e}")
    trace = {"points": len(theta), "rounds": rounds, "defect": defect,
             "radius": R}
    return iota, trace


def _circle_values(p, z, R, theta):
    x = R * np.sin(theta)
    xi = R * np.cos(theta)
    return _check_finite(p.eval_grid([x, xi]) - z,
                         f"symbol evaluation failed on the contour |w| = {R}")


# ---------------------------------------------------------------------------
# level sets

@dataclass
class LevelSet:
    target: complex
    solutions: np.ndarray       # (m, 2n)
    brackets: np.ndarray        # (m,) real {Re p, Im p} at each root
    residuals: np.ndarray       # (m,) |p - z|
    bracket_signs: np.ndarray   # (m,) ints in {-1, 0, +1}
    tol: float
    dedupe: float

    def __len__(self):
        return len(self.solutions)


def solve_level_set(p: SymbolExpr, z: complex, box,
                    seeds_per_axis: int = 12) -> LevelSet:
    """Newton (n = 1) or Gauss-Newton (n = 2) search for p(w) = z.

    All seeds iterate in a single vectorized batch; converged roots are
    deduplicated at 1e-6 times the box diameter and sorted canonically.
    An empty LevelSet is a valid outcome.
    """
    if p.n > 2:
        raise PspecError("level-set solving is limited to n <= 2")
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != 2 * p.n:
        raise ValueError(f"box needs {2 * p.n} coordinate ranges")
    z = complex(z)
    level_tol = LEVEL_TOL * max(1.0, abs(z))
    diam = float(np.linalg.norm([hi - lo for lo, hi in box]))
    dedupe = 1e-6 * diam

    axes = [np.linspace(lo, hi, seeds_per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    w = np.stack([m.ravel() for m in mesh], axis=1).astype(float)

    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    margin = 0.5 * (hi - lo)

    alive = np.ones(len(w), dtype=bool)
    for _ in range(60):
        if not alive.any():
            break
        coords = [w[alive][:, k] for k in range(2 * p.n)]
        vals, grads = p.eval_with_gradient(coords)
        F = np.stack([np.real(vals - z), np.imag(vals - z)], axis=1)
        J = np.stack([np.stack([np.real(g) for g in grads], axis=1),
                      np.stack([np.imag(g) for g in grads], axis=1)], axis=1)
        step = _gauss_newton_step(F, J)
        # walkers with a singular Jacobian produce non-finite steps and
        # are dropped (their frozen position may still pass the final
        # residual screen if they had already converged); a walker that
        # the step leaves bitwise in place sees the same step again at
        # every later iteration, so it is done
        bad = ~np.isfinite(step).all(axis=1)
        step[bad] = 0.0
        idx = np.where(alive)[0]
        moved = w[idx] - step
        fixed = (moved == w[idx]).all(axis=1)
        w[idx] = moved
        inside = ((moved >= lo - margin) & (moved <= hi + margin)).all(axis=1)
        alive[idx[bad | ~inside | fixed]] = False

    vals = p.eval_grid([w[:, k] for k in range(2 * p.n)])
    res = np.abs(vals - z)
    good = np.isfinite(res) & (res <= level_tol)
    roots = w[good]
    kept = _cluster_centroids(roots, dedupe) if len(roots) else \
        np.zeros((0, 2 * p.n))

    if len(kept):
        vals_k, brk = real_bracket_values(p, [kept[:, k] for k in range(2 * p.n)])
        res_k = np.abs(vals_k - z)
    else:
        brk = np.zeros(0)
        res_k = np.zeros(0)
    bracket_tol = BRACKET_TOL * max(1.0, float(np.abs(brk).max()) if len(brk) else 1.0)
    signs = np.where(np.abs(brk) <= bracket_tol, 0, np.sign(brk)).astype(int)
    return LevelSet(z, kept, np.asarray(brk, dtype=float), res_k, signs,
                    level_tol, dedupe)


def _cluster_centroids(roots, dedupe):
    """Cluster converged walkers within the dedupe radius and average.

    Roots are sorted lexicographically; each walker is compared against
    kept representatives whose first coordinate lies within the dedupe
    window, so the scan stays near-linear even for manifold-valued
    level sets.  Averaging independent walker stalls recovers extra
    digits at degenerate roots.
    """
    order = np.lexsort(tuple(roots[:, k]
                             for k in range(roots.shape[1] - 1, -1, -1)))
    roots = roots[order]
    reps = []          # representative (first member) per cluster
    sums = []
    counts = []
    for r in roots:
        j = len(reps) - 1
        hit = -1
        while j >= 0 and r[0] - reps[j][0] < dedupe:
            if np.linalg.norm(r - reps[j]) < dedupe:
                hit = j
                break
            j -= 1
        if hit >= 0:
            sums[hit] += r
            counts[hit] += 1
        else:
            reps.append(r)
            sums.append(r.copy())
            counts.append(1)
    return np.array([s / c for s, c in zip(sums, counts)])


def _gauss_newton_step(F, J):
    """Solve J step = F in the least-norm sense, batched.

    F: (m, 2), J: (m, 2, d).  Uses the normal equations of J J^T (2x2),
    which is the exact Newton step when d = 2.  Singular Jacobians give
    non-finite steps, which the caller screens.
    """
    JJt = np.einsum("mik,mjk->mij", J, J)
    det = JJt[:, 0, 0] * JJt[:, 1, 1] - JJt[:, 0, 1] * JJt[:, 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.empty_like(JJt)
        inv[:, 0, 0] = JJt[:, 1, 1] / det
        inv[:, 1, 1] = JJt[:, 0, 0] / det
        inv[:, 0, 1] = -JJt[:, 0, 1] / det
        inv[:, 1, 0] = -JJt[:, 1, 0] / det
        lam = np.einsum("mij,mj->mi", inv, F)
        step = np.einsum("mik,mi->mk", J, lam)
    return step


def sign_sum(p: SymbolExpr, z: complex, box, seeds_per_axis: int = 24) -> int:
    """Sum of sgn {Re p, Im p} over the level set p^{-1}(z), n = 1.

    Raises DegenerateValueError when some root carries a vanishing
    bracket (the identity's hypotheses require regular values).
    """
    if p.n != 1:
        raise PspecError("sign_sum is a 1-D operation")
    ls = solve_level_set(p, z, box, seeds_per_axis)
    if (ls.bracket_signs == 0).any():
        raise DegenerateValueError(
            f"degenerate value z = {z}: a root has vanishing bracket")
    return int(ls.bracket_signs.sum())
