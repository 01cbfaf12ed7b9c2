"""WKB Gaussian-beam quasimodes at bracket-negative phase-space points.

Construction per the complex WKB recipe: a phase jet phi with
phi(x0) = 0, phi'(x0) = xi0 and Im phi'' positive definite solves
p(x, phi'(x)) = z to high order; amplitude jets solve the transport
hierarchy; a plateau cutoff restricts to |x - x0| <= 2 delta.  The
per-h residual ||(P - z) u|| / ||u|| is measured against the quantized
operator and fitted across h.

Order bookkeeping: for a requested order N the phase jet has degree
2(N + 1) and amplitude a_j degree 2(N - j), which balances the eikonal
defect against the transport defects at O(h^{N+1}).  (A degree-(N+2)
phase alone would cap the residual at O(h^{(N+2)/2}).)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridResolutionError, NotPolynomialError, PspecError
from .brackets import BRACKET_TOL, poisson_bracket_jets
from .jets import Jet, compose_jet, eval_jet
from .quantize import (
    FourierGrid,
    HermiteBasis,
    fbi_transform,
    hermite_functions,
    weyl_quantize_grid,
    weyl_quantize_poly,
)
from .spectral import TAIL_TOL, ScalingFit, scaling_fit
from .symbols import SymbolExpr

__all__ = [
    "hessian_construct",
    "Quasimode",
    "build_quasimode",
    "residual_sweep",
    "localization_report",
    "bump",
    "plateau_cutoff",
]


# ---------------------------------------------------------------------------
# cutoff

def bump(t):
    """The standard compactly supported profile exp(1 - 1/(1 - t^2))."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def plateau_cutoff(r, delta):
    """chi = 1 for r <= delta, bump-profile decay to 0 at r = 2 delta."""
    r = np.abs(np.asarray(r, dtype=float))
    out = np.ones_like(r)
    ramp = (r > delta) & (r < 2 * delta)
    out[r >= 2 * delta] = 0.0
    out[ramp] = bump((r[ramp] - delta) / delta)
    return out


# ---------------------------------------------------------------------------
# Hessian construction

def hessian_construct(p: SymbolExpr, w0):
    """Symmetric complex A with A grad_xi p = -grad_x p and Im A > 0.

    Requires {Re p, Im p}(w0) < 0 and grad_xi p(w0) != 0.  For n = 1
    the closed form is A = -p_x / p_xi; for n = 2 the one-complex-
    parameter family through the constraint is scanned for a positive
    imaginary part (adding i*delta on the bilinear orthocomplement of
    grad_xi p, then a grid refinement).
    """
    w0 = np.asarray(w0, dtype=float)
    n = p.n
    jet = eval_jet(p, w0, 1)
    brk = float(np.real(poisson_bracket_jets(jet.real_part(), jet.imag_part())))
    scale = max(1.0, abs(jet.value()))
    if brk >= -BRACKET_TOL * scale:
        raise PspecError(
            f"bracket {{Re p, Im p}} = {brk:.3e} is not negative at {w0}; "
            "no decaying beam exists here (try the adjoint via the conjugate "
            "symbol at the reflected point)")
    grad_x = np.array([jet.derivative_value(_unit(2 * n, j)) for j in range(n)])
    grad_xi = np.array([jet.derivative_value(_unit(2 * n, n + j)) for j in range(n)])
    if np.linalg.norm(grad_xi) < 1e-12 * scale:
        raise PspecError("grad_xi p vanishes at w0")
    if n == 1:
        A = np.array([[-grad_x[0] / grad_xi[0]]])
        gamma = float(A[0, 0].imag)
        if gamma <= 0:
            raise PspecError("Im A not positive (inconsistent bracket?)")
        return A
    if n != 2:
        raise PspecError("hessian_construct supports n <= 2")
    A0 = _particular_symmetric(grad_xi, -grad_x)
    v = np.array([-grad_xi[1], grad_xi[0]])    # bilinear kernel direction
    S = np.outer(v, v)
    best = None
    # scan i*delta on the free direction, then refine on a local grid
    for delta in [1.0 * 0.5 ** k for k in range(24)]:
        for t in (1j * delta, -1j * delta, delta, -delta):
            A = A0 + t * S
            g = float(np.linalg.eigvalsh((A - A.conj().T) / 2j).min())
            if best is None or g > best[0]:
                best = (g, A)
    g, A = best
    if g <= 0:
        g, A = _refine_free_parameter(A0, S, g, A)
    if g <= 0:
        raise PspecError("could not reach Im A > 0 along the free direction")
    res = np.linalg.norm(A @ grad_xi + grad_x)
    if res > 1e-10 * max(1.0, np.linalg.norm(grad_x)):
        raise PspecError(f"eikonal constraint residual {res:.2e} too large")
    return A


def _unit(m, slot):
    e = [0] * m
    e[slot] = 1
    return tuple(e)


def _particular_symmetric(g, b):
    """Least-squares symmetric 2x2 solution of A g = b."""
    # unknowns (a11, a12, a22); rows: [g1, g2, 0], [0, g1, g2]
    M = np.array([[g[0], g[1], 0.0], [0.0, g[0], g[1]]], dtype=complex)
    sol, *_ = np.linalg.lstsq(M, b, rcond=None)
    return np.array([[sol[0], sol[1]], [sol[1], sol[2]]])


def _refine_free_parameter(A0, S, g_best, A_best):
    for radius in (2.0, 1.0, 0.5, 0.1):
        ts = np.linspace(-radius, radius, 21)
        for tr in ts:
            for ti in ts:
                A = A0 + complex(tr, ti) * S
                g = float(np.linalg.eigvalsh((A - A.conj().T) / 2j).min())
                if g > g_best:
                    g_best, A_best = g, A
    return g_best, A_best


# ---------------------------------------------------------------------------
# quasimode construction (full hierarchy in 1-D)

@dataclass
class Quasimode:
    w0: np.ndarray
    z: complex
    order: int
    delta: float
    A: np.ndarray
    gamma_A: float
    phase: np.ndarray | None            # 1-D: coefficients of (x - x0)^k
    amplitudes: list | None             # 1-D: list of coefficient arrays
    n: int = 1
    records: dict = field(default_factory=dict)

    def phase_values(self, x):
        u = np.asarray(x) - self.w0[0]
        return np.polyval(self.phase[::-1], u)

    def amplitude_values(self, x, h):
        u = np.asarray(x) - self.w0[0]
        total = np.zeros_like(u, dtype=complex)
        hj = 1.0
        for j, coeffs in enumerate(self.amplitudes):
            if j:
                hj *= h
            total += hj * np.polyval(coeffs[::-1], u)
        return total

    def sample(self, x, h):
        """Cutoff WKB vector chi * e^{i phi / h} * amplitude on a grid."""
        x = np.asarray(x, dtype=float)
        if self.n == 1:
            u = x - self.w0[0]
            chi = plateau_cutoff(u, self.delta)
            out = np.zeros(x.shape, dtype=complex)
            sup = chi > 0.0   # the phase polynomial is garbage off-support
            out[sup] = chi[sup] * np.exp(1j * self.phase_values(x[sup]) / h) \
                * self.amplitude_values(x[sup], h)
            return out
        # n = 2 order-0 beam on a flattened tensor grid
        d = x.shape[1]
        u = x - self.w0[:d]
        xi0 = self.w0[d:]
        chi = plateau_cutoff(np.linalg.norm(u, axis=1), self.delta)
        out = np.zeros(x.shape[0], dtype=complex)
        sup = chi > 0.0
        quad = np.einsum("mi,ij,mj->m", u[sup], self.A, u[sup])
        out[sup] = chi[sup] * np.exp(1j * (u[sup] @ xi0 + 0.5 * quad) / h)
        return out

    def eikonal_defect(self, p, radii):
        """max |p(x, phi'(x)) - z| on circles |x - x0| = rho (n = 1).

        phi' is complex off x0, so the symbol is continued in xi
        through its Taylor jet.
        """
        dphi = np.polynomial.polynomial.polyder(self.phase)
        out = []
        for rho in radii:
            worst = 0.0
            for sgn in (+1.0, -1.0):
                x = self.w0[0] + sgn * rho
                xi = np.polynomial.polynomial.polyval(sgn * rho, dphi)
                worst = max(worst, abs(_eval_complex_xi(p, x, xi) - self.z))
            out.append(worst)
        return np.array(out)


def _eval_complex_xi(p, x, xi):
    """Evaluate a 1-D symbol at real x and complex xi via its jet in xi."""
    base = np.array([float(x), float(np.real(xi))])
    jet = eval_jet(p, base, 12)
    dxi = complex(xi) - base[1]
    return jet.eval_offset(np.array([0.0, dxi]))


def build_quasimode(p: SymbolExpr, w0, N: int, delta: float,
                    subprincipal: SymbolExpr | None = None) -> Quasimode:
    """WKB quasimode of order N at w0 (z = p(w0)).

    n = 1: phase jet of degree 2(N+1) from the eikonal recursion
    (each order divides by p_xi(w0)), amplitudes a_0..a_N of degree
    2(N-j) from the Weyl transport hierarchy with a_0(x0) = 1 and the
    subprincipal hook i p_1 a_j (p_1 = 0 by default).  n = 2 supports
    the order-0 Gaussian beam.
    """
    w0 = np.asarray(w0, dtype=float)
    n = p.n
    z = p.eval(w0)
    A = hessian_construct(p, w0)
    gamma = float(np.linalg.eigvalsh((A - A.conj().T) / 2j).min())
    if n == 2:
        if N > 0:
            raise PspecError("orders N > 0 are 1-D only; n = 2 builds the "
                             "order-0 Gaussian beam")
        return Quasimode(w0, z, 0, float(delta), A, gamma, None, None, n=2)
    if n != 1:
        raise PspecError("build_quasimode supports n <= 2")

    phase_deg = 2 * (N + 1)
    Dq = phase_deg + N + 3
    qjet = eval_jet(p, w0, Dq) - Jet.constant(2, Dq, z)
    q_xi0 = qjet.derivative_value((0, 1))

    # phase recursion: kill the u^m coefficient of q(x0+u, phi'(x0+u))
    # by choosing phi_{m+1}
    phase = np.zeros(phase_deg + 1, dtype=complex)
    phase[1] = w0[1]
    phase[2] = 0.5 * A[0, 0]
    for m in range(1, phase_deg):
        # m = 1 already satisfied by the Hessian; still run it for safety
        E = _eikonal_jet(qjet, phase, w0, m)
        cm = E.coefficient((m,))
        if m + 1 <= phase_deg:
            corr = -cm / (q_xi0 * (m + 1))
            phase[m + 1] += corr

    # transport hierarchy
    amps = [np.zeros(2 * (N - j) + 1, dtype=complex) for j in range(N + 1)]
    amps[0][0] = 1.0
    p1jet = None
    if subprincipal is not None:
        p1jet = eval_jet(subprincipal, w0, Dq)
    for ell in range(1, N + 1):
        deg_target = 2 * (N - (ell - 1))
        rhs = _transport_rhs(qjet, p1jet, phase, amps, w0, ell, deg_target - 1
                             if deg_target > 0 else 0)
        amps[ell - 1] = _solve_transport(qjet, p1jet, phase, w0, rhs,
                                         deg_target, a0=amps[ell - 1][0])
    qm = Quasimode(w0, complex(z), N, float(delta), A, gamma,
                   phase, amps, n=1)
    _check_phase_positivity(qm)
    return qm


def _phase_prime_jet(phase, deg):
    """Jet in u of phi'(x0 + u) to the given degree."""
    return Jet.from_terms(1, deg, [((k - 1,), k * phase[k])
                                   for k in range(1, len(phase))])


def _eikonal_jet(qjet, phase, w0, deg):
    """Jet in u of q(x0 + u, phi'(x0 + u))."""
    xj = Jet.from_terms(1, deg, [((0,), w0[0]), ((1,), 1.0)])
    pj = _phase_prime_jet(phase, deg)
    return compose_jet(qjet.truncate(min(qjet.degree, deg + 1)), [xj, pj])


def _ratio_jet(phase, deg):
    """2-var jet in (u, s) of rho(u, s) = (phi(x0+u+s) - phi(x0+u)) / s."""
    # ((u+s)^k - u^k)/s = sum_{j<k} C(k,j) u^j s^{k-1-j}
    return Jet.from_terms(2, deg, [((j, k - 1 - j), math.comb(k, j) * phase[k])
                                   for k in range(1, len(phase)) if phase[k] != 0
                                   for j in range(k)])


def _amp_shift_jet(coeffs, deg):
    """2-var jet of a(x0 + u + s) from 1-var coefficients in u."""
    return Jet.from_terms(2, deg, [((j, k - j), math.comb(k, j) * c)
                                   for k, c in enumerate(coeffs) if c != 0
                                   for j in range(k + 1)])


def _weyl_term_jet(qjet, phase, w0, m, amp_coeffs, deg):
    """Jet in u of T_m[a] = d_s^m[(d_xi^m q)(x0+u+s/2, rho(u, s)) a(x0+u+s)]|_{s=0}."""
    deg2 = deg + m
    dq = qjet
    for _ in range(m):
        dq = dq.partial(1)
    xarg = Jet.from_terms(2, deg2, [((0, 0), w0[0]), ((1, 0), 1.0), ((0, 1), 0.5)])
    rho = _ratio_jet(phase, deg2)
    comp = compose_jet(dq.truncate(min(dq.degree, deg2 + 1)), [xarg, rho])
    total = comp * _amp_shift_jet(amp_coeffs, deg2)
    fact = math.factorial(m)
    return Jet.from_terms(1, deg, [((k,), total.coefficient((k, m)) * fact)
                                   for k in range(deg + 1)])


def _transport_rhs(qjet, p1jet, phase, amps, w0, ell, deg):
    """- sum_{m>=2} (1/m!)(1/i)^m T_m[a_{ell-m}] (- subprincipal terms)."""
    rhs = Jet(1, deg)
    for m in range(2, ell + 1):
        j = ell - m
        term = _weyl_term_jet(qjet, phase, w0, m, amps[j], deg)
        rhs = rhs + term * ((1 / 1j) ** m / math.factorial(m))
    if p1jet is not None:
        for m in range(1, ell):
            j = ell - 1 - m
            if j < 0:
                continue
            term = _weyl_term_jet(p1jet, phase, w0, m, amps[j], deg)
            rhs = rhs + term * ((1 / 1j) ** m / math.factorial(m))
    return -rhs


def _solve_transport(qjet, p1jet, phase, w0, rhs, deg, a0=1.0):
    """Solve (1/i)(g v' + w v) + p1c v = rhs as jets in u, degree deg.

    g = q_xi(x, phi'), w = (1/2) dg/du, p1c = p1(x, phi'); the standard
    transport with the i p_1 hook after multiplying through by i.
    """
    g = _eikonal_jet(qjet.partial(1), phase, w0, deg + 1)
    wj = g.partial(0) * 0.5
    p1c = None if p1jet is None else _eikonal_jet(p1jet, phase, w0, deg + 1)
    g0 = g.coefficient((0,))
    if abs(g0) < 1e-14:
        raise PspecError("transport degenerate: q_xi vanishes at w0")
    v = np.zeros(deg + 1, dtype=complex)
    v[0] = a0
    for k in range(deg):
        # coefficient of u^k of (1/i)(g v' + w v) + p1c v = rhs;
        # the unknown v_{k+1} sits in the j=0 part of g v'
        known = 0.0 + 0.0j
        for j in range(1, k + 1):
            known += g.coefficient((j,)) * (k + 1 - j) * v[k + 1 - j]
        for j in range(0, k + 1):
            known += wj.coefficient((j,)) * v[k - j]
        known = known / 1j
        if p1c is not None:
            for j in range(0, k + 1):
                known += p1c.coefficient((j,)) * v[k - j]
        r = rhs.coefficient((k,))
        v[k + 1] = (r - known) * 1j / (g0 * (k + 1))
    return v


def _check_phase_positivity(qm):
    """Sampled check: Im phi >= gamma_A |u|^2 / 4 on the cutoff support."""
    u = np.linspace(-2 * qm.delta, 2 * qm.delta, 81)
    im = np.imag(np.polyval(qm.phase[::-1], u))
    bound = qm.gamma_A * u * u / 4.0
    bad = im + 1e-12 < bound
    qm.records["phase_positivity"] = {
        "ok": bool(~bad.any()),
        "worst_margin": float((im - bound).min()),
    }


# ---------------------------------------------------------------------------
# residual sweeps

def _grid_for_beam(qm, h, points_per_width=16):
    """Periodic grid on [-L, L) resolving the beam at h; the window
    reaches 2 delta + 2 past |x0|."""
    L = abs(qm.w0[0]) + 2 * qm.delta + 2.0
    gamma = qm.gamma_A
    width = math.sqrt(h / gamma)
    M_width = int(math.ceil(2 * L * points_per_width / width))
    xi_need = abs(qm.w0[-1]) + 2.0
    M_window = int(math.ceil(xi_need * 2 * L / (math.pi * h)))
    M = max(M_width, M_window, 64)
    M = 1 << (M - 1).bit_length()      # next power of two for the FFTs
    return FourierGrid(float(L), M, 1)


def _one_residual(p, qm, h, grid, quantizer):
    x = grid.points_1d()
    u = qm.sample(x, h)
    nrm = np.linalg.norm(u)
    if nrm == 0:
        raise PspecError("quasimode vanishes on the grid")
    if quantizer == "grid":
        try:
            poly = p.to_poly()
        except NotPolynomialError:
            Pu = weyl_quantize_grid(p, grid, h, xi_limit="auto",
                                    tail_frac_tol=1.0).matrix @ u
        else:
            Pu = grid.apply_weyl(poly, h, u)
        r = np.linalg.norm(Pu - qm.z * u) / nrm
    elif quantizer == "hermite":
        # the beam vanishes off its cutoff support, so the Hermite functions
        # are sampled there alone, 1024 points at a time; the samples stay
        # real (a product with complex u would copy them to complex)
        M = min(grid.M, 800)
        support = np.flatnonzero(u)
        coeffs = np.zeros(M, dtype=complex)
        for cols in np.split(support, range(1024, support.size, 1024)):
            ub = u[cols]
            parts = (hermite_functions(M, x[cols], h)
                     @ np.stack([ub.real, ub.imag], axis=1))
            coeffs += parts[:, 0] + 1j * parts[:, 1]
        coeffs *= grid.dx
        # the share of the beam's norm the M modes hold: below 1 - TAIL_TOL
        # the beam leaves the basis and the residual would be wrong
        mass = np.vdot(coeffs, coeffs).real / (nrm * nrm * grid.dx)
        if not mass >= 1 - TAIL_TOL:
            raise GridResolutionError(
                f"beam not held by {M} Hermite modes at h={h}: "
                f"captured mass {mass:.3e}")
        P = weyl_quantize_poly(p, HermiteBasis(M), h)
        r = np.linalg.norm(P.matrix @ coeffs - qm.z * coeffs) / np.linalg.norm(coeffs)
    else:
        raise ValueError("quantization path must be 'grid' or 'hermite'")
    return float(r), nrm


def residual_sweep(p: SymbolExpr, w0, N: int, delta: float, h_list,
                   path: str = "grid", points_per_width: int = 16,
                   model: str = "power", refine_check: bool = False):
    """Apply P to the sampled beam u, record ||(P - z) u|| / ||u|| for
    each h and fit.

    On path="grid" a polynomial symbol is applied matrix-free
    (FourierGrid.apply_weyl: McCoy ordering with FFTs for hD); any
    other symbol is quantized to the dense grid matrix first
    (weyl_quantize_grid).  path="hermite" quantizes the polynomial on
    the Hermite basis (weyl_quantize_poly) and applies it to the
    beam's Hermite coefficients.  Returns (ScalingFit, records); the
    records carry the beam's sampled phase-positivity check, which the
    fit does not read: a beam that fails it still yields a slope.  With
    refine_check=True each h is recomputed on a half-resolution grid
    and a >10% disagreement raises GridResolutionError.
    """
    qm = build_quasimode(p, w0, N, delta)
    records = []
    for h in h_list:
        grid = _grid_for_beam(qm, h, points_per_width)
        r, nrm = _one_residual(p, qm, h, grid, path)
        if refine_check:
            half = FourierGrid(grid.L, max(64, grid.M // 2), 1)
            r2, _ = _one_residual(p, qm, h, half, path)
            if abs(r - r2) > 0.1 * max(r, 1e-300):
                raise GridResolutionError(
                    f"beam under-resolved at h={h}: residuals {r:.3e} vs {r2:.3e}")
        records.append({"h": float(h), "residual": r, "norm": float(nrm),
                        "M": grid.M, "L": grid.L})
        qm.records.setdefault("residuals", {})[float(h)] = r
    fit = scaling_fit([(rec["h"], rec["residual"]) for rec in records], model)
    return fit, {"quasimode": qm, "sweep": records,
                 "phase_positivity": qm.records["phase_positivity"]}


def localization_report(qm: Quasimode, h: float, radii=(0.25, 0.5, 1.0)):
    """FBI mass fractions outside balls around (x0, xi0)."""
    if qm.n != 1:
        raise PspecError("localization_report is 1-D")
    grid = _grid_for_beam(qm, h)
    x = grid.points_1d()
    u = qm.sample(x, h)
    span = max(radii) + 6 * math.sqrt(h)
    x_out = np.linspace(qm.w0[0] - span, qm.w0[0] + span, 81)
    xi_out = np.linspace(qm.w0[1] - span, qm.w0[1] + span, 81)
    field = fbi_transform(u, grid, h, x_out, xi_out)
    masses = {float(r): field.mass_outside((qm.w0[0], qm.w0[1]), r)
              for r in radii}
    return {"h": float(h), "masses_outside": masses,
            "grid": {"L": grid.L, "M": grid.M},
            "isometry_ratio": field.mass() / max(field.input_norm2, 1e-300)}
