"""Matrix discretizations of phase-space symbols.

Three quantization paths:

* ``weyl_quantize_poly`` — Weyl-symmetrized (McCoy) operator ordering of
  polynomial symbols on an h-scaled Hermite basis, where the harmonic
  oscillator is exactly diagonal.
* ``weyl_quantize_grid`` — direct midpoint-kernel discretization on a
  periodic spatial grid (n = 1), with the xi-limit split off so
  non-decaying symbols stay within the dual window.
* ``wick_quantize`` — anti-Wick quantization, realized as Weyl
  quantization of the symbol convolved with the unit Gaussian
  pi^-1 e^{-|w|^2}.  Polynomials take the exact terminating heat flow.
  Any other symbol is sampled once on the grid path's midpoint/dual
  lattice, padded by the Gaussian window half-width, and smoothed by
  two banded trapezoid weight matrices before the grid path's kernel
  assembly; the window guard and the non-finite-sample guard refuse
  runs the lattice cannot resolve.

Plus the terminating Moyal product of polynomials and a Gaussian-window
FBI transform for phase-space localization checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridResolutionError, NotPolynomialError, PspecError
from .symbols import PolySymbol, SymbolExpr, _check_finite, symbol_from_poly

__all__ = [
    "HermiteBasis",
    "FourierGrid",
    "OperatorMatrix",
    "weyl_quantize_poly",
    "weyl_quantize_grid",
    "schrodinger_matrix",
    "wick_quantize",
    "moyal_product",
    "moyal_terms",
    "FBIField",
    "fbi_transform",
    "gaussian_smooth_poly",
]


# ---------------------------------------------------------------------------
# bases

class _Basis:
    """M modes or points per axis on n axes, indices row-major with axis 1
    slowest.  Each subclass owns what depends on the discretization: its
    `kind` (with its fields, the operator container's header), the outer
    indices `_outer_1d` that `tail_mass` counts, the phase-space `window`
    it resolves and its Weyl path `weyl`."""

    @property
    def size(self):
        return self.M ** self.n

    def tail_mass(self, vectors, frac=0.1):
        """Fraction of squared mass on the outer `frac` of the indices
        (`_outer_1d`) along any axis; vectors has shape (size, k)."""
        v = np.abs(np.asarray(vectors)) ** 2
        norms = v.sum(axis=0)
        outer1 = self._outer_1d(frac)
        mask = np.zeros((self.M,) * self.n, dtype=bool)
        for axis in range(self.n):
            sl = [np.newaxis] * self.n
            sl[axis] = slice(None)
            mask |= outer1[tuple(sl)]
        tail = v.reshape((self.M,) * self.n + (-1,))[mask].reshape(-1, v.shape[-1]).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(norms > 0, tail / norms, 0.0)


@dataclass(frozen=True)
class HermiteBasis(_Basis):
    """h-scaled Hermite functions, M modes per axis, n axes.

    The basis diagonalizes (hD)^2 + x^2 with eigenvalues h(2k+1).
    Tensor indices are row-major with axis 1 slowest.
    """

    M: int
    n: int = 1
    kind = "hermite"

    def _outer_1d(self, frac):
        return np.arange(self.M) >= int(np.ceil(self.M * (1 - frac)))

    def window(self, h):
        """Half-widths (2n,) of the box [-R, R]^2n the modes resolve: the
        turning radius sqrt(2 h M) of the top mode, widened by 10%."""
        return np.full(2 * self.n, math.sqrt(2 * h * self.M) * 1.1)

    def weyl(self, p, h, xi_limit="auto"):
        """weyl_quantize_poly; the basis has no dual window, so xi_limit
        is not used."""
        return weyl_quantize_poly(p, self, h)

    def ladder(self):
        """Lowering operator a with a[k-1, k] = sqrt(k)."""
        return np.diag(np.sqrt(np.arange(1, self.M)), 1).astype(complex)

    def position_1d(self, h):
        a = self.ladder()
        return math.sqrt(h / 2.0) * (a + a.conj().T)

    def momentum_1d(self, h):
        a = self.ladder()
        return 1j * math.sqrt(h / 2.0) * (a.conj().T - a)

    def evaluate(self, coeffs, x, h):
        """Evaluate a coefficient vector on a 1-D spatial grid (n = 1)."""
        if self.n != 1:
            raise PspecError("spatial evaluation implemented for n = 1")
        funcs = hermite_functions(self.M, x, h)
        return funcs.T @ np.asarray(coeffs, dtype=complex)


def hermite_functions(M, x, h):
    """Array (M, len(x)) of h-scaled Hermite functions by recurrence."""
    x = np.asarray(x, dtype=float)
    y = x / math.sqrt(h)
    out = np.zeros((M, x.size))
    out[0] = (np.pi * h) ** (-0.25) * np.exp(-0.5 * y * y)
    if M > 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for k in range(1, M - 1):
        out[k + 1] = (math.sqrt(2.0 / (k + 1)) * y * out[k]
                      - math.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


@dataclass(frozen=True)
class FourierGrid(_Basis):
    """Uniform periodic grid on [-L, L) with M points per axis."""

    L: float
    M: int
    n: int = 1
    kind = "fourier"

    def points_1d(self):
        return -self.L + 2.0 * self.L * np.arange(self.M) / self.M

    def points(self):
        """(size, n) spatial points, axis 1 slowest."""
        x = self.points_1d()
        grids = np.meshgrid(*([x] * self.n), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    @property
    def dx(self):
        return 2.0 * self.L / self.M

    def dual_1d(self, h):
        """hD eigenvalues on the torus, fft ordering."""
        k = np.fft.fftfreq(self.M, d=1.0 / self.M)  # integers
        return h * np.pi * k / self.L

    def _outer_1d(self, frac):
        return np.abs(self.points_1d()) >= (1 - frac) * self.L

    def window(self, h):
        """Half-widths (2n,) of the resolved box: L in x, and the largest
        dual frequency pi h M / (2 L) in xi."""
        xi_max = math.pi * h * self.M / (2 * self.L)
        return np.array([self.L] * self.n + [xi_max] * self.n)

    def weyl(self, p, h, xi_limit="auto"):
        """weyl_quantize_grid without the dual-window check."""
        return weyl_quantize_grid(p, self, h, xi_limit=xi_limit,
                                  tail_frac_tol=1.0)


@dataclass
class OperatorMatrix:
    """Dense matrix discretization of a quantized symbol."""

    matrix: np.ndarray
    h: float
    basis: object
    provenance: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def size(self):
        return self.matrix.shape[0]

    def norm(self):
        if "norm2" not in self.meta:
            self.meta["norm2"] = float(np.linalg.norm(self.matrix, 2))
        return self.meta["norm2"]

    def hermiticity_defect(self):
        m = self.matrix
        return float(np.linalg.norm(m - m.conj().T) / max(np.linalg.norm(m), 1e-300))

    def __post_init__(self):
        _check_finite(self.matrix, "operator matrix has non-finite entries")


# ---------------------------------------------------------------------------
# polynomial / Hermite path

def _as_poly(p, n=None) -> PolySymbol:
    if isinstance(p, PolySymbol):
        return p
    if isinstance(p, SymbolExpr):
        return p.to_poly()
    raise NotPolynomialError(f"{type(p).__name__} is not a polynomial symbol")


def _mccoy_1d(X, P, a, b):
    """Weyl-ordered x^a xi^b as a matrix, symmetrizing over the
    lower-degree factor to minimize multiplications."""
    if a == 0 and b == 0:
        return np.eye(X.shape[0], dtype=complex)
    if a == 0:
        return np.linalg.matrix_power(P, b)
    if b == 0:
        return np.linalg.matrix_power(X, a)
    # split the factor of lower degree m around the other's k-th power
    outer, m, inner, k = (X, a, P, b) if a <= b else (P, b, X, a)
    pk = np.linalg.matrix_power(inner, k)
    powers = [np.linalg.matrix_power(outer, r) for r in range(m + 1)]
    out = sum(math.comb(m, r) * (powers[r] @ pk @ powers[m - r])
              for r in range(m + 1))
    return out / 2.0 ** m


def weyl_quantize_poly(p, basis: HermiteBasis, h: float) -> OperatorMatrix:
    """Weyl quantization of a polynomial symbol on the Hermite basis.

    Each monomial x^alpha xi^beta maps to the McCoy-symmetrized product
    of the ladder-built position/momentum matrices, per axis, joined by
    Kronecker products (axis 1 slowest).
    """
    poly = _as_poly(p)
    n = basis.n
    if poly.n != n:
        raise ValueError("symbol dimension does not match basis")
    deg = poly.degree()
    _tail_dominance_check(poly, basis, h)
    # build ladder products on a padded basis and slice back, so the
    # returned entries are exact matrix elements of the untruncated
    # operator (a monomial couples modes within distance deg only)
    padded = HermiteBasis(basis.M + deg, 1)
    X = padded.position_1d(h)
    P = padded.momentum_1d(h)
    M = basis.M
    total = np.zeros((basis.size, basis.size), dtype=complex)
    cache = {}
    for key, coeff in poly.coeffs.items():
        factors = []
        for axis in range(n):
            a, b = key[axis], key[n + axis]
            if (a, b) not in cache:
                cache[(a, b)] = _mccoy_1d(X, P, a, b)[:M, :M]
            factors.append(cache[(a, b)])
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        total += complex(coeff) * term
    return OperatorMatrix(total, h, basis,
                          provenance=f"weyl_poly(deg={deg})")


def _tail_dominance_check(poly, basis, h, warn_frac=0.01):
    """Warn when the top Hermite coefficients of a monomial's action
    would carry more than warn_frac of its norm (degree too high for
    the basis size)."""
    deg = poly.degree()
    M = basis.M
    if deg == 0:
        return
    # x^d maps mode M-1 up to M-1+d with weights ~ (h M / 2)^(d/2);
    # compare the escaping weight against the in-basis weight
    esc = (0.5 * h * (M + deg)) ** (deg / 2.0)
    inner = max((0.5 * h * M) ** (deg / 2.0), 1e-300)
    if M <= deg or esc / inner > 1e6:
        raise GridResolutionError(
            f"polynomial degree {deg} too high for Hermite basis M={M}")


# ---------------------------------------------------------------------------
# grid path

def _symbol_values(p, X, XI):
    """Evaluate a SymbolExpr or plain callable on coordinate arrays."""
    if isinstance(p, SymbolExpr):
        if p.n != 1:
            raise PspecError("grid quantization is 1-D")
        return p.eval_grid([X, XI])
    return np.asarray(p(X, XI), dtype=complex)


def _resolve_xi_limit(p, xi_limit, mids, xi):
    if xi_limit is None:
        return np.zeros_like(mids, dtype=complex)
    if xi_limit == "auto":
        # numeric fallback: average of p at the two extreme dual frequencies
        lo = _symbol_values(p, mids, np.full_like(mids, xi.min()))
        hi = _symbol_values(p, mids, np.full_like(mids, xi.max()))
        return 0.5 * (lo + hi)
    return np.full_like(mids, complex(xi_limit), dtype=complex)


def weyl_quantize_grid(p, grid: FourierGrid, h: float, xi_limit="auto",
                       tail_frac_tol: float = 0.01) -> OperatorMatrix:
    """Midpoint-kernel Weyl quantization on a periodic grid (n = 1).

    The matrix entry (j, l) is the dual-grid quadrature of
    (2 pi h)^-1 int p((x_j+x_l)/2, xi) e^{i (x_j-x_l) xi / h} d xi
    times the quadrature weight dx, evaluated with one inverse DFT per
    midpoint after subtracting the xi-limit; the limit itself becomes a
    diagonal multiplication term.

    p is a SymbolExpr, a PolySymbol or a callable p(X, XI).  xi_limit is
    "auto" (the mean of p at the two extreme dual frequencies, per
    midpoint), None (nothing subtracted) or a number.  tail_frac_tol
    bounds the fraction of transform power the dual window may miss.
    """
    if grid.n != 1:
        raise PspecError("weyl_quantize_grid is restricted to n = 1")
    if isinstance(p, PolySymbol):
        p = symbol_from_poly(p)
    M = grid.M
    x = grid.points_1d()
    xi = grid.dual_1d(h)
    # midpoints on the torus: for a wrapped pair the midpoint follows
    # the short arc, so the midpoint index m = j + l' lives on a 2M grid
    mids = -grid.L + grid.L * np.arange(2 * M) / M
    mids = np.where(mids >= grid.L, mids - 2 * grid.L, mids)
    p_inf = _resolve_xi_limit(p, xi_limit, mids, xi)
    prof = _symbol_values(p, mids[:, None], xi[None, :]) - p_inf[:, None]
    A = _midpoint_kernel(prof, tail_frac_tol)
    A[np.arange(M), np.arange(M)] += p_inf[2 * np.arange(M) % (2 * M)]
    return OperatorMatrix(A, h, grid, provenance="weyl_grid",
                          meta={"xi_window": float(np.abs(xi).max())})


def _midpoint_kernel(prof, tail_frac_tol):
    """The (M, M) kernel matrix from the (2M, M) midpoint/dual profile
    (dual axis in fft order): one inverse DFT per midpoint, the dual
    window check, then entry (j, l) read at midpoint index j + l (the
    short arc on the torus) and difference j - l."""
    _check_finite(prof, "symbol evaluation failed on the dual grid")
    rows = np.fft.ifft(prof, axis=1)
    _dual_window_check(rows, tail_frac_tol)
    M = prof.shape[1]
    J, L_idx = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    diff = J - L_idx
    l_shift = np.where(diff > M // 2, M, 0) + np.where(diff < -(M // 2), -M, 0)
    m_idx = (J + L_idx + l_shift) % (2 * M)
    return rows[m_idx, diff % M]


def _dual_window_check(rows, tol):
    """Reject profiles whose inverse transform has not decayed by the
    middle of the index range (the xi-window misses symbol variation)."""
    M = rows.shape[1]
    if M < 8:
        return
    band = int(max(1, round(0.05 * M)))
    mid = M // 2
    power = np.abs(rows) ** 2
    tail = power[:, mid - band: mid + band + 1].sum()
    total = power.sum() + 1e-300
    frac = tail / total
    if frac > tol:
        raise GridResolutionError(
            f"dual-grid window too small: transform tail fraction {frac:.2e}")


def schrodinger_matrix(V, grid: FourierGrid, h: float) -> OperatorMatrix:
    """-h^2 Laplacian (periodic spectral) plus diagonal potential."""
    if grid.n not in (1, 2):
        raise PspecError("schrodinger_matrix supports n in {1, 2}")
    M = grid.M
    mult = grid.dual_1d(h) ** 2
    F = np.fft.fft(np.eye(M), axis=0)
    D2 = np.fft.ifft(mult[:, None] * F, axis=0)
    if grid.n == 1:
        x = grid.points_1d()
        if isinstance(V, SymbolExpr):
            Vx = V.eval_grid([x, np.zeros_like(x)])
        else:
            Vx = np.asarray(V(x), dtype=complex)
        A = D2 + np.diag(Vx)
    else:
        eye = np.eye(M)
        lap = np.kron(D2, eye) + np.kron(eye, D2)
        pts = grid.points()
        if isinstance(V, SymbolExpr):
            coords = [pts[:, 0], pts[:, 1],
                      np.zeros(grid.size), np.zeros(grid.size)]
            Vx = V.eval_grid(coords)
        else:
            Vx = np.asarray(V(pts[:, 0], pts[:, 1]), dtype=complex)
        A = lap + np.diag(Vx)
    return OperatorMatrix(A, h, grid, provenance="schrodinger")


# ---------------------------------------------------------------------------
# Wick quantization

def gaussian_smooth_poly(poly: PolySymbol) -> PolySymbol:
    """Convolution with the unit Gaussian pi^-n e^{-|w|^2}: the heat
    flow exp(Laplacian / 4) applied to the polynomial (terminates)."""
    n2 = 2 * poly.n
    out = poly.copy()
    term = poly.copy()
    deg = poly.degree()
    for j in range(1, deg // 2 + 1):
        lap = PolySymbol(poly.n)
        for slot in range(n2):
            second = term.divided_derivative(slot, 2)
            lap = lap + second.scale(2.0)  # d^2/ds^2 = 2 * divided-2nd
        term = lap.scale(1.0 / (4.0 * j))
        if not term.coeffs:
            break
        out = out + term
    return out


def wick_quantize(a, basis, h: float, gh_nodes: int = 40,
                  tail_frac_tol: float = 0.01) -> OperatorMatrix:
    """Anti-Wick quantization: Weyl quantization of a * unit Gaussian.

    Polynomial symbols use the exact terminating heat flow and either
    basis.  A general symbol needs a FourierGrid (n = 1).  It is sampled
    once on the grid path's midpoint/dual lattice (spacings L/M and
    h pi/L) widened by the window half-width R on each side, and the
    convolution c = a * pi^-1 e^{-|w|^2} is the trapezoid rule on that
    lattice, truncated to |u|, |v| <= R: two banded Gaussian weight
    matrices, xi first, then x.  Blocks of 2^14 samples keep the extra
    working set near 1 MB with the symbol's temporaries.  The error is
    about e^{-pi^2/dt^2} for a smooth symbol at spacing dt, and nothing
    wraps around, since the lattice is padded rather than periodic.  c
    then goes through the grid path's kernel assembly (xi-limit 0).

    gh_nodes sets R, the largest node of the gh_nodes-point
    Gauss-Hermite rule.  Raises GridResolutionError when the Gaussian
    mass beyond R, e^{-R^2}, exceeds 1e-8, or when the dual window
    misses the smoothed symbol (tail_frac_tol), and PspecError when the
    symbol is not finite on the padded lattice.  Nonnegative symbols
    give PSD matrices for h <= 1.
    """
    poly = None
    if isinstance(a, PolySymbol):
        poly = a
    elif isinstance(a, SymbolExpr) and a.polynomial_degree() is not None:
        poly = a.to_poly()
    if poly is not None:
        op = basis.weyl(gaussian_smooth_poly(poly), h, xi_limit=None)
        op.provenance = "wick(poly)"
        return op
    if not isinstance(basis, FourierGrid) or basis.n != 1:
        raise PspecError("non-polynomial Wick quantization needs a 1-D FourierGrid")
    R = float(np.polynomial.hermite.hermgauss(gh_nodes)[0].max())
    # Gaussian mass beyond the window half-width must be negligible
    # against the symbol's variation
    tail = math.exp(-R ** 2)
    if tail > 1e-8:
        raise GridResolutionError(
            f"integration window too small: Gaussian tail mass {tail:.1e} "
            f"(increase gh_nodes)")
    M, L = basis.M, basis.L
    pad_x = math.ceil(R * M / L)
    pad_xi = math.ceil(R * L / (h * np.pi))
    x = -L + L * np.arange(-pad_x, 2 * M + pad_x) / M
    xi = h * np.pi * np.arange(-(M // 2) - pad_xi, (M - 1) // 2 + pad_xi + 1) / L
    Gx = _gaussian_band(2 * M, pad_x, L / M)
    Gxi = _gaussian_band(M, pad_xi, h * np.pi / L)
    # smooth in xi one block of lattice columns x[cols] at a time
    # (samples indexed [xi, x]), then in x
    smooth_xi = np.empty((x.size, M), dtype=complex)
    step = max(1, 2 ** 14 // xi.size)
    for r in range(0, x.size, step):
        cols = slice(r, r + step)
        block = _symbol_values(a, x[None, cols], xi[:, None])
        block = np.broadcast_to(block, (xi.size, x[cols].size))
        _check_finite(block, "symbol evaluation failed on the Wick lattice")
        smooth_xi[cols] = _real_times_complex(Gxi, block).T
    c = _real_times_complex(Gx, smooth_xi)
    A = _midpoint_kernel(np.fft.ifftshift(c, axes=1), tail_frac_tol)
    return OperatorMatrix(A, h, basis, provenance="wick(lattice)",
                          meta={"xi_window": float(np.abs(basis.dual_1d(h)).max())})


def _gaussian_band(n, pad, dt):
    """(n, n + 2 pad) trapezoid weights dt pi^-1/2 e^{-t^2} of the unit
    Gaussian at t = (i + pad - k) dt, zero beyond |t| = pad dt: row i
    averages lattice points i .. i + 2 pad around output point i."""
    g = dt / math.sqrt(math.pi) * np.exp(-(dt * np.arange(-pad, pad + 1)) ** 2)
    G = np.zeros((n, n + 2 * pad))
    for i in range(n):
        G[i, i:i + 2 * pad + 1] = g
    return G


def _real_times_complex(G, C):
    """G @ C for real G and complex C as one real product over the
    interleaved real and imaginary parts (numpy's mixed-type matmul
    bypasses BLAS)."""
    C = np.ascontiguousarray(C, dtype=complex)
    return (G @ C.view(float)).view(complex)


# ---------------------------------------------------------------------------
# Moyal product

def moyal_terms(p1, p2, max_order=None):
    """Graded terms T_k of the Moyal product: p1 #_h p2 = sum_k h^k T_k.

    T_k = (i/2)^k sum_{|mu|+|nu|=k} (-1)^{|nu|} (mu! nu!)
          (D_x^mu D_xi^nu p1) (D_x^nu D_xi^mu p2)
    with divided derivatives D, so coefficients stay in the input ring
    up to multiplication by integers and powers of i/2.  The expansion
    terminates at deg p1 + deg p2; sign convention fixed so that
    Weyl(x # xi - xi # x) equals the matrix commutator [X, P] = i h.
    """
    a = _as_poly(p1)
    b = _as_poly(p2)
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    n = a.n
    K = a.degree() + b.degree()
    if max_order is not None:
        K = min(K, max_order)
    terms = []
    from itertools import product as iproduct

    def multi_upto(k):
        rng = range(k + 1)
        return [m for m in iproduct(rng, repeat=n) if sum(m) <= k]

    for k in range(K + 1):
        total = PolySymbol(n)
        for mu in multi_upto(k):
            smu = sum(mu)
            for nu in multi_upto(k - smu):
                if smu + sum(nu) != k:
                    continue
                da = a
                db = b
                for ax in range(n):
                    if mu[ax]:
                        da = da.divided_derivative(ax, mu[ax])
                        db = db.divided_derivative(n + ax, mu[ax])
                    if nu[ax]:
                        da = da.divided_derivative(n + ax, nu[ax])
                        db = db.divided_derivative(ax, nu[ax])
                if not da.coeffs or not db.coeffs:
                    continue
                fac = 1
                for m, v in zip(mu, nu):
                    fac *= math.factorial(m) * math.factorial(v)
                sign = -1 if sum(nu) % 2 else 1
                total = total + (da * db).scale(sign * fac)
        total = total.scale((0.5j) ** k)
        terms.append(total)
    return terms


def moyal_product(p1, p2, h) -> PolySymbol:
    """Terminating Weyl-product expansion p1 #_h p2 of polynomials."""
    terms = moyal_terms(p1, p2)
    out = PolySymbol(terms[0].n)
    hk = 1.0
    for k, t in enumerate(terms):
        if k:
            hk = hk * h
        out = out + t.scale(hk)
    return out


# ---------------------------------------------------------------------------
# FBI transform

@dataclass
class FBIField:
    x: np.ndarray               # output x grid (nx,)
    xi: np.ndarray              # output xi grid (nxi,)
    values: np.ndarray          # (nx, nxi) complex
    h: float
    normalization: float        # calibrated constant actually used
    input_norm2: float

    def mass(self):
        dx = self.x[1] - self.x[0] if len(self.x) > 1 else 1.0
        dxi = self.xi[1] - self.xi[0] if len(self.xi) > 1 else 1.0
        return float((np.abs(self.values) ** 2).sum() * dx * dxi)

    def mass_outside(self, center, radius):
        dx = self.x[1] - self.x[0] if len(self.x) > 1 else 1.0
        dxi = self.xi[1] - self.xi[0] if len(self.xi) > 1 else 1.0
        X, XI = np.meshgrid(self.x, self.xi, indexing="ij")
        out = (X - center[0]) ** 2 + (XI - center[1]) ** 2 > radius ** 2
        w2 = np.abs(self.values) ** 2
        total = w2.sum()
        if total == 0:
            return 0.0
        return float(w2[out].sum() / total)


_FBI_CAL_CACHE: dict = {}


def fbi_transform(u, grid: FourierGrid, h: float, x_out, xi_out,
                  boundary_tol: float = 1e-8) -> FBIField:
    """Gaussian-windowed transform Tu(x, xi) over the phase-space grid.

    The normalization is calibrated (per spatial grid and h) so a
    unit-norm Gaussian maps to a unit-mass field; the discrete isometry
    then holds to ~1e-3 for smooth inputs well inside the window.
    """
    u = np.asarray(u, dtype=complex)
    y = grid.points_1d()
    if u.shape != y.shape:
        raise ValueError("vector length does not match the grid")
    amax = np.abs(u).max()
    edge = max(np.abs(u[0]), np.abs(u[-1]))
    if amax > 0 and edge > boundary_tol * amax:
        raise GridResolutionError(
            f"window leakage: |u| at the boundary is {edge / amax:.2e} of max")
    x_out = np.asarray(x_out, dtype=float)
    xi_out = np.asarray(xi_out, dtype=float)
    key = (grid, float(h))
    if key not in _FBI_CAL_CACHE:
        _FBI_CAL_CACHE[key] = _fbi_calibration(grid, h)
    cal = _FBI_CAL_CACHE[key]
    vals = _fbi_raw(u, y, grid.dx, h, x_out, xi_out) * cal
    return FBIField(x_out, xi_out, vals, h, cal,
                    float((np.abs(u) ** 2).sum() * grid.dx))


def _fbi_raw(u, y, dy, h, x_out, xi_out):
    # window[a, y] = exp(-(x_a - y)^2 / 2h), phase[y, b] = exp(-i y xi_b / h)
    win = np.exp(-(x_out[:, None] - y[None, :]) ** 2 / (2 * h))
    phase = np.exp(-1j * y[:, None] * xi_out[None, :] / h)
    core = (win * u[None, :]) @ phase
    # residual phase e^{i x xi / h} has modulus one; keep it for fidelity
    outer = np.exp(1j * x_out[:, None] * xi_out[None, :] / h)
    return core * outer * dy


def _fbi_calibration(grid, h):
    """Match a unit-norm Gaussian to a unit-mass field on a wide
    reference output grid."""
    y = grid.points_1d()
    g = (np.pi * h) ** (-0.25) * np.exp(-y ** 2 / (2 * h))
    g = g / math.sqrt((np.abs(g) ** 2).sum() * grid.dx)
    span = 6.0 * math.sqrt(h)
    x_ref = np.linspace(-span, span, 121)
    xi_ref = np.linspace(-span, span, 121)
    raw = _fbi_raw(g.astype(complex), y, grid.dx, h, x_ref, xi_ref)
    dx = x_ref[1] - x_ref[0]
    dxi = xi_ref[1] - xi_ref[0]
    mass = (np.abs(raw) ** 2).sum() * dx * dxi
    return 1.0 / math.sqrt(mass)
