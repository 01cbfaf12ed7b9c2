"""Matrix discretizations of phase-space symbols.

Three quantization paths:

* ``weyl_quantize_poly`` — Weyl-symmetrized (McCoy) operator ordering of
  polynomial symbols on an h-scaled Hermite basis, where the harmonic
  oscillator is exactly diagonal.  x and hD are tridiagonal there, so
  the McCoy products are band products (``_Band``), O(M deg^2) plus the
  fill of the M x M result, with no BLAS kernel.
* ``weyl_quantize_grid`` — direct midpoint-kernel discretization on a
  periodic spatial grid (n = 1), with the xi-limit split off so
  non-decaying symbols stay within the dual window.  The (2M, M)
  midpoint profile is evaluated, transformed and assembled in blocks of
  midpoint rows, so the peak working set is about the (M, M) result
  plus one block.
* ``wick_quantize`` — anti-Wick quantization, realized as Weyl
  quantization of the symbol convolved with the unit Gaussian
  pi^-1 e^{-|w|^2}.  Polynomials take the exact terminating heat flow.
  Any other symbol is sampled on the grid path's midpoint/dual lattice,
  padded by the Gaussian window half-width, with the dual axis thinned
  to the midpoint spacing unless a check on the samples refuses it, and
  smoothed by two banded trapezoid weight matrices before the grid
  path's kernel assembly; the window guard and the non-finite-sample
  guard refuse runs the lattice cannot resolve.

``FourierGrid.apply_weyl`` applies a polynomial symbol's grid operator
to one vector without forming the matrix (McCoy ordering, FFTs for hD).
Plus the terminating Moyal product of polynomials and a Gaussian-window
FBI transform for phase-space localization checks.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import as_strided

from ._blas import band_bidiagonal, band_bidiagonal_found, single_thread_below
from .errors import GridResolutionError, NonFiniteError, NotPolynomialError, PspecError
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
        return _Band(self.M, {1: self._roots()[0]}).dense(self.M)

    def position_1d(self, h):
        return self._ladder_bands(h)[0].dense(self.M)

    def momentum_1d(self, h):
        return self._ladder_bands(h)[1].dense(self.M)

    def _roots(self):
        """The diagonals of a and of its adjoint: a[i, i + 1] = sqrt(i + 1)
        and a^T[i, i - 1] = sqrt(i), each zero where the column leaves the
        basis."""
        down = np.sqrt(np.arange(self.M)).astype(complex)
        return np.append(down[1:], 0), down

    def _ladder_bands(self, h):
        """Position sqrt(h/2) (a + a^T) and momentum
        i sqrt(h/2) (a^T - a) as _Band ladders.  Their entries are the
        bytes of the dense products of a and its conjugate transpose,
        signed zeros included: -up has the -0.0 imaginary parts of the
        dense a.conj().T - a."""
        up, down = self._roots()
        c = math.sqrt(h / 2.0)
        return (_Band(self.M, {1: c * up, -1: c * down}),
                _Band(self.M, {1: 1j * c * -up, -1: 1j * c * down}))

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

    def apply_weyl(self, poly, h, u):
        """Op^w(poly) u for a polynomial symbol (n = 1), without forming a
        matrix: each monomial in McCoy's ordering (_mccoy_1d), with x
        acting by multiplication and hD by the Fourier multiplier
        dual_1d(h), one FFT pair per power of hD.  Entries (j, l) with
        x_j and x_l at most L apart agree with weyl_quantize_grid's up
        to rounding; for the others the grid path takes the symbol at
        the short-arc midpoint across the seam, which only monomials
        mixing x and xi notice.  poly is a PolySymbol or a polynomial
        SymbolExpr; any other symbol raises NotPolynomialError."""
        if self.n != 1:
            raise PspecError("apply_weyl is restricted to n = 1")
        poly = _finite_poly(poly)
        if poly.n != 1:
            raise ValueError("symbol dimension does not match basis")
        u = np.asarray(u, dtype=complex)
        if u.shape != (self.M,):
            raise ValueError("vector length does not match the grid")
        x, xi = self.points_1d(), self.dual_1d(h)

        def X(k):
            return _LinearMap(lambda v: x ** k * v)

        def P(k):
            return _LinearMap(lambda v: np.fft.ifft(xi ** k * np.fft.fft(v)))

        out = np.zeros(self.M, dtype=complex)
        for (a, b), coeff in poly.coeffs.items():
            out += complex(coeff) * _mccoy_1d(X, P, a, b).apply(u)
        return out


class _LinearMap:
    """A linear map on grid vectors, v -> apply(v), with the operations
    _mccoy_1d combines operators by: composition @, sums, and products
    and quotients with numbers.  Combining maps does no arithmetic on
    vectors; apply does."""

    def __init__(self, apply):
        self.apply = apply

    def __matmul__(self, other):
        return _LinearMap(lambda v: self.apply(other.apply(v)))

    def __add__(self, other):
        return _LinearMap(lambda v: self.apply(v) + other.apply(v))

    def __rmul__(self, c):
        return _LinearMap(lambda v: c * self.apply(v))

    def __truediv__(self, c):
        return _LinearMap(lambda v: self.apply(v) / c)


class _Band:
    """A square matrix of order N stored by its diagonals: offset s maps
    to the length-N array d with d[i] = A[i, i + s], zero where i + s
    falls outside the matrix.  It has the operations _mccoy_1d combines
    operators by (@, +, c * and / c), each an O(N) array operation per
    pair of diagonals, so a product of bandwidths p and q costs
    O(N p q) instead of a dense O(N^3)."""

    def __init__(self, N, diags):
        self.N = N
        self.diags = diags

    def __matmul__(self, other):
        # (A B)[i, i + s + t] sums A[i, i + s] B[i + s, i + s + t]; rows
        # whose i + s + t leaves the matrix read B's zero padding
        N, out = self.N, {}
        for s, a in self.diags.items():
            lo, hi = max(0, -s), min(N, N - s)
            for t, b in other.diags.items():
                if abs(s + t) >= N:
                    continue
                if s + t not in out:
                    out[s + t] = np.zeros(N, dtype=complex)
                out[s + t][lo:hi] += a[lo:hi] * b[lo + s:hi + s]
        return _Band(N, out)

    def __add__(self, other):
        out = dict(self.diags)
        for s, d in other.diags.items():
            out[s] = out[s] + d if s in out else d
        return _Band(self.N, out)

    def __rmul__(self, c):
        return _Band(self.N, {s: c * d for s, d in self.diags.items()})

    def __truediv__(self, c):
        return _Band(self.N, {s: d / c for s, d in self.diags.items()})

    def dense(self, M):
        """The leading M x M block (M <= N) as a dense complex matrix,
        each diagonal written once through a strided view of the flat
        array."""
        A = np.zeros((M, M), dtype=complex)
        flat = A.reshape(-1)
        for s, d in self.diags.items():
            if abs(s) < M:
                i0 = max(0, -s)
                flat[i0 * (M + 1) + s::M + 1][:M - abs(s)] = d[i0:i0 + M - abs(s)]
        return A


def _bandwidths(A, most):
    """(kl, ku), the fewest sub- and super-diagonals that hold every
    non-zero of the square A, when kl + ku <= most; else None, at once if
    diagonal +-(most + 1) holds one.  The non-zero components of A are
    counted once (_nonzero_parts), then those of each diagonal pair
    outward until the count is reached: no M x M temporary is made and at
    most 2 most + 3 diagonals are read."""
    if np.diagonal(A, most + 1).any() or np.diagonal(A, -most - 1).any():
        return None
    left = _nonzero_parts(A) - _nonzero_parts(np.diagonal(A))
    kl = ku = 0
    for k in range(1, most + 1):
        if not left:
            break
        below, above = (_nonzero_parts(np.diagonal(A, s)) for s in (-k, k))
        left -= below + above
        kl, ku = (k if below else kl), (k if above else ku)
        if kl + ku > most:
            return None
    return None if left else (kl, ku)


def _nonzero_parts(a):
    """The non-zero real and imaginary parts of a, each counted once (a
    -0.0 is zero); a contiguous complex a is counted as its real view,
    at the speed of a real array of twice its length."""
    if not np.iscomplexobj(a):
        return np.count_nonzero(a)
    if a.flags.c_contiguous:
        return np.count_nonzero(a.view(a.real.dtype))
    return np.count_nonzero(a.real) + np.count_nonzero(a.imag)


# the band SVD beat the dense one (both on one thread) wherever
# kl + ku <= M // _BAND_RATIO, on a table of M = 64..800, kl = ku = 1..16
_BAND_RATIO = 16


class _Structure(NamedTuple):
    """What _scan finds in a square matrix of order M."""

    widths: tuple | None    # (kl, ku) if kl + ku <= max(2, M // _BAND_RATIO)
    band: tuple | None      # widths if kl + ku <= M // _BAND_RATIO and zgbbrd is bound
    tridiagonal: bool       # kl, ku <= 1 and M >= 3
    real: bool              # no non-zero imaginary part
    finite: bool            # no inf or nan


def _scan(A):
    """The _Structure of the square A.  A band matrix is tested for
    realness and finiteness on its diagonals alone, any other on all of
    it.  Orders 1 and 2 are not tridiagonal here, so they keep the Schur
    and LU paths of the sigma_min sweep, and with them their bytes."""
    M = A.shape[0]
    widths = _bandwidths(A, max(2, M // _BAND_RATIO))
    parts = [A] if widths is None else [A.diagonal(k) for k in range(-widths[0], widths[1] + 1)]
    narrow = widths is not None and sum(widths) <= M // _BAND_RATIO
    return _Structure(widths, widths if narrow and band_bidiagonal_found() else None,
                      M >= 3 and widths is not None and max(widths) <= 1,
                      not any(np.iscomplexobj(d) and d.imag.any() for d in parts),
                      all(np.isfinite(d).all() for d in parts))


def _band_singular_value(A, z, kl, ku, index):
    """Eigenvalue `index` (1-based, ascending) of the order-2M
    Golub-Kahan tridiagonal of A - z, for A with kl sub- and ku
    super-diagonals: M + 1 is sigma_min(A - z), 2M is ||A - z||_2.
    zgbbrd reduces the band storage of A - z, built from the diagonals,
    to a real upper bidiagonal B = (d, e) with the same singular values
    (Golub & Kahan, SIAM J. Numer. Anal. B 2 (1965) 205-224), at O(M^2
    (kl + ku)).  The tridiagonal, zero diagonal and off-diagonal (d_1,
    e_1, d_2, ..., d_M), has eigenvalues +-sigma_i(B), and dstebz bisects
    for the one asked, to high relative accuracy (Demmel & Kahan, SIAM J.
    Sci. Stat. Comput. 11 (1990) 873-912).  Neither routine calls a
    threaded BLAS kernel."""
    M = A.shape[0]
    ab = np.zeros((kl + ku + 1, M), dtype=complex, order="F")
    for s in range(-kl, ku + 1):
        ab[ku - s, max(s, 0):M + min(s, 0)] = np.diagonal(A, s)
    ab[ku] -= z
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    d, e = band_bidiagonal(ab, kl, ku)
    off = np.empty(2 * M - 1)
    off[0::2], off[1::2] = d, e
    _, w, _, _, info = scipy.linalg.lapack.dstebz(
        np.zeros(2 * M), off, 2, 0.0, 0.0, index, index,
        2 * np.finfo(float).tiny, "E")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz returned info = {info}")
    return float(abs(w[0]))


@dataclass
class OperatorMatrix:
    """Dense matrix discretization of a quantized symbol, scanned once (_scan)."""

    matrix: np.ndarray
    h: float
    basis: object
    provenance: str = ""
    meta: dict = field(default_factory=dict)
    _structure: _Structure = field(init=False, repr=False, compare=False)

    @property
    def size(self):
        return self.matrix.shape[0]

    def norm(self):
        """||P||_2, computed once.  A band matrix (see _scan) takes it from
        the band SVD, eigenvalue 2M of its Golub-Kahan tridiagonal (within
        a few ulp of the dense SVD's value); any other matrix takes the
        dense SVD of np.linalg.norm(P, 2)."""
        if "norm2" not in self.meta:
            band = self._structure.band
            self.meta["norm2"] = (
                float(np.linalg.norm(self.matrix, 2)) if band is None
                else _band_singular_value(self.matrix, 0, *band, 2 * self.size))
        return self.meta["norm2"]

    def hermiticity_defect(self):
        m = self.matrix
        with single_thread_below(self.size):
            return float(np.linalg.norm(m - m.conj().T)
                         / max(np.linalg.norm(m), 1e-300))

    def __post_init__(self):
        self._structure = _scan(self.matrix)
        if not self._structure.finite:
            raise NonFiniteError("operator matrix has non-finite entries")


# ---------------------------------------------------------------------------
# polynomial / Hermite path

def _as_poly(p) -> PolySymbol:
    if isinstance(p, PolySymbol):
        return p
    if isinstance(p, SymbolExpr):
        return p.to_poly()
    raise NotPolynomialError(f"{type(p).__name__} is not a polynomial symbol")


def _finite_poly(p) -> PolySymbol:
    """_as_poly(p), raising NonFiniteError before any arithmetic (so
    without a warning) when a coefficient is inf or nan."""
    poly = _as_poly(p)
    _check_finite(np.array([complex(c) for c in poly.coeffs.values()]),
                  "polynomial symbol has non-finite coefficients")
    return poly


def _mccoy_1d(X, P, a, b):
    """Weyl-ordered x^a xi^b (McCoy): 2^-m sum_r C(m, r) A^r B^k A^(m-r),
    splitting the factor A of lower degree m around the other's k-th
    power B^k to minimize multiplications.  X(k) and P(k) return the
    k-th powers of the position and momentum operators, in any type with
    @ (composition), + and multiplication and division by numbers.
    Three rings serve it: _Band on the Hermite basis, _LinearMap on the
    grid, and dense matrices."""
    if b == 0:
        return X(a)
    if a == 0:
        return P(b)
    outer, m, inner, k = (X, a, P, b) if a <= b else (P, b, X, a)
    pk = inner(k)
    powers = [outer(r) for r in range(m + 1)]
    out = functools.reduce(operator.add, (
        math.comb(m, r) * (powers[r] @ pk @ powers[m - r])
        for r in range(m + 1)))
    return out / 2.0 ** m


def weyl_quantize_poly(p, basis: HermiteBasis, h: float) -> OperatorMatrix:
    """Weyl quantization of a polynomial symbol on the Hermite basis.

    Each monomial x^alpha xi^beta maps to the McCoy-symmetrized product
    of the ladder-built position/momentum operators, per axis, joined by
    Kronecker products (axis 1 slowest).  The products are banded
    (_Band): x and hD are tridiagonal, so a 1-D monomial of degree d has
    2d + 1 diagonals, and the quantization costs O(M deg^2) plus the
    fill of the dense result.  For n = 1 the monomials are summed as
    bands and the result's diagonals written once; for n >= 2 each 1-D
    factor is made dense before the Kronecker products.  No BLAS kernel
    runs.
    """
    poly = _finite_poly(p)
    n = basis.n
    if poly.n != n:
        raise ValueError("symbol dimension does not match basis")
    deg = poly.degree()
    _tail_dominance_check(poly, basis, h)
    # build ladder products on a padded basis and slice back, so the
    # returned entries are exact matrix elements of the untruncated
    # operator (a monomial couples modes within distance deg only)
    N, M = basis.M + deg, basis.M
    X, P = map(_band_powers, HermiteBasis(N)._ladder_bands(h))
    if n == 1:
        total = functools.reduce(operator.add, (
            complex(coeff) * _mccoy_1d(X, P, a, b)
            for (a, b), coeff in poly.coeffs.items()), _Band(N, {})).dense(M)
    else:
        total = np.zeros((basis.size, basis.size), dtype=complex)
        cache = {}
        for key, coeff in poly.coeffs.items():
            factors = []
            for axis in range(n):
                a, b = key[axis], key[n + axis]
                if (a, b) not in cache:
                    cache[(a, b)] = _mccoy_1d(X, P, a, b).dense(M)
                factors.append(cache[(a, b)])
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            total += complex(coeff) * term
    return OperatorMatrix(total, h, basis,
                          provenance=f"weyl_poly(deg={deg})")


def _band_powers(base):
    """k -> base^k (a _Band), each power computed once from the last and
    kept in a list (a cache around a self-calling closure is a cycle)."""
    powers = [_Band(base.N, {0: np.ones(base.N, dtype=complex)})]

    def power(k):
        while len(powers) <= k:
            powers.append(powers[-1] @ base)
        return powers[k]
    return power


def _tail_dominance_check(poly, basis, h):
    """Raise GridResolutionError when the degree is too high for the
    basis size: M <= degree, or the weight a top monomial sends past
    mode M-1 exceeds 1e6 times its in-basis weight."""
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
    """Evaluate a SymbolExpr or plain callable on coordinate arrays, into
    a fresh complex array."""
    if isinstance(p, SymbolExpr):
        if p.n != 1:
            raise PspecError("grid quantization is 1-D")
        return p.eval_grid([X, XI])
    return np.array(p(X, XI), dtype=complex)


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
    diagonal multiplication term.  The (2M, M) midpoint/dual profile is
    evaluated and assembled one block of midpoint rows at a time
    (_midpoint_kernel), so the peak working set is the (M, M) result
    plus one block.

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

    def profile(r):
        prof = _symbol_values(p, mids[r, None], xi[None, :])
        prof -= p_inf[r, None]
        return prof

    with single_thread_below(M):
        p_inf = _resolve_xi_limit(p, xi_limit, mids, xi)
        A = _midpoint_kernel(profile, M, tail_frac_tol)
    A.reshape(-1)[::M + 1] += p_inf[::2]
    return OperatorMatrix(A, h, grid, provenance="weyl_grid")


_KERNEL_ENTRIES = 1 << 15  # cap on (midpoint rows per block) x M


def _midpoint_kernel(profile, M, tail_frac_tol):
    """The (M, M) kernel matrix from the (2M, M) midpoint/dual profile
    (dual axis in fft order), built one block of midpoint rows at a
    time: profile(r) returns rows r (a slice) of the profile, and each
    block gets its inverse DFTs, its share of the dual-window sums and
    its scatter into the result; the window check runs once, after the
    last block.  Entry (j, l) is read at midpoint index j + l (the short
    arc on the torus) and difference j - l, so the peak working set is
    the result plus one block of _KERNEL_ENTRIES entries.

    Midpoint m and short-arc difference s (|s| <= M/2) have m + s even;
    with m = 2q + par and s = 2c - par the entry is
    (j, l) = ((q + c) mod M, (q - c + par) mod M).  Over a block of q
    and the run of c, the flat index j M + l is then a Hankel array of
    q + c plus a Toeplitz array of q - c: two strided views of the
    residues mod M, with no index array of the matrix's size.  For even
    M, s = +-M/2 (column M/2) is read by the two diagonals at offset
    M/2, which are written directly."""
    A = np.empty((M, M), dtype=complex)
    flat = A.reshape(-1)
    smax = (M - 1) // 2          # the largest |s| below M/2
    step = 2 * max(1, _KERNEL_ENTRIES // (2 * M))
    mod_m = np.arange(-M, 2 * M) % M     # mod_m[u + M] = u mod M
    row_start = mod_m * M
    stride = mod_m.strides[0]
    band = int(max(1, round(0.05 * M)))
    # the window's columns in the interleaved real and imaginary parts
    window = slice(2 * (M // 2 - band), 2 * (M // 2 + band + 1))
    tail = total = 0.0
    for r0 in range(0, 2 * M, step):
        r1 = min(r0 + step, 2 * M)
        prof = profile(slice(r0, r1))
        _check_finite(prof, "symbol evaluation failed on the dual grid")
        rows = np.fft.ifft(prof, axis=1)
        power = rows.view(float) ** 2
        tail += power[:, window].sum()
        total += power.sum()
        q0 = r0 // 2
        for par in (0, 1):
            block = rows[par::2]
            nq = block.shape[0]
            c_lo, c_hi = -((smax - par) // 2), (smax + par) // 2
            nc = c_hi - c_lo + 1
            if nq == 0 or nc <= 0:
                continue
            # j M at q + c (Hankel), l at q - c + par (Toeplitz)
            jm = as_strided(row_start[M + q0 + c_lo:], (nq, nc), (stride, stride))
            l = as_strided(mod_m[M + q0 - c_lo + par:], (nq, nc), (stride, -stride))
            # values in the order of c: the columns of s < 0, then s >= 0
            flat[jm + l] = np.concatenate(
                (block[:, 2 * c_lo - par + M: M + par - 1: 2],
                 block[:, par: 2 * c_hi - par + 1: 2]), axis=1)
        if M % 2 == 0:
            # m = 2a + M/2 feeds (a + M/2, a) and (a, a + M/2), a < M/2
            half = M // 2
            m_lo = max(r0, half)
            m_lo += (m_lo - half) % 2
            m_hi = min(r1, 3 * half)
            if m_lo < m_hi:
                vals = rows[m_lo - r0: m_hi - r0: 2, half]
                a0 = (m_lo - half) // 2
                stop = (a0 + vals.size) * (M + 1)
                flat[a0 * (M + 1) + half * M: stop + half * M: M + 1] = vals
                flat[a0 * (M + 1) + half: stop + half: M + 1] = vals
    if M >= 8:
        _dual_window_check(tail / (total + 1e-300), tail_frac_tol)
    return A


def _dual_window_check(frac, tol):
    """Reject profiles whose inverse transform has not decayed by the
    middle of the index range (the xi-window misses symbol variation):
    frac is the transform power within 5% of the index range around its
    middle, over the total."""
    if frac > tol:
        raise GridResolutionError(
            f"dual-grid window too small: transform tail fraction {frac:.2e}")


def schrodinger_matrix(V, grid: FourierGrid, h: float) -> OperatorMatrix:
    """-h^2 Laplacian (periodic spectral) plus diagonal potential."""
    n, M = grid.n, grid.M
    if n not in (1, 2):
        raise PspecError("schrodinger_matrix supports n in {1, 2}")
    mult = grid.dual_1d(h) ** 2
    F = np.fft.fft(np.eye(M), axis=0)
    D2 = np.fft.ifft(mult[:, None] * F, axis=0)
    # the 1-D second derivative acting on each axis of the row-major grid
    lap = functools.reduce(np.add, (
        np.kron(np.kron(np.eye(M ** k), D2), np.eye(M ** (n - 1 - k)))
        for k in range(n)))
    cols = list(grid.points().T)
    if isinstance(V, SymbolExpr):
        Vx = V.eval_grid(cols + [np.zeros(grid.size)] * n)
    else:
        Vx = np.asarray(V(*cols), dtype=complex)
    return OperatorMatrix(lap + np.diag(Vx), h, grid, provenance="schrodinger")


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


def wick_quantize(a, basis, h: float, gh_nodes: int = 30,
                  tail_frac_tol: float = 0.01) -> OperatorMatrix:
    """Anti-Wick quantization: Weyl quantization of a * unit Gaussian.

    Polynomial symbols use the exact terminating heat flow and either
    basis.  A general symbol needs a FourierGrid (n = 1).  The
    convolution c = a * pi^-1 e^{-|w|^2} on the grid path's midpoint/dual
    lattice (spacings L/M and h pi/L) is the trapezoid rule on a sample
    lattice widened by the window half-width R on each side and
    truncated to |u|, |v| <= R: two banded Gaussian weight matrices, xi
    first, then x.  The samples take every midpoint in x but only every
    m-th dual point in xi, m = max(1, floor((L/M) / (h pi/L))), the
    largest multiple of the dual spacing within the midpoint spacing,
    with weights m times the dual spacing.  The trapezoid error is set by
    the spacing and the symbol's smoothness, e^{-pi^2/dt^2} for a smooth
    symbol at spacing dt (Trefethen & Weideman, SIAM Rev. 56 (2014)
    385-458) and a power of dt at a kink, so the coarser midpoint axis
    sets it, plus the Gaussian weight e^{-R^2} the window drops; nothing
    wraps around, since the lattice is padded rather than periodic.

    Stride m > 1 is checked on every call from the samples it took: xi
    is re-smoothed on its even-indexed samples (stride 2m, weights
    doubled), x on its even-indexed ones (stride 2), and stride m is kept
    only when the largest xi change, taken before the x smoothing, whose
    rows sum to about 1, is at most the x change or 2^-40 max|c|.  Else
    the lattice is rebuilt at stride 1, sampling the symbol 1 + 1/m
    times in all; stride 1 is the full dual lattice, with the bytes of a
    run that never coarsens.  Blocks of 2^14 samples keep the extra
    working set near 1 MB with the symbol's temporaries.  A block of
    real samples is smoothed in real arithmetic, and the x-smoothing
    stays real while every block is real; complex samples take the
    product over interleaved real and imaginary parts.  c then goes
    through the grid path's kernel assembly (xi-limit 0), in blocks of
    its rows.

    gh_nodes sets R, the largest node of the gh_nodes-point
    Gauss-Hermite rule.  The default 30 gives R = 6.863, where the
    Gaussian weight e^{-R^2} = 3.5e-21 is 2^-16 of double rounding, so
    a wider window moves no entry by more than rounding.  Raises
    GridResolutionError when e^{-R^2} exceeds 1e-8, or when the dual
    window misses the smoothed symbol (tail_frac_tol), and PspecError
    when the symbol is not finite on the padded lattice.  Nonnegative
    symbols give PSD matrices for h <= 1.
    """
    poly = _wick_poly(a, basis)
    if poly is not None:
        op = basis.weyl(gaussian_smooth_poly(poly), h, xi_limit=None)
        op.provenance = "wick(poly)"
        return op
    R = _window_radius(gh_nodes)
    # Gaussian mass beyond the window half-width must be negligible
    # against the symbol's variation
    tail = math.exp(-R ** 2)
    if tail > 1e-8:
        raise GridResolutionError(
            f"integration window too small: Gaussian tail mass {tail:.1e} "
            f"(increase gh_nodes)")
    M, L = basis.M, basis.L
    with single_thread_below(M):
        c = _wick_lattice(a, L, M, h, R, _dual_stride(L, M, h))
        if c is None:
            c = _wick_lattice(a, L, M, h, R, 1)
    A = _midpoint_kernel(lambda r: np.fft.ifftshift(c[r], axes=1), M,
                         tail_frac_tol)
    return OperatorMatrix(A, h, basis, provenance="wick(lattice)")


# a change along xi below this fraction of max|c| keeps the dual stride
# whatever the change along x
_STRIDE_FLOOR = 2.0 ** -40


def _dual_stride(L, M, h):
    """The largest multiple of the dual spacing h pi / L within the
    midpoint spacing L / M, and at least 1."""
    return max(1, math.floor((L / M) / (h * math.pi / L)))


def _wick_lattice(a, L, M, h, R, stride):
    """The smoothed symbol c, (2M, M) with a row per midpoint and the
    dual points in ascending order, from samples at every midpoint and
    every stride-th dual point of the lattice padded by R; None when
    stride > 1 and the half-density check of wick_quantize rejects the
    stride."""
    pad_x = math.ceil(R * M / L)
    pad_xi = math.ceil(R * L / (h * np.pi))
    Gx = _gaussian_band(2 * M, pad_x, L / M)
    # the dual points k h pi / L, k >= k0, that are multiples of stride,
    # so a wider window adds points without moving any
    k0 = -(M // 2) - pad_xi
    first = -k0 % stride
    Gxi = _gaussian_band(M, pad_xi, h * np.pi / L, stride, first)
    x = -L + L * np.arange(-pad_x, 2 * M + pad_x) / M
    xi = h * np.pi * np.arange(k0 + first, k0 + first + stride * Gxi.shape[1], stride) / L
    checked = stride > 1
    if checked:
        Gxi_half = 2 * Gxi[:, ::2]
    # smooth in xi one block of lattice columns x[cols] at a time
    # (samples indexed [xi, x]), then in x
    smooth_xi = np.empty((x.size, M))
    change = 0.0
    step = max(1, 2 ** 14 // xi.size)
    for r in range(0, x.size, step):
        cols = slice(r, r + step)
        block = _lattice_samples(a, x[None, cols], xi[:, None])
        block = np.broadcast_to(block, (xi.size, x[cols].size))
        _check_finite(block, "symbol evaluation failed on the Wick lattice")
        if block.dtype == complex:
            smooth_xi = smooth_xi.astype(complex, copy=False)
        smooth_xi[cols] = _weighted(Gxi, block).T
        if checked:
            half = _weighted(Gxi_half, block[::2]).T
            change = max(change, np.abs(half - smooth_xi[cols]).max())
    c = _weighted(Gx, smooth_xi)
    if checked and change > _STRIDE_FLOOR * np.abs(c).max():
        half = _weighted(2 * Gx[:, ::2], smooth_xi[::2])
        if change > np.abs(half - c).max():
            return None
    return c


@functools.cache
def _window_radius(gh_nodes):
    """The largest node of the gh_nodes-point Gauss-Hermite rule."""
    return float(np.polynomial.hermite.hermgauss(gh_nodes)[0].max())


def _lattice_samples(a, X, XI):
    """Wick symbol values on lattice coordinates: a real array when the
    values are real (a real dtype, or complex with no imaginary part),
    else a complex array."""
    if isinstance(a, SymbolExpr):
        vals = a.eval_grid([X, XI])
    else:
        vals = np.asarray(a(X, XI))
        if vals.dtype.kind in "biuf":
            return vals.astype(float, copy=False)
        vals = vals.astype(complex, copy=False)
    return vals if vals.imag.any() else vals.real


def _wick_poly(a, basis):
    """The PolySymbol of a polynomial Wick symbol a, or None when a
    takes the lattice path; raises PspecError when it does and basis is
    not a 1-D FourierGrid."""
    if isinstance(a, PolySymbol):
        return a
    if isinstance(a, SymbolExpr) and a.polynomial_degree() is not None:
        return a.to_poly()
    if not isinstance(basis, FourierGrid) or basis.n != 1:
        raise PspecError("non-polynomial Wick quantization needs a 1-D "
                         "FourierGrid (n = 1)")
    return None


def _gaussian_band(n, pad, dt, stride=1, first=0):
    """(n, k) trapezoid weights stride dt pi^-1/2 e^{-t^2} of the unit
    Gaussian on the points first, first + stride, ... of a lattice of
    n + 2 pad points: column j holds lattice point p = first + j stride,
    at t = (i + pad - p) dt from output point i, and is zero beyond
    |t| = pad dt; the k columns run to the lattice's end.  At stride 1,
    row i averages lattice points i .. i + 2 pad around output point i."""
    g = stride * dt / math.sqrt(math.pi) * np.exp(-(dt * np.arange(-pad, pad + 1)) ** 2)
    k = (n + 2 * pad - 1 - first) // stride + 1
    # G[i, j] = z[n - 1 - i + p], z holding g from index n - 1
    z = np.zeros(2 * n + 2 * pad - 1)
    z[n - 1: n + 2 * pad] = g
    step = z.strides[0]
    return as_strided(z[n - 1 + first:], (n, k), (-step, stride * step)).copy()


def _weighted(G, B):
    """G @ B for real weights G and real or complex B; complex B is one
    real product over its interleaved real and imaginary parts (numpy's
    mixed-type matmul bypasses BLAS)."""
    if B.dtype != complex:
        return G @ np.ascontiguousarray(B)
    return (G @ np.ascontiguousarray(B).view(float)).view(complex)


# ---------------------------------------------------------------------------
# Moyal product

def moyal_terms(p1, p2):
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


def fbi_transform(u, grid: FourierGrid, h: float, x_out, xi_out) -> FBIField:
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
    if amax > 0 and edge > 1e-8 * amax:
        raise GridResolutionError(
            f"window leakage: |u| at the boundary is {edge / amax:.2e} of max")
    x_out = np.asarray(x_out, dtype=float)
    xi_out = np.asarray(xi_out, dtype=float)
    cal = _fbi_calibration(grid, float(h))
    vals = _fbi_raw(u, y, grid.dx, h, x_out, xi_out) * cal
    return FBIField(x_out, xi_out, vals, h, cal,
                    float((np.abs(u) ** 2).sum() * grid.dx))


def _fbi_raw(u, y, dy, h, x_out, xi_out):
    # window[a, y] = exp(-(x_a - y)^2 / 2h), phase[y, b] = exp(-i y xi_b / h),
    # summed over blocks of y in which the window, the weighted window and
    # the phase together hold at most 2^20 entries
    step = max(1, (1 << 20) // (2 * len(x_out) + len(xi_out)))
    core = None
    with single_thread_below(len(x_out)):
        for lo in range(0, len(y), step):
            yb = y[lo:lo + step]
            win = np.exp(-(x_out[:, None] - yb[None, :]) ** 2 / (2 * h))
            phase = np.exp(-1j * yb[:, None] * xi_out[None, :] / h)
            part = np.matmul(win * u[None, lo:lo + step], phase)
            core = part if core is None else np.add(core, part, out=core)
    # residual phase e^{i x xi / h} has modulus one; keep it for fidelity
    outer = np.exp(1j * x_out[:, None] * xi_out[None, :] / h)
    return core * outer * dy


@functools.cache
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
