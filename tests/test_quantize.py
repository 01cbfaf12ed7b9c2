import functools
import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from pspeclab.errors import GridResolutionError, NonFiniteError, NotPolynomialError
from pspeclab.quantize import (
    FourierGrid,
    HermiteBasis,
    OperatorMatrix,
    _bandwidths,
    _mccoy_1d,
    _scan,
    fbi_transform,
    gaussian_smooth_poly,
    hermite_functions,
    moyal_product,
    schrodinger_matrix,
    weyl_quantize_grid,
    weyl_quantize_poly,
    wick_quantize,
)
from pspeclab.symbols import parse_symbol

ROT = parse_symbol("xi1^2 + xi1*1i + x1^2", 1)
OSC = parse_symbol("xi1^2 + x1^2", 1)


def _hermite_outer(basis, frac):
    cut = math.ceil(basis.M * (1 - frac))
    return [k >= cut for k in range(basis.M)]


def _grid_outer(basis, frac):
    return [abs(x) >= (1 - frac) * basis.L for x in basis.points_1d()]


@pytest.mark.parametrize("basis, outer", [
    (HermiteBasis(10), _hermite_outer),
    (HermiteBasis(7, n=2), _hermite_outer),
    (FourierGrid(3.0, 20), _grid_outer),
    (FourierGrid(2.5, 9, n=2), _grid_outer),
])
@pytest.mark.parametrize("frac", [0.1, 0.3])
def test_tail_mass_counts_the_outer_indices_of_any_axis(basis, outer, frac):
    rng = np.random.default_rng(7)
    V = rng.standard_normal((basis.size, 3)) + 1j * rng.standard_normal((basis.size, 3))
    V[:, 2] = 0.0   # a zero vector has no tail
    out1 = outer(basis, frac)
    expected = []
    for v in V.T:
        total = sum(abs(c) ** 2 for c in v)
        tail = sum(abs(c) ** 2 for c, idx in zip(v, np.ndindex(*(basis.M,) * basis.n))
                   if any(out1[k] for k in idx))
        expected.append(tail / total if total > 0 else 0.0)
    assert np.allclose(basis.tail_mass(V, frac=frac), expected, rtol=1e-12, atol=0)


def _dense_weyl_poly(poly, basis, h):
    """The dense McCoy quantization that the band products are checked
    against: np.linalg.matrix_power of the ladder matrices on the
    degree-padded basis, sliced to M x M per axis and joined by
    Kronecker products."""
    n, M, deg = basis.n, basis.M, poly.degree()
    padded = HermiteBasis(M + deg, 1)
    X = functools.partial(np.linalg.matrix_power, padded.position_1d(h))
    P = functools.partial(np.linalg.matrix_power, padded.momentum_1d(h))
    total = np.zeros((basis.size, basis.size), dtype=complex)
    for key, coeff in poly.coeffs.items():
        factors = [_mccoy_1d(X, P, key[axis], key[n + axis])[:M, :M]
                   for axis in range(n)]
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        total += complex(coeff) * term
    return total


# degrees 0 to 6, mixed monomials and complex coefficients
_ORACLE_SYMBOLS_1D = [
    "2 - 3i",
    "x1 - 2i*xi1 + 0.5",
    "xi1^2 + xi1*1i + x1^2",
    "x1*xi1^2 + (1-2i)*x1^2*xi1 + 3i*x1",
    "x1^2*xi1^2 - 0.5i*x1^3*xi1 + x1^4",
    "x1^2*xi1^3 + (2+1i)*x1^5 - xi1^4",
    "x1^3*xi1^3 - 1i*xi1^6 + x1^4*xi1^2 + (0.5-1i)*x1",
]
_ORACLE_SYMBOLS_2D = [
    "xi1^2 + xi2^2 + 1i*(x1^2 + x2^2)",
    "x1*xi2 + x2^2*xi1^2 - 1i*x1^3*xi2 + 2",
    "x1^3*xi2^3 + 1i*xi1^2*x2^4 - x2*xi1",
]


def _imaginary_support(poly, modes):
    """Where the matrix of poly can have a non-zero imaginary part.  x
    and hD step one mode with real and imaginary entries, so the term
    c x^alpha xi^beta has entries c i^|beta| times real numbers, at
    per-axis mode offsets o_k with |o_k| <= alpha_k + beta_k and
    o_k = alpha_k + beta_k mod 2.  Every other entry's imaginary part is
    zero by structure: a term with c i^|beta| real adds none anywhere
    (a real symbol with even powers of xi quantizes to a real matrix)."""
    n = poly.n
    offsets = [k[:, None] - k[None, :] for k in modes]
    out = np.zeros((modes[0].size,) * 2, dtype=bool)
    for key, coeff in poly.coeffs.items():
        if (complex(coeff) * (1, 1j, -1, -1j)[sum(key[n:]) % 4]).imag == 0:
            continue
        steps = [key[axis] + key[n + axis] for axis in range(n)]
        out |= functools.reduce(np.logical_and, (
            (np.abs(o) <= d) & ((o - d) % 2 == 0) for o, d in zip(offsets, steps)))
    return out


@pytest.mark.parametrize("text, n, sizes", [
    *[(t, 1, (12, 60, 200)) for t in _ORACLE_SYMBOLS_1D],
    # n = 2 stops at M = 12: the dense reference at M = 60 is 3600 x 3600
    *[(t, 2, (12,)) for t in _ORACLE_SYMBOLS_2D],
])
def test_band_weyl_poly_matches_the_dense_mccoy_reference(text, n, sizes):
    poly = parse_symbol(text, n).to_poly()
    deg = poly.degree()
    eps = np.finfo(float).eps
    if deg:
        with pytest.raises(GridResolutionError, match="too high"):
            weyl_quantize_poly(poly, HermiteBasis(deg, n), 0.1)
    for M in (deg + 1, *sizes):
        basis = HermiteBasis(M, n)
        # per-axis mode indices of each row and column, axis 1 slowest
        modes = np.unravel_index(np.arange(basis.size), (M,) * n)
        outside = functools.reduce(np.logical_or, (
            np.abs(k[:, None] - k[None, :]) > deg for k in modes))
        # exactly-zero imaginary parts by structure; where terms cancel
        # (entry (5, 0) of x1^2*xi1^3 + (2+1i)*x1^5, the diagonal of
        # x1*xi1^3's McCoy sum) a zero is a coincidence of rounding in
        # either path
        real = ~_imaginary_support(poly, modes)
        for h in (0.02, 0.1, 1.0):
            A = weyl_quantize_poly(poly, basis, h).matrix
            ref = _dense_weyl_poly(poly, basis, h)
            where = f"{text} M={M} h={h}"
            assert np.abs(A - ref).max() <= 8 * eps * np.abs(ref).max(), where
            assert not A[outside].any(), where
            assert not ref.imag[real].any() and not A.imag[real].any(), where


def _dense_ladders(M, h):
    """HermiteBasis's dense builders of a, position and momentum."""
    a = np.diag(np.sqrt(np.arange(1, M)), 1).astype(complex)
    c = math.sqrt(h / 2.0)
    return a, c * (a + a.conj().T), 1j * c * (a.conj().T - a)


@pytest.mark.parametrize("M", [1, 2, 9, 64])
def test_ladder_matrices_keep_the_dense_builders_bytes(M):
    # signed zeros included: the bytes, not the values, are compared
    basis = HermiteBasis(M)
    for h in (0.02, 0.1, 0.37, 1.0):
        a, X, P = _dense_ladders(M, h)
        assert basis.ladder().tobytes() == a.tobytes()
        assert basis.position_1d(h).tobytes() == X.tobytes()
        assert basis.momentum_1d(h).tobytes() == P.tobytes()


def test_harmonic_oscillator_diagonal():
    basis = HermiteBasis(64)
    op = weyl_quantize_poly(OSC, basis, h=0.1)
    expect = 0.1 * (2 * np.arange(64) + 1)
    assert np.allclose(np.diag(op.matrix).real, expect, atol=1e-12)
    off = op.matrix - np.diag(np.diag(op.matrix))
    assert np.abs(off).max() < 1e-12


def test_xp_symmetrized_is_hermitian():
    basis = HermiteBasis(32)
    op = weyl_quantize_poly(parse_symbol("x1*xi1", 1), basis, h=0.2)
    assert op.hermiticity_defect() < 1e-12
    X = basis.position_1d(0.2)
    P = basis.momentum_1d(0.2)
    assert np.allclose(op.matrix, (X @ P + P @ X) / 2, atol=1e-12)


def test_real_symbols_hermitian_all_paths():
    h = 0.08
    basis = HermiteBasis(48)
    for text in ("x1^2+xi1^2", "x1*xi1", "x1^3 - xi1^2*x1"):
        op = weyl_quantize_poly(parse_symbol(text, 1), basis, h)
        assert op.hermiticity_defect() < 1e-12
    grid = FourierGrid(6.0, 128)
    for text in ("x1^2+xi1^2", "x1^2*xi1"):
        op = weyl_quantize_grid(parse_symbol(text, 1), grid, h, xi_limit=None,
                                tail_frac_tol=1.0)
        assert op.hermiticity_defect() < 1e-11


def test_adjoint_conjugate_duality():
    basis = HermiteBasis(40)
    p = parse_symbol("x1^2*xi1 + 1i*x1 - 2i*xi1^2", 1)
    pbar = parse_symbol("x1^2*xi1 - 1i*x1 + 2i*xi1^2", 1)
    A = weyl_quantize_poly(p, basis, 0.1).matrix
    B = weyl_quantize_poly(pbar, basis, 0.1).matrix
    assert np.linalg.norm(A.conj().T - B) < 1e-12 * np.linalg.norm(A)


def test_rotated_oscillator_interior_eigenvalues():
    basis = HermiteBasis(200)
    op = weyl_quantize_poly(ROT, basis, h=0.05)
    lam = np.linalg.eigvals(op.matrix)
    lam = lam[np.argsort(lam.real)]
    expect = (2 * np.arange(10) + 1) * 0.05 + 0.25
    got = lam[:10]
    assert np.allclose(np.sort(got.real), expect, atol=1e-6)
    assert np.abs(got.imag).max() < 1e-6


def test_grid_multiplication_symbol_is_diagonal():
    grid = FourierGrid(5.0, 64)
    op = weyl_quantize_grid(parse_symbol("x1^2", 1), grid, 0.1, xi_limit=None)
    x = grid.points_1d()
    assert np.allclose(op.matrix, np.diag(x**2), atol=1e-10)


def test_apply_weyl_matches_the_continuum_weyl_operator():
    # McCoy's ordering on a Gaussian u, against the continuum Weyl
    # operators with hD = -ih d/dx: both split branches (x^a xi^b with
    # a <= b and a > b) and the pure powers
    h, grid = 0.05, FourierGrid(4.0, 256)
    x = grid.points_1d()
    u = np.exp(-(x - 1) ** 2 / (2 * h))
    du = -(x - 1) / h * u
    d2u = ((x - 1) ** 2 / h ** 2 - 1 / h) * u
    cases = {
        "x1*xi1^2": -h ** 2 * (x * d2u + du),     # (x P^2 + P^2 x) / 2
        "x1^2*xi1": -1j * h * (x * u + x ** 2 * du),   # (x^2 P + P x^2) / 2
        "xi1^2 + xi1*1i + x1^2": -h ** 2 * d2u + h * du + x ** 2 * u,
        "2 - 1i*x1": (2 - 1j * x) * u,
    }
    for text, exact in cases.items():
        got = grid.apply_weyl(parse_symbol(text, 1), h, u)
        assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max(), text
    with pytest.raises(NotPolynomialError):
        grid.apply_weyl(parse_symbol("x1/(1+xi1^2)", 1), h, u)


@pytest.mark.parametrize("text", ["x1^2 + (1e200+1i)^2", "x1^2 + exp(1000)"])
def test_weyl_quantize_poly_rejects_non_finite_coefficients_without_warning(text):
    # both constants overflow to an inf coefficient; the check comes
    # before any arithmetic on it (a RuntimeWarning fails the suite)
    p = parse_symbol(text, 1)
    with pytest.raises(NonFiniteError, match="non-finite coefficients"):
        weyl_quantize_poly(p, HermiteBasis(8), 0.1)
    with pytest.raises(NonFiniteError, match="non-finite coefficients"):
        FourierGrid(4.0, 64).apply_weyl(p, 0.1, np.ones(64))


def test_cross_path_interior_eigenvalues_agree():
    h = 0.05
    herm = weyl_quantize_poly(ROT, HermiteBasis(200), h)
    grid = weyl_quantize_grid(ROT, FourierGrid(8.0, 256), h, xi_limit=None,
                              tail_frac_tol=1.0)
    a = np.sort_complex(np.linalg.eigvals(herm.matrix))
    b = np.sort_complex(np.linalg.eigvals(grid.matrix))
    for k in range(8):
        target = (2 * k + 1) * h + 0.25
        da = np.abs(a - target).min()
        db = np.abs(b - target).min()
        assert da < 1e-6 and db < 1e-6


def test_rational_symbol_grid_bounded():
    p = parse_symbol(
        "(xi1^2-1+1i*xi1*x1^2/(1+x1^2))/(1+xi1^2+1i*xi1*x1^2/(1+x1^2))", 1)
    grid = FourierGrid(6.0, 256)
    op = weyl_quantize_grid(p, grid, 0.1, xi_limit=1.0)
    # sup |p| estimated by sampling
    xs = np.linspace(-30, 30, 301)
    X, XI = np.meshgrid(xs, xs, indexing="ij")
    sup = np.abs(p.eval_grid([X, XI])).max()
    assert np.linalg.norm(op.matrix, 2) <= 1.1 * sup
    # the auto fallback recovers the same limit
    op2 = weyl_quantize_grid(p, grid, 0.1, xi_limit="auto")
    assert np.linalg.norm(op2.matrix - op.matrix, 2) < 0.05
    # Re-part symbol quantizes to a Hermitian matrix
    re_p = parse_symbol("(xi1^2-x1^2)/(1+x1^2+xi1^2)", 1)
    op3 = weyl_quantize_grid(re_p, grid, 0.1, xi_limit=1.0)
    assert op3.hermiticity_defect() < 1e-10


def _whole_array_kernel(prof):
    """The (M, M) kernel as one whole-array gather from the (2M, M)
    profile: the assembly _midpoint_kernel does in blocks of rows."""
    rows = np.fft.ifft(prof, axis=1)
    M = prof.shape[1]
    J, L_idx = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    diff = J - L_idx
    l_shift = np.where(diff > M // 2, M, 0) + np.where(diff < -(M // 2), -M, 0)
    m_idx = (J + L_idx + l_shift) % (2 * M)
    return rows[m_idx, diff % M]


def _whole_array_weyl_grid(p, grid, h, xi_limit):
    from pspeclab import quantize

    M = grid.M
    xi = grid.dual_1d(h)
    mids = -grid.L + grid.L * np.arange(2 * M) / M
    mids = np.where(mids >= grid.L, mids - 2 * grid.L, mids)
    p_inf = quantize._resolve_xi_limit(p, xi_limit, mids, xi)
    prof = quantize._symbol_values(p, mids[:, None], xi[None, :]) - p_inf[:, None]
    A = _whole_array_kernel(prof)
    A[np.arange(M), np.arange(M)] += p_inf[2 * np.arange(M) % (2 * M)]
    return A


def _wick_profile(a, grid, h, monkeypatch):
    """wick_quantize(a) and the (2M, M) profile it hands _midpoint_kernel."""
    from pspeclab import quantize

    seen = []
    kernel = quantize._midpoint_kernel

    def spy(profile, M, tol):
        seen.append(profile(slice(None)))
        return kernel(profile, M, tol)

    monkeypatch.setattr(quantize, "_midpoint_kernel", spy)
    W = wick_quantize(a, grid, h).matrix
    monkeypatch.setattr(quantize, "_midpoint_kernel", kernel)
    return W, seen[0]


def _whole_array_wick(a, grid, h, monkeypatch):
    """wick_quantize(a) and the whole-array kernel of the profile it
    hands _midpoint_kernel."""
    W, profile = _wick_profile(a, grid, h, monkeypatch)
    return W, _whole_array_kernel(profile)


@pytest.mark.parametrize("entries", [None, 1 << 9], ids=["default", "small-blocks"])
def test_grid_kernel_matches_the_whole_array_formula(entries, monkeypatch):
    # byte for byte, at the default block size (M = 200 ends on a short
    # block) and at blocks of a few rows, which end short for every M
    from pspeclab import quantize, repro

    if entries is not None:
        monkeypatch.setattr(quantize, "_KERNEL_ENTRIES", entries)
    rational = parse_symbol(repro.RATIONAL_SECTION3, 1)
    for h, M in ((0.1, 206), (0.05, 519)):
        got = weyl_quantize_grid(rational, FourierGrid(2.5, M), h, xi_limit=1.0,
                                 tail_frac_tol=1.0).matrix
        ref = _whole_array_weyl_grid(rational, FourierGrid(2.5, M), h, 1.0)
        assert got.tobytes() == ref.tobytes(), M
    others = [ROT, parse_symbol(repro.RATIONAL_REMARK, 1),
              parse_symbol("exp(-x1^2/4)*xi1^2 + 1i*x1/(1+xi1^2)", 1)]
    for p in others:
        for M in (7, 63, 64, 200):
            for xi_limit in ("auto", None, 0.5 - 0.25j):
                grid = FourierGrid(4.0, M)
                got = weyl_quantize_grid(p, grid, 0.1, xi_limit=xi_limit,
                                         tail_frac_tol=1.0).matrix
                ref = _whole_array_weyl_grid(p, grid, 0.1, xi_limit)
                assert got.tobytes() == ref.tobytes(), (p, M, xi_limit)
    for h in (0.05, 0.025):
        got, ref = _whole_array_wick(_proximity_damping, FourierGrid(7.0, 64), h,
                                     monkeypatch)
        assert got.tobytes() == ref.tobytes(), h


def test_grid_quantization_peak_memory():
    # the whole-array assembly peaked at 8 A.nbytes (profile, transform,
    # power and index arrays); blocks of rows keep the peak near A
    import tracemalloc

    from pspeclab import repro

    rational = parse_symbol(repro.RATIONAL_SECTION3, 1)
    grid = FourierGrid(2.5, 519)
    weyl_quantize_grid(rational, grid, 0.05, xi_limit=1.0, tail_frac_tol=1.0)
    tracemalloc.start()
    try:
        A = weyl_quantize_grid(rational, grid, 0.05, xi_limit=1.0,
                               tail_frac_tol=1.0).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * A.nbytes


def test_dual_window_check_keeps_the_whole_array_fraction(monkeypatch):
    # the blocked sums give the whole-array tail fraction up to rounding,
    # and the check raises exactly above the tolerance
    from pspeclab import quantize, repro
    from pspeclab.errors import GridResolutionError

    monkeypatch.setattr(quantize, "_KERNEL_ENTRIES", 1 << 9)
    p = parse_symbol(repro.RATIONAL_REMARK, 1)
    grid, h = FourierGrid(4.0, 64), 0.1
    M = grid.M
    xi = grid.dual_1d(h)
    mids = -grid.L + grid.L * np.arange(2 * M) / M
    mids = np.where(mids >= grid.L, mids - 2 * grid.L, mids)
    power = np.abs(np.fft.ifft(p.eval_grid([mids[:, None], xi[None, :]]), axis=1)) ** 2
    band = int(max(1, round(0.05 * M)))
    whole = power[:, M // 2 - band: M // 2 + band + 1].sum() / (power.sum() + 1e-300)
    assert 1e-3 < whole < 1e-2
    fracs = []
    check = quantize._dual_window_check

    def spy(frac, tol):
        fracs.append(frac)
        return check(frac, tol)

    monkeypatch.setattr(quantize, "_dual_window_check", spy)
    weyl_quantize_grid(p, grid, h, xi_limit=None, tail_frac_tol=whole * (1 + 1e-12))
    assert fracs == [pytest.approx(whole, rel=1e-14, abs=0)]
    with pytest.raises(GridResolutionError,
                       match=f"dual-grid window too small: transform tail fraction {whole:.2e}"):
        weyl_quantize_grid(p, grid, h, xi_limit=None, tail_frac_tol=whole * (1 - 1e-12))
    # below 8 points there is no check
    weyl_quantize_grid(p, FourierGrid(4.0, 7), h, xi_limit=None, tail_frac_tol=0.0)


def test_schrodinger_harmonic():
    grid = FourierGrid(8.0, 256)
    op = schrodinger_matrix(parse_symbol("x1^2", 1), grid, h=0.1)
    lam = np.sort(np.linalg.eigvalsh((op.matrix + op.matrix.conj().T) / 2))
    expect = 0.1 * (2 * np.arange(10) + 1)
    assert np.allclose(lam[:10], expect, atol=1e-8)


def test_schrodinger_free_multipliers():
    grid = FourierGrid(4.0, 32)
    op = schrodinger_matrix(parse_symbol("0*x1", 1), grid, h=0.5)
    lam = np.sort(np.linalg.eigvalsh((op.matrix + op.matrix.conj().T) / 2))
    expect = np.sort((grid.dual_1d(0.5)) ** 2)
    assert np.allclose(lam, expect, atol=1e-10)


def test_schrodinger_davies_tensor_oracle():
    h = 0.1
    grid2 = FourierGrid(6.0, 48, n=2)
    V = parse_symbol("x1^2 - 1i*x2^2", 2)
    op = schrodinger_matrix(V, grid2, h)
    lam2 = np.linalg.eigvals(op.matrix)
    grid1 = FourierGrid(6.0, 48)
    A = schrodinger_matrix(parse_symbol("x1^2", 1), grid1, h).matrix
    B = schrodinger_matrix(parse_symbol("-1i*x1^2", 1), grid1, h).matrix
    la = np.linalg.eigvals(A)
    lb = np.linalg.eigvals(B)
    # compare the lowest tensor sums against the closest 2-D eigenvalues
    la_low = la[np.argsort(la.real)][:4]
    lb_low = lb[np.argsort(np.abs(lb))][:4]
    for s in (la_low[:, None] + lb_low[None, :]).ravel():
        assert np.abs(lam2 - s).min() < 1e-6


def test_wick_identity():
    grid = FourierGrid(6.0, 96)
    op = wick_quantize(parse_symbol("1+0*x1", 1), grid, 0.1)
    assert np.allclose(op.matrix, np.eye(96), atol=1e-8)


def test_wick_quadratic_shift():
    basis = HermiteBasis(64)
    op = wick_quantize(OSC, basis, 0.1)
    lam = np.sort(np.linalg.eigvalsh((op.matrix + op.matrix.conj().T) / 2))
    expect = 0.1 * (2 * np.arange(20) + 1) + 1.0
    assert np.allclose(lam[:20], expect, atol=1e-10)


def test_wick_positivity_simple():
    basis = HermiteBasis(48)
    op = wick_quantize(parse_symbol("x1^2", 1), basis, 0.1)
    lam = np.linalg.eigvalsh((op.matrix + op.matrix.conj().T) / 2)
    assert lam.min() >= -1e-10 * np.abs(lam).max()


def test_wick_positivity_random_nonneg():
    rng = np.random.default_rng(17)
    basis = HermiteBasis(40)
    h = 0.1
    for _ in range(50):
        c = rng.uniform(-1, 1, size=6)
        text = (f"(({c[0]:.3f})+({c[1]:.3f})*x1+({c[2]:.3f})*xi1)^2"
                f" + (({c[3]:.3f})+({c[4]:.3f})*x1+({c[5]:.3f})*xi1)^2"
                f" + {abs(c[0]):.3f}")
        a = parse_symbol(text, 1)
        op = wick_quantize(a, basis, h)
        H = (op.matrix + op.matrix.conj().T) / 2
        lam = np.linalg.eigvalsh(H)
        assert lam.min() >= -1e-10 * max(np.abs(lam).max(), 1.0)


def test_gaussian_smoothing_of_quadratic():
    poly = OSC.to_poly()
    smooth = gaussian_smooth_poly(poly)
    # x^2 + xi^2 -> x^2 + xi^2 + 1
    const = smooth.coeffs[(0, 0)]
    assert const == pytest.approx(1.0)


def test_moyal_symmetrization():
    x = parse_symbol("x1", 1).to_poly()
    xi = parse_symbol("xi1", 1).to_poly()
    res = moyal_product(x, xi, 0.25) + moyal_product(xi, x, 0.25)
    res = res.scale(0.5)
    assert res.coeffs == {(1, 1): pytest.approx(1.0)}


def test_moyal_commutator_matches_matrix_commutator():
    h = 0.25
    x = parse_symbol("x1", 1).to_poly()
    xi = parse_symbol("xi1", 1).to_poly()
    comm = moyal_product(x, xi, h) - moyal_product(xi, x, h)
    assert list(comm.coeffs) == [(0, 0)]
    c = comm.coeffs[(0, 0)]
    assert c == pytest.approx(1j * h)
    basis = HermiteBasis(24)
    X = basis.position_1d(h)
    P = basis.momentum_1d(h)
    interior = np.s_[:16, :16]
    assert np.allclose((X @ P - P @ X)[interior], (c * np.eye(24))[interior],
                       atol=1e-12)


def test_moyal_matrix_oracle():
    h = 0.1
    M = 128
    basis = HermiteBasis(M)
    p = OSC.to_poly()
    star = moyal_product(p, p, h)
    lhs = weyl_quantize_poly(star, basis, h).matrix
    rhs = weyl_quantize_poly(p, basis, h).matrix @ weyl_quantize_poly(p, basis, h).matrix
    blk = np.s_[:50, :50]
    assert np.abs(lhs[blk] - rhs[blk]).max() < 1e-9 * max(1.0, np.abs(rhs[blk]).max())


def test_moyal_associativity_exact():
    # dyadic h and small integer coefficients keep every operation exact
    h = 0.5
    p1 = parse_symbol("x1^2 + 2*xi1", 1).to_poly()
    p2 = parse_symbol("x1*xi1 - 1", 1).to_poly()
    p3 = parse_symbol("xi1^2 + x1", 1).to_poly()
    left = moyal_product(moyal_product(p1, p2, h), p3, h)
    right = moyal_product(p1, moyal_product(p2, p3, h), h)
    assert left.coeffs == right.coeffs


def test_fbi_coherent_state_peak():
    h = 0.05
    grid = FourierGrid(8.0, 512)
    y = grid.points_1d()
    x0, xi0 = 1.0, 2.0
    u = np.exp(-(y - x0) ** 2 / (2 * h) + 1j * xi0 * y / h)
    x_out = np.linspace(x0 - 1.5, x0 + 1.5, 61)
    xi_out = np.linspace(xi0 - 1.5, xi0 + 1.5, 61)
    field = fbi_transform(u, grid, h, x_out, xi_out)
    idx = np.unravel_index(np.abs(field.values).argmax(), field.values.shape)
    assert abs(x_out[idx[0]] - x0) <= 0.06
    assert abs(xi_out[idx[1]] - xi0) <= 0.06


def test_fbi_sums_blocks_of_the_grid():
    # at M = 8192 with 81 x 81 outputs the product runs in two blocks of
    # y; it equals the whole (81, M) x (M, 81) product to 1e-13
    from pspeclab import quantize
    h = 1e-3
    grid = FourierGrid(8.0, 8192)
    y = grid.points_1d()
    u = np.exp(-(y - 1.0) ** 2 / (2 * h) + 1j * 2.0 * y / h)
    x_out, xi_out = np.linspace(0.5, 1.5, 81), np.linspace(1.5, 2.5, 81)
    calls = []
    matmul = np.matmul
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "matmul", lambda a, b: calls.append(a.shape) or matmul(a, b))
        raw = quantize._fbi_raw(u, y, grid.dx, h, x_out, xi_out)
    assert calls == [(81, 4315), (81, 8192 - 4315)]
    win = np.exp(-(x_out[:, None] - y[None, :]) ** 2 / (2 * h))
    phase = np.exp(-1j * y[:, None] * xi_out[None, :] / h)
    whole = (win * u) @ phase * np.exp(1j * x_out[:, None] * xi_out / h) * grid.dx
    assert np.abs(raw - whole).max() <= 1e-13 * np.abs(whole).max()


def test_fbi_isometry_on_random_smooth_vectors():
    h = 0.05
    grid = FourierGrid(8.0, 384)
    y = grid.points_1d()
    rng = np.random.default_rng(23)
    x_out = np.linspace(-5, 5, 141)
    xi_out = np.linspace(-2.5, 2.5, 141)
    for _ in range(20):
        coef = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        u = np.zeros_like(y, dtype=complex)
        for k, c in enumerate(coef):
            u += c * np.exp(-y**2 / 2) * y**k / (1 + k)
        u /= np.sqrt((np.abs(u) ** 2).sum() * grid.dx)
        field = fbi_transform(u, grid, h, x_out, xi_out)
        assert field.mass() == pytest.approx(1.0, abs=1.5e-3)


def test_fbi_ground_state_localized():
    # |Tu|^2 of the ground state is exp(-|w|^2 / 2h): the mass outside
    # radius r is exp(-r^2 / 2h), so r = 0.5 needs h below ~0.027 for
    # the 1% level (at h = 0.05 the true value is exp(-2.5) ~ 8%).
    h = 0.01
    grid = FourierGrid(6.0, 768)
    y = grid.points_1d()
    u = hermite_functions(1, y, h)[0].astype(complex)
    x_out = np.linspace(-0.9, 0.9, 91)
    xi_out = np.linspace(-0.9, 0.9, 91)
    field = fbi_transform(u, grid, h, x_out, xi_out)
    measured = field.mass_outside((0.0, 0.0), 0.5)
    assert measured < 0.01
    assert measured == pytest.approx(np.exp(-0.25 / (2 * h)), rel=0.5, abs=1e-4)
    # and the h = 0.05 value matches the explicit Gaussian integral
    h2 = 0.05
    u2 = hermite_functions(1, y, h2)[0].astype(complex)
    f2 = fbi_transform(u2, grid, h2, np.linspace(-2, 2, 101),
                       np.linspace(-2, 2, 101))
    assert f2.mass_outside((0.0, 0.0), 0.5) == pytest.approx(
        np.exp(-0.25 / (2 * h2)), rel=0.1)


def test_fbi_calibration_cached_per_grid_value():
    from pspeclab import quantize

    quantize._fbi_calibration.cache_clear()
    h = 0.05
    x_out = np.linspace(-1, 1, 21)
    for grid in (FourierGrid(4.0, 128), FourierGrid(4.0, 128)):
        u = np.exp(-grid.points_1d() ** 2 / (2 * h)).astype(complex)
        fbi_transform(u, grid, h, x_out, x_out)
    assert quantize._fbi_calibration.cache_info().currsize == 1


def test_fbi_rejects_window_leakage():
    # an input whose boundary value passes 1e-8 of its maximum wraps
    # around the periodic window, and the transform refuses it
    h = 0.05
    grid = FourierGrid(4.0, 128)
    x_out = np.linspace(-1, 1, 21)
    u = np.exp(-grid.points_1d() ** 2 / (2 * h)).astype(complex)
    u[0] = 2e-8
    with pytest.raises(GridResolutionError, match="window leakage"):
        fbi_transform(u, grid, h, x_out, x_out)
    u[0] = 5e-9
    assert np.isfinite(fbi_transform(u, grid, h, x_out, x_out).values).all()


def test_wick_quadrature_window_guard():
    from pspeclab.errors import GridResolutionError

    def a_func(X, XI):
        return np.exp(-X**2 - XI**2)

    with pytest.raises(GridResolutionError, match="window too small"):
        wick_quantize(a_func, FourierGrid(4.0, 256), 0.1, gh_nodes=4)
    # PSD at the 1e-10 level needs box and xi-window to swallow the
    # smoothed symbol's Gaussian tails (both ~ 7 and ~ 10 here)
    op = wick_quantize(a_func, FourierGrid(7.0, 448), 0.1, gh_nodes=32)
    lam = np.linalg.eigvalsh((op.matrix + op.matrix.conj().T) / 2)
    assert lam.min() >= -1e-10 * np.abs(lam.max())


def _proximity_damping(X, XI):
    s = X ** 2 + XI ** 2 - 6.0
    return np.where(s > 0, s, 0.0) ** 3 * 1e-2


def _quadrature_wick(a, grid, h, nodes):
    """Reference: the Gauss-Hermite double sum
    c = pi^-1 sum_ij w_i w_j a(x - u_i, xi - v_j) on the midpoint/dual
    grid, then grid Weyl quantization."""
    u, w = np.polynomial.hermite.hermgauss(nodes)

    def smoothed(X, XI):
        out = 0.0
        for v, wv in zip(u, w):
            vals = a(X[None] - u[:, None, None], XI[None] - v)
            out = out + wv * np.tensordot(w, vals, axes=1)
        return out / np.pi

    return weyl_quantize_grid(smoothed, grid, h, xi_limit=None).matrix


@pytest.mark.parametrize("h", [0.05, 0.025])
def test_wick_lattice_matches_fine_quadrature(h):
    grid = FourierGrid(7.0, 64)
    W = wick_quantize(_proximity_damping, grid, h).matrix
    fine = _quadrature_wick(_proximity_damping, grid, h, 120)
    coarse = _quadrature_wick(_proximity_damping, grid, h, 40)
    err = np.linalg.norm(W - fine) / np.linalg.norm(fine)
    assert err < 1e-7
    # closer to the 120-node rule than the old 40-node rule, by a margin
    # (measured: 3.3e-9 and 3.7e-9 against 4.0e-8 and 4.5e-8)
    assert err < 0.5 * np.linalg.norm(coarse - fine) / np.linalg.norm(fine)


@pytest.mark.parametrize("text, a_func", [
    ("x1^2", lambda X, XI: X ** 2 + 0 * XI),
    ("x1^4 + xi1^2*x1^2 + 3*xi1", lambda X, XI: X ** 4 + XI ** 2 * X ** 2 + 3 * XI),
    ("xi1^2 + x1^2", lambda X, XI: XI ** 2 + X ** 2),
], ids=["x2", "quartic", "oscillator"])
def test_wick_lattice_matches_heat_flow_on_polynomials(text, a_func):
    # a plain callable takes the lattice path; the exact heat flow of the
    # same polynomial pins the normalization of both Gaussian factors
    from pspeclab.symbols import symbol_from_poly

    grid, h = FourierGrid(6.0, 128), 0.1
    W = wick_quantize(a_func, grid, h, tail_frac_tol=1.0).matrix
    smooth = gaussian_smooth_poly(parse_symbol(text, 1).to_poly())
    ref = weyl_quantize_grid(symbol_from_poly(smooth), grid, h, xi_limit=None,
                             tail_frac_tol=1.0).matrix
    assert np.abs(W - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("h", [0.05, 0.025])
def test_wick_lattice_samples_the_symbol_once(h):
    # the per-node quadrature called the symbol 40 x 40 = 1600 times on
    # the whole (2M x M) grid; the lattice is sampled once, in blocks
    M, L = 64, 7.0
    sizes = []

    def counting(X, XI):
        sizes.append(np.broadcast(X, XI).size)
        return _proximity_damping(X, XI)

    wick_quantize(counting, FourierGrid(L, M), h)
    # the default window, R = 6.863 (gh_nodes=30)
    R = np.polynomial.hermite.hermgauss(30)[0].max()
    lattice = ((2 * M + 2 * math.ceil(R * M / L))
               * (M + 2 * math.ceil(R * L / (h * np.pi))))
    assert len(sizes) < 160
    assert sum(sizes) <= lattice


def _gaussian_symbol(X, XI):
    return np.exp(-X ** 2 - XI ** 2)


def _wick_samples(a, L, M, h):
    """wick_quantize(a) on FourierGrid(L, M) at h, with the sizes of its
    symbol calls, and the full dual lattice's sample count (the default
    window, R = 6.863)."""
    sizes = []

    def counting(X, XI):
        sizes.append(np.broadcast(X, XI).size)
        return a(X, XI)

    W = wick_quantize(counting, FourierGrid(L, M), h).matrix
    R = np.polynomial.hermite.hermgauss(30)[0].max()
    lattice = ((2 * M + 2 * math.ceil(R * M / L))
               * (M + 2 * math.ceil(R * L / (h * np.pi))))
    return W, sizes, lattice


@pytest.mark.parametrize("h, stride, fewer", [(0.05, 4, 4), (0.025, 9, 8.9)])
def test_wick_lattice_samples_the_dual_axis_at_the_midpoint_spacing(h, stride, fewer):
    # the dual spacing h pi / L is 4.9x and 9.7x finer than the midpoint
    # spacing L / M here; the proximity damping keeps the coarse stride
    from pspeclab import quantize

    assert quantize._dual_stride(7.0, 64, h) == stride
    _, sizes, lattice = _wick_samples(_proximity_damping, 7.0, 64, h)
    assert len(sizes) <= 3
    assert sum(sizes) <= lattice / fewer


def _xi_kink_cubed(X, XI):
    return np.maximum(XI ** 2 - 1.0, 0.0) ** 3 + 0 * X


def _xi_kink_abs(X, XI):
    return np.abs(XI - 0.3) + 0 * X


# sha256 of W.tobytes() from the full dual lattice, computed before the
# dual stride existed (one BLAS thread for M >= 352)
_WICK_PINNED = {
    ("xi-kink-cubed", 64, 0.05): "b42d100b0de87b666e550625c624772f32bf0a502221595189c492fd9ce0ea79",
    ("xi-kink-cubed", 64, 0.025): "c9e887ac19c5bc49f433e74a7c4b7e93ed8e344a22ca90c5f96b78791856f1d6",
    ("xi-kink-abs", 64, 0.05): "8942987b637b90242a8bc78efd51a87313d5e1f17425393a818aa4a9925a5725",
    ("xi-kink-abs", 64, 0.025): "7768505792fc6625e2b45caaf1860d1f4525eeba4d38e5a8b7bb9b81b661b791",
    ("proximity", 512, 0.025): "f6f28bf6a9b4fd512ce7ec80bb11e21d68b621ad5945be44e114d1deed35ca66",
    ("proximity", 512, 0.05): "5d131c7580b3cc6e563df539700675907b99b4eea2afb3d7daea6eb57cc93468",
    ("gaussian", 448, 0.1): "2cfd03d04466fd9d1d822d1a69b4fabde40018608d73f2042333903bdf3735ae",
}
_WICK_SYMBOLS = {"xi-kink-cubed": _xi_kink_cubed, "xi-kink-abs": _xi_kink_abs,
                 "proximity": _proximity_damping, "gaussian": _gaussian_symbol}


@pytest.mark.parametrize("name, M, h", [k for k in _WICK_PINNED if k[1] == 64])
def test_wick_lattice_falls_back_on_a_kink_along_xi(name, M, h):
    # the coarse stride's xi change (1e-6 to 1e-3 of max|c|) exceeds the
    # x change (1e-15): the lattice is rebuilt at stride 1, sampling the
    # symbol 1 + 1/m times, and W has the full lattice's bytes
    W, sizes, lattice = _wick_samples(_WICK_SYMBOLS[name], 7.0, M, h)
    assert lattice < sum(sizes) <= lattice * (1 + 1 / 4)
    assert hashlib.sha256(W.tobytes()).hexdigest() == _WICK_PINNED[(name, M, h)]


@pytest.mark.parametrize("name, M, h", [k for k in _WICK_PINNED if k[1] != 64])
def test_wick_lattice_at_stride_one_keeps_its_bytes(name, M, h):
    from pspeclab import quantize
    from pspeclab._blas import single_thread_below

    assert quantize._dual_stride(7.0, M, h) == 1
    with single_thread_below(1):
        W, sizes, lattice = _wick_samples(_WICK_SYMBOLS[name], 7.0, M, h)
    assert sum(sizes) == lattice
    assert hashlib.sha256(W.tobytes()).hexdigest() == _WICK_PINNED[(name, M, h)]


def _refined_wick_profile(a, L, M, h, refine):
    """The smoothed symbol on the (2M, M) midpoint/dual lattice in fft
    order, by the trapezoid rule on the full dual lattice and an x
    lattice `refine` times finer than the midpoint spacing, each padded
    by R = 6.863."""
    R = np.polynomial.hermite.hermgauss(30)[0].max()
    dx, dxi = L / (refine * M), h * np.pi / L
    pad_x, pad_xi = math.ceil(R / dx), math.ceil(R / dxi)
    mids = -L + L * np.arange(2 * M) / M
    x = -L + dx * np.arange(-pad_x, 2 * refine * M + pad_x)
    xi_out = dxi * np.arange(-(M // 2), (M - 1) // 2 + 1)
    xi = dxi * np.arange(-(M // 2) - pad_xi, (M - 1) // 2 + pad_xi + 1)
    Gx = dx / math.sqrt(math.pi) * np.exp(-(mids[:, None] - x[None, :]) ** 2)
    Gxi = dxi / math.sqrt(math.pi) * np.exp(-(xi_out[:, None] - xi[None, :]) ** 2)
    smooth = np.concatenate([Gxi @ a(x[None, r:r + 256], xi[:, None])
                             for r in range(0, x.size, 256)], axis=1)
    return np.fft.ifftshift(Gx @ smooth.T, axes=1)


@pytest.mark.parametrize("h", [0.05, 0.025])
def test_wick_lattice_coarse_dual_axis_does_not_set_the_error(h, monkeypatch):
    # against x refined 8x, the smoothed symbol is off by 5.5e-11 of its
    # largest value on the full dual lattice, all of it from the midpoint
    # spacing; the coarse dual stride adds at most a tenth of that
    from pspeclab import quantize

    grid = FourierGrid(7.0, 64)
    ref = _refined_wick_profile(_proximity_damping, 7.0, 64, h, 8)
    coarse = _wick_profile(_proximity_damping, grid, h, monkeypatch)[1]
    monkeypatch.setattr(quantize, "_dual_stride", lambda L, M, h: 1)
    full = _wick_profile(_proximity_damping, grid, h, monkeypatch)[1]
    err_coarse, err_full = (np.abs(prof - ref).max() / np.abs(ref).max()
                            for prof in (coarse, full))
    assert err_full < 1e-10
    assert err_coarse <= 1.1 * err_full


@pytest.mark.parametrize("a_func, L, M, h", [
    (_proximity_damping, 7.0, 64, 0.05),
    (_proximity_damping, 7.0, 64, 0.025),
    (_proximity_damping, 7.0, 512, 0.025),
    (lambda X, XI: X ** 2 + 0 * XI, 6.0, 128, 0.1),
    (lambda X, XI: X ** 4 + XI ** 2 * X ** 2 + 3 * XI, 6.0, 128, 0.1),
    (lambda X, XI: X ** 8 + 0 * XI, 6.0, 128, 0.1),
    (_gaussian_symbol, 7.0, 448, 0.1),
], ids=["proximity-64-0.05", "proximity-64-0.025", "proximity-512-0.025",
        "x2", "quartic", "x8", "gaussian"])
def test_wick_lattice_default_window_matches_the_wider_one(a_func, L, M, h):
    # beyond the default R = 6.863 the Gaussian weight is below 3.5e-21,
    # which rounding cannot see: the R = 8.10 window of gh_nodes=40
    # gives the same matrix to rounding, on the whole and in its middle
    grid = FourierGrid(L, M)
    W = wick_quantize(a_func, grid, h, tail_frac_tol=1.0).matrix
    wide = wick_quantize(a_func, grid, h, gh_nodes=40, tail_frac_tol=1.0).matrix
    assert np.abs(W - wide).max() <= 1e-15 * np.abs(wide).max()
    mid = np.s_[M // 4: -(M // 4), M // 4: -(M // 4)]
    assert np.abs(W[mid] - wide[mid]).max() <= 1e-15 * np.abs(wide[mid]).max()


def test_wick_lattice_is_linear_over_complex_symbols():
    # complex samples take the interleaved product, real ones the real
    # product; W(a1 + i a2) = W(a1) + i W(a2) ties the two together
    grid, h = FourierGrid(7.0, 64), 0.05

    def a2(X, XI):
        return np.exp(-(X - 1.0) ** 2 - XI ** 2)

    W = wick_quantize(lambda X, XI: _proximity_damping(X, XI) + 1j * a2(X, XI),
                      grid, h).matrix
    ref = (wick_quantize(_proximity_damping, grid, h).matrix
           + 1j * wick_quantize(a2, grid, h).matrix)
    assert np.abs(W - ref).max() <= 1e-15 * np.abs(ref).max()


def test_wick_lattice_smooths_real_values_of_any_dtype_alike():
    # complex samples with no imaginary part take the real product, as a
    # SymbolExpr's always-complex values do, so the dtype moves no bit
    grid, h = FourierGrid(7.0, 64), 0.05
    W = wick_quantize(_gaussian_symbol, grid, h).matrix
    as_complex = wick_quantize(
        lambda X, XI: _gaussian_symbol(X, XI).astype(complex), grid, h).matrix
    expr = wick_quantize(parse_symbol("exp(-x1^2 - xi1^2)", 1), grid, h).matrix
    assert np.array_equal(W, as_complex)
    assert np.abs(expr - W).max() <= 1e-15 * np.abs(W).max()


@pytest.mark.parametrize("n, pad, dt", [(128, 63, 7 / 64), (64, 612, 0.025 * np.pi / 7),
                                         (1, 0, 0.5), (3, 1, 0.3)])
def test_gaussian_band_matches_the_row_loop(n, pad, dt):
    from pspeclab.quantize import _gaussian_band

    g = dt / math.sqrt(math.pi) * np.exp(-(dt * np.arange(-pad, pad + 1)) ** 2)
    ref = np.zeros((n, n + 2 * pad))
    for i in range(n):
        ref[i, i:i + 2 * pad + 1] = g
    assert _gaussian_band(n, pad, dt).tobytes() == ref.tobytes()


def test_wick_lattice_rejects_non_finite_padding():
    # finite on the midpoint grid -L <= x < L, infinite on the padding beyond
    from pspeclab.errors import PspecError

    def a_func(X, XI):
        return np.where(np.abs(X) > 7.0, np.inf, np.exp(-X ** 2 - XI ** 2))

    with pytest.raises(PspecError, match="Wick lattice"):
        wick_quantize(a_func, FourierGrid(7.0, 64), 0.1)


def test_basis_metadata_evaluates_vectors():
    # eigenvector of the oscillator evaluated on a spatial grid matches
    # the corresponding scaled Hermite function
    h, M = 0.1, 32
    basis = HermiteBasis(M)
    coeffs = np.zeros(M, dtype=complex)
    coeffs[3] = 1.0
    x = np.linspace(-3, 3, 101)
    vals = basis.evaluate(coeffs, x, h)
    direct = hermite_functions(M, x, h)[3]
    assert np.allclose(vals, direct, atol=1e-12)


def _tridiagonals():
    """Tridiagonal matrices: Hermite matrices of real and complex
    symbols, whose super-diagonal is not +-sub (the rotated oscillator's
    is -sub), random real and complex bands, order 3, diagonal only and
    zero."""
    rng = np.random.default_rng(19)
    mats = [weyl_quantize_poly(parse_symbol(sym, 1), HermiteBasis(M), h).matrix
            for sym in ("xi1^2 + xi1*1i + x1^2", "xi1^2+xi1*1i+x1^2+0.3*x1",
                        "xi1^2+x1^2+1i*x1")
            for M, h in ((3, 0.5), (60, 0.1), (200, 0.05))]
    for M in (3, 4, 50):
        for imag in (0.0, 1.0):
            sub, diag, sup = (rng.standard_normal(n) + imag * 1j * rng.standard_normal(n)
                              for n in (M - 1, M, M - 1))
            mats.append(np.diag(sub, -1) + np.diag(diag) + np.diag(sup, 1))
    mats.append(np.diag(rng.standard_normal(20) + 1j * rng.standard_normal(20)))
    return mats


def test_tridiagonal_norm_is_the_dense_svd():
    # the norm of tridiagonal matrices, the band SVD's where the band
    # rule admits them (see _scan), against the dense SVD
    mats = _tridiagonals()
    shifted, complex_ = mats[4], mats[7]      # at M = 60
    sub, sup = np.diagonal(shifted, -1), np.diagonal(shifted, 1)
    assert not shifted.imag.any() and complex_.imag.any()
    assert not np.allclose(np.abs(sup), np.abs(sub))
    for A in mats:
        assert _scan(A).tridiagonal
        norm = OperatorMatrix(A, 0.1, None).norm()
        ref = np.linalg.norm(A, 2)
        assert abs(norm - ref) <= 1e-14 * ref, (A.shape, norm, ref)
    zero = OperatorMatrix(np.zeros((5, 5), dtype=complex), 0.1, None)
    assert zero._structure.tridiagonal
    assert zero.norm() == 0.0 and type(zero.norm()) is float


def test_norm_off_the_bands_is_the_dense_svd_bytes():
    rng = np.random.default_rng(7)
    quartic = weyl_quantize_poly(parse_symbol("xi1^2 + x1^4", 1), HermiteBasis(40), 0.1)
    mats = [quartic.matrix,
            rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)),
            np.array([[1.0, 2.0], [3.0, 4.0j]])]       # below order 3
    for A in mats:
        assert not _scan(A).tridiagonal
        norm = OperatorMatrix(A, 0.1, None).norm()
        assert norm.hex() == float(np.linalg.norm(A, 2)).hex()



@pytest.mark.parametrize("text", ["xi1^2 + xi1*1i + x1^2", "xi1^2 + x1^4 + 1i*x1"])
def test_weyl_quantize_poly_leaves_no_reference_cycles(text):
    # the ladder powers are memoized without a self-referencing closure,
    # so a call leaves nothing for the cyclic collector
    p, basis = parse_symbol(text, 1), HermiteBasis(200)
    weyl_quantize_poly(p, basis, 0.05)        # warm-up: module-level caches
    gc.collect()
    gc.disable()
    try:
        weyl_quantize_poly(p, basis, 0.05)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bandwidths_are_the_tightest_band():
    rng = np.random.default_rng(12)
    for kl, ku in ((0, 0), (1, 3), (3, 1), (0, 2), (2, 2), (5, 0)):
        A = np.zeros((40, 40), dtype=complex)
        for s in range(-kl, ku + 1):
            A += np.diag(rng.standard_normal(40 - abs(s)) + 1j, s)
        assert _bandwidths(A, kl + ku) == (kl, ku)
        assert _bandwidths(A, 39) == (kl, ku)
        if kl + ku:
            assert _bandwidths(A, kl + ku - 1) is None
        B = A.copy()
        B[39, 0] = 1e-300                      # one entry off the band
        assert _bandwidths(B, 39 + ku) == (39, ku)
        assert _bandwidths(B, 38 + ku) is None
    # zeros inside the band do not narrow it, exact zeros outside do not
    # widen it; a Hermite matrix of x^4 has offsets 0, +-2 and +-4
    quartic = weyl_quantize_poly(parse_symbol("xi1^2 + x1^4", 1), HermiteBasis(30), 0.1)
    assert _bandwidths(quartic.matrix, 8) == (4, 4)
    assert _bandwidths(np.zeros((6, 6)), 0) == (0, 0)
    # the tridiagonal test is the band test at kl = ku = 1
    upper2 = np.diag(np.ones(5)) + np.diag(np.ones(3), 2)
    assert _bandwidths(upper2, 2) == (0, 2) and not _scan(upper2).tridiagonal


def test_bandwidths_make_no_square_temporary():
    band = weyl_quantize_poly(ROT, HermiteBasis(800), 0.05).matrix   # 10 MB
    dense = np.ones((800, 800))                                       # 5 MB
    tracemalloc.start()
    try:
        assert _bandwidths(band, 800 // 16) == (1, 1)
        assert _bandwidths(dense, 50) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 5


def test_construction_makes_no_square_temporary():
    # building an operator scans a tridiagonal matrix's non-zeros and then
    # its three diagonals alone, so it allocates less than M^2 bytes
    M = 2000
    A = np.zeros((M, M))                                              # 32 MB
    A.flat[::M + 1], A.flat[1::M + 1], A.flat[M::M + 1] = np.arange(M), 2.0, 0.5
    tracemalloc.start()
    try:
        op = OperatorMatrix(A, 0.1, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op._structure.tridiagonal and op._structure.real
    assert peak < M * M
