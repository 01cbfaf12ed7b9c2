import math

import numpy as np
import pytest

from pspeclab.quantize import (
    FourierGrid,
    HermiteBasis,
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


def test_fbi_calibration_cached_per_grid_value(monkeypatch):
    from pspeclab import quantize

    monkeypatch.setattr(quantize, "_FBI_CAL_CACHE", {})
    h = 0.05
    x_out = np.linspace(-1, 1, 21)
    for grid in (FourierGrid(4.0, 128), FourierGrid(4.0, 128)):
        u = np.exp(-grid.points_1d() ** 2 / (2 * h)).astype(complex)
        fbi_transform(u, grid, h, x_out, x_out)
    assert len(quantize._FBI_CAL_CACHE) == 1


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
    R = np.polynomial.hermite.hermgauss(40)[0].max()
    lattice = ((2 * M + 2 * math.ceil(R * M / L))
               * (M + 2 * math.ceil(R * L / (h * np.pi))))
    assert len(sizes) < 160
    assert sum(sizes) <= lattice


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
