import numpy as np
import pytest

import pspeclab.weights as weights_module
from pspeclab.errors import (
    ConditioningError,
    DynamicalConditionViolated,
    NonFiniteError,
    PspecError,
)
from pspeclab.quantize import (
    FourierGrid,
    HermiteBasis,
    weyl_quantize_grid,
    weyl_quantize_poly,
)
from pspeclab.spectral import eigendecompose, resolvent_norm
from pspeclab.symbols import parse_symbol
from pspeclab.weights import (
    boundary_exclusion_experiment,
    conjugate_operator,
    dissipative_build,
    dissipative_resolvent_check,
    escape_weight,
    quasimode_spectrum_proximity,
)

ROT = parse_symbol("xi1^2 + xi1*1i + x1^2", 1)
DAVIES = parse_symbol("xi1^2+xi2^2+x1^2-1i*x2^2", 2)
BOX1 = [(-2.5, 2.5), (-2.5, 2.5)]


# ---------------------------------------------------------------------------
# escape weights

def test_escape_weight_parabolic_model():
    p = parse_symbol("xi1 + 1i*(x1^2 - 1)", 1)
    w = escape_weight(p, 0.0, BOX1, T0=5.0)
    assert w.gamma > 0
    assert not w.vacuous
    assert w.sample_count == 2


def test_escape_weight_gamma_stable_under_doubling():
    p = parse_symbol("xi1 + 1i*(x1^2 - 1)", 1)
    w1 = escape_weight(p, 0.0, BOX1, T0=5.0, seeds_per_axis=13)
    w2 = escape_weight(p, 0.0, BOX1, T0=5.0, seeds_per_axis=27)
    assert abs(w2.gamma - w1.gamma) <= 0.1 * abs(w1.gamma)


def test_escape_weight_davies_violated():
    with pytest.raises(DynamicalConditionViolated) as err:
        escape_weight(DAVIES, 1.0, [(-1.6, 1.6)] * 4, T0=5.0)
    assert len(err.value.stuck_points) > 0


def test_escape_weight_vacuous_outside_range():
    w = escape_weight(DAVIES, -1.0, [(-1.6, 1.6)] * 4, T0=5.0)
    assert w.vacuous
    assert w.gamma == np.inf


def test_escape_weight_empty_level_set_rotated_vertex():
    # z0 = 0 is the parabola vertex: p^{-1}(0) = {(0,0)} exactly, where
    # the bracket vanishes; slightly negative z0 has an empty level set
    w = escape_weight(ROT, -0.05, BOX1, T0=3.0)
    assert w.vacuous


def test_escape_weight_evaluates_and_differentiates():
    p = parse_symbol("xi1 + 1i*(x1^2 - 1)", 1)
    w = escape_weight(p, 0.0, BOX1, T0=5.0)
    X = np.linspace(-2, 2, 11)
    vals = w(X, np.zeros_like(X))
    assert np.isfinite(vals).all()
    g = w.gradient(np.array([1.0, 0.0]))
    eps = 1e-6
    for slot in range(2):
        wp = np.array([1.0, 0.0])
        wm = wp.copy()
        wp[slot] += eps
        wm[slot] -= eps
        fd = (w(*wp) - w(*wm)) / (2 * eps)
        assert g[slot] == pytest.approx(float(fd), abs=1e-5)


def test_escape_weight_gradient_away_from_the_centers():
    # inside a bump but off its center the gradient has the radial
    # B'(t) term as well; central differences of G check both terms
    p = parse_symbol("xi1 + 1i*(x1^2 - 1)", 1)
    w = escape_weight(p, 0.0, BOX1, T0=5.0)
    rng = np.random.default_rng(3)
    eps = 1e-6
    for c, r in zip(w.centers, w.radii):
        for _ in range(20):
            pt = c + rng.uniform(-0.7, 0.7, size=2) * r
            assert np.linalg.norm(pt - c) > 1e-3 * r
            fd = [(w(*(pt + eps * e)) - w(*(pt - eps * e))) / (2 * eps)
                  for e in np.eye(2)]
            assert np.abs(w.gradient(pt) - np.array(fd, dtype=float)).max() < 1e-8


# ---------------------------------------------------------------------------
# conjugation

def test_conjugation_identity_at_unit_h():
    # eps = h realizes the e^{-x/2h} conjugation exactly when h = 1;
    # the interior block then matches Weyl(xi^2 + x^2) + 1/4
    h = 1.0
    M = 60
    basis = HermiteBasis(M)
    P = weyl_quantize_poly(ROT, basis, h)
    Pe, rep = conjugate_operator(P, parse_symbol("-x1/2", 1), eps=h, h=h)
    T = weyl_quantize_poly(parse_symbol("xi1^2 + x1^2", 1), basis, h).matrix \
        + 0.25 * np.eye(M)
    blk = np.s_[: M // 2, : M // 2]
    defect = np.linalg.norm(Pe.matrix[blk] - T[blk]) / np.linalg.norm(T[blk])
    assert defect <= 1e-6
    assert rep.cond < 1e12
    assert rep.spectrum_displacement <= 1e-6 * rep.cond


def test_conjugation_identity_eps_zero():
    basis = HermiteBasis(32)
    P = weyl_quantize_poly(ROT, basis, 0.1)
    Pe, rep = conjugate_operator(P, parse_symbol("-x1/2", 1), eps=0.0, h=0.1)
    assert np.array_equal(Pe.matrix, P.matrix)
    assert rep.cond == 1.0


def test_conjugation_similarity_of_spectra():
    # the 1e-6 cond(E) bound presumes well-conditioned eigenvalues, so
    # exercise it on the Hermitian oscillator and the tame h = 1 regime
    # (deep-semiclassical rotated-oscillator modes carry eigenvalue
    # condition numbers that similarity arithmetic cannot beat)
    h = 0.1
    P = weyl_quantize_poly(parse_symbol("xi1^2+x1^2", 1), HermiteBasis(80), h)
    Pe, rep = conjugate_operator(P, parse_symbol("-x1/2", 1), eps=0.05, h=h)
    assert rep.spectrum_displacement <= 1e-6 * rep.cond
    P2 = weyl_quantize_poly(ROT, HermiteBasis(60), 1.0)
    _, rep2 = conjugate_operator(P2, parse_symbol("-x1/2", 1), eps=0.3, h=1.0)
    assert rep2.spectrum_displacement <= 1e-6 * rep2.cond


def test_conjugation_cond_cap():
    basis = HermiteBasis(200)
    h = 0.05
    P = weyl_quantize_poly(ROT, basis, h)
    with pytest.raises(ConditioningError, match="too strong"):
        conjugate_operator(P, parse_symbol("-x1/2", 1), eps=1.0, h=h,
                           cond_cap=1e12)


def test_conjugation_with_a_non_hermitian_weight():
    # G = i x gives an anti-Hermitian exponent: E is unitary, cond(E) = 1
    # and sigma_min(P_eps - z) = sigma_min(P - z)
    h = 0.1
    P = weyl_quantize_poly(ROT, HermiteBasis(40), h)
    z_list = [0.5 + 0.2j, 1.0 + 0.1j]
    _, rep = conjugate_operator(P, parse_symbol("1i*x1", 1), eps=0.05, h=h,
                                z_list=z_list)
    assert rep.cond == pytest.approx(1.0, rel=0, abs=1e-12)
    for z in z_list:
        ref = resolvent_norm(P, z, method="svd")
        assert rep.sigma_min[z] == pytest.approx(ref, rel=1e-10)
    # a non-Hermitian exponent that is not anti-Hermitian either: E is
    # far from unitary and the cap applies to its computed condition
    with pytest.raises(ConditioningError, match="too strong"):
        conjugate_operator(P, parse_symbol("x1 + 1i*xi1", 1), eps=2.0, h=h,
                           cond_cap=1e6)


def test_conjugation_eps_window_check():
    basis = HermiteBasis(32)
    P = weyl_quantize_poly(ROT, basis, 0.1)
    with pytest.raises(PspecError, match="window"):
        conjugate_operator(P, parse_symbol("-x1/2", 1), eps=0.5, h=0.1,
                           eps_window=(0.0, 0.1))


def test_escape_weight_has_no_hermite_quantization():
    # an escape weight is a compactly supported callable: only the grid
    # path quantizes it
    esc = escape_weight(parse_symbol("xi1 + 1i*(x1^2 - 1)", 1), 0.0, BOX1, T0=5.0)
    P = weyl_quantize_poly(ROT, HermiteBasis(32), 0.1)
    with pytest.raises(PspecError, match="not a polynomial"):
        conjugate_operator(P, esc, eps=0.1, h=0.1)


def test_boundary_exclusion_rotated_oscillator():
    # spectrum 1/4 + h stays away from the parabola vertex z0 = 0
    def build(h):
        return weyl_quantize_poly(ROT, HermiteBasis(120), h)

    rows = boundary_exclusion_experiment(
        ROT, 0.0, parse_symbol("-x1/2", 1), [0.1, 0.05], build,
        C2=1.0, exclusion_margin=1.0, cond_cap=1e8)
    for row in rows:
        assert row["m"] >= 0.25
        assert row["m_exceeds_margin"]
        assert row["cond"] < 1e9


def test_boundary_exclusion_model_symbol():
    p = parse_symbol("xi1 + 1i*(x1^2 - 1)", 1)
    esc = escape_weight(p, 0.0, BOX1, T0=5.0)

    def build(h):
        return weyl_quantize_grid(p, FourierGrid(3.0, 128), h,
                                  xi_limit=None, tail_frac_tol=1.0)

    rows = boundary_exclusion_experiment(p, 0.0, esc, [0.1, 0.05], build,
                                         cond_cap=1e8)
    m_values = [row["m"] for row in rows]
    # h-independent exclusion distance within the tested range
    assert min(m_values) > 0.1


def test_boundary_exclusion_factors_each_operator_once(monkeypatch):
    # the rows never read the conjugated spectrum, so each h computes
    # one eigendecomposition, and skipping the comparison changes no row
    def build(h):
        return weyl_quantize_poly(ROT, HermiteBasis(40), h)

    def run():
        return boundary_exclusion_experiment(
            ROT, 0.0, parse_symbol("-x1/2", 1), [0.1, 0.05], build,
            C2=1.0, cond_cap=1e8)

    calls = []

    def counting(P):
        calls.append(P.h)
        return eigendecompose(P)

    monkeypatch.setattr(weights_module, "eigendecompose", counting)
    rows = run()
    assert calls == [0.1, 0.05]
    conjugate = weights_module.conjugate_operator

    def comparing(*args, **kwargs):
        return conjugate(*args, **{**kwargs, "compare_spectra": True})

    monkeypatch.setattr(weights_module, "conjugate_operator", comparing)
    assert run() == rows


# ---------------------------------------------------------------------------
# dissipative suite

def test_davies_build_and_tensor_oracle():
    h = 0.1
    D = dissipative_build(parse_symbol("xi1^2+xi2^2+x1^2", 2),
                          parse_symbol("x2^2", 2), HermiteBasis(24, n=2), h)
    assert D.hermiticity_defect <= 1e-12
    assert D.w_min_eig >= -1e-10
    spec2 = eigendecompose(D.P)
    acc2 = spec2.accepted_eigenvalues
    assert acc2.size > 0
    assert acc2.imag.max() <= 1e-8
    bas1 = HermiteBasis(24)
    A1 = weyl_quantize_poly(parse_symbol("xi1^2+x1^2", 1), bas1, h)
    A2 = dissipative_build(parse_symbol("xi1^2", 1), parse_symbol("x1^2", 1),
                           bas1, h).P
    sums = (eigendecompose(A1).accepted_eigenvalues[:, None]
            + eigendecompose(A2).accepted_eigenvalues[None, :]).ravel()
    for lam in acc2:
        assert np.abs(sums - lam).min() <= 1e-5


def test_dissipative_zero_damping_is_hermitian():
    h = 0.1
    D = dissipative_build(parse_symbol("xi1^2+x1^2", 1),
                          parse_symbol("0*x1", 1), HermiteBasis(48), h)
    spec = eigendecompose(D.P)
    acc = spec.accepted_eigenvalues
    assert np.abs(acc.imag).max() <= 1e-12
    expect = h * (2 * np.arange(10) + 1)
    for e in expect:
        assert np.abs(acc - e).min() < 1e-10


def test_dissipative_constant_damping_shift():
    h = 0.1
    D = dissipative_build(parse_symbol("xi1^2+x1^2", 1),
                          parse_symbol("1+0*x1", 1), HermiteBasis(48), h)
    spec = eigendecompose(D.P)
    acc = spec.accepted_eigenvalues
    expect = h * (2 * np.arange(10) + 1) - 1j
    for e in expect:
        assert np.abs(acc - e).min() < 1e-10


def test_dissipative_rejects_negative_damping():
    with pytest.raises(PspecError, match="negativity"):
        dissipative_build(parse_symbol("xi1^2+x1^2", 1),
                          parse_symbol("-1+0*x1", 1), HermiteBasis(24), 0.1)


def test_dissipative_rejects_a_2d_grid():
    q = parse_symbol("xi1^2+xi2^2+x1^2+x2^2", 2)
    with pytest.raises(PspecError, match="n = 1"):
        dissipative_build(q, parse_symbol("x1^2", 2), FourierGrid(4.0, 8, n=2), 0.1)


def test_dissipative_rejects_a_callable_on_hermite_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the window was sampled or Q was built")

    monkeypatch.setattr(HermiteBasis, "window", no_work)
    monkeypatch.setattr(HermiteBasis, "weyl", no_work)
    with pytest.raises(PspecError, match="1-D FourierGrid"):
        dissipative_build(parse_symbol("xi1^2+x1^2", 1), lambda X, XI: X ** 2,
                          HermiteBasis(16), 0.1)


def test_dissipative_rejects_complex_q():
    with pytest.raises(PspecError, match="real"):
        dissipative_build(parse_symbol("xi1^2+1i*x1", 1),
                          parse_symbol("x1^2", 1), HermiteBasis(24), 0.1)


def test_dissipative_resolvent_bound():
    h = 0.1
    D = dissipative_build(parse_symbol("xi1^2+xi2^2+x1^2", 2),
                          parse_symbol("x2^2", 2), HermiteBasis(20, n=2), h)
    rng = np.random.default_rng(3)
    zs = [complex(rng.uniform(-0.5, 2.5), rng.uniform(0.1, 2.0))
          for _ in range(8)]
    rep = dissipative_resolvent_check(D, zs)
    assert rep["ok"]
    # Hermitian case: sigma_min at z = i is exactly 1
    DH = dissipative_build(parse_symbol("xi1^2+x1^2", 1),
                           parse_symbol("0*x1", 1), HermiteBasis(48), h)
    r = dissipative_resolvent_check(DH, [1j])
    assert r["rows"][0]["sigma_min"] >= 1.0 - 1e-9


def test_dissipativity_random_vectors():
    h = 0.1
    D = dissipative_build(parse_symbol("xi1^2+xi2^2+x1^2", 2),
                          parse_symbol("x2^2", 2), HermiteBasis(16, n=2), h)
    rng = np.random.default_rng(8)
    for _ in range(100):
        u = rng.standard_normal(D.P.size) + 1j * rng.standard_normal(D.P.size)
        val = np.vdot(u, D.P.matrix @ u)
        assert val.imag <= 1e-10 * np.vdot(u, u).real * D.P.norm()


def test_proximity_exact_eigenvector():
    h = 0.1
    D = dissipative_build(parse_symbol("xi1^2+x1^2", 1),
                          parse_symbol("0*x1", 1), HermiteBasis(48), h)
    u = np.zeros(48, dtype=complex)
    u[0] = 1.0
    rep = quasimode_spectrum_proximity(D, u, h)
    assert rep["residual"] <= 1e-12
    assert rep["dist"] <= 1e-12


def test_dissipative_build_takes_a_callable_damping():
    grid = FourierGrid(7.0, 64)
    q = parse_symbol("xi1^2 + x1^2", 1)

    def a_func(X, XI):
        s = X ** 2 + XI ** 2 - 6.0
        return np.where(s > 0, s, 0.0) ** 3 * 1e-2

    D = dissipative_build(q, a_func, grid, 0.05)
    assert D.hermiticity_defect <= 1e-10
    assert D.w_min_eig >= -1e-10
    with pytest.raises(PspecError, match="negativity"):
        dissipative_build(q, lambda X, XI: -a_func(X, XI) - 1.0, grid, 0.05)
    with pytest.raises(NonFiniteError, match="on the window"):
        dissipative_build(q, lambda X, XI: np.full_like(X, np.nan), grid, 0.05)
    with pytest.raises(PspecError, match="n = 1"):
        dissipative_build(parse_symbol("xi1^2+xi2^2+x1^2", 2), a_func,
                          HermiteBasis(8, n=2), 0.1)


def test_proximity_random_vector_reports_only():
    h = 0.1
    D = dissipative_build(parse_symbol("xi1^2+x1^2", 1),
                          parse_symbol("0*x1", 1), HermiteBasis(32), h)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    rep = quasimode_spectrum_proximity(D, u, 0.5)
    assert rep["residual"] > 0.01 * D.P.norm() / 10
    assert np.isfinite(rep["ratio"])


def test_dissipative_build_rejects_a_non_finite_sample():
    # 0 * inf is nan on most of the window; nan passes the reality and
    # sign checks, so the samples are checked for finiteness first
    q = parse_symbol("xi1^2 + x1^2 + 0*exp(1000*x1^2)", 1)
    with pytest.raises(NonFiniteError, match="on the window"):
        dissipative_build(q, parse_symbol("0*x1", 1), FourierGrid(3.0, 32), 0.1)


def test_boundary_exclusion_davies_imaginary_axis_reports():
    # H_{Re p} has a fixed point on the characteristic set at imaginary
    # z0, so nothing is asserted; the experiment still reports
    # observed exclusion radii with a generic polynomial weight
    z0 = -0.5j
    G = parse_symbol("x2*xi2", 2)

    def build(h):
        return weyl_quantize_poly(DAVIES, HermiteBasis(12, n=2), h)

    rows = boundary_exclusion_experiment(DAVIES, z0, G, [0.1], build,
                                         cond_cap=1e8)
    assert len(rows) == 1
    assert np.isfinite(rows[0]["m"])
    assert rows[0]["sigma_min_circle"] > 0
