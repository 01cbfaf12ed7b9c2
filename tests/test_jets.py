import math

import numpy as np
import pytest

from pspeclab.errors import JetDivisionError, NonFiniteError
from pspeclab.jets import Jet, compose_jet, eval_jet, multi_indices
from pspeclab.symbols import parse_symbol

CATALOG = [
    ("xi1^2 + xi1*1i + x1^2", 1, [0.3, -0.7]),
    ("xi1 - 1i*x1", 1, [1.0, 2.0]),
    ("xi1 + 1i*x1^3", 1, [0.5, 0.1]),
    ("(xi1+1i*x1)^2/(1+x1^2+xi1^2)", 1, [0.4, -1.2]),
    ("exp(x1*xi1)", 1, [0.2, 0.3]),
    ("xi1^2+xi2^2+x1^2-1i*x2^2", 2, [0.1, 0.2, 0.3, 0.4]),
]


def test_coefficient_count_formula():
    for nvars, D in [(2, 3), (4, 2), (2, 6), (4, 5)]:
        jet = Jet(nvars, D)
        assert len(jet.coeffs) == math.comb(nvars + D, D)
        assert jet.n_coefficients == len(multi_indices(nvars, D))


def test_rotated_oscillator_jet_at_origin():
    p = parse_symbol("xi1^2 + xi1*1i + x1^2", 1)
    jet = eval_jet(p, [0.0, 0.0], 2)
    assert jet.value() == 0
    assert jet.coefficient((1, 0)) == 0
    assert jet.coefficient((0, 1)) == 1j
    # Hessian diag(2, 2) -> coefficients 1, 1
    assert jet.coefficient((2, 0)) == 1
    assert jet.coefficient((0, 2)) == 1
    assert jet.coefficient((1, 1)) == 0


def test_linear_symbol_jet():
    p = parse_symbol("x1", 1)
    jet = eval_jet(p, [2.5, -3.0], 4)
    assert jet.value() == 2.5
    assert jet.coefficient((1, 0)) == 1
    assert jet.coefficient((0, 1)) == 0
    assert jet.coefficient((2, 0)) == 0


def test_exponential_series():
    p = parse_symbol("exp(x1)", 1)
    jet = eval_jet(p, [0.0, 0.0], 3)
    assert jet.coefficient((0, 0)) == pytest.approx(1.0)
    assert jet.coefficient((1, 0)) == pytest.approx(1.0)
    assert jet.coefficient((2, 0)) == pytest.approx(0.5)
    assert jet.coefficient((3, 0)) == pytest.approx(1 / 6)


@pytest.mark.parametrize("text,n,w", CATALOG)
def test_product_consistency(text, n, w):
    p = parse_symbol(text, n)
    jet = eval_jet(p, w, 3)
    sq = jet * jet
    assert sq.value() == pytest.approx(p.eval(w) ** 2, rel=1e-12)


@pytest.mark.parametrize("text,n,w", CATALOG)
def test_first_and_second_derivatives_vs_finite_differences(text, n, w):
    p = parse_symbol(text, n)
    D = 3
    jet = eval_jet(p, w, D)
    w = np.asarray(w, dtype=float)
    eps = 1e-5
    scale = max(1.0, abs(jet.value()))
    for slot in range(2 * n):
        wp, wm = w.copy(), w.copy()
        wp[slot] += eps
        wm[slot] -= eps
        fd1 = (p.eval(wp) - p.eval(wm)) / (2 * eps)
        alpha = [0] * 2 * n
        alpha[slot] = 1
        assert abs(jet.derivative_value(alpha) - fd1) <= 1e-5 * max(scale, abs(fd1))
        fd2 = (p.eval(wp) - 2 * p.eval(w) + p.eval(wm)) / eps**2
        alpha[slot] = 2
        assert abs(jet.derivative_value(alpha) - fd2) <= 1e-4 * max(scale, abs(fd2), 1.0)


def test_division_requires_nonzero_constant_term():
    p = parse_symbol("1/x1", 1)
    with pytest.raises(JetDivisionError):
        eval_jet(p, [0.0, 1.0], 2)
    jet = eval_jet(p, [2.0, 0.0], 3)
    # 1/x at 2: 0.5 - 0.25 t + 0.125 t^2 - ...
    assert jet.value() == pytest.approx(0.5)
    assert jet.coefficient((1, 0)) == pytest.approx(-0.25)
    assert jet.coefficient((2, 0)) == pytest.approx(0.125)


def test_reciprocal_and_power_agree():
    p = parse_symbol("(1+x1^2+xi1^2)", 1)
    j = eval_jet(p, [0.3, 0.4], 4)
    a = j.reciprocal()
    b = j.integer_power(-1)
    for key, v in a.coeffs.items():
        assert b.coeffs[key] == pytest.approx(v, rel=1e-12, abs=1e-14)


def test_partial_derivative_jet():
    p = parse_symbol("x1^3*xi1", 1)
    j = eval_jet(p, [1.0, 2.0], 4)
    dx = j.partial(0)
    # d/dx (x^3 xi) = 3 x^2 xi = 6 at (1, 2)
    assert dx.value() == pytest.approx(6.0)
    dxi = j.partial(1)
    assert dxi.value() == pytest.approx(1.0)


def test_compose_jet_scalar_curve():
    # f(x, xi) = x^2 + i xi along the curve (t + 1, 2 t^2)
    p = parse_symbol("x1^2 + 1i*xi1", 1)
    outer = eval_jet(p, [1.0, 0.0], 4)
    xjet = Jet(1, 4)
    xjet.coeffs[(0,)] = 1.0
    xjet.coeffs[(1,)] = 1.0
    xijet = Jet(1, 4)
    xijet.coeffs[(2,)] = 2.0
    comp = compose_jet(outer, [xjet, xijet])
    # (1+t)^2 + 2i t^2 = 1 + 2t + (1+2i) t^2
    assert comp.coefficient((0,)) == pytest.approx(1.0)
    assert comp.coefficient((1,)) == pytest.approx(2.0)
    assert comp.coefficient((2,)) == pytest.approx(1.0 + 2.0j)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text", ["exp(x1)", "x1*exp(x1)", "exp(-exp(x1))"])
def test_exp_overflow_is_a_non_finite_error_without_a_warning(text):
    # e^800 overflows: the documented error, and no RuntimeWarning first
    with pytest.raises(NonFiniteError):
        eval_jet(parse_symbol(text, 1), [800.0, 0.5], 3)
