import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pspeclab.errors import (
    JetDivisionError,
    NonFiniteError,
    SymbolSyntaxError,
    VariableIndexError,
)
from pspeclab.jets import eval_jet
from pspeclab.symbols import parse_symbol, symbol_from_poly


def test_rotated_oscillator_parses():
    p = parse_symbol("xi1^2 + xi1*1i + x1^2", n=1)
    # p(x, xi) = xi^2 + i xi + x^2
    assert p.eval([0.0, 2.0]) == pytest.approx(4.0 + 2.0j)
    assert p.eval([3.0, 0.0]) == pytest.approx(9.0)


def test_identity_case():
    p = parse_symbol("x1", n=1)
    assert p.eval([3.0, 0.0]) == pytest.approx(3.0)


def test_rational_example_value():
    # (xi + i x)^2 / (1 + x^2 + xi^2) at (x, xi) = (1, 0): (i)^2 / 2 = -1/2
    p = parse_symbol("(xi1+1i*x1)^2/(1+x1^2+xi1^2)", n=1)
    assert p.eval([1.0, 0.0]) == pytest.approx(-0.5)


def test_exp_and_precedence():
    p = parse_symbol("exp(x1)*2 - xi1/2^2", n=1)
    assert p.eval([1.0, 8.0]) == pytest.approx(2 * np.e - 2.0)
    # unary minus binds looser than power
    q = parse_symbol("-x1^2", n=1)
    assert q.eval([3.0, 0.0]) == pytest.approx(-9.0)


def test_syntax_error_carries_position():
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol("x1 + * 2", n=1)
    assert err.value.position == 5


def test_variable_index_out_of_range():
    with pytest.raises(VariableIndexError):
        parse_symbol("x3", n=2)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("y1", n=1)


def test_division_by_zero_rejected():
    p = parse_symbol("1/x1", n=1)
    with pytest.raises(NonFiniteError):
        p.eval([0.0, 0.0])


def test_eval_grid_matches_pointwise():
    p = parse_symbol("xi1^2 + xi1*1i + x1^2", n=1)
    xs = np.linspace(-2, 2, 7)
    xis = np.linspace(-1, 1, 7)
    vals = p.eval_grid([xs, xis])
    for k in range(7):
        assert vals[k] == pytest.approx(p.eval([xs[k], xis[k]]))


def test_gradient_matches_finite_differences():
    p = parse_symbol("exp(x1)*xi1 + x1^3/(1+xi1^2)", n=1)
    w = np.array([0.7, -0.3])
    _, grad = p.eval_with_gradient([np.array(w[0]), np.array(w[1])])
    eps = 1e-6
    for slot in range(2):
        wp, wm = w.copy(), w.copy()
        wp[slot] += eps
        wm[slot] -= eps
        fd = (p.eval(wp) - p.eval(wm)) / (2 * eps)
        assert grad[slot] == pytest.approx(fd, rel=1e-6)


CATALOG = [
    ("xi1^2 + xi1*1i + x1^2", 1),
    ("xi1 - 1i*x1", 1),
    ("xi1 + 1i*x1^2", 1),
    ("(xi1+1i*x1)^2/(1+x1^2+xi1^2)", 1),
    ("(xi1^2-1+1i*xi1*x1^2/(1+x1^2))/(1+xi1^2+1i*xi1*x1^2/(1+x1^2))", 1),
    ("xi1^2+xi2^2+x1^2-1i*x2^2", 2),
    ("exp(x1)-xi1*2.5i", 1),
]


@pytest.mark.parametrize("text,n", CATALOG)
def test_roundtrip_on_catalog(text, n):
    rng = np.random.default_rng(42)
    p = parse_symbol(text, n)
    q = parse_symbol(p.to_string(), n)
    for _ in range(100):
        w = rng.uniform(-2, 2, size=2 * n)
        try:
            a = p.eval(w)
        except NonFiniteError:
            continue
        assert q.eval(w) == pytest.approx(a, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
def test_polynomial_extraction_is_exact(a, b, c):
    p = parse_symbol("x1", 1)
    poly_text = f"({c.real}+{c.imag}i)*x1^{a}*xi1^{b} + x1*xi1"
    p = parse_symbol(poly_text, 1)
    poly = p.to_poly()
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = rng.uniform(-1.5, 1.5, size=2)
        assert poly.eval(w) == pytest.approx(p.eval(w), rel=1e-12, abs=1e-12)


def test_symbol_from_poly_roundtrip():
    p = parse_symbol("x1^2*xi1 - 2i*xi1^3 + 4", 1)
    back = symbol_from_poly(p.to_poly())
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = rng.uniform(-2, 2, size=2)
        assert back.eval(w) == pytest.approx(p.eval(w), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# one tree, four rings: random grammar trees through every evaluator

_CONSTS = ["0.5", "2", "1.5i", "(0.5-2i)", "3"]


def _combine(op, a, b):
    # trees are (text, has a variable, has an exp); an operation on two
    # constant subtrees is Python complex arithmetic, which raises
    # ZeroDivisionError instead of returning inf, so one side gets a variable
    if not (a[1] or b[1]):
        b = (f"{b[0]}+x1", True, b[2])
    return (f"({a[0]}){op}({b[0]})", True, a[2] or b[2])


def _trees(n, ops, with_exp):
    names = [f"{k}{i}" for k in ("x", "xi") for i in range(1, n + 1)]
    leaf = st.one_of(st.sampled_from(names).map(lambda v: (v, True, False)),
                     st.sampled_from(_CONSTS).map(lambda c: (c, False, False)))

    def extend(sub):
        parts = [st.builds(_combine, st.sampled_from(ops), sub, sub),
                 sub.map(lambda a: (f"-({a[0]})", a[1], a[2])),
                 st.builds(lambda a, k: (f"({a[0]})^{k}", a[1], a[2]),
                           sub, st.integers(0, 3))]
        if with_exp:
            # exp(exp(u)) turns a last-bit difference in u into a relative
            # error of |exp(u)| eps, so exp is not nested
            parts.append(sub.filter(lambda a: not a[2]).map(
                lambda a: (f"exp({a[0]})", a[1], True)))
        return st.one_of(*parts)

    return st.recursive(leaf, extend, max_leaves=8).map(lambda t: t[0])


def _points(n, seed):
    pts = np.random.default_rng(seed).uniform(-2, 2, size=(12, 2 * n))
    pts[:4, 0] = 0.0      # on the poles of factors such as 1/x1
    return pts


def _bits(values):
    return np.asarray(values, dtype=complex).tobytes()


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_evaluators_agree_on_random_trees(n, data):
    p = parse_symbol(data.draw(_trees(n, "+-*/", True)), n)
    pts = _points(n, data.draw(st.integers(0, 2 ** 32 - 1)))
    coords = [pts[:, k] for k in range(2 * n)]
    grid = p.eval_grid(coords)
    _, grad = p.eval_with_gradient(coords)
    for i, w in enumerate(pts):
        # eval is eval_grid at one point, bit for bit; it raises where
        # the value is not finite
        try:
            val = p.eval(w)
        except NonFiniteError:
            assert not np.isfinite(grid[i])
        else:
            assert _bits(val + 0j) == _bits(grid[i])
        g = np.array([gk[i] for gk in grad])
        if not np.isfinite(g).all():
            continue
        try:
            jet = eval_jet(p, w, 1)
        except (NonFiniteError, JetDivisionError):
            continue
        d = np.array([jet.derivative_value(e) for e in np.eye(2 * n, dtype=int)])
        scale = max(np.abs(g).max(), np.abs(d).max(), 1.0)
        assert np.abs(g - d).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_to_poly_matches_eval_on_random_polynomial_trees(n, data):
    p = parse_symbol(data.draw(_trees(n, "+-*", False)), n)
    poly = p.to_poly()
    for w in _points(n, data.draw(st.integers(0, 2 ** 32 - 1))):
        # rounding is relative to the sum of the absolute terms
        scale = sum(abs(c) * np.prod(np.abs(w) ** np.array(a))
                    for a, c in poly.coeffs.items())
        assert abs(poly.eval(w) - p.eval(w)) <= 1e-12 * max(scale, 1.0)


def test_constant_values_leave_no_reference_cycles():
    # the constant subtrees are found without a self-referencing closure
    p = parse_symbol("xi1^2 + x1^2/(1+2*3) + 1i*x1", 1)
    assert p.constant_values() == [7, 1j]          # warm-up
    gc.collect()
    gc.disable()
    try:
        p.constant_values()
        assert gc.collect() == 0
    finally:
        gc.enable()
