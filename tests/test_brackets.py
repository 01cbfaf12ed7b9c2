import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pspeclab.brackets import (
    finite_type_order,
    poisson_bracket,
    real_bracket_values,
    repeated_brackets,
)
from pspeclab.errors import PspecError
from pspeclab.symbols import parse_symbol


def test_canonical_pair():
    f = parse_symbol("xi1", 1)
    g = parse_symbol("x1", 1)
    for w in ([0, 0], [3, -2], [0.5, 11]):
        assert poisson_bracket(f, g, w) == pytest.approx(1.0)


def test_rotated_oscillator_bracket():
    f = parse_symbol("xi1^2 + x1^2", 1)   # Re p
    g = parse_symbol("xi1", 1)            # Im p
    assert poisson_bracket(f, g, [1.0, 2.0]) == pytest.approx(-2.0)
    assert poisson_bracket(g, f, [1.0, 2.0]) == pytest.approx(2.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_antisymmetry_and_bilinearity(x, xi, a, b):
    f = parse_symbol("x1^2*xi1 + exp(x1)", 1)
    g = parse_symbol("xi1^3 - 1i*x1", 1)
    h = parse_symbol("x1*xi1", 1)
    w = [x, xi]
    fg = poisson_bracket(f, g, w)
    gf = poisson_bracket(g, f, w)
    assert fg == pytest.approx(-gf, rel=1e-10, abs=1e-10)
    # bilinearity in the first slot: {a f + b h, g} = a{f,g} + b{h,g}
    comb = parse_symbol(
        f"({a})*(x1^2*xi1 + exp(x1)) + ({b})*(x1*xi1)", 1)
    lhs = poisson_bracket(comb, g, w)
    rhs = a * fg + b * poisson_bracket(h, g, w)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_leibniz_rule():
    rng = np.random.default_rng(11)
    f = parse_symbol("xi1^2 + 1i*x1", 1)
    g = parse_symbol("x1^2 - xi1", 1)
    h = parse_symbol("exp(x1*xi1)", 1)
    gh = g * h
    for _ in range(20):
        w = rng.uniform(-1.5, 1.5, size=2)
        lhs = poisson_bracket(f, gh, w)
        rhs = (poisson_bracket(f, g, w) * h.eval(w)
               + g.eval(w) * poisson_bracket(f, h, w))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


def test_repeated_brackets_x_squared_model():
    # p = xi + i x^2 at the origin: p_(1,1,2) = 2, order k = 2
    p = parse_symbol("xi1 + 1i*x1^2", 1)
    rep = repeated_brackets(p, 0.0, [0.0, 0.0], j_max=3)
    assert rep.value((1, 1, 2)) == pytest.approx(2.0)
    assert rep.order == 2
    assert rep.finite_type
    assert rep.first_nonvanishing_length == 3


def test_repeated_brackets_cubic_model():
    # p = xi + i x^3: first nonzero bracket at |I| = 4 with value 6, k = 3
    p = parse_symbol("xi1 + 1i*x1^3", 1)
    rep = repeated_brackets(p, 0.0, [0.0, 0.0], j_max=4)
    assert rep.order == 3
    assert rep.value((1, 1, 1, 2)) == pytest.approx(6.0)


def test_noncharacteristic_point_has_order_zero():
    p = parse_symbol("xi1 + 1i*x1^2", 1)
    rep = repeated_brackets(p, 0.0, [1.0, 0.0], j_max=2)
    assert rep.order == 0


def test_antisymmetry_of_length_two_words():
    p = parse_symbol("xi1^2 + xi1*1i + x1^2", 1)
    for w in ([0.2, 0.5], [1, 1], [-0.7, 0.1]):
        rep = repeated_brackets(p, 1.0 + 0.5j, w, j_max=2)
        assert rep.value((1, 2)) == pytest.approx(-rep.value((2, 1)),
                                                  rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_order_of_monomial_models(k):
    p = parse_symbol(f"xi1 + 1i*x1^{k}", 1)
    rep = repeated_brackets(p, 0.0, [0.0, 0.0], j_max=k + 1)
    assert rep.order == k


def test_bracket_values_stable_under_extra_jet_degree():
    p = parse_symbol("xi1^2 + xi1*1i + x1^2", 1)
    w = [0.3, 0.8]
    j_max = 3
    r1 = repeated_brackets(p, 0.5j, w, j_max)
    # recompute through higher-degree jets by asking for j_max + 1 words
    r2 = repeated_brackets(p, 0.5j, w, j_max + 1)
    for word, val in r1.values.items():
        assert r2.values[word] == val


def test_finite_type_order_examples():
    p = parse_symbol("xi1 + 1i*x1^2", 1)
    k, parity = finite_type_order(p, 0.0, [[0.0, 0.0]], j_max=3)
    assert (k, parity) == (2, "even")

    p4 = parse_symbol("xi1 + 1i*x1^4", 1)
    k, parity = finite_type_order(p4, 0.0, [[0.0, 0.0]], j_max=5)
    assert (k, parity) == (4, "even")

    # Characteristic points with a nonvanishing bracket {Re p, Im p} = -2x:
    # the |I| = 1 values vanish on the level set, so the literal order
    # convention yields k = 1 (first nonvanishing word has length 2).
    rot = parse_symbol("xi1^2 + xi1*1i + x1^2", 1)
    k, parity = finite_type_order(rot, 2.0 + 1.0j, [[1.0, 1.0], [-1.0, 1.0]],
                                  j_max=2)
    assert k == 1


def test_brackets_leave_no_reference_cycles():
    # the bracket jets are memoized without a self-referencing closure,
    # so neither a report nor an order leaves work for the cyclic collector
    p = parse_symbol("xi1 + 1i*x1^2", 1)
    repeated_brackets(p, 0.0, [0.0, 0.0], 3)          # warm-up
    finite_type_order(p, 0.0, [[0.0, 0.0]], j_max=3)
    gc.collect()
    gc.disable()
    try:
        repeated_brackets(p, 0.0, [0.0, 0.0], 3)
        assert gc.collect() == 0
        finite_type_order(p, 0.0, [[0.0, 0.0], [0.0, 0.0]], j_max=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_finite_type_order_errors():
    p = parse_symbol("xi1 + 1i*x1^2", 1)
    with pytest.raises(PspecError):
        finite_type_order(p, 0.0, [], j_max=3)
    with pytest.raises(PspecError):
        finite_type_order(p, 0.0, [[5.0, 5.0]], j_max=3)  # off the level set
    with pytest.raises(PspecError):
        # order 2 exceeds j_max = 1
        finite_type_order(p, 0.0, [[0.0, 0.0]], j_max=1)


def test_real_bracket_values_vectorized():
    p = parse_symbol("xi1^2 + xi1*1i + x1^2", 1)
    xs = np.linspace(-2, 2, 9)
    xis = np.zeros(9)
    vals, brk = real_bracket_values(p, [xs, xis])
    # {Re p, Im p} = -2x for the rotated oscillator
    assert np.allclose(brk, -2 * xs, atol=1e-12)
    assert np.allclose(vals, xs**2)
