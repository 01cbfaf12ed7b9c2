import warnings

import numpy as np
import pytest

from pspeclab.classical import (
    sample_symbol_range,
    sigma_infinity,
    sign_sum,
    solve_level_set,
    winding_number,
)
from pspeclab.errors import ContourError, DegenerateValueError, NonFiniteError
from pspeclab.symbols import parse_symbol

ROT = parse_symbol("xi1^2 + xi1*1i + x1^2", 1)
RATIONAL = parse_symbol("(xi1+1i*x1)^2/(1+x1^2+xi1^2)", 1)
RATIONAL2 = parse_symbol(
    "(xi1^2-1+1i*xi1*x1^2/(1+x1^2))/(1+xi1^2+1i*xi1*x1^2/(1+x1^2))", 1)
BOX1 = [(-3.0, 3.0), (-3.0, 3.0)]


def test_rotated_oscillator_atlas():
    atlas = sample_symbol_range(ROT, BOX1, 60)
    z = atlas.values
    # Lambda(p) = {Re z >= (Im z)^2}
    assert np.all(z.real >= z.imag**2 - 1e-9)
    # Lambda_- samples (bracket -2x < 0) sit at x > 0
    assert np.all(atlas.points[atlas.lambda_minus_mask][:, 0] > 0)
    # strict interior property of Lambda_- values
    lm = atlas.lambda_minus_values
    assert np.all(lm.real > lm.imag**2)


def test_real_symbol_is_classically_normal():
    p = parse_symbol("x1", 1)
    atlas = sample_symbol_range(p, BOX1, 40)
    assert atlas.lambda_plus_mask.sum() == 0
    assert atlas.lambda_minus_mask.sum() == 0


def test_rational_bracket_positive_off_origin():
    atlas = sample_symbol_range(RATIONAL, BOX1, 41)
    r = np.linalg.norm(atlas.points, axis=1)
    off = r > 1e-6
    assert np.all(atlas.brackets[off] > 0)


def test_cone_test_monotone_in_aperture():
    atlas = sample_symbol_range(ROT, BOX1, 60)
    # the cone opening along the negative real axis misses Lambda(p)
    big = atlas.cone_test(0.0, np.pi, 0.5)
    small = atlas.cone_test(0.0, np.pi, 0.2)
    assert big.empty and small.empty
    inside = atlas.cone_test(2.0 + 0.0j, 0.0, 0.4)
    assert not inside.empty


def test_sigma_infinity_rational():
    res = sigma_infinity(RATIONAL, [10, 40, 160, 640])
    # the limit along xi -> inf is 1, along x -> inf is -1
    assert res.candidates.size > 0
    d1 = np.abs(res.candidates - 1.0).min()
    d2 = np.abs(res.candidates + 1.0).min()
    assert d1 < 5e-2 and d2 < 5e-2
    # limits fill (a sampled version of) the unit circle
    assert np.all(np.abs(np.abs(res.candidates) - 1.0) < 0.05)
    assert res.unbounded_directions.shape[0] == 0


def test_sigma_infinity_unbounded():
    p = parse_symbol("x1", 1)
    res = sigma_infinity(p, [10, 100, 1000], divergence=500.0)
    assert res.unbounded_directions.shape[0] > 0


def test_sigma_infinity_compares_only_settled_directions():
    # exp(x1^2) overflows to inf off the xi1 axis; only the 21 directions
    # around each pole of the circle (x1 = 0) stay finite at R = 30 and 40
    p = parse_symbol("exp(x1^2) + xi1", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sigma_infinity(p, [10, 30, 40])
    theta = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    kept = np.r_[170:191, 530:551]
    x, xi = 40.0 * dirs[kept].T
    assert np.allclose(res.candidates, np.exp(x ** 2) + xi, rtol=1e-12, atol=0)
    assert res.candidate_radius == 40.0
    assert np.array_equal(res.unbounded_directions, np.delete(dirs, kept, axis=0))


def test_sigma_infinity_second_rational():
    res = sigma_infinity(RATIONAL2, [10, 40, 160])
    assert np.abs(res.candidates - 1.0).min() < 0.05


def test_winding_rational_is_two():
    iota, trace = winding_number(RATIONAL, 0.1, 10.0)
    assert iota == 2
    assert trace["defect"] < 0.01


def test_winding_outside_range_is_zero():
    iota, _ = winding_number(ROT, -1.0, 30.0)
    assert iota == 0


def test_winding_stable_under_radius_doubling():
    for z in (0.1, 0.05 + 0.02j):
        i1, _ = winding_number(RATIONAL, z, 12.0)
        i2, _ = winding_number(RATIONAL, z, 24.0)
        assert i1 == i2


def test_winding_rejects_contour_zero():
    # p = xi - i x vanishes at the origin: at z = p(R sin t, R cos t) the
    # contour passes through a zero of p - z for t = 0.
    p = parse_symbol("xi1", 1)
    with pytest.raises(ContourError):
        winding_number(p, 2.0, 2.0)


def test_winding_rejects_a_pole_on_the_contour():
    # 1/x1 is infinite at t = 0 on |w| = 2; unchecked, the inf would
    # read as a zero of p - z
    with pytest.raises(NonFiniteError):
        winding_number(parse_symbol("1/x1 + xi1", 1), 0.3, 2.0)


@pytest.mark.parametrize("seeds", [24, 25])
def test_level_set_with_seeds_on_a_pole(seeds):
    # linspace(-3, 3, 25) puts a column of seeds on the pole x1 = 0;
    # the only root of 1/x1 + i xi1 = 2 + i/2 is (1/2, 1/2)
    p = parse_symbol("1/x1 + xi1*1i", 1)
    ls = solve_level_set(p, 2 + 0.5j, BOX1, seeds_per_axis=seeds)
    assert np.allclose(ls.solutions, [[0.5, 0.5]], atol=1e-8)
    assert sign_sum(p, 2 + 0.5j, BOX1, seeds_per_axis=seeds) == 1


def test_level_set_rational2_known_roots():
    ls = solve_level_set(RATIONAL2, 0.0, BOX1, seeds_per_axis=15)
    roots = sorted(map(tuple, np.round(ls.solutions, 8)))
    assert len(roots) == 2
    assert np.allclose(roots[0], (0.0, -1.0), atol=1e-8)
    assert np.allclose(roots[1], (0.0, 1.0), atol=1e-8)


def test_level_set_rotated_oscillator():
    ls = solve_level_set(ROT, 2.0 + 1.0j, BOX1, seeds_per_axis=12)
    roots = sorted(map(tuple, np.round(ls.solutions, 9)))
    assert len(roots) == 2
    assert np.allclose(roots, [(-1.0, 1.0), (1.0, 1.0)], atol=1e-8)
    # brackets -2x: -/+ at x = +/-1... check attached signs
    signs = {tuple(np.round(r, 6)): s for r, s in zip(ls.solutions, ls.bracket_signs)}
    assert signs[(1.0, 1.0)] == -1
    assert signs[(-1.0, 1.0)] == 1


def test_level_set_empty_outside_range():
    ls = solve_level_set(ROT, -1.0 + 0.0j, BOX1, seeds_per_axis=10)
    assert len(ls) == 0


def test_level_set_scaling_invariance():
    p2 = parse_symbol("2*(xi1^2 + xi1*1i + x1^2)", 1)
    a = solve_level_set(ROT, 2.0 + 1.0j, BOX1, seeds_per_axis=10)
    b = solve_level_set(p2, 4.0 + 2.0j, BOX1, seeds_per_axis=10)
    assert np.allclose(np.sort(a.solutions, axis=0),
                       np.sort(b.solutions, axis=0), atol=1e-7)


def test_sign_sum_symmetric_schrodinger():
    p = parse_symbol("xi1^2 + x1^2 - 1i*x1", 1)
    assert sign_sum(p, 1.25 - 0.5j, BOX1) == 0


def test_sign_sum_rotated():
    assert sign_sum(ROT, 2.0 + 1.0j, BOX1) == 0


def test_sign_sum_rational_counterexample():
    assert sign_sum(RATIONAL, 0.1, BOX1, seeds_per_axis=30) == 2


def test_sign_sum_degenerate_value():
    # z = 0 for the rational symbol: the only root is the origin where
    # the bracket vanishes
    with pytest.raises(DegenerateValueError):
        sign_sum(RATIONAL, 0.0, [(-1.0, 1.0), (-1.0, 1.0)], seeds_per_axis=9)


def test_sign_sum_random_schrodinger_symbols():
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(20):
        c = rng.uniform(-1, 1, size=4)
        V = (f"({c[0]:.3f}+{c[1]:.3f}i)*x1^2 + ({c[2]:.3f}+{c[3]:.3f}i)*x1^3"
             " + 0.1*x1^4")
        p = parse_symbol(f"xi1^2 + {V}", 1)
        z = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.8, 0.8))
        try:
            s = sign_sum(p, z, [(-4.0, 4.0), (-4.0, 4.0)], seeds_per_axis=16)
        except DegenerateValueError:
            continue
        hits += 1
        assert s == 0
    assert hits >= 10


def test_level_set_n2():
    p = parse_symbol("xi1^2+xi2^2+x1^2-1i*x2^2", 2)
    box = [(-1.6, 1.6)] * 4
    ls = solve_level_set(p, 1.0, box, seeds_per_axis=5)
    assert len(ls) > 0
    # all roots on the sphere xi1^2+xi2^2+x1^2 = 1, x2 = 0
    assert np.all(np.abs(ls.solutions[:, 1]) < 1e-4)
    r2 = (ls.solutions[:, 0]**2 + ls.solutions[:, 2]**2 + ls.solutions[:, 3]**2)
    assert np.allclose(r2, 1.0, atol=1e-6)


def test_atlas_skips_singular_grid_points():
    # a pole on the grid: the x = 0 column is skipped and counted
    p = parse_symbol("1/x1 + xi1*1i", 1)
    atlas = sample_symbol_range(p, [(-1.0, 1.0), (-1.0, 1.0)], 5)
    assert atlas.skipped == 5
    assert len(atlas.points) == 20
    assert np.isfinite(atlas.values).all()
