import numpy as np
import pytest

from cellsoc import InvalidParametersError, MonotoneCurve, isotonic_nondecreasing


def test_exact_at_grid_points():
    c = MonotoneCurve([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
    assert c.eval(0.0) == 1.0
    assert c.eval(1.0) == 3.0
    assert c.eval(2.0) == 5.0
    assert c.eval(0.5) == 2.0


def test_clamped_outside_and_flagged():
    c = MonotoneCurve([0.0, 1.0], [1.0, 2.0])
    assert c.eval(-5.0) == 1.0
    assert c.eval(7.0) == 2.0


def test_validation_errors():
    with pytest.raises(InvalidParametersError):
        MonotoneCurve([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(InvalidParametersError):
        MonotoneCurve([1.0, 0.0], [1.0, 2.0])
    with pytest.raises(InvalidParametersError):
        MonotoneCurve([0.0], [1.0])
    with pytest.raises(InvalidParametersError):
        MonotoneCurve([0.0, 1.0], [1.0])
    with pytest.raises(InvalidParametersError):
        MonotoneCurve([0.0, 1.0], [1.0, np.nan])


def test_integrate_hand_values():
    c = MonotoneCurve([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
    assert c.integrate(0.0, 2.0) == pytest.approx(6.0, abs=1e-15)
    assert c.integrate(0.5, 1.5) == pytest.approx(3.0, abs=1e-15)
    assert c.integrate(1.5, 0.5) == pytest.approx(-3.0, abs=1e-15)
    # Outside the grid the curve continues as a constant.
    assert c.integrate(-1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert c.integrate(2.0, 3.0) == pytest.approx(5.0, abs=1e-15)


def test_integrate_matches_numeric_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(20):
        grid = np.sort(rng.uniform(0.0, 1.0, 12))
        grid[0], grid[-1] = 0.0, 1.0
        grid = np.unique(grid)
        vals = rng.uniform(0.5, 2.0, grid.size)
        c = MonotoneCurve(grid, vals)
        a, b = sorted(rng.uniform(0.0, 1.0, 2))
        xs = np.linspace(a, b, 20001)
        ys = c.eval(xs)
        approx = np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))  # trapezoid rule
        assert c.integrate(a, b) == pytest.approx(approx, abs=1e-6)


def test_pava_hand_case():
    out = isotonic_nondecreasing([1.0, 3.0, 2.0, 4.0])
    assert np.allclose(out, [1.0, 2.5, 2.5, 4.0])
    assert np.all(np.diff(out) >= 0.0)


def test_pava_already_monotone_identity():
    y = np.array([0.0, 1.0, 1.0, 2.0])
    assert np.array_equal(isotonic_nondecreasing(y), y)


def test_pava_weighted_anchor():
    y = np.array([0.5, 0.0, 1.0])
    w = np.array([1.0, 1e12, 1.0])
    out = isotonic_nondecreasing(y, w)
    assert out[1] == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.diff(out) >= 0.0)


def test_pava_minimizes_against_reference():
    # Reference oracle: projection via cvx-free brute force on a tiny grid.
    rng = np.random.default_rng(3)
    y = rng.normal(size=5)
    out = isotonic_nondecreasing(y)
    assert np.all(np.diff(out) >= -1e-12)
    # Any nondecreasing perturbation should not beat the projection.
    for _ in range(200):
        cand = np.sort(out + rng.normal(scale=0.05, size=5))
        assert np.sum((out - y) ** 2) <= np.sum((cand - y) ** 2) + 1e-12
