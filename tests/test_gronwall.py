import math

import numpy as np
import pytest

from satstab import simulate
from satstab.errors import BoundExpired
from satstab.simulate import gronwall_bound


def test_linear_collapse():
    # k = 0 reduces to plain exponential decay
    t = np.linspace(0.0, 5.0, 2001)
    out = gronwall_bound(1.0, -1.0, 0.0, 2.0, t)
    np.testing.assert_allclose(out.values, np.exp(-t), rtol=1e-12)


def test_logistic_closed_form():
    # v' = -v + v^2, v0 = 1/2 solves v = 1/(1 + e^t); w = 1 + e^{-t}
    t = np.linspace(0.0, 10.0, 2001)
    out = gronwall_bound(0.5, -1.0, 1.0, 2.0, t)
    exact = 1.0 / (1.0 + np.exp(t))
    np.testing.assert_allclose(out.values, exact, atol=1e-8)
    np.testing.assert_allclose(out.w, 1.0 + np.exp(-t), atol=1e-8)


def test_halved_start_stays_under_ratio_envelope():
    # b = -A, k = B, p = 2, v0 = A/(2B): bound <= (A/B) e^{-A t}
    a_rate, b_coef = 1.3, 0.4
    t = np.linspace(0.0, 12.0, 3001)
    out = gronwall_bound(a_rate / (2 * b_coef), -a_rate, b_coef, 2.0, t)
    envelope = (a_rate / b_coef) * np.exp(-a_rate * t)
    assert np.all(out.values <= envelope * (1.0 + 1e-12))


def test_time_varying_coefficients():
    # v' <= -v + e^{-t} v^2 with v0 = 1: w stays positive, bound finite
    t = np.linspace(0.0, 8.0, 2001)
    out = gronwall_bound(1.0, -1.0, lambda s: math.exp(-s), 2.0, t)
    assert np.all(np.isfinite(out.values))
    assert np.all(out.w > 0.0)


def test_power_zero_linear_inhomogeneous():
    # p = 0: v' <= -v + 1, v0 = 2 has exact solution 1 + e^{-t}
    t = np.linspace(0.0, 6.0, 2001)
    out = gronwall_bound(2.0, -1.0, 1.0, 0.0, t)
    np.testing.assert_allclose(out.values, 1.0 + np.exp(-t), atol=1e-8)


def test_expiry_detected():
    # v' <= v + v^2, v0 = 2: w = 1.5 - e^t crosses zero at ln(1.5)
    t = np.linspace(0.0, 2.0, 4001)
    with pytest.raises(BoundExpired) as info:
        gronwall_bound(2.0, 1.0, 1.0, 2.0, t)
    assert info.value.time == pytest.approx(math.log(1.5), abs=2e-3)
    assert info.value.partial is not None
    assert np.all(info.value.partial.values >= 2.0 - 1e-9)


def test_validation():
    t = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        gronwall_bound(1.0, -1.0, 1.0, 1.0, t)
    with pytest.raises(ValueError):
        gronwall_bound(0.0, -1.0, 1.0, 2.0, t)
    with pytest.raises(ValueError):
        gronwall_bound(1.0, -1.0, 1.0, -0.5, t)
    with pytest.raises(ValueError):
        gronwall_bound(1.0, -1.0, 1.0, 2.0, t[:2])


@pytest.mark.parametrize(
    "grid",
    [
        np.zeros(5),  # T = 0 on the CLI
        np.linspace(0.0, -1.0, 11),  # T < 0 on the CLI
        np.array([0.0, 0.5, 0.5, 1.0]),
        np.array([0.0, 0.5, 0.25, 1.0]),
        np.array([0.0, 0.5, math.nan, 1.0]),
    ],
)
def test_grid_must_strictly_increase(grid):
    with pytest.raises(ValueError, match="strictly increase"):
        gronwall_bound(1.0, -1.0, 1.0, 2.0, grid)


def _grids(size, rng):
    uniform = np.linspace(0.0, 3.0, size)
    nonuniform = np.cumsum(rng.uniform(0.01, 1.0, size)) - 0.3
    return uniform, nonuniform


@pytest.mark.parametrize("size", [3, 4, 5, 6, 2001])
def test_cumulative_simpson_matches_scipy_exactly(size):
    # oracle: the scipy routine the port replaced, bit for bit
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(size)
    for x in _grids(size, rng):
        for y in (np.exp(-x) * np.cos(3.0 * x), rng.normal(size=size)):
            ours = simulate._cumulative_simpson(y, x)
            ref = cumulative_simpson(y, x=x, initial=0.0)
            assert ours.shape == ref.shape
            assert np.array_equal(ours, ref)
