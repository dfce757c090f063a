import math
import warnings

import numpy as np
import pytest

from satstab.errors import BoundExpired
from satstab.simulate import gronwall_bound


def test_linear_collapse():
    # k = 0 reduces to plain exponential decay
    t = np.linspace(0.0, 5.0, 2001)
    out = gronwall_bound(1.0, -1.0, 0.0, 2.0, t)
    np.testing.assert_allclose(out.values, np.exp(-t), rtol=1e-15)


def test_logistic_closed_form():
    # v' = -v + v^2, v0 = 1/2 solves v = 1/(1 + e^t); w = 1 + e^{-t}
    t = np.linspace(0.0, 10.0, 2001)
    out = gronwall_bound(0.5, -1.0, 1.0, 2.0, t)
    exact = 1.0 / (1.0 + np.exp(t))
    np.testing.assert_allclose(out.values, exact, rtol=1e-13)
    np.testing.assert_allclose(out.w, 1.0 + np.exp(-t), rtol=1e-13)


def test_logistic_long_horizon():
    # the CLI's default 2001-point grid at T = 40, where the bound falls to 4e-18
    t = np.linspace(0.0, 40.0, 2001)
    out = gronwall_bound(0.5, -1.0, 1.0, 2.0, t)
    np.testing.assert_allclose(out.values, 1.0 / (1.0 + np.exp(t)), rtol=1e-13)


def test_halved_start_stays_under_ratio_envelope():
    # b = -A, k = B, p = 2, v0 = A/(2B): bound <= (A/B) e^{-A t}
    a_rate, b_coef = 1.3, 0.4
    t = np.linspace(0.0, 12.0, 3001)
    out = gronwall_bound(a_rate / (2 * b_coef), -a_rate, b_coef, 2.0, t)
    envelope = (a_rate / b_coef) * np.exp(-a_rate * t)
    assert np.all(out.values <= envelope)


def test_power_zero_linear_inhomogeneous():
    # p = 0: v' <= -v + 1, v0 = 2 has exact solution 1 + e^{-t}
    t = np.linspace(0.0, 6.0, 2001)
    out = gronwall_bound(2.0, -1.0, 1.0, 0.0, t)
    np.testing.assert_allclose(out.values, 1.0 + np.exp(-t), rtol=1e-14)


def test_long_horizon_where_w_overflows():
    # p = 0, v0 = 2: v = 1 + e^{-t}.  Past q b tau = -709, phi1(-q b tau)
    # overflows so w = inf while e^{b tau} underflows to 0
    t = np.linspace(0.0, 800.0, 2001)
    out = gronwall_bound(2.0, -1.0, 1.0, 0.0, t)
    assert np.all(np.isfinite(out.values))
    assert abs(out.values[-1] - 1.0) <= 1e-12


def test_long_horizon_where_the_bound_underflows():
    # q b > 0 (p = 2, b = -1): exp(q b tau) would overflow past tau = 709, so
    # this side keeps exp(b tau) w^(1/q); the bound 1/(1 + e^t) runs into
    # the subnormals and then to 0 without a warning
    t = np.linspace(0.0, 800.0, 2001)
    out = gronwall_bound(0.5, -1.0, 1.0, 2.0, t)
    np.testing.assert_allclose(out.values[:1700], 1.0 / (1.0 + np.exp(t[:1700])), rtol=1e-13)
    assert 0.0 < out.values[1770] < 1e-307 and out.values[-1] == 0.0


def test_expiry_detected():
    # v' <= v + v^2, v0 = 2: w = 1.5 - e^t crosses zero at ln(1.5)
    t = np.linspace(0.0, 2.0, 4001)
    with pytest.raises(BoundExpired) as info:
        gronwall_bound(2.0, 1.0, 1.0, 2.0, t)
    # the first grid point at or after the zero of w
    assert math.log(1.5) <= info.value.time < math.log(1.5) + (t[1] - t[0])
    assert info.value.partial is not None
    assert np.all(info.value.partial.values >= 2.0)


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
    "b, k, p",
    [
        (math.nan, 1.0, 2.0),
        (-1.0, math.nan, 2.0),
        (-1.0, 1.0, math.nan),
        (-1.0, math.inf, 2.0),
        (math.inf, 1.0, 2.0),
        (-1.0, 1.0, math.inf),
    ],
)
def test_non_finite_coefficients_rejected(b, k, p):
    t = np.linspace(0.0, 1.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic can warn
        with pytest.raises(ValueError, match="must be finite"):
            gronwall_bound(0.5, b, k, p, t)


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


def test_callable_coefficients_rejected():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(TypeError):
        gronwall_bound(1.0, -1.0, lambda s: math.exp(-s), 2.0, t)


# (v0, b, k, p, zero of w in tau or None): p = 0, 0 < p < 1 and p > 1; b = 0,
# b < 0, and b > 0 both with the bound expiring and with a negative k
_ODE_CASES = {
    "p0-decay": (2.0, -1.0, 1.0, 0.0, None),
    "p0-b0": (0.5, 0.0, 1.0, 0.0, None),
    "sqrt-decay": (1.0, -0.5, 0.3, 0.5, None),
    "sqrt-b0": (0.2, 0.0, 0.4, 0.5, None),
    "sqrt-growth": (1.0, 0.5, -0.2, 0.5, None),
    "logistic": (0.5, -1.0, 1.0, 2.0, None),
    "p1.5-b0": (0.3, 0.0, 0.5, 1.5, None),
    "cubic-decay": (0.4, -2.0, 1.5, 3.0, None),
    "quadratic-expires": (2.0, 1.0, 1.0, 2.0, math.log(1.5)),  # w = 1.5 - e^tau
    "cubic-expires": (1.0, 0.5, 0.5, 3.0, math.log(2.0)),  # w = 2 - e^tau
}


@pytest.mark.parametrize("v0, b, k, p, expiry", _ODE_CASES.values(), ids=_ODE_CASES)
@pytest.mark.parametrize("grid", ["uniform", "nonuniform"])
def test_matches_ode_solver(v0, b, k, p, expiry, grid):
    # oracle: the comparison equation v' = b v + k v^p integrated by DOP853
    from scipy.integrate import solve_ivp

    if grid == "nonuniform":  # starts at 0.7: the bound depends on t - t[0] only
        steps = np.random.default_rng(7).uniform(0.01, 0.1, 60)
        t = 0.7 + np.concatenate([[0.0], np.cumsum(steps)])
    else:
        t = np.linspace(0.0, 3.0, 41)
    if expiry is None:
        out = gronwall_bound(v0, b, k, p, t)
    else:
        with pytest.raises(BoundExpired) as info:
            gronwall_bound(v0, b, k, p, t)
        out = info.value.partial
        assert out.times[-1] < t[0] + expiry <= info.value.time
        assert info.value.time == t[out.times.size]
    solution = solve_ivp(
        lambda _, v: b * v + k * v**p, (out.times[0], out.times[-1]), [v0],
        method="DOP853", t_eval=out.times, rtol=1e-13, atol=1e-300,
    )
    assert solution.success
    np.testing.assert_allclose(out.values, solution.y[0], rtol=1e-11)
