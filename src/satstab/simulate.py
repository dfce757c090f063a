"""Closed-loop spectral time integration with Lyapunov monitoring.

The stepper is exponential Euler with zero-order hold: the diagonal linear
part advances exactly, control and nonlinear forcing are frozen over each
step.  Nonlinear terms are synthesized pseudospectrally on the eigen
system's quadrature grid and projected back onto the retained modes: hinged
modes use the midpoint rule, which is exact for these cubic products, and
Neumann and clamped modes use composite Gauss-Legendre.  The dispersive
projection of the cubic term moves two derivatives onto the basis so no
field derivative beyond second order is ever formed.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BlowUp, BoundExpired, NonPositiveChannel
from .saturation import UNSATURATED, SaturationLevel, sat
from .spectral import quadrature_for_modes

EXIT_HORIZON = "horizon"
EXIT_BLOWUP = "blowup"
EXIT_LEFT_REGION = "left_region"

_PRESETS = ("first_mode", "smooth", "bump")
_BLOCK = 64  # samples stepped between exit checks in run_batch


@dataclass(frozen=True)
class SimConfig:
    """Time-integration settings and initial data.

    `initial` is either an array of modal coefficients or a (preset,
    amplitude) pair; delta and nu switch the convective and dispersive
    nonlinear terms.
    """

    J: int
    dt: float
    T: float
    delta: float = 0.0
    nu: float = 0.0
    initial: object = ("first_mode", 0.1)
    blowup_threshold: float = 1e6

    def __post_init__(self):
        if self.J < 1:
            raise ValueError("retained mode count must be >= 1")
        if not self.dt > 0.0:
            raise ValueError("time step must be positive")
        if self.T < 0.0:
            raise ValueError("horizon must be nonnegative")
        if self.delta < 0.0 or self.nu < 0.0:
            raise ValueError("nonlinearity switches must be >= 0")
        threshold = self.blowup_threshold
        # run_batch compares squared norms with threshold**2; NaN would never trip
        if not (0.0 < threshold < math.inf and threshold * threshold < math.inf):
            raise ValueError(
                f"blow-up threshold must be positive and finite with a finite square, "
                f"got {threshold}"
            )


@dataclass
class Trajectory:
    """Time-sampled modal state, control, and monitor channels."""

    times: np.ndarray
    states: np.ndarray
    control: np.ndarray
    sat_active: np.ndarray
    l2: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    exit_reason: str
    left_region: bool
    mode: str = "internal"
    nl_ratio_max: float = float("nan")

    def channel(self, name):
        if name in ("l2", "h1", "h2", "v1", "v2"):
            return getattr(self, name)
        if self.mode == "internal":
            if name == "z":
                raise ValueError("use znorm(n) for the head-norm channel")
            raise ValueError(f"unknown channel {name!r}")
        if name == "u":
            return np.abs(self.states[:, 0])
        if name == "w_l2":
            return np.sqrt(np.sum(self.states[:, 1:] ** 2, axis=1))
        if name == "u_plus_w":
            return self.channel("u") + self.channel("w_l2")
        raise ValueError(f"unknown channel {name!r}")

    def znorm(self, n):
        head = self.states[:, : n + 1] if self.mode == "boundary" else self.states[:, :n]
        return np.sqrt(np.sum(head**2, axis=1))

    @property
    def sat_duty(self):
        if self.sat_active.shape[0] <= 1:
            return np.zeros(self.sat_active.shape[1])
        return self.sat_active[:-1].mean(axis=0)


def _phi1(h):
    """(exp(h) - 1) / h with the removable singularity filled."""
    h = np.asarray(h, dtype=float)
    out = np.ones_like(h)
    nz = h != 0.0
    out[nz] = np.expm1(h[nz]) / h[nz]
    return out


def _rowwise(rows, matrix):
    """rows @ matrix as one vector-matrix product per row (or for one vector).

    A single matrix-matrix product would round each row differently
    depending on the batch around it; this way a trajectory gets the same
    bits whether it runs alone or in a batch.
    """
    return np.matmul(rows[..., None, :], matrix)[..., 0, :]


def quad_form(x, form):
    """x^T G x for each row of x (or for one vector), as one matrix product."""
    return ((x @ form) * x).sum(axis=-1)


@dataclass(frozen=True)
class StepPlan:
    """Exponential-Euler constants of one closed loop at one time step.

    States are rows of a (batch, dim) array.  A boundary loop carries its
    integrator as column 0, folded into the same arrays as a mode with
    sigma = 0 and input 1; `coupling` is its column a (None for internal
    actuation).  `norm_form` is the blow-up quadratic form I + gram_d1 +
    gram_d2 (plus 1 for the integrator).
    """

    growth: np.ndarray  # exp(sigma dt)
    hold: np.ndarray  # dt * phi1(sigma dt)
    gain_t: np.ndarray  # K^T, (head, m)
    input_t: np.ndarray  # full input matrix transposed, (m, dim)
    coupling: np.ndarray | None
    norm_form: np.ndarray
    head: int
    level: SaturationLevel

    def command(self, states):
        return _rowwise(states[:, : self.head], self.gain_t)

    def step(self, states, forcing=None):
        """y <- g y + h (a y_0 + sat(y_head K^T) B^T + forcing), row by row."""
        drive = _rowwise(sat(self.command(states), self.level), self.input_t)
        if self.coupling is not None:
            drive = self.coupling * states[:, :1] + drive
        if forcing is not None:
            drive = drive + forcing
        return self.growth * states + self.hold * drive


def step_plan(ms, gain, level, dt):
    """Step constants for the closed loop of `ms` under `gain` and `level`."""
    es = ms.es
    sigma = es.values
    form = np.eye(es.count) + es.gram_d1 + es.gram_d2
    coupling = None
    head = ms.n
    if ms.mode == "boundary":
        sigma = np.concatenate([[0.0], sigma])
        form = np.pad(form, ((1, 0), (1, 0)))
        form[0, 0] = 1.0
        coupling = np.concatenate([ms.A[:, 0], ms.a_tail])
        head = ms.n + 1
    return StepPlan(
        growth=np.exp(sigma * dt),
        hold=dt * _phi1(sigma * dt),
        gain_t=gain.K.T,
        input_t=np.vstack([ms.B, ms.b_tail]).T,
        coupling=coupling,
        norm_form=form,
        head=head,
        level=level,
    )


def step_linear_closed_loop(state, ms, gain, level, dt):
    """One exponential-Euler step of the internally actuated linear loop."""
    return step_plan(ms, gain, level, dt).step(np.asarray(state, dtype=float)[None])[0]


def nonlinear_forcing(es, state, delta, nu):
    """Modal projection of the negated nonlinearity, for one state or a row batch.

    The convective part projects -delta * y y_x directly; the dispersive part
    uses <d_xx(y^3), e_j> = <y^3, e_j''>, valid for every supported BC family.
    One product gives y (and y_x if delta is on) on the grid, one more
    projects the switched-on terms against their rows of the forcing table.
    A switched-off term is never formed, so its overflow cannot turn into NaN.
    """
    nodes = es.quadrature.nodes.size
    fields = _rowwise(state, es.field_table if delta else es.field_table[:, :nodes])
    y = fields[..., :nodes]
    if delta and nu:
        products = np.concatenate([delta * (y * fields[..., nodes:]), nu * (y * y * y)], axis=-1)
        return _rowwise(products, es.forcing_table)
    if delta:
        return _rowwise(delta * (y * fields[..., nodes:]), es.forcing_table[:nodes])
    if nu:
        return _rowwise(nu * (y * y * y), es.forcing_table[nodes:])
    return np.zeros_like(state)


def step_nonlinear_closed_loop(state, ms, gain, level, config, dt):
    """Exponential-Euler step with frozen control plus nonlinear forcing."""
    plan = step_plan(ms, gain, level, dt)
    y = np.asarray(state, dtype=float)[None]
    new = plan.step(y, nonlinear_forcing(ms.es, y, config.delta, config.nu))
    if quad_form(new, plan.norm_form)[0] > config.blowup_threshold**2:
        raise BlowUp(f"H2 norm exceeded {config.blowup_threshold:g}")
    return new[0]


def step_boundary_closed_loop(state, ms, gain, level, dt):
    """One step of the integrator-augmented boundary loop.

    state[0] is the integrator u, the rest are modal coordinates of the
    lifted field; the integrator advances exactly under zero-order hold, the
    modes see the frozen forcing a_j u + b_j sat(h).
    """
    return step_plan(ms, gain, level, dt).step(np.asarray(state, dtype=float)[None])[0]


def _bump_coefficients(es):
    """Modal coefficients of the Gaussian bump exp(-((x - L/2) / (L/10))^2).

    The bump is no trig polynomial, so it is projected on a Gauss-Legendre
    rule of its own rather than on the eigen system's grid, which may be
    exact only for products of modes.  Every family has sigma = q^2 (lam -
    q^2) with trig frequency q, so q^2 <= (lam + sqrt(lam^2 - 4 sigma)) / 2
    bounds the frequencies the rule must resolve.
    """
    L, lam = es.params.length, es.params.lam
    q_sq = 0.5 * (lam + math.sqrt(max(0.0, lam * lam - 4.0 * float(es.values.min()))))
    rule = quadrature_for_modes(L, int(math.ceil(math.sqrt(q_sq) * L / math.pi)))
    g = np.exp(-(((rule.nodes - L / 2) / (L / 10)) ** 2))
    return np.array([rule.weights @ (mode(rule.nodes) * g) for mode in es.modes])


def resolve_initial(config, es, ms=None):
    """Modal coefficients for the configured initial state."""
    entry = config.initial
    if isinstance(entry, (list, tuple)) and len(entry) == 2 and isinstance(entry[0], str):
        preset, amplitude = entry
        if preset not in _PRESETS:
            raise ValueError(f"unknown preset {preset!r}; use one of {_PRESETS}")
        y0 = np.zeros(config.J)
        if preset == "first_mode":
            y0[0] = amplitude
        elif preset == "smooth":
            y0[:] = amplitude * 0.5 ** np.arange(config.J)
        else:  # bump
            coeffs = _bump_coefficients(es)
            y0 = amplitude * coeffs[: config.J] / math.sqrt(float(np.sum(coeffs**2)))
        return y0
    y0 = np.asarray(entry, dtype=float)
    if y0.shape != (config.J,):
        raise ValueError(f"initial data must have {config.J} coefficients")
    return y0.copy()


def _v2(v1, modal, constants, sigma):
    """Frequency-weighted energy 0.5 M v1 + sum_j (-sigma_j) y_j^2."""
    return 0.5 * constants.M * v1 + (modal * modal) @ -sigma


def run(config, ms, gain, cert=None, constants=None, level=None, stop_on_region_exit=False):
    """Integrate the configured initial state: `run_batch` with a batch of one."""
    y0 = resolve_initial(config, ms.es, ms)
    return run_batch(config, ms, gain, y0[None], cert, constants, level, stop_on_region_exit)[0]


def run_batch(
    config, ms, gain, initials, cert=None, constants=None, level=None, stop_on_region_exit=False
):
    """Integrate each row of `initials` to the horizon, a blow-up, or a region exit.

    Rows hold J modal coefficients; boundary systems prepend the integrator at
    rest.  The loop only steps; after each block of samples it checks the
    blow-up norm (a nonlinear sample over the threshold is dropped unless it
    is the initial one, a linear sample is kept) and, when
    `stop_on_region_exit` is set with a certificate, v1 = z^T P z, which wins
    over a blow-up at the same sample.  A row ends at its first crossing and
    the samples it stepped past it are discarded.  Monitors
    come afterwards from the stored states: with a certificate v1 and the
    region-exit flag, with constants also v2; boundary l2 reports the
    reconstructed physical field.  `level` defaults to the unsaturated
    sentinel.  Returns one Trajectory per row.
    """
    es = ms.es
    if config.J != es.count:
        raise ValueError(
            f"config retains {config.J} modes but the eigen system holds {es.count}"
        )
    boundary = ms.mode == "boundary"
    nonlinear = config.delta != 0.0 or config.nu != 0.0
    if boundary and nonlinear:
        raise ValueError("boundary runs support the linear dynamics only")
    initials = np.atleast_2d(np.asarray(initials, dtype=float))
    if initials.shape[1] != config.J:
        raise ValueError(f"initial data must have {config.J} coefficients")
    if boundary:
        initials = np.hstack([np.zeros((initials.shape[0], 1)), initials])
    if level is None:
        level = UNSATURATED

    plan = step_plan(ms, gain, level, config.dt)
    limit = config.blowup_threshold**2
    check_region = stop_on_region_exit and cert is not None
    batch, dim = initials.shape
    samples = int(round(config.T / config.dt)) + 1
    states = np.empty((batch, samples, dim))
    states[:, 0] = initials
    filled = np.full(batch, samples)
    exits = [EXIT_HORIZON] * batch
    peaks = np.empty((batch, samples)) if nonlinear else None  # max|N(y_k)| per step

    live = np.arange(batch)
    y = initials
    start = 0
    # Rows step on past their exit until the block ends; those samples are
    # discarded, and may overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        while start < samples and live.size:
            end = min(start + _BLOCK, samples)
            for k in range(max(start, 1), end):
                forcing = None
                if nonlinear:
                    forcing = nonlinear_forcing(es, y, config.delta, config.nu)
                    peaks[live, k - 1] = np.max(np.abs(forcing), axis=1)
                y = plan.step(y, forcing)
                if live.size == batch:
                    states[:, k] = y
                else:
                    states[live, k] = y
            block = states[live, start:end]
            over = quad_form(block, plan.norm_form) > limit
            hit = over
            if check_region:
                region = quad_form(block[..., : plan.head], cert.P) > 1.0 + 1e-9
                hit = over | region
            done = hit.any(axis=1)
            for i in np.flatnonzero(done):
                j = int(np.argmax(hit[i]))  # the row's first crossing
                k = start + j
                if nonlinear and k and over[i, j]:  # the crossing step is not stored
                    filled[live[i]], exits[live[i]] = k, EXIT_BLOWUP
                else:
                    filled[live[i]] = k + 1
                    exits[live[i]] = (
                        EXIT_LEFT_REGION if check_region and region[i, j] else EXIT_BLOWUP
                    )
            live, y = live[~done], y[~done]
            start = end

    times = np.arange(samples) * config.dt
    return [
        _monitored(
            plan, ms, config, times[: filled[i]], states[i, : filled[i]], exits[i],
            cert, constants, None if peaks is None else peaks[i, : filled[i]],
        )
        for i in range(batch)
    ]


def _monitored(plan, ms, config, times, states, exit_reason, cert, constants, peaks):
    """Trajectory with every monitor channel computed from the stored states."""
    es = ms.es
    boundary = ms.mode == "boundary"
    control = plan.command(states)
    modal = states[:, 1:] if boundary else states
    w_sq = np.sum(modal * modal, axis=1)
    if boundary:
        u = states[:, 0]
        inner_wd = -(modal @ plan.input_t[0, 1:])  # <w, d> since b = -d
        l2 = np.sqrt(np.maximum(0.0, w_sq + 2.0 * u * inner_wd + u**2 * ms.lifting.d_norm_sq()))
    else:
        l2 = np.sqrt(w_sq)
    v1 = np.full(times.size, np.nan)
    v2 = np.full(times.size, np.nan)
    nl_ratio_max = float("nan")
    if cert is not None:
        v1 = quad_form(states[:, : plan.head], cert.P)
        if constants is not None:
            v2 = _v2(v1, modal, constants, es.values)
            if peaks is not None:  # the stepper never forces the last sample
                last = nonlinear_forcing(es, modal[-1], config.delta, config.nu)
                peaks[-1] = np.max(np.abs(last))
                positive = v2 > 0.0
                if positive.any():
                    nl_ratio_max = float(np.fmax.reduce(peaks[positive] / v2[positive]))
    return Trajectory(
        times=times,
        states=states,
        control=control,
        sat_active=np.abs(control) > plan.level.ell,
        l2=l2,
        h1=np.sqrt(np.maximum(0.0, quad_form(modal, es.gram_d1))),
        h2=np.sqrt(np.maximum(0.0, quad_form(modal, es.gram_d2))),
        v1=v1,
        v2=v2,
        exit_reason=exit_reason,
        left_region=bool(np.any(v1 > 1.0 + 1e-9)),
        mode=ms.mode,
        nl_ratio_max=nl_ratio_max,
    )


class DecayFit(NamedTuple):
    rate: float
    prefactor: float
    r_squared: float


def fit_decay_rate(traj, channel, t_start=0.0):
    """Least-squares exponential fit of a monitor channel from t_start on."""
    values = traj.channel(channel)
    mask = traj.times >= t_start
    t = traj.times[mask]
    v = values[mask]
    if t.size < 2:
        raise NonPositiveChannel("fit window holds fewer than two samples")
    if np.any(v <= 0.0) or np.any(~np.isfinite(v)):
        raise NonPositiveChannel(f"channel {channel!r} is not positive on the window")
    logs = np.log(v)
    slope, intercept = np.polyfit(t, logs, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(rate=-float(slope), prefactor=float(np.exp(intercept)), r_squared=r2)


class V2Reading(NamedTuple):
    value: float
    sandwich_lower: float


def monitor_v2(state, cert, constants, es):
    """Frequency-weighted energy and its sandwich lower bound at one state."""
    state = np.asarray(state, dtype=float)
    n = cert.P.shape[0]
    z = state[:n]
    value = float(_v2(quad_form(z, cert.P), state, constants, es.values))
    lower = 0.5 * constants.C1 * float(z @ z) + (
        constants.C1 / (2.0 * constants.C2)
    ) * float(quad_form(state, es.gram_d2))
    return V2Reading(value=value, sandwich_lower=lower)


@dataclass(frozen=True)
class GronwallBound:
    times: np.ndarray
    values: np.ndarray
    w: np.ndarray


def _simpson_pieces(y, dx):
    """Integral over the first interval of each consecutive point triple.

    Integrates the parabola through the three points (eqn 8 of Cartwright,
    "Simpson's rule cumulative integration with MS Excel and irregularly
    spaced data", J. Math. Sci. Math. Educ. 12, 2017).
    """
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    return x21 / 6 * (
        (3 - x21_x31) * y[:-2]
        + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
        - x21x21_x31x32 * y[2:]
    )


def _cumulative_simpson(y, x):
    """Cumulative Simpson integral of y over a strictly increasing grid x, from 0.

    Each interval takes the parabola through it and its right neighbour
    (even intervals, run forward) or its left neighbour (odd intervals and
    the last one, run backward), as scipy.integrate.cumulative_simpson does.
    """
    dx = np.diff(x)
    forward = _simpson_pieces(y, dx)
    backward = _simpson_pieces(y[::-1], dx[::-1])[::-1]
    pieces = np.empty(dx.size)
    pieces[:-1:2] = forward[::2]
    pieces[1::2] = backward[::2]
    pieces[-1] = backward[-1]
    return np.concatenate([[0.0], np.cumsum(pieces)])


def gronwall_bound(v0, b, k, p, t_grid):
    """Comparison bound for v' <= b(t) v + k(t) v^p on a time grid.

    With q = 1 - p the bound is exp(int b) * w^(1/q), where w(t) = v0^q +
    q * int_0^t k(s) exp(-q int_0^s b) ds; cumulative Simpson quadrature is
    used for both integrals.  Raises `BoundExpired` at the first grid point
    where w loses positivity, carrying the partial result.
    """
    if p < 0.0 or p == 1.0:
        raise ValueError("exponent must be >= 0 and != 1")
    if not v0 > 0.0:
        raise ValueError("initial value must be positive")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 3:
        raise ValueError("time grid must hold at least three points")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("time grid must strictly increase")
    b_vals = np.array([float(b(s)) for s in t]) if callable(b) else np.full(t.size, float(b))
    k_vals = np.array([float(k(s)) for s in t]) if callable(k) else np.full(t.size, float(k))

    q = 1.0 - p
    int_b = _cumulative_simpson(b_vals, t)
    integrand = k_vals * np.exp(-q * int_b)
    w = v0**q + q * _cumulative_simpson(integrand, t)
    if np.any(w <= 0.0):
        first = int(np.argmax(w <= 0.0))
        partial = GronwallBound(
            times=t[:first],
            values=np.exp(int_b[:first]) * w[:first] ** (1.0 / q),
            w=w.copy(),
        )
        raise BoundExpired(
            f"comparison function lost positivity at t = {t[first]:.6g}",
            time=float(t[first]),
            partial=partial,
        )
    values = np.exp(int_b) * w ** (1.0 / q)
    return GronwallBound(times=t.copy(), values=values, w=w)


def _decayed(traj, t_start):
    """The run reached the horizon with a positive fitted H2-norm rate."""
    if traj.exit_reason != EXIT_HORIZON:
        return False
    try:
        return fit_decay_rate(traj, "h2", t_start).rate > 0.0
    except NonPositiveChannel:
        return True  # channel hit the floor: decayed outright


def _dyadic_points(low, high, depth):
    """Interior points of `depth` bisection levels of [low, high], in order."""
    if depth == 0:
        return []
    mid = 0.5 * (low + high)
    return _dyadic_points(low, mid, depth - 1) + [mid] + _dyadic_points(mid, high, depth - 1)


def estimate_basin(
    make_config, ms, gain, cert, constants, low, high, iters=12, t_start=None, level=None
):
    """Search the initial amplitude between decay and failure by k-section.

    `make_config` maps an amplitude to a SimConfig that differs only in its
    initial state; an amplitude counts as decaying when the run reaches the
    horizon and the fitted H2-norm rate is positive.  Each batched call runs
    the three quarter points of the bracket, which settles two of the `iters`
    bisection levels, so the result equals serial bisection's.  Returns
    (estimate, bracketed); when `high` still decays no edge lies in the
    bracket, and the estimate is `high` with bracketed False.
    """
    config = make_config(low)
    start = t_start if t_start is not None else config.T / 4.0

    def decays(amplitudes):
        initials = [resolve_initial(make_config(a), ms.es, ms) for a in amplitudes]
        trajs = run_batch(config, ms, gain, initials, cert, constants, level)
        return [_decayed(traj, start) for traj in trajs]

    low_decays, high_decays = decays([low, high])
    if not low_decays:
        raise ValueError("lower amplitude already fails; no bracket to bisect")
    if high_decays:
        return high, False
    while iters > 0:
        depth = min(2, iters)
        points = _dyadic_points(low, high, depth)
        verdict = dict(zip(points, decays(points)))
        for _ in range(depth):
            mid = 0.5 * (low + high)
            low, high = (mid, high) if verdict[mid] else (low, mid)
        iters -= depth
    return 0.5 * (low + high), True
