"""Closed-loop spectral time integration with Lyapunov monitoring.

The stepper is exponential Euler with zero-order hold: the diagonal linear
part advances exactly, control and nonlinear forcing are frozen over each
step.  Nonlinear terms are synthesized pseudospectrally on the eigen
system's quadrature grid and projected back onto the retained modes: hinged
modes use the midpoint rule, which is exact for these products, and
Neumann and clamped modes use composite Gauss-Legendre.  Both projections
move every derivative onto the basis, y y_x = (y^2)_x / 2 by parts with its
wall term and (y^3)_xx twice, so the step forms no field derivative at all:
only y on the grid, and at the walls where a mode does not vanish there.
Every stepping pass, internal, boundary or nonlinear, runs one step kernel
of two products, a read and a drive (`StepPlan`), into one block buffer it
reuses; where the blow-up form and the H2 Gram are both weights (hinged and
Neumann walls) one squared block feeds both of a block's checks.  The
monitors read the stored states back once, in chunks, against the same
read: one product per chunk gives the command column and, for the forcing
peak, the field values.
"""

import contextlib
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import BlowUp, BoundExpired, ConfigError, NonPositiveChannel
from .saturation import UNSATURATED, SaturationLevel
from .spectral import BoundaryCondition, quadrature_for_modes

EXIT_HORIZON = "horizon"
EXIT_BLOWUP = "blowup"

_PRESETS = ("first_mode", "smooth", "bump")
# Samples stepped between exit checks, into one reused block buffer.  Benchmark
# wall_s medians of 10 rounds, 64 / 128 / 256 in turn (2-vCPU Xeon host, 8 s
# runs): nonlinear_single 0.0705 / 0.0704 / 0.0690 s, 256 lower than 64 in 8 of
# 10 rounds by less than 64's quartile spread (0.0688-0.0714); trajectory_sweep
# 0.2979 / 0.2912 / 0.2895 s, 256 lower in 9 of 10.  64 stays: on
# nonlinear_single the gain is within the noise, and the tests lay their
# crossings out on 64-sample blocks.
_BLOCK = 64
_CHUNK = 512  # stored samples per product when the monitors read them back
_BUMP_RTOL = 1e-10  # bump projections below this fraction of its L2 norm are rounding noise
_LEVELS_PER_PASS = 4  # bisection levels a basin-search pass settles: 15 amplitudes


@dataclass(frozen=True)
class SimConfig:
    """Time-integration settings and initial data.

    `initial` is either an array of modal coefficients or a (preset,
    amplitude) pair; delta and nu switch the convective and dispersive
    nonlinear terms.  The eigen system sets the number of coefficients.
    """

    dt: float
    T: float
    delta: float = 0.0
    nu: float = 0.0
    initial: object = ("first_mode", 0.1)
    blowup_threshold: float = 1e6

    @property
    def nonlinear(self):
        return self.delta != 0.0 or self.nu != 0.0

    @property
    def fit_start(self):
        """Default start of a decay-rate fit window: a quarter of the horizon."""
        return self.T / 4.0

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("time step must be positive")
        if not self.T >= 0.0:
            raise ValueError(f"horizon must be nonnegative, got {self.T}")
        if not (0.0 <= self.delta < math.inf and 0.0 <= self.nu < math.inf):
            raise ValueError("nonlinearity switches must be finite and >= 0")
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
            raise ValueError(f"unknown channel {name!r}")
        if name == "u":
            return np.abs(self.states[:, 0])
        if name == "w_l2":
            modal = self.states[:, 1:]
            return np.sqrt(np.vecdot(modal, modal))
        if name == "u_plus_w":
            return self.channel("u") + self.channel("w_l2")
        raise ValueError(f"unknown channel {name!r}")

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


def _product(rows, matrix):
    """The product of `rows` rows by `matrix`, one vector-matrix product per row, as a function.

    It is called as (rows, matrix, out=None).  A single matrix-matrix
    product would round each row differently depending on the batch around
    it; one product per row gives a trajectory the same bits whether it runs
    alone or in a batch: several rows take `np.vecmat`.  With an inner
    dimension of at most one each entry is a single product (or none), and
    the plain matrix product gives the same bits, signed zeros included, at
    less cost.  One row with a longer inner dimension takes `ndarray.dot`,
    which gives `vecmat`'s bits at less call cost (at inner dimension one it
    would flip the sign of some zeros).  Each writes its product straight
    into `out` when it is given, a slot of a larger block included (`dot`
    needs a C-contiguous one).  The choice depends on the shapes only, so a
    stepping pass makes it once per matrix.
    """
    if matrix.shape[0] <= 1:
        return np.matmul
    return np.ndarray.dot if rows == 1 else np.vecmat


def quad_form(x, form):
    """x^T G x for each row of x (or for one vector), as one contraction per row.

    A 1-D `form` holds the weights of a diagonal G; a matrix form takes one
    vector-matrix product per row first.  Each row is reduced by its own
    `np.vecdot`, so it gets the same bits alone, in any batch and as a
    misaligned copy, which neither BLAS's `(x * x) @ w` nor a flat `x @ G`
    gives.
    """
    if form.ndim == 1:
        return np.vecdot(x * x, form)
    return np.vecdot(np.vecmat(x, form), x)


def _as_form(matrix):
    """A quadratic form's matrix, or its diagonal when every other entry is exactly zero."""
    diagonal = np.diag(matrix)
    return diagonal.copy() if np.array_equal(matrix, np.diag(diagonal)) else matrix


@dataclass(frozen=True)
class StepPlan:
    """The exponential-Euler map of one closed loop at one time step, as two matrices.

    States are rows of a (batch, dim) array; a boundary loop carries its
    integrator as column 0, a mode with sigma = 0, input 1 and a coupling
    column a frozen over the step.  A step is y <- growth y + w `drive`: one
    product y `read`, with `read` = [K^T | e_0 | field table], gives the
    command u = y_head K^T, a boundary loop's y_0 and a nonlinear loop's
    field values y (on the grid, then at any wall where a mode does not
    vanish), from which w = [y^2 | y^3 | sat(u) | y_0] is formed
    elementwise, y^2 on every field value and y^3 = y^2 y on the grid;
    `drive` = hold [delta F_conv; nu F_cub; B^T; a^T], with hold = dt
    phi1(sigma dt) on each column.  A switched-off term has no rows or
    columns; `convective` and `cubic` count those of y^2 and y^3.  `read`
    spans the head's rows, or the whole state when it reads the field (K^T
    padded with zero rows); the two hold the plan's only copy of the grid.
    `norm_form` is the blow-up form I + G1 + G2 (plus 1 for the integrator)
    as `quad_form` takes it, built from the eigen system's Gram forms,
    which the H1 and H2 norms read directly.

    A step of a few rows costs its numpy calls, so `stepper(rows)` fixes
    everything but the states once per pass: the growth and clamp bounds
    laid out per row, one buffer [w | y] that the read fills and the drive
    reads, the drive's output buffer, the ufuncs and the product `_product`
    picks for each matrix.  Both products are one vector-matrix product per
    row and the rest is elementwise, so a row gets the same bits alone or
    in any batch.
    """

    growth: np.ndarray  # exp(sigma dt)
    read: np.ndarray  # R: (head or dim, m + boundary + field columns)
    drive: np.ndarray  # Gamma: (columns of w, dim)
    inputs: int
    norm_form: np.ndarray
    head: int
    level: SaturationLevel
    convective: int = 0
    cubic: int = 0

    def head_map(self):
        """A_d = Phi_h + Gamma_h^T K (+ the integrator coupling): the unclamped step of the head."""
        head, products = self.head, self.convective + self.cubic
        linear = len(self.drive) - products  # sat(u) and y_0
        gamma = self.read[:head, :linear] @ self.drive[products:, :head]
        return np.diag(self.growth[:head]) + gamma.T

    def stepper(self, rows):
        """The step kernel for batches of `rows` rows: (states, out=None) -> states.

        With `out`, an array of the states' shape, the new states are
        written into it and it is returned.  Every call passes its output
        positionally, which a call parses faster than the `out` keyword,
        except the clamp's `np.minimum`: numpy deprecates a positional out
        for it and `np.maximum`.
        """
        read, drive, convective, cubic = self.read, self.drive, self.convective, self.cubic
        products, k = convective + cubic, len(drive)
        work = np.empty((rows, products + read.shape[1]))  # [y^2 | y^3 | u | y_0 | y]
        w, r, u = work[:, :k], work[:, products:], work[:, products : products + self.inputs]
        squares, cubes = work[:, :convective], work[:, convective:products]
        field, y = work[:, k:], work[:, k : k + cubic]
        y2 = squares[:, :cubic] if convective else cubes  # y^2 on the grid
        floor, ceiling = np.full(u.shape, -self.level.ell), np.full(u.shape, self.level.ell)
        growth, d = np.tile(self.growth, (rows, 1)), np.empty((rows, drive.shape[1]))
        reading, driving = _product(rows, read), _product(rows, drive)
        width, full = len(read), len(read) == len(self.growth)  # a view costs half a product
        multiply, add, maximum, minimum = np.multiply, np.add, np.maximum, np.minimum

        def step(states, out=None):
            reading(states if full else states[:, :width], read, r)
            if convective:
                multiply(field, field, squares)
            if cubic:
                if not convective:
                    multiply(y, y, cubes)
                multiply(y2, y, cubes)
            minimum(maximum(u, floor), ceiling, out=u)  # a positional out is deprecated here
            driving(w, drive, d)
            new = multiply(growth, states, out)
            return add(new, d, new)

        return step

    def step(self, states, out=None):
        """y <- g y + h (a y_0 + sat(y_head K^T) B^T + N(y)), row by row."""
        return self.stepper(len(states))(states, out)


def step_plan(ms, gain, level, dt, delta=0.0, nu=0.0):
    """Step map of the closed loop of `ms` under `gain` and `level`.

    `delta` and `nu` switch the convective and dispersive nonlinear terms.
    """
    es = ms.es
    sigma = es.values
    g1, g2 = es.gram_d1, es.gram_d2
    if g1.ndim > g2.ndim:  # gram_d2 alone is diagonal, as at lam = 0
        g2 = np.diag(g2)
    form = (np.ones if g1.ndim == 1 else np.eye)(es.count) + g1 + g2
    read, drive = gain.K.T, np.vstack([ms.B, ms.b_tail]).T
    if ms.mode == "boundary":
        if delta or nu:
            raise ValueError("boundary runs support the linear dynamics only")
        sigma = np.concatenate([[0.0], sigma])
        form = np.pad(form, [(1, 0)] * form.ndim)
        form[(0,) * form.ndim] = 1.0
        read = np.hstack([read, np.eye(len(read), 1)])
        drive = np.vstack([drive, np.concatenate([ms.A[:, 0], ms.a_tail])])
    convective = cubic = 0
    if delta or nu:
        fields, forcing = _forcing_tables(es, delta, nu)
        read = np.hstack([np.pad(read, ((0, len(sigma) - len(read)), (0, 0))), *fields])
        drive = np.vstack([*forcing, drive])
        convective = sum(block.shape[1] for block in fields) if delta else 0
        cubic = es.quadrature.nodes.size if nu else 0
    drive *= dt * _phi1(sigma * dt)  # in place: no third copy of the grid
    return StepPlan(
        growth=np.exp(sigma * dt),
        read=read,
        drive=drive,
        inputs=gain.K.shape[0],
        norm_form=form,
        head=ms.dim,
        level=level,
        convective=convective,
        cubic=cubic,
    )


def step_linear_closed_loop(state, ms, gain, level, dt):
    """One exponential-Euler step of the internally actuated linear loop."""
    return step_plan(ms, gain, level, dt).step(np.asarray(state, dtype=float)[None])[0]


def _forcing_tables(es, delta, nu):
    """The one home of the forcing's tables: the field table's and the forcing rows' blocks.

    The field table [basis] gives y on the grid; its block is the eigen
    system's table itself.  By parts, -<y y_x, e_j> = <y^2, e_j'> / 2 -
    [y^2 e_j]_0^L / 2, so the rows [delta/2 (w basis_d1)^T; nu (w
    basis_d2)^T], w the quadrature weights, project [y^2 | y^3] onto the
    modes.  Hinged and clamped modes vanish at both walls; on Neumann walls,
    with delta on, the field table also takes the wall values e_j(0) and
    e_j(L) as two columns, whose squares the rows delta/2 e_j(0) and
    -delta/2 e_j(L) project.  A switched-off term has no rows or columns.
    Each caller stacks the blocks once, and nothing is kept.
    """
    w = es.quadrature.weights[:, None]
    fields = [es.basis]
    forcing = []  # row-major like every matrix the products take: BLAS rounds F order differently
    if delta:
        forcing.append(0.5 * delta * np.multiply(w, es.basis_d1.T, order="C"))
        if es.bc is BoundaryCondition.NEUMANN_CH:
            walls = es.modes(np.array([0.0, es.params.length]))
            fields.append(walls)
            forcing.append(np.multiply([[0.5 * delta], [-0.5 * delta]], walls.T, order="C"))
    if nu:
        forcing.append(nu * np.multiply(w, es.basis_d2.T, order="C"))
    return fields, forcing


def nonlinear_forcing(es, state, delta, nu, out=None):
    """Modal projection of the negated nonlinearity, for one state or a row batch.

    The convective part projects -delta * y y_x by parts, as delta/2 * y^2
    against e_j' less the wall term; the dispersive part uses <d_xx(y^3),
    e_j> = <y^3, e_j''>, valid for every supported BC family.  It is
    `_read_back` of the rows against the field table [basis | walls] of
    `_forcing_tables`, into `out` when given.  A switched-off term is never
    formed, so its overflow cannot turn into NaN; with both off the forcing
    is zero.  A row gets the same bits alone or in any batch.
    """
    rows = np.asarray(state, dtype=float).reshape(-1, np.shape(state)[-1])
    out = np.empty(np.shape(state)) if out is None else out
    field_blocks, forcing_rows = _forcing_tables(es, delta, nu)
    forcing_table = np.vstack(forcing_rows) if forcing_rows else np.empty((0, es.count))
    cubic = es.quadrature.nodes.size if nu else 0
    _read_back(rows, np.hstack(field_blocks), 0, forcing_table, cubic, out.reshape(rows.shape))
    return out


def _read_back(rows, read, inputs, forcing_table=None, cubic=0, forcing=None):
    """The rows' products with `read`, `_CHUNK` rows at a time: (first `inputs` columns, N(y)).

    Each chunk takes one vector-matrix product per row, into buffers
    allocated once and reused, so a row gets the same bits alone or in any
    batch.  With `forcing_table`, the stacked forcing rows of
    `_forcing_tables`, the columns after the first `inputs` are field values
    y, on the grid first: [y^2 | y^3] is formed from them as the step kernel
    forms it, y^2 of every field column when the table has rows for more
    than the `cubic` y^3 columns and y^3 = y^2 y on the grid, and projected
    against the table into `forcing` (a new array when not given).  Without
    a table N(y) has no columns.
    """
    forcing_table = np.empty((0, 0)) if forcing_table is None else forcing_table
    size = min(len(rows), _CHUNK)
    control, values = np.empty((len(rows), inputs)), np.empty((size, read.shape[1]))
    convective, products = len(forcing_table) - cubic, np.empty((size, len(forcing_table)))
    forcing = np.empty((len(rows), forcing_table.shape[1])) if forcing is None else forcing
    for lo in range(0, len(rows), _CHUNK):
        chunk = rows[lo : lo + _CHUNK]
        r = _product(len(chunk), read)(chunk, read, out=values[: len(chunk)])
        w, field, y = products[: len(chunk)], r[:, inputs:], r[:, inputs : inputs + cubic]
        control[lo : lo + _CHUNK] = r[:, :inputs]
        if convective:
            np.multiply(field, field, out=w[:, :convective])
        if cubic:
            squared = w[:, :cubic] if convective else np.multiply(y, y, out=w[:, convective:])
            np.multiply(squared, y, out=w[:, convective:])
        _product(len(w), forcing_table)(w, forcing_table, out=forcing[lo : lo + _CHUNK])
    return control, forcing


def step_nonlinear_closed_loop(state, ms, gain, level, config):
    """Exponential-Euler step of `config.dt` with frozen control plus nonlinear forcing."""
    plan = step_plan(ms, gain, level, config.dt, config.delta, config.nu)
    y = np.asarray(state, dtype=float)[None]
    with np.errstate(over="ignore", invalid="ignore"):  # as `_stepping_pass` steps
        new = plan.step(y)
        crossed = _crossed(plan, new, config.blowup_threshold)[0]
    if crossed:
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
    exact only for products of modes.  The rule resolves the largest trig
    frequency of the mode family.  Raises ValueError when the coefficients'
    norm is below `_BUMP_RTOL` times the bump's L2 norm: their direction
    would be rounding noise.
    """
    L = es.params.length
    rule = quadrature_for_modes(L, int(math.ceil(float(es.modes.frequency.max()) * L / math.pi)))
    g = np.exp(-(((rule.nodes - L / 2) / (L / 10)) ** 2))
    coeffs = np.vecdot(es.modes(rule.nodes) * g, rule.weights)
    norm = math.sqrt(float(np.sum(coeffs**2)))
    if not norm > _BUMP_RTOL * math.sqrt(float(rule.weights @ (g * g))):
        raise ValueError(
            f"the bump preset has no support on the J = {es.count} retained modes "
            f"(coefficient norm {norm:.2g}): the bump is even about L/2 and the "
            "retained modes are odd"
        )
    return coeffs


def resolve_initial(config, es):
    """Modal coefficients for the configured initial state, one per mode of `es`."""
    entry, J = config.initial, es.count
    if isinstance(entry, (list, tuple)) and len(entry) == 2 and isinstance(entry[0], str):
        preset, amplitude = entry
        if preset not in _PRESETS:
            raise ValueError(f"unknown preset {preset!r}; use one of {_PRESETS}")
        y0 = np.zeros(J)
        if preset == "first_mode":
            y0[0] = amplitude
        elif preset == "smooth":
            y0[:] = amplitude * 0.5 ** np.arange(J)
        else:  # bump
            coeffs = _bump_coefficients(es)
            y0 = amplitude * coeffs / math.sqrt(float(np.sum(coeffs**2)))
        return y0
    y0 = np.asarray(entry, dtype=float)
    if y0.shape != (J,):
        raise ValueError(f"initial data must have {J} coefficients")
    return y0.copy()


def _v2(v1, modal, constants, sigma):
    """Frequency-weighted energy 0.5 M v1 + sum_j (-sigma_j) y_j^2."""
    return 0.5 * constants.M * v1 + quad_form(modal, -sigma)


def run(config, ms, gain, cert=None, constants=None, level=None):
    """Integrate the configured initial state: `run_batch` with a batch of one."""
    y0 = resolve_initial(config, ms.es)
    return run_batch(config, ms, gain, y0[None], cert, constants, level)[0]


def run_batch(config, ms, gain, initials, cert=None, constants=None, level=None):
    """Integrate each row of `initials` to the horizon or a blow-up.

    Rows hold J modal coefficients; boundary systems prepend the integrator at
    rest.  Monitors come from the stored states after the run: the control
    column and, for a nonlinear run, the forcing peak from one read-back
    against the plan's read; with a certificate v1 and the region-exit flag,
    with constants also v2; boundary l2 reports the reconstructed physical
    field.  `level` defaults to the unsaturated sentinel.  Returns one
    Trajectory per row.
    """
    return _stepping_pass(config, ms, gain, initials, level, cert=cert, constants=constants)[0]


def _stepping_pass(config, ms, gain, initials, level=None, keep=None, t_start=None,
                   cert=None, constants=None):
    """Step the rows of `initials` once; store the first `keep`, judge all from `t_start`.

    One step kernel, `StepPlan.stepper`'s, steps every row, a time-major
    block of `_BLOCK` samples at a time (slot k - start holds sample k of
    every row), until each row has ended or the horizon is reached.  Every
    block is stepped into one buffer allocated once per pass.  When the
    blow-up form is a weight vector, and so gram_d2 is too (hinged and
    Neumann walls), each block is squared once into a second reused buffer,
    and both the blow-up test and the fit window's H2 norms contract it
    with their weights: the bits `quad_form` gives, and a sum of
    nonnegative terms needs no floor at zero.  Matrix forms (clamped Grams)
    take `_crossed` and `_h2`, a product per form.
    A row ends at its first `_crossed` sample, which a nonlinear run drops
    unless it is the initial one; the samples it takes after that are
    discarded and may overflow.  The first `keep` rows (all by default) are
    stored and monitored afterwards, as `run_batch` describes.  With
    `t_start`, every row is also reduced to its H2 norms on the samples at
    t >= t_start, which must hold at least two, and judged by one batched
    `_fit_decay` of their logarithms: it decays when it reaches the horizon
    and either the fitted rate is positive or the channel is not positive
    and finite on the window.  Returns (the kept rows' Trajectories, the
    verdicts or None).
    """
    rows = _initial_rows(ms, initials)
    level = UNSATURATED if level is None else level
    plan = step_plan(ms, gain, level, config.dt, config.delta, config.nu)
    batch, dim = rows.shape
    keep = batch if keep is None else keep
    times, first, states, window = _fit_window(
        config, math.inf if t_start is None else t_start, keep, batch, dim
    )
    samples = times.size
    filled = np.full(batch, samples)  # stored samples per row
    ended = np.zeros(batch, dtype=bool)
    cut = 1 if ms.mode == "boundary" else 0  # the integrator is no mode
    nonlinear, form, gram_d2 = config.nonlinear, plan.norm_form, ms.es.gram_d2
    step = plan.stepper(batch)
    buffer = np.empty((min(_BLOCK, samples), batch, dim))  # every block's samples
    # weight forms (hinged, Neumann) share one squared block; a 1-D norm form has a 1-D gram_d2
    squared = block_sq = np.empty_like(buffer) if form.ndim == 1 else None
    buffer[0], y, start = rows, rows, 0
    while start < samples and not ended.all():
        end = min(start + _BLOCK, samples)
        block = buffer[: end - start]
        with np.errstate(over="ignore", invalid="ignore"):  # ended rows may overflow
            for out in block[max(start, 1) - start :]:  # from the first sample it steps to
                y = step(y, out)
            if squared is None:
                crossed = _crossed(plan, block, config.blowup_threshold)
            else:  # one squared block feeds the blow-up test and the H2 norms
                block_sq = np.multiply(block, block, squared[: len(block)])
                crossed = ~(np.vecdot(block_sq, form) <= config.blowup_threshold**2)
            lo = max(start, first)
            if lo < end:
                h2 = (
                    _h2(block[lo - start :, :, cut:], gram_d2) if squared is None
                    else np.sqrt(np.vecdot(block_sq[lo - start :, :, cut:], gram_d2))  # terms >= 0
                )
                window[:, lo - first : end - first] = h2.T
        crossed &= ~ended
        states[:, start:end] = block[:, :keep].swapaxes(0, 1)
        for i in np.flatnonzero(crossed.any(axis=0)):
            k = start + int(np.argmax(crossed[:, i]))  # the row's first crossing
            filled[i] = k if nonlinear and k else k + 1  # a nonlinear crossing is not stored
            ended[i] = True
        start = end
    del buffer, squared, block, block_sq, y  # free before the fit's and the monitors' temporaries
    exits = [EXIT_BLOWUP if e else EXIT_HORIZON for e in ended]

    verdicts = None
    if t_start is not None:
        # a row that ended early holds overflowed or unwritten samples: its fit is unused
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logs = np.log(window, out=window)
            positive = np.isfinite(logs).all(axis=1)
            rates = _fit_decay(times[first:], logs)[0]
        verdicts = [
            not e and bool(not ok or rate > 0.0) for e, ok, rate in zip(ended, positive, rates)
        ]
    del window
    kept = [
        _monitored(
            plan, ms, config, times[: filled[i]], states[i, : filled[i]], exits[i], cert, constants
        )
        for i in range(keep)
    ]
    return kept, verdicts


def _initial_rows(ms, initials):
    """Validated (batch, dim) start rows; boundary rows get the integrator at rest."""
    rows = np.atleast_2d(np.asarray(initials, dtype=float))
    if len(rows) == 0:
        raise ValueError("the batch of initial data is empty: it needs at least one row")
    if rows.shape[1] != ms.es.count:
        raise ValueError(f"initial data must have {ms.es.count} coefficients")
    if ms.mode == "boundary":
        rows = np.hstack([np.zeros((rows.shape[0], 1)), rows])
    return rows


def _fit_window(config, t_start, keep=0, batch=0, width=0):
    """A run's sample times, the index of the first at t >= t_start, and its stored arrays.

    The arrays are the states of `keep` rows of `width` values a sample and
    the H2 norms of `batch` rows on the samples at t >= t_start.  Raises
    ConfigError when T / dt asks for more samples than these arrays and
    their times can be allocated for.
    """
    steps = config.T / config.dt
    norms = batch if t_start < math.inf else 0  # the fit window's, held on at most every sample
    values = 1 + keep * width + norms
    nbytes = 8.0 * values * (steps + 1.0)
    arrays = None
    if nbytes <= sys.maxsize:  # numpy's size limit: past it `arange` may return no samples
        with contextlib.suppress(MemoryError):
            times = np.arange(int(round(steps)) + 1) * config.dt
            first = int(np.searchsorted(times, t_start))
            states = np.empty((keep, times.size, width))
            arrays = times, first, states, np.empty((batch, times.size - first))
    if arrays is None:
        raise ConfigError(
            f"T = {config.T:g} and dt = {config.dt:g} take {steps + 1.0:.6g} samples, "
            f"each its time, {keep} stored row(s) {width} values wide and {norms} fit norm(s)"
            f": up to {8 * values} bytes a sample and {nbytes:.3g} bytes in all, "
            "more than can be allocated"
        )
    return arrays


def _crossed(plan, states, threshold):
    """The blow-up rule per state: its norm is over `threshold` or is not finite."""
    return ~(quad_form(states, plan.norm_form) <= threshold**2)


def _monitored(plan, ms, config, times, states, exit_reason, cert, constants):
    """Trajectory with every monitor channel computed from the stored states.

    One `_read_back` of the stored states against the plan's read gives the
    control column, the bits each step clamped, and, for a nonlinear run
    that reports v2, the field values from which nl_ratio_max = max_k
    |N(y_k)|_inf / v2_k over the samples with v2 > 0 takes N.
    """
    es = ms.es
    boundary = ms.mode == "boundary"
    modal = states[:, 1:] if boundary else states
    w_sq = np.vecdot(modal, modal)
    if boundary:
        u = states[:, 0]
        inner_wd = np.vecdot(modal, ms.lift_coefficients)  # <w, d>
        l2 = np.sqrt(np.maximum(0.0, w_sq + 2.0 * u * inner_wd + u**2 * ms.lifting.d_norm_sq()))
    else:
        l2 = np.sqrt(w_sq)
    v1 = np.full(times.size, np.nan)
    v2 = np.full(times.size, np.nan)
    nl_ratio_max = float("nan")
    terms = ()  # the forcing table and its y^3 columns, when the forcing peak is taken
    if cert is not None:
        v1 = quad_form(states[:, : plan.head], _as_form(cert.P))
        if constants is not None:
            v2 = _v2(v1, modal, constants, es.values)
            positive = v2 > 0.0
            if config.nonlinear and positive.any():
                terms = np.vstack(_forcing_tables(es, config.delta, config.nu)[1]), plan.cubic
    # a sample under the blow-up threshold can still overflow y^3
    with np.errstate(over="ignore", invalid="ignore"):
        control, forcing = _read_back(states[:, : len(plan.read)], plan.read, plan.inputs, *terms)
    if terms:  # the rows of N give way to their peaks before the norms' temporaries
        forcing = np.max(np.abs(forcing, out=forcing), axis=1)
        nl_ratio_max = float(np.fmax.reduce(forcing[positive] / v2[positive]))
    return Trajectory(
        times=times,
        states=states,
        control=control,
        sat_active=np.abs(control) > plan.level.ell,
        l2=l2,
        h1=np.sqrt(np.maximum(0.0, quad_form(modal, es.gram_d1))),
        h2=_h2(modal, es.gram_d2),
        v1=v1,
        v2=v2,
        exit_reason=exit_reason,
        left_region=bool(np.any(v1 > 1.0 + 1e-9)),
        mode=ms.mode,
        nl_ratio_max=nl_ratio_max,
    )


def _h2(modal, gram_d2):
    """H2 seminorm sqrt(y^T gram_d2 y) of each row of modal coefficients."""
    return np.sqrt(np.maximum(0.0, quad_form(modal, gram_d2)))


class DecayFit(NamedTuple):
    rate: float
    prefactor: float
    r_squared: float


def fit_decay_rate(traj, channel, t_start=0.0):
    """Least-squares exponential fit of a monitor channel from t_start on."""
    mask = traj.times >= t_start
    t = traj.times[mask]
    if t.size < 2:
        raise NonPositiveChannel("fit window holds fewer than two samples")
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(traj.channel(channel)[mask])
    if not np.isfinite(logs).all():
        raise NonPositiveChannel(f"channel {channel!r} is not positive on the window")
    rate, prefactor, r_squared = _fit_decay(t, logs)
    return DecayFit(rate=float(rate), prefactor=float(prefactor), r_squared=float(r_squared))


def _fit_decay(t, logs):
    """Least-squares line log v = log prefactor - rate t along the last axis of `logs`.

    `logs` holds log v at the two or more samples `t`, one series per row,
    and is worked on in place: shifted by its first sample (so a constant
    series centres to exact zeros), centred, and left holding the
    residuals.  Every sum is one `np.vecdot` per row, so a row gets the same
    bits alone or in any batch.  Returns arrays (rate, prefactor,
    r_squared) of the rows' shape; a constant series has rate 0 and
    r_squared 1.
    """
    ones = np.ones(t.size)
    t_mean = np.vecdot(t, ones) / t.size
    t_centred = t - t_mean
    t_ss = np.vecdot(t_centred, t_centred)
    shift = logs[..., :1].copy()
    logs -= shift
    offset = np.vecdot(logs, ones) / t.size
    logs -= offset[..., None]
    slope = np.vecdot(logs, t_centred) / t_ss
    ss_tot = np.vecdot(logs, logs)
    logs -= slope[..., None] * t_centred
    ss_res = np.vecdot(logs, logs)
    with np.errstate(invalid="ignore"):  # 0 / 0 for a constant series
        r_squared = np.where(ss_tot == 0.0, 1.0, 1.0 - ss_res / ss_tot)
    intercept = shift[..., 0] + offset - slope * t_mean
    return -slope, np.exp(intercept), r_squared


@dataclass(frozen=True)
class GronwallBound:
    times: np.ndarray
    values: np.ndarray
    w: np.ndarray


def gronwall_bound(v0, b, k, p, t_grid):
    """Comparison bound for v' <= b v + k v^p, with constant b and k, on a time grid.

    The comparison equation v' = b v + k v^p, v(t[0]) = v0, is solved in
    closed form: with q = 1 - p, v^q solves a linear equation, so at tau =
    t - t[0] the bound is exp(b tau) * w^(1/q), where w = v0^q + q k tau
    phi1(-q b tau).  Where q b < 0, w overflows over a long horizon while
    exp(b tau) underflows, so there the bound is evaluated as u^(1/q) with
    u = exp(q b tau) w = exp(q b tau) v0^q + q k tau phi1(q b tau), which
    stays finite; where q b >= 0 it is u that would overflow.  Raises
    `BoundExpired` at the first grid point where w <= 0 (u has the sign of
    w), carrying the bound on the grid points before it.
    """
    if not (0.0 <= p < math.inf and p != 1.0):
        raise ValueError(f"exponent must be finite, >= 0 and != 1, got {p}")
    if not v0 > 0.0:
        raise ValueError("initial value must be positive")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 3:
        raise ValueError("time grid must hold at least three points")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("time grid must strictly increase")
    b, k = float(b), float(k)
    if not (math.isfinite(b) and math.isfinite(k)):
        raise ValueError(f"coefficients must be finite, got b = {b}, k = {k}")

    q = 1.0 - p
    tau = t - t[0]
    with np.errstate(over="ignore"):  # w = inf past q b tau = -709 still signs the bound
        w = v0**q + q * k * tau * _phi1(-q * b * tau)
    lost = w <= 0.0
    first = int(np.argmax(lost)) if lost.any() else t.size
    # only where w > 0: a negative w or u to a fractional power is NaN and warns
    if q * b < 0.0:
        head = q * b * tau[:first]
        values = (np.exp(head) * v0**q + q * k * tau[:first] * _phi1(head)) ** (1.0 / q)
    else:
        values = np.exp(b * tau[:first]) * w[:first] ** (1.0 / q)
    if first < t.size:
        raise BoundExpired(
            f"comparison function lost positivity at t = {t[first]:.6g}",
            time=float(t[first]),
            partial=GronwallBound(times=t[:first], values=values, w=w.copy()),
        )
    return GronwallBound(times=t.copy(), values=values, w=w)


def _dyadic_points(low, high, depth):
    """Interior points of `depth` bisection levels of [low, high], in order."""
    if depth == 0:
        return []
    mid = 0.5 * (low + high)
    return _dyadic_points(low, mid, depth - 1) + [mid] + _dyadic_points(mid, high, depth - 1)


def estimate_basin(config, ms, gain, high, iters=12, t_start=None, level=None, monitors=None):
    """Search the initial amplitude between decay and failure by k-section.

    `config` holds a preset initial state: its amplitude `low` and `high`
    bracket the search, and each run differs from `config` only in the
    amplitude.  An amplitude decays when its run reaches the horizon with a
    positive fitted H2-norm rate from t_start (default `config.fit_start`);
    runs keep only their H2 norms on that window.  Each batched pass settles
    four bisection levels (the first also runs `low` and `high`: 17 rows,
    then 15), so `iters` levels take ceil(iters / 4) passes and the result
    equals serial bisection's.  Returns (estimate, bracketed); when `high`
    still decays the estimate is `high` and bracketed False.  With
    `monitors`, a (certificate, constants) pair, the first pass also keeps
    the `low` run in full, `run(config, ...)`'s Trajectory, as a third
    value.  Raises ValueError before any run when the initial state is no
    preset, its amplitude is zero or the fit window holds fewer than two
    samples.
    """
    if not isinstance(config.initial[0], str):
        raise ValueError("basin estimation needs a preset initial state")
    preset, low = config.initial
    if low == 0.0:
        raise ValueError("basin estimation needs a nonzero initial.amplitude")
    start = t_start if t_start is not None else config.fit_start
    times, first = _fit_window(config, start)[:2]
    if times.size - first < 2:
        raise ValueError(
            f"basin search cannot fit a decay rate: T = {config.T} and dt = {config.dt} "
            f"leave {times.size - first} sample(s) at or after the fit window start "
            f"t = {start} (T/4 unless given); it needs at least two"
        )
    cert, constants = (None, None) if monitors is None else monitors

    def stepped(amplitudes, keep=0):
        configs = [replace(config, initial=(preset, a)) for a in amplitudes]
        initials = [resolve_initial(c, ms.es) for c in configs]
        return _stepping_pass(config, ms, gain, initials, level, keep, start, cert, constants)

    depth = min(_LEVELS_PER_PASS, iters)
    points = _dyadic_points(low, high, depth)
    kept, (low_decays, high_decays, *verdicts) = stepped(
        [low, high] + points, keep=0 if monitors is None else 1
    )
    if not low_decays:
        raise ValueError("lower amplitude already fails; no bracket to bisect")
    if high_decays:
        return high, False, *kept
    while True:
        verdict = dict(zip(points, verdicts))
        for _ in range(depth):
            mid = 0.5 * (low + high)
            low, high = (mid, high) if verdict[mid] else (low, mid)
        iters -= depth
        if iters <= 0:
            return 0.5 * (low + high), True, *kept
        depth = min(_LEVELS_PER_PASS, iters)
        points = _dyadic_points(low, high, depth)
        verdicts = stepped(points)[1]
