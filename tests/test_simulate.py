import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from satstab.errors import NonPositiveChannel
from satstab.modal import (
    Indicator,
    Lifting,
    ModeCombination,
    actuator_coefficients,
    assemble_boundary,
    assemble_internal,
)
from satstab.saturation import UNSATURATED, SaturationLevel
from satstab.simulate import (
    EXIT_BLOWUP,
    EXIT_HORIZON,
    EXIT_LEFT_REGION,
    SimConfig,
    Trajectory,
    _monitored,
    fit_decay_rate,
    monitor_v2,
    nonlinear_forcing,
    quad_form,
    resolve_initial,
    estimate_basin,
    run,
    run_batch,
    step_boundary_closed_loop,
    step_linear_closed_loop,
    step_nonlinear_closed_loop,
    step_plan,
)
from satstab.spectral import (
    BoundaryCondition,
    OperatorParams,
    eigen_clamped,
    composite_gauss_legendre,
    eigen_closed_form,
    unstable_count,
)
from satstab.synthesis import (
    Certificate,
    Gain,
    build_certificate,
    design_gain,
    select_h2_constants,
)

HINGED = BoundaryCondition.HINGED
NEUMANN = BoundaryCondition.NEUMANN_CH


@pytest.fixture(scope="module")
def hinged_system():
    es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 12)
    coeffs = actuator_coefficients(es, [ModeCombination([1.0])])
    ms = assemble_internal(es, coeffs, 1, shape_norms_sq=[1.0])
    return ms


@pytest.fixture(scope="module")
def scalar_gain():
    return Gain(K=np.array([[-3.0]]), closed_loop_spectrum=np.array([-2.0]))


class TestLinearStepper:
    def test_pure_decay_exact(self, hinged_system):
        es = hinged_system.es
        gain = Gain(K=np.array([[0.0]]), closed_loop_spectrum=np.array([1.0]))
        zero_b = assemble_internal(es, np.zeros((12, 1)), 1, shape_norms_sq=[0.0])
        state = np.zeros(12)
        state[1] = 1.0  # sigma_2 = -8
        out = step_linear_closed_loop(state, zero_b, gain, UNSATURATED, 0.1)
        assert out[1] == pytest.approx(math.exp(-0.8), rel=1e-14)

    def test_integrator_limit(self):
        # sigma = 0 mode: y+ = y + c dt
        es = eigen_closed_form(OperatorParams((math.pi / 2.0) ** 2, 2.0), HINGED, 3)
        assert abs(es.values[0]) < 1e-13
        coeffs = actuator_coefficients(es, [ModeCombination([1.0])])
        ms = assemble_internal(es, coeffs, 1)
        gain = Gain(K=np.array([[2.0]]), closed_loop_spectrum=np.array([-1.0]))
        state = np.zeros(3)
        state[0] = 0.5
        out = step_linear_closed_loop(state, ms, gain, UNSATURATED, 0.01)
        assert out[0] == pytest.approx(0.5 + 0.01 * 1.0, rel=1e-13)

    def test_scalar_closed_loop_matches_exact(self, hinged_system, scalar_gain):
        # z' = z + sat(-3 z) = -2 z without saturation
        for dt in (1e-3, 5e-4):
            state = np.zeros(12)
            state[0] = 0.1
            steps = int(round(1.0 / dt))
            for _ in range(steps):
                state = step_linear_closed_loop(state, hinged_system, scalar_gain, UNSATURATED, dt)
            exact = 0.1 * math.exp(-2.0)
            err = abs(state[0] - exact)
            assert err < 5.0 * dt * exact

    def test_refinement_halves_error(self, hinged_system, scalar_gain):
        errs = []
        for dt in (2e-3, 1e-3):
            state = np.zeros(12)
            state[0] = 0.1
            for _ in range(int(round(1.0 / dt))):
                state = step_linear_closed_loop(state, hinged_system, scalar_gain, UNSATURATED, dt)
            errs.append(abs(state[0] - 0.1 * math.exp(-2.0)))
        assert errs[1] < 0.6 * errs[0]


class TestNonlinearTerm:
    def test_single_mode_flux_cancellation(self, hinged_system):
        es = hinged_system.es
        state = np.zeros(12)
        state[0] = 0.7
        f = nonlinear_forcing(es, state, delta=1.0, nu=0.0)
        assert abs(f @ state) < 1e-10

    def test_flux_cancellation_random_states(self, hinged_system):
        es = hinged_system.es
        rng = np.random.default_rng(8)
        for _ in range(20):
            state = rng.normal(size=12) * 0.3
            f = nonlinear_forcing(es, state, delta=1.0, nu=0.0)
            assert abs(f @ state) < 1e-10 * max(1.0, np.sum(state**2))

    def test_dispersive_term_dissipative(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), NEUMANN, 10)
        rng = np.random.default_rng(21)
        for _ in range(20):
            state = rng.normal(size=10) * 0.4
            f = nonlinear_forcing(es, state, delta=0.0, nu=1.0)
            # f_j = +<d_xx(y^3), e_j>, so f . y = <d_xx(y^3), y> <= 0
            assert f @ state <= 1e-12

    def test_nonlinearity_off_matches_linear(self, hinged_system, scalar_gain):
        config = SimConfig(J=12, dt=1e-3, T=0.0, delta=0.0, nu=0.0)
        state = 0.05 * np.ones(12)
        a = step_linear_closed_loop(state, hinged_system, scalar_gain, UNSATURATED, 1e-3)
        b = step_nonlinear_closed_loop(
            state, hinged_system, scalar_gain, UNSATURATED, config, 1e-3
        )
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_forcing_matches_fine_projection(self, hinged_system):
        # brute-force projection from the analytic modes on a rule sized from
        # the modes, 4x the panels of quadrature_for_modes at k = J, so the
        # oracle does not shrink with the grid it checks.  Each state scale
        # keeps |forcing| below about 100, where rounding stays under atol.
        systems = (
            (hinged_system.es, 0.3),
            (eigen_closed_form(OperatorParams(1.0, 2.0), NEUMANN, 8), 0.3),
            (eigen_clamped(OperatorParams(45.0, 1.0), 8), 0.1),
        )
        rng = np.random.default_rng(5)
        for es, scale in systems:
            panels = 4 * max(8, math.ceil(1.5 * es.count))
            fine = composite_gauss_legendre(es.params.length, panels, 16)
            x, w = fine.nodes, fine.weights
            values = [[mode(x, d) for d in range(3)] for mode in es.modes]
            for delta, nu in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0)):
                for _ in range(20):
                    state = rng.normal(size=es.count) * scale
                    y = sum(c * v[0] for c, v in zip(state, values))
                    yx = sum(c * v[1] for c, v in zip(state, values))
                    oracle = np.array(
                        [
                            -delta * float(np.sum(w * y * yx * v[0]))
                            + nu * float(np.sum(w * y**3 * v[2]))
                            for v in values
                        ]
                    )
                    f = nonlinear_forcing(es, state, delta=delta, nu=nu)
                    np.testing.assert_allclose(f, oracle, rtol=0.0, atol=1e-12)

    def test_quadrature_identity_dispersive(self):
        # <d_xx(y^3), y> = -3 int y^2 (y_x)^2 for synthesized fields
        es = eigen_closed_form(OperatorParams(1.0, 2.0), NEUMANN, 8)
        rng = np.random.default_rng(3)
        state = rng.normal(size=8) * 0.3
        y = es.synthesize(state)
        yx = es.synthesize(state, 1)
        w = es.quadrature.weights
        lhs = (es.basis_d2 @ (w * y**3)) @ state
        rhs = -3.0 * float(w @ (y**2 * yx**2))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@pytest.fixture(scope="module")
def boundary_ms():
    es = eigen_clamped(OperatorParams(45.0, 1.0), 8)
    n = unstable_count(es).n
    return assemble_boundary(es, Lifting(1.0), n)


class TestBoundaryStepper:

    def test_zero_input_pure_decay(self, boundary_ms):
        ms = boundary_ms
        gain = Gain(K=np.zeros((1, ms.n + 1)), closed_loop_spectrum=np.array([-1.0]))
        state = np.zeros(9)
        state[1] = 0.3
        out = step_boundary_closed_loop(state, ms, gain, UNSATURATED, 0.01)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.3 * math.exp(ms.es.values[0] * 0.01), rel=1e-12)

    def test_initial_integrator_at_rest(self, boundary_ms):
        config = SimConfig(J=8, dt=1e-3, T=0.0, initial=("first_mode", 0.2))
        gain = design_gain(boundary_ms, poles=[-1.0 * (i + 1) for i in range(boundary_ms.n + 1)])
        traj = run(config, boundary_ms, gain)
        assert traj.states[0, 0] == 0.0
        assert traj.states[0, 1] == 0.2

    def test_norm_form_is_block_diagonal(self, boundary_ms):
        # oracle: scipy's block_diag, the construction the plan replaced
        from scipy.linalg import block_diag

        ms = boundary_ms
        gain = Gain(K=np.zeros((1, ms.n + 1)), closed_loop_spectrum=np.array([-1.0]))
        plan = step_plan(ms, gain, UNSATURATED, 0.01)
        es = ms.es
        form = np.eye(es.count) + es.gram_d1 + es.gram_d2
        expected = block_diag(1.0, form)
        assert plan.norm_form.dtype == expected.dtype
        assert np.array_equal(plan.norm_form, expected)

    def test_reconstruction_bound(self, boundary_ms):
        ms = boundary_ms
        config = SimConfig(J=8, dt=5e-4, T=2.0, initial=("smooth", 0.1))
        gain = design_gain(ms, poles=[-(i + 1.0) for i in range(ms.n + 1)])
        traj = run(config, ms, gain, level=SaturationLevel(5.0))
        d_norm = math.sqrt(ms.lifting.d_norm_sq())
        w_l2 = traj.channel("w_l2")
        u_abs = traj.channel("u")
        assert np.all(traj.l2 <= w_l2 + u_abs * d_norm + 1e-12)


class TestRun:
    def test_horizon_exit_and_contraction(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        y0 = np.zeros(12)
        y0[0] = 0.9 / math.sqrt(cert.P[0, 0])
        y0[1] = 0.02
        config = SimConfig(J=12, dt=1e-3, T=3.0, initial=tuple(y0.tolist()))
        traj = run(config, ms, gain, cert, level=SaturationLevel(1.0))
        assert traj.exit_reason == EXIT_HORIZON
        assert traj.l2[-1] < traj.l2[0]
        assert not traj.left_region

    def test_saturated_escape_blows_up(self, hinged_system, scalar_gain):
        config = SimConfig(
            J=12, dt=1e-3, T=25.0, initial=(2.0,) + (0.0,) * 11, blowup_threshold=1e5
        )
        traj = run(config, hinged_system, scalar_gain, level=SaturationLevel(1.0))
        assert traj.exit_reason == EXIT_BLOWUP
        assert traj.times[-1] < 25.0

    def test_zero_horizon_single_sample(self, hinged_system, scalar_gain):
        config = SimConfig(J=12, dt=1e-3, T=0.0, initial=("first_mode", 0.1))
        traj = run(config, hinged_system, scalar_gain)
        assert traj.times.shape == (1,)
        assert traj.l2[0] == pytest.approx(0.1)

    def test_left_region_exit(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        # run with a much tighter clamp than certified: growth escapes the set
        edge = 0.98 / math.sqrt(cert.P[0, 0])
        config = SimConfig(J=12, dt=1e-3, T=10.0, initial=(edge,) + (0.0,) * 11)
        traj = run(
            config, ms, gain, cert, level=SaturationLevel(1e-4), stop_on_region_exit=True
        )
        assert traj.exit_reason == EXIT_LEFT_REGION
        assert traj.left_region

    def test_unsaturated_equivalence(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        y0 = np.zeros(12)
        y0[0] = 0.05
        config = SimConfig(J=12, dt=1e-3, T=1.0, initial=tuple(y0.tolist()))
        a = run(config, ms, gain)
        b = run(config, ms, gain, level=SaturationLevel(10.0))
        assert not b.sat_active.any()
        np.testing.assert_allclose(a.states, b.states, atol=1e-14)

    def test_parseval_against_quadrature(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        config = SimConfig(J=12, dt=1e-2, T=0.5, initial=("smooth", 0.2))
        traj = run(config, ms, gain)
        es = ms.es
        for k in (0, traj.times.size // 2, traj.times.size - 1):
            y = es.synthesize(traj.states[k])
            quad_sq = es.quadrature.integrate(y**2)
            modal_sq = float(np.sum(traj.states[k] ** 2))
            assert abs(quad_sq - modal_sq) <= 1e-12 * max(modal_sq, 1e-30)

    def test_energy_identity_uncontrolled(self):
        # d/dt (l2^2/2) = lam*h1^2 - h2^2 for the free linear flow
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 4)
        ms = assemble_internal(es, np.zeros((4, 1)), 1, shape_norms_sq=[0.0])
        gain = Gain(K=np.zeros((1, 1)), closed_loop_spectrum=np.array([-1.0]))
        dt = 2e-5
        config = SimConfig(J=4, dt=dt, T=0.004, initial=("smooth", 0.3))
        traj = run(config, ms, gain)
        half_sq = 0.5 * traj.l2**2
        ddt = (half_sq[2:] - half_sq[:-2]) / (2 * dt)
        rhs = 2.0 * traj.h1[1:-1] ** 2 - traj.h2[1:-1] ** 2
        np.testing.assert_allclose(ddt, rhs, rtol=1e-5)

    def test_round_trip_head_subsystem(self, hinged_system):
        # the head modes evolve identically whether or not the tail is carried
        ms_full = hinged_system
        es = ms_full.es
        gain = design_gain(ms_full, poles=[-4.0])
        y0 = np.zeros(12)
        y0[0] = 0.2
        config = SimConfig(J=12, dt=1e-3, T=1.0, initial=tuple(y0.tolist()))
        traj = run(config, ms_full, gain)

        state = np.array([0.2])
        coeffs_head = actuator_coefficients(es, [ModeCombination([1.0])], 1)
        sigma = es.values[:1]
        for k in range(1, traj.times.size):
            u = float((gain.K @ state)[0])
            growth = np.exp(sigma * config.dt)
            phi = np.expm1(sigma * config.dt) / (sigma * config.dt)
            state = growth * state + config.dt * phi * (coeffs_head[:, 0] * u)
            assert state[0] == pytest.approx(traj.states[k, 0], abs=1e-13)

    def test_truncation_convergence(self):
        es24 = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 24)
        es12 = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 12)
        shapes = [Indicator(0.3, 2.8)]
        eta = unstable_count(es12).eta
        y0_12 = 0.1 * 0.5 ** np.arange(12)
        y0_24 = np.concatenate([y0_12, np.zeros(12)])
        out = {}
        for es, y0 in ((es12, y0_12), (es24, y0_24)):
            coeffs = actuator_coefficients(es, shapes)
            ms = assemble_internal(es, coeffs, 1)
            gain = design_gain(ms, poles=[-4.0])
            config = SimConfig(J=es.count, dt=1e-3, T=2.0, initial=tuple(y0.tolist()))
            out[es.count] = run(config, ms, gain).l2[-1]
        tail_energy = math.sqrt(float(np.sum(y0_12[1:] ** 2)))
        assert abs(out[24] - out[12]) < tail_energy * math.exp(-eta * 2.0) + 1e-9


class TestBatch:
    @staticmethod
    def serial(config, ms, gain, starts, **kwargs):
        return [
            run(replace(config, initial=tuple(y0.tolist())), ms, gain, **kwargs) for y0 in starts
        ]

    @staticmethod
    def assert_same(batch, serial, monitors=()):
        # row-wise products give each trajectory the same bits as a serial run
        assert len(batch) == len(serial)
        for b, s in zip(batch, serial):
            assert b.exit_reason == s.exit_reason
            assert b.times.size == s.times.size
            np.testing.assert_array_equal(b.states, s.states)
            np.testing.assert_array_equal(b.control, s.control)
            for name in monitors:
                np.testing.assert_array_equal(b.channel(name), s.channel(name))

    def test_mixed_internal_starts_match_serial(self, hinged_system, scalar_gain):
        level = SaturationLevel(1.0)
        starts = np.zeros((3, 12))
        starts[0, 0] = 0.5  # decays
        starts[1, 0] = 2.0  # saturated escape to blow-up
        starts[2, :4] = (0.9, 0.1, -0.05, 0.02)  # decays, with tail content
        config = SimConfig(J=12, dt=1e-3, T=15.0, blowup_threshold=1e5)
        batch = run_batch(config, hinged_system, scalar_gain, starts, level=level)
        serial = self.serial(config, hinged_system, scalar_gain, starts, level=level)
        assert [t.exit_reason for t in batch] == [EXIT_HORIZON, EXIT_BLOWUP, EXIT_HORIZON]
        self.assert_same(batch, serial, ("l2", "h1", "h2"))
        # a linear sample over the threshold is stored, then the run ends
        plan_form = np.eye(12) + hinged_system.es.gram_d1 + hinged_system.es.gram_d2
        assert quad_form(batch[1].states[-1], plan_form) > 1e10
        assert quad_form(batch[1].states[-2], plan_form) <= 1e10

    def test_nonlinear_batch_matches_serial(self, hinged_system):
        ms = hinged_system
        level = SaturationLevel(1.0)
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, level)
        consts = select_h2_constants(cert, ms, gain, ms.es)
        starts = np.zeros((2, 12))
        starts[0, :3] = (0.5 / math.sqrt(cert.P[0, 0]), 0.05, -0.02)  # decays
        starts[1, 0] = 40.0  # far outside the basin: blows up
        config = SimConfig(J=12, dt=1e-3, T=3.0, delta=1.0, nu=0.5, blowup_threshold=1e5)
        batch = run_batch(config, ms, gain, starts, cert, consts, level=level)
        serial = self.serial(config, ms, gain, starts, cert=cert, constants=consts, level=level)
        assert [t.exit_reason for t in batch] == [EXIT_HORIZON, EXIT_BLOWUP]
        self.assert_same(batch, serial, ("l2", "h1", "h2", "v1", "v2"))
        for b, s in zip(batch, serial):
            assert b.nl_ratio_max == s.nl_ratio_max
        # a nonlinear step over the threshold is dropped, not stored
        plan_form = np.eye(12) + ms.es.gram_d1 + ms.es.gram_d2
        assert quad_form(batch[1].states[-1], plan_form) <= 1e10

    def test_boundary_batch_matches_serial(self, boundary_ms):
        ms = boundary_ms
        gain = design_gain(ms, poles=[-(i + 1.0) for i in range(ms.n + 1)])
        level = SaturationLevel(5.0)
        starts = np.zeros((3, 8))
        starts[0] = 0.01 * 0.5 ** np.arange(8)
        starts[1, 0] = 0.2  # saturates and escapes
        starts[2, :3] = (0.02, -0.1, 0.05)
        config = SimConfig(J=8, dt=5e-4, T=1.0)
        batch = run_batch(config, ms, gain, starts, level=level)
        serial = self.serial(config, ms, gain, starts, level=level)
        assert [t.exit_reason for t in batch] == [EXIT_HORIZON, EXIT_BLOWUP, EXIT_HORIZON]
        assert all(t.states[0, 0] == 0.0 for t in batch)
        self.assert_same(batch, serial, ("l2", "h1", "h2", "u_plus_w"))

    @pytest.mark.parametrize("iters", [12, 3])
    def test_ksection_matches_serial_bisection(self, hinged_system, scalar_gain, iters):
        level = SaturationLevel(1.0)

        def decays(amplitude):
            traj = run(scalar_edge_config(amplitude), hinged_system, scalar_gain, level=level)
            if traj.exit_reason != EXIT_HORIZON:
                return False
            try:
                return fit_decay_rate(traj, "h2", 1.0).rate > 0.0
            except NonPositiveChannel:
                return True

        low, high = 0.2, 2.0
        for _ in range(iters):
            mid = 0.5 * (low + high)
            low, high = (mid, high) if decays(mid) else (low, mid)
        assert low <= 1.0 <= high
        edge, bracketed = estimate_basin(
            scalar_edge_config, hinged_system, scalar_gain, None, None,
            low=0.2, high=2.0, iters=iters, level=level,
        )
        assert bracketed
        assert edge == 0.5 * (low + high)


def per_step_reference(
    config, ms, gain, initials, cert=None, constants=None, level=None, stop_on_region_exit=False
):
    """Oracle for `run_batch`: one row at a time, every exit check after every step.

    A nonlinear sample over the blow-up threshold is dropped unless it is the
    initial one, a linear or boundary sample is kept, and a region exit wins
    over a blow-up at the same sample.  Monitors come from the same
    `_monitored` as in `run_batch`, so only the loop is compared.
    """
    nonlinear = config.delta != 0.0 or config.nu != 0.0
    initials = np.atleast_2d(np.asarray(initials, dtype=float))
    if ms.mode == "boundary":
        initials = np.hstack([np.zeros((initials.shape[0], 1)), initials])
    plan = step_plan(ms, gain, UNSATURATED if level is None else level, config.dt)
    limit = config.blowup_threshold**2
    check_region = stop_on_region_exit and cert is not None
    samples = int(round(config.T / config.dt)) + 1
    out = []
    for row in initials:
        y = row[None]
        stored, peaks, reason = [], [], EXIT_HORIZON
        for k in range(samples):
            over = quad_form(y, plan.norm_form)[0] > limit
            if nonlinear and k and over:
                reason = EXIT_BLOWUP
                break
            stored.append(y[0])
            region = check_region and quad_form(y[:, : plan.head], cert.P)[0] > 1.0 + 1e-9
            if region or over:
                reason = EXIT_LEFT_REGION if region else EXIT_BLOWUP
                break
            if k == samples - 1:
                break
            forcing = None
            if nonlinear:
                forcing = nonlinear_forcing(ms.es, y, config.delta, config.nu)
                peaks.append(np.max(np.abs(forcing)))
            y = plan.step(y, forcing)
        n = len(stored)
        peak = None
        if nonlinear:
            peak = np.full(n, np.nan)  # the last entry is filled by the monitors
            peak[: min(n, len(peaks))] = peaks[:n]
        times = np.arange(n) * config.dt
        out.append(
            _monitored(plan, ms, config, times, np.array(stored), reason, cert, constants, peak)
        )
    return out


def assert_identical(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.exit_reason == e.exit_reason
        assert g.left_region == e.left_region
        np.testing.assert_array_equal(g.times, e.times)
        for name in ("states", "control", "sat_active", "l2", "h1", "h2", "v1", "v2"):
            np.testing.assert_array_equal(getattr(g, name), getattr(e, name))
        assert g.nl_ratio_max == e.nl_ratio_max or (
            math.isnan(g.nl_ratio_max) and math.isnan(e.nl_ratio_max)
        )


def crossing_threshold(traj, form, p):
    """A blow-up threshold first exceeded at sample p of an increasing norm."""
    q = quad_form(traj.states, form)
    if p == 0:
        return 0.5 * math.sqrt(q[0])
    assert np.all(np.diff(q[: p + 1]) > 0.0)
    return (q[p - 1] * q[p]) ** 0.25  # the geometric middle of the two norms


class TestBlockExits:
    """`run_batch` checks exits once per block of samples; a per-step loop is the oracle."""

    @pytest.fixture(scope="class")
    def loop(self, hinged_system):
        ms = hinged_system
        level = SaturationLevel(1.0)
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, level)
        consts = select_h2_constants(cert, ms, gain, ms.es)
        form = np.eye(12) + ms.es.gram_d1 + ms.es.gram_d2
        return ms, gain, cert, consts, level, form

    @staticmethod
    def escaping(amplitude):
        start = np.zeros(12)
        start[:3] = (amplitude, 0.05, -0.02)  # above the saturated edge: grows
        return start

    def check(self, config, ms, gain, starts, **kwargs):
        expected = per_step_reference(config, ms, gain, starts, **kwargs)
        assert_identical(run_batch(config, ms, gain, starts, **kwargs), expected)
        for start, e in zip(starts, expected):
            single = replace(config, initial=tuple(np.asarray(start).tolist()))
            assert_identical([run(single, ms, gain, **kwargs)], [e])
        return expected

    @pytest.mark.parametrize("p", [0, 1, 63, 64, 65, 127, 128])
    def test_linear_crossing_kept(self, loop, p):
        ms, gain, cert, consts, level, form = loop
        start = self.escaping(3.0)
        free = SimConfig(J=12, dt=1e-2, T=2.0, blowup_threshold=1e150)
        probe = run_batch(free, ms, gain, start[None], level=level)[0]
        config = replace(free, blowup_threshold=crossing_threshold(probe, form, p))
        kwargs = dict(cert=cert, constants=consts, level=level)
        (traj,) = self.check(config, ms, gain, start[None], **kwargs)
        assert traj.exit_reason == EXIT_BLOWUP
        assert traj.times.size == p + 1

    @pytest.mark.parametrize("p", [0, 1, 63, 64, 65])
    def test_nonlinear_crossing_dropped(self, loop, p):
        ms, gain, cert, consts, level, form = loop
        start = self.escaping(3.0)
        free = SimConfig(J=12, dt=1e-2, T=2.0, delta=1.0, nu=0.01, blowup_threshold=1e150)
        probe = run_batch(free, ms, gain, start[None], level=level)[0]
        config = replace(free, blowup_threshold=crossing_threshold(probe, form, p))
        kwargs = dict(cert=cert, constants=consts, level=level)
        (traj,) = self.check(config, ms, gain, start[None], **kwargs)
        assert traj.exit_reason == EXIT_BLOWUP
        assert traj.times.size == max(p, 1)  # an initial sample over the threshold stays
        assert not math.isnan(traj.nl_ratio_max)

    def test_nonlinear_blowup_far_outside(self, loop):
        ms, gain, cert, consts, level, _ = loop
        starts = np.zeros((2, 12))
        starts[0, :2] = (0.1, 0.01)
        starts[1, 0] = 40.0
        config = SimConfig(J=12, dt=1e-3, T=0.3, delta=1.0, nu=0.5, blowup_threshold=1e5)
        kwargs = dict(cert=cert, constants=consts, level=level)
        trajs = self.check(config, ms, gain, starts, **kwargs)
        assert [t.exit_reason for t in trajs] == [EXIT_HORIZON, EXIT_BLOWUP]

    @pytest.mark.parametrize("samples", [31, 64, 128, 129])
    def test_horizon_inside_and_at_block_edges(self, loop, samples):
        ms, gain, cert, consts, level, _ = loop
        starts = np.zeros((3, 12))
        starts[0, :3] = (0.5 / math.sqrt(cert.P[0, 0]), 0.05, -0.02)
        starts[1] = self.escaping(3.0)
        starts[2, 0] = 40.0
        config = SimConfig(
            J=12, dt=1e-3, T=(samples - 1) * 1e-3, delta=1.0, nu=0.5, blowup_threshold=1e5
        )
        kwargs = dict(cert=cert, constants=consts, level=level)
        trajs = self.check(config, ms, gain, starts, **kwargs)
        assert trajs[0].times.size == samples
        assert [t.exit_reason for t in trajs[:2]] == [EXIT_HORIZON, EXIT_HORIZON]

    def test_rows_exit_in_different_blocks(self, loop):
        ms, gain, cert, consts, level, _ = loop
        # y1 = 1 + (a - 1) e^t while saturated: threshold 30 is crossed at
        # about t = ln(16.3 / (a - 1)), samples 71, 210 and 279
        starts = np.array([self.escaping(a) for a in (9.0, 3.0, 2.0, 0.5)])
        starts[3, 1:] = 0.0
        config = SimConfig(J=12, dt=1e-2, T=3.0, blowup_threshold=30.0)
        kwargs = dict(cert=cert, constants=consts, level=level)
        trajs = self.check(config, ms, gain, starts, **kwargs)
        assert [t.exit_reason for t in trajs] == [EXIT_BLOWUP] * 3 + [EXIT_HORIZON]
        blocks = {(t.times.size - 1) // 64 for t in trajs[:3]}
        assert len(blocks) == 3

    @pytest.fixture(scope="class")
    def two_modes(self):
        # hinged, lam = 6: sigma = 5 and 8 on the two unstable modes, which
        # carry the blow-up weights 3 and 21; zero gain lets both grow freely
        es = eigen_closed_form(OperatorParams(6.0, math.pi), HINGED, 6)
        coeffs = actuator_coefficients(es, [ModeCombination([1.0, 1.0])])
        ms = assemble_internal(es, coeffs, 2)
        gain = Gain(K=np.zeros((1, 2)), closed_loop_spectrum=np.array([-1.0, -2.0]))
        form = np.eye(6) + es.gram_d1 + es.gram_d2
        starts = np.zeros((2, 6))
        starts[0, 0] = 1e-3  # leaves the region
        starts[1, 1] = 1.0  # blows up
        free = SimConfig(J=6, dt=2e-3, T=0.5, blowup_threshold=1e150)
        probe = run_batch(free, ms, gain, starts)
        return ms, gain, form, starts, free, probe

    @staticmethod
    def region(p1):
        P = np.diag([p1, 1e-12])
        return Certificate(
            P=P, D=np.eye(1), C=np.zeros((1, 2)), alpha=0.0,
            beta_min=1e-12, beta_max=p1, ell=float("inf"),
        )

    def test_region_exit_and_blowup_in_one_block(self, two_modes):
        ms, gain, form, starts, free, probe = two_modes
        # all in the block of samples 64..127: row 0 leaves the region at a
        # and would blow up at a + 10, row 1 blows up at b
        a, b = 100, 70
        y1 = probe[0].states[:, 0]
        cert = self.region(1.0 / (y1[a - 1] * y1[a]))
        threshold = crossing_threshold(probe[0], form, a + 10)
        config = replace(free, blowup_threshold=threshold)
        # the flow is linear: scale row 1 so that its norm crosses at b
        q1 = quad_form(probe[1].states, form)
        starts = starts.copy()
        starts[1] *= threshold / (q1[b - 1] * q1[b]) ** 0.25
        trajs = self.check(config, ms, gain, starts, cert=cert, stop_on_region_exit=True)
        assert [t.exit_reason for t in trajs] == [EXIT_LEFT_REGION, EXIT_BLOWUP]
        assert [t.times.size for t in trajs] == [a + 1, b + 1]

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_region_exit_and_blowup_at_one_sample(self, two_modes, nonlinear):
        ms, gain, form, starts, free, probe = two_modes
        a = 90
        y1 = probe[0].states[:, 0]
        cert = self.region(1.0 / (y1[a - 1] * y1[a]))
        config = replace(free, blowup_threshold=crossing_threshold(probe[0], form, a))
        if nonlinear:  # forcing ~1e-9 of the drive: same crossing sample, now dropped
            config = replace(config, nu=1e-6)
        (traj,) = self.check(config, ms, gain, starts[:1], cert=cert, stop_on_region_exit=True)
        if nonlinear:
            assert (traj.exit_reason, traj.times.size) == (EXIT_BLOWUP, a)
        else:
            assert (traj.exit_reason, traj.times.size) == (EXIT_LEFT_REGION, a + 1)

    def test_boundary_batch(self, boundary_ms):
        ms = boundary_ms
        gain = design_gain(ms, poles=[-(i + 1.0) for i in range(ms.n + 1)])
        starts = np.zeros((3, 8))
        starts[0] = 0.01 * 0.5 ** np.arange(8)
        starts[1, 0] = 0.2  # saturates and escapes
        starts[2, 0] = 0.5
        config = SimConfig(J=8, dt=5e-4, T=1.0)
        trajs = self.check(config, ms, gain, starts, level=SaturationLevel(5.0))
        assert [t.exit_reason for t in trajs] == [EXIT_HORIZON, EXIT_BLOWUP, EXIT_BLOWUP]
        assert trajs[1].times.size != trajs[2].times.size


class TestDiscardedOverflow:
    """Samples stepped past an exit may overflow; no warning escapes the loop."""

    def test_linear_steps_past_crossing_overflow_quietly(self, hinged_system, scalar_gain):
        level = SaturationLevel(1.0)
        start = np.zeros((1, 12))
        start[0, 0] = 2.0
        dt = 20.0  # e^20 growth per step: crosses at sample 1, inf by sample ~35
        config = SimConfig(J=12, dt=dt, T=63 * dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (traj,) = run_batch(config, hinged_system, scalar_gain, start, level=level)
        assert (traj.exit_reason, traj.times.size) == (EXIT_BLOWUP, 2)
        assert np.all(np.isfinite(traj.states))
        # the rest of the block does overflow
        plan = step_plan(hinged_system, scalar_gain, level, dt)
        y = traj.states[-1:]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(62):
                y = plan.step(y)
        assert not np.all(np.isfinite(y))

    def test_convective_blowup_past_cube_overflow(self, hinged_system):
        # delta only, with a threshold whose states pass the range where y^3
        # overflows: the switched-off cubic term must not turn them into NaN
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        start = np.zeros((1, 12))
        start[0, 0] = 1e60
        config = SimConfig(J=12, dt=1e-3, T=0.1, delta=1.0, blowup_threshold=1e150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (traj,) = run_batch(config, ms, gain, start)
        assert traj.exit_reason == EXIT_BLOWUP
        assert np.all(np.isfinite(traj.states))
        assert np.abs(traj.states).max() > 1e103

    def test_cubic_blowup_overflows_quietly(self, hinged_system):
        ms = hinged_system
        level = SaturationLevel(1.0)
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, level)
        consts = select_h2_constants(cert, ms, gain, ms.es)
        start = np.zeros((1, 12))
        start[0, 0] = 40.0
        config = SimConfig(J=12, dt=1e-3, T=0.1, delta=1.0, nu=1.0, blowup_threshold=1e5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (traj,) = run_batch(config, ms, gain, start, cert, consts, level)
        assert traj.exit_reason == EXIT_BLOWUP
        assert traj.times.size < 64
        for name in ("states", "control", "l2", "h1", "h2", "v1", "v2"):
            assert np.all(np.isfinite(getattr(traj, name)))
        assert math.isfinite(traj.nl_ratio_max)
        plan = step_plan(ms, gain, level, config.dt)
        y = traj.states[-1:]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(63 - traj.times.size):
                y = plan.step(y, nonlinear_forcing(ms.es, y, config.delta, config.nu))
        assert not np.all(np.isfinite(y))


class TestMonitors:
    def test_v2_zero_state(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        consts = select_h2_constants(cert, ms, gain, ms.es)
        reading = monitor_v2(np.zeros(12), cert, consts, ms.es)
        assert reading.value == 0.0
        assert reading.sandwich_lower == 0.0

    def test_v2_single_stable_mode(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        consts = select_h2_constants(cert, ms, gain, ms.es)
        state = np.zeros(12)
        state[1] = 1.0  # sigma = -8, z = 0
        reading = monitor_v2(state, cert, consts, ms.es)
        assert reading.value == pytest.approx(8.0)

    def test_sandwich_on_random_states(self, hinged_system):
        ms = hinged_system
        es = ms.es
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        consts = select_h2_constants(cert, ms, gain, es)
        rng = np.random.default_rng(31)
        for _ in range(1000):
            state = rng.normal(size=12) * rng.uniform(0.01, 2.0)
            reading = monitor_v2(state, cert, consts, es)
            assert reading.value >= reading.sandwich_lower * (1.0 - 1e-12) - 1e-12
            h2_full = quad_form(state, np.eye(12) + es.gram_d1 + es.gram_d2)
            assert reading.value <= consts.C4 * h2_full * (1.0 + 1e-12)

    def test_tail_duhamel_bound(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        eta = unstable_count(ms.es).eta
        y0 = np.zeros(12)
        y0[0] = 0.9 / math.sqrt(cert.P[0, 0])
        y0[1:6] = 0.02
        config = SimConfig(J=12, dt=2e-4, T=2.0, initial=tuple(y0.tolist()))
        traj = run(config, ms, gain, cert, level=SaturationLevel(1.0))
        fit = fit_decay_rate(traj, "l2", t_start=0.5)
        zfit = traj.znorm(1)
        a_hat = fit_decay_rate_from(traj.times, zfit)
        z_envelope = float(np.max(zfit * np.exp(a_hat * traj.times)))
        norm_k = float(np.abs(gain.K).max())
        b_full = np.vstack([ms.B, ms.b_tail])[:, 0]
        lag = math.exp(a_hat * config.dt)
        for j in (2, 5, 9):
            sigma_j = ms.es.values[j]
            assert sigma_j < -eta
            bound = np.abs(y0[j]) * np.exp(-eta * traj.times) + abs(
                b_full[j]
            ) * norm_k * z_envelope * lag * (
                np.exp(-a_hat * traj.times) - np.exp(-eta * traj.times)
            ) / (eta - a_hat)
            assert np.all(np.abs(traj.states[:, j]) <= bound * (1.0 + 1e-6) + 1e-12)


def fit_decay_rate_from(times, values):
    slope, _ = np.polyfit(times, np.log(np.maximum(values, 1e-300)), 1)
    return -float(slope)


class TestFitDecay:
    def test_pure_mode_rate(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 4)
        ms = assemble_internal(es, np.zeros((4, 1)), 1, shape_norms_sq=[0.0])
        gain = Gain(K=np.zeros((1, 1)), closed_loop_spectrum=np.array([-1.0]))
        y0 = (0.0, 1.0, 0.0, 0.0)  # sigma = -8
        config = SimConfig(J=4, dt=1e-3, T=1.0, initial=y0)
        traj = run(config, ms, gain)
        fit = fit_decay_rate(traj, "l2")
        assert fit.rate == pytest.approx(8.0, rel=1e-9)
        assert fit.r_squared > 1.0 - 1e-12

    def test_scalar_loop_rate_window(self, hinged_system):
        # discrete hold shifts the rate to exactly 2 + 3 dt for this loop
        gain = design_gain(hinged_system, poles=[-2.0])
        config = SimConfig(J=12, dt=1e-4, T=2.0, initial=("first_mode", 0.1))
        traj = run(config, hinged_system, gain)
        fit = fit_decay_rate(traj, "l2", t_start=0.2)
        assert 1.9 <= fit.rate <= 2.0 + 5.0 * config.dt
        assert fit.rate == pytest.approx(2.0 + 3.0 * config.dt, abs=1e-6)

    def test_constant_channel_rate_zero(self, hinged_system, scalar_gain):
        traj = Trajectory(
            times=np.linspace(0, 1, 11),
            states=np.zeros((11, 1)),
            control=np.zeros((11, 1)),
            sat_active=np.zeros((11, 1), dtype=bool),
            l2=np.ones(11),
            h1=np.ones(11),
            h2=np.ones(11),
            v1=np.ones(11),
            v2=np.ones(11),
            exit_reason=EXIT_HORIZON,
            left_region=False,
        )
        fit = fit_decay_rate(traj, "l2")
        assert fit.rate == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_rejected(self, hinged_system, scalar_gain):
        config = SimConfig(J=12, dt=1e-3, T=0.1, initial=(0.0,) * 12)
        traj = run(config, hinged_system, scalar_gain)
        with pytest.raises(NonPositiveChannel):
            fit_decay_rate(traj, "l2")


def scalar_edge_config(amplitude):
    # z' = z + sat(-3 z) with ell = 1 has its basin edge exactly at z = 1
    return SimConfig(J=12, dt=1e-3, T=4.0, initial=("first_mode", amplitude))


class TestEstimateBasin:
    def test_scalar_saturated_edge(self, hinged_system, scalar_gain):
        edge, bracketed = estimate_basin(
            scalar_edge_config,
            hinged_system,
            scalar_gain,
            None,
            None,
            low=0.2,
            high=2.0,
            level=SaturationLevel(1.0),
        )
        assert bracketed
        assert edge == pytest.approx(1.0, abs=0.05)

    def test_edge_outside_bracket_reported(self, hinged_system, scalar_gain):
        edge, bracketed = estimate_basin(
            scalar_edge_config,
            hinged_system,
            scalar_gain,
            None,
            None,
            low=0.2,
            high=0.5,
            level=SaturationLevel(1.0),
        )
        assert bracketed is False
        assert edge == 0.5

    def test_no_bracket_rejected(self, hinged_system, scalar_gain):
        with pytest.raises(ValueError):
            estimate_basin(
                scalar_edge_config,
                hinged_system,
                scalar_gain,
                None,
                None,
                low=1.5,
                high=2.0,
                level=SaturationLevel(1.0),
            )


class TestResolveInitial:
    def test_modal_passthrough(self, hinged_system):
        config = SimConfig(J=12, dt=1e-3, T=1.0, initial=tuple(float(i) for i in range(12)))
        y0 = resolve_initial(config, hinged_system.es)
        assert y0[3] == 3.0

    def test_presets(self, hinged_system):
        for preset in ("first_mode", "smooth", "bump"):
            config = SimConfig(J=12, dt=1e-3, T=1.0, initial=(preset, 0.05))
            y0 = resolve_initial(config, hinged_system.es)
            assert y0.shape == (12,)
            assert np.all(np.isfinite(y0))

    def test_bump_matches_fine_projection(self):
        systems = [eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, J) for J in (1, 4, 8, 24)]
        systems += [
            eigen_closed_form(OperatorParams(1.0, 2.0), NEUMANN, 8),
            eigen_clamped(OperatorParams(45.0, 1.0), 8),
        ]
        for es in systems:
            L = es.params.length
            fine = composite_gauss_legendre(L, 400, 16)
            bump = np.exp(-(((fine.nodes - L / 2) / (L / 10)) ** 2))
            coeffs = np.array([fine.weights @ (mode(fine.nodes) * bump) for mode in es.modes])
            config = SimConfig(J=es.count, dt=1e-3, T=1.0, initial=("bump", 1.0))
            y0 = resolve_initial(config, es)
            np.testing.assert_allclose(y0, coeffs / np.linalg.norm(coeffs), rtol=0.0, atol=1e-14)

    def test_unknown_preset(self, hinged_system):
        config = SimConfig(J=12, dt=1e-3, T=1.0, initial=("wavelet", 0.05))
        with pytest.raises(ValueError):
            resolve_initial(config, hinged_system.es)

    def test_wrong_length(self, hinged_system):
        config = SimConfig(J=12, dt=1e-3, T=1.0, initial=(1.0, 2.0))
        with pytest.raises(ValueError):
            resolve_initial(config, hinged_system.es)


class TestSimConfig:
    @pytest.mark.parametrize("threshold", [1e300, math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_blowup_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="blow-up threshold"):
            SimConfig(J=4, dt=1e-3, T=1.0, blowup_threshold=threshold)

    def test_blowup_threshold_with_finite_square_accepted(self):
        config = SimConfig(J=4, dt=1e-3, T=1.0, blowup_threshold=1e150)
        assert math.isfinite(config.blowup_threshold**2)
