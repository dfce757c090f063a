import math
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
from satstab.synthesis import Gain, build_certificate, design_gain, select_h2_constants

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
        # brute-force projection on a 4x finer rule, from the analytic modes
        es = hinged_system.es
        panels = es.quadrature.nodes.size // 16
        fine = composite_gauss_legendre(es.params.length, 4 * panels, 16)
        x, w = fine.nodes, fine.weights
        values = [[mode(x, d) for d in range(3)] for mode in es.modes]
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = rng.normal(size=12) * 0.3
            y = sum(c * v[0] for c, v in zip(state, values))
            yx = sum(c * v[1] for c, v in zip(state, values))
            oracle = np.array(
                [-float(np.sum(w * y * yx * v[0])) + float(np.sum(w * y**3 * v[2])) for v in values]
            )
            f = nonlinear_forcing(es, state, delta=1.0, nu=1.0)
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

    def test_unknown_preset(self, hinged_system):
        config = SimConfig(J=12, dt=1e-3, T=1.0, initial=("wavelet", 0.05))
        with pytest.raises(ValueError):
            resolve_initial(config, hinged_system.es)

    def test_wrong_length(self, hinged_system):
        config = SimConfig(J=12, dt=1e-3, T=1.0, initial=(1.0, 2.0))
        with pytest.raises(ValueError):
            resolve_initial(config, hinged_system.es)
