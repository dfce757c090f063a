import inspect
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from satstab import simulate
from satstab.errors import BlowUp, NonPositiveChannel
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
    SimConfig,
    Trajectory,
    _monitored,
    _stepping_pass,
    fit_decay_rate,
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
    quadrature_for_modes,
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
    ms = assemble_internal(es, [ModeCombination([1.0])], 1)
    return ms


@pytest.fixture(scope="module")
def scalar_gain():
    return Gain(K=np.array([[-3.0]]), closed_loop_spectrum=np.array([-2.0]))


class TestLinearStepper:
    def test_pure_decay_exact(self, hinged_system):
        es = hinged_system.es
        gain = Gain(K=np.array([[0.0]]), closed_loop_spectrum=np.array([1.0]))
        zero_b = assemble_internal(es, [ModeCombination([0.0])], 1)
        state = np.zeros(12)
        state[1] = 1.0  # sigma_2 = -8
        out = step_linear_closed_loop(state, zero_b, gain, UNSATURATED, 0.1)
        assert out[1] == pytest.approx(math.exp(-0.8), rel=1e-14)

    def test_integrator_limit(self):
        # sigma = 0 mode: y+ = y + c dt
        es = eigen_closed_form(OperatorParams((math.pi / 2.0) ** 2, 2.0), HINGED, 3)
        assert abs(es.values[0]) < 1e-13
        ms = assemble_internal(es, [ModeCombination([1.0])], 1)
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

    def test_flux_cancellation_random_states(self, walls):
        # f . y = -delta <y y_x, y> = -(delta/3) (y(L)^3 - y(0)^3): zero where
        # the modes vanish at both walls (hinged, clamped), the wall flux on
        # Neumann walls, whose forcing carries a wall term of its own
        delta = 0.7
        rng = np.random.default_rng(8)
        for es, scale in walls:
            ends = es.modes(np.array([0.0, es.params.length]))
            for _ in range(20):
                state = rng.normal(size=es.count) * scale
                f = nonlinear_forcing(es, state, delta=delta, nu=0.0)
                at_0, at_L = state @ ends
                flux = -delta / 3.0 * (at_L**3 - at_0**3)
                assert abs(f @ state - flux) < 1e-13 * max(1.0, np.sum(state**2))

    def test_dispersive_term_dissipative(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), NEUMANN, 10)
        rng = np.random.default_rng(21)
        for _ in range(20):
            state = rng.normal(size=10) * 0.4
            f = nonlinear_forcing(es, state, delta=0.0, nu=1.0)
            # f_j = +<d_xx(y^3), e_j>, so f . y = <d_xx(y^3), y> <= 0
            assert f @ state <= 1e-12

    def test_nonlinearity_off_matches_linear(self, hinged_system, scalar_gain):
        config = SimConfig(dt=1e-3, T=0.0, delta=0.0, nu=0.0)
        state = 0.05 * np.ones(12)
        a = step_linear_closed_loop(state, hinged_system, scalar_gain, UNSATURATED, 1e-3)
        b = step_nonlinear_closed_loop(state, hinged_system, scalar_gain, UNSATURATED, config)
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
            values = list(zip(*(es.modes(x, d) for d in range(3))))
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
    return assemble_boundary(es, n)


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
        config = SimConfig(dt=1e-3, T=0.0, initial=("first_mode", 0.2))
        gain = design_gain(boundary_ms, poles=[-1.0 * (i + 1) for i in range(boundary_ms.n + 1)])
        traj = run(config, boundary_ms, gain)
        assert traj.states[0, 0] == 0.0
        assert traj.states[0, 1] == 0.2

    def test_nonlinear_plan_rejected(self, boundary_ms):
        gain = Gain(K=np.zeros((1, boundary_ms.n + 1)), closed_loop_spectrum=np.array([-1.0]))
        config = SimConfig(dt=1e-3, T=0.1, nu=1.0)
        with pytest.raises(ValueError, match="linear dynamics only"):
            step_nonlinear_closed_loop(np.zeros(9), boundary_ms, gain, UNSATURATED, config)
        with pytest.raises(ValueError, match="linear dynamics only"):
            run(config, boundary_ms, gain)

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
        config = SimConfig(dt=5e-4, T=2.0, initial=("smooth", 0.1))
        gain = design_gain(ms, poles=[-(i + 1.0) for i in range(ms.n + 1)])
        traj = run(config, ms, gain, level=SaturationLevel(5.0))
        d_norm = math.sqrt(ms.lifting.d_norm_sq())
        w_l2 = traj.channel("w_l2")
        u_abs = traj.channel("u")
        assert np.all(traj.l2 <= w_l2 + u_abs * d_norm + 1e-12)


SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-200, -1e-200]


def special_draw(rng, shape):
    """Normal draws over 620 decades, a fifth of them replaced by SPECIALS."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    mask = rng.random(shape) < 0.2
    x[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return x


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.fixture(scope="module")
def walls(hinged_system):
    """(eigen system, state scale) for the hinged, Neumann and clamped families."""
    return (
        (hinged_system.es, 0.3),
        (eigen_closed_form(OperatorParams(1.0, 2.0), NEUMANN, 8), 0.3),
        (eigen_clamped(OperatorParams(45.0, 1.0), 8), 0.1),
    )


def rowwise(rows, matrix, out=None):
    """rows @ matrix by the product `simulate._product` picks for them (one vector or rows)."""
    return simulate._product(1 if rows.ndim == 1 else len(rows), matrix)(rows, matrix, out=out)


def check_rowwise_into_slots(rows, matrix, want):
    """`rowwise` of several rows written into slots of a time-major block gives `want`'s bits.

    One slot is a sample of the block with a padded row stride, the other also
    takes every other column.
    """
    block = np.full((3, len(rows), 2 * matrix.shape[1]), np.nan)
    for slot in (block[1, :, : matrix.shape[1]], block[2, :, ::2]):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            into = rowwise(rows, matrix, slot)
        assert np.shares_memory(into, slot)
        assert_same_bits(slot, want)


def two_input_hinged():
    # lam = 6: sigma = 5 and 8 on the two unstable modes, two windows
    es = eigen_closed_form(OperatorParams(6.0, math.pi), HINGED, 10)
    return assemble_internal(es, [Indicator(0.3, 1.2), Indicator(1.5, 2.8)], 2)


def grid_tables(es):
    """The forcing's tables from the modes themselves, independent of `simulate`.

    The field table [e | e'] takes coefficients to y and y_x at the
    quadrature nodes x; the projection [-w e; w e'']^T, with the quadrature
    weights w, takes [y y_x | y^3] to <-y y_x, e_j> and <y^3, e_j''>.  These
    tables, `oracle_step` and `forcing_reach` stay on this y y_x form, which
    `simulate` does not use (it projects y^2 against e' by parts), so they
    check its forcing by an independent formula.
    """
    x, w = es.quadrature.nodes, es.quadrature.weights
    value, slope, curve = (es.modes(x, d) for d in (0, 1, 2))
    return np.hstack([value, slope]), np.hstack([-w * value, w * curve]).T


def oracle_step(ms, K, ell, dt, y, delta=0.0, nu=0.0):
    """One exponential-Euler step of one row in Python floats, and its error scale.

    y_j <- e^(sigma_j dt) y_j + dt phi1(sigma_j dt) (a_j y_0 + sum_i B_ji
    sat((K y_head)_i) + N_j); a boundary loop's integrator is row 0 with
    sigma = 0, a = 0 and input 1.  N_j = sum_n (delta y y_x F_conv + nu y^3
    F_cub)[n, j], with y and y_x the field on the grid, is the forcing
    `nonlinear_forcing` gives; the tables come from `grid_tables`.  The scale
    bounds the sum of the terms' magnitudes, the command's as if unclamped
    and each grid value's as the sum of its terms' magnitudes, so rounding
    stays under a few eps times it.
    """
    B = np.vstack([ms.B, ms.b_tail])
    if ms.mode == "boundary":
        sigma = [0.0] + list(ms.es.values)
        a = list(ms.A[:, 0]) + list(ms.a_tail)
    else:
        sigma, a = list(ms.es.values), [0.0] * ms.es.count
    head = K.shape[1]
    terms = [[float(K[i, k]) * float(y[k]) for k in range(head)] for i in range(K.shape[0])]
    u = [min(max(math.fsum(t), -ell), ell) for t in terms]
    reach = [sum(abs(v) for v in t) for t in terms]
    forcing = [([], [])] * len(y)  # per mode, the forcing's terms and their magnitudes
    if delta or nu:
        es = ms.es
        nodes = es.quadrature.nodes.size
        table, project = grid_tables(es)
        grid = [[float(table[k, c]) * float(y[k]) for k in range(len(y))] for c in range(2 * nodes)]
        value, size = [math.fsum(t) for t in grid], [sum(abs(v) for v in t) for t in grid]
        forcing = [
            (
                [delta * value[n] * value[nodes + n] * project[n, j] for n in range(nodes)]
                + [nu * value[n] ** 3 * project[nodes + n, j] for n in range(nodes)],
                [abs(delta * size[n] * size[nodes + n] * project[n, j]) for n in range(nodes)]
                + [abs(nu * size[n] ** 3 * project[nodes + n, j]) for n in range(nodes)],
            )
            for j in range(len(y))
        ]
    out, scale = [], []
    for j in range(len(y)):
        h = sigma[j] * dt
        growth = math.exp(h)
        hold = dt * (math.expm1(h) / h if h else 1.0)
        parts = [a[j] * y[0]] + forcing[j][0] + [float(B[j, i]) * u[i] for i in range(len(u))]
        out.append(growth * y[j] + hold * math.fsum(parts))
        bound = abs(a[j] * y[0]) + sum(forcing[j][1])
        bound += sum(abs(B[j, i]) * r for i, r in enumerate(reach))
        scale.append(abs(growth * y[j]) + hold * bound)
    return np.array(out), np.array(scale)


# a boundary loop has no nonlinear plan
STEPPED = [
    (loop, nonlinear)
    for loop in ("internal_m1", "internal_m2", "boundary", "already_stable")
    for nonlinear in (False, True)
    if not (nonlinear and loop == "boundary")
]


class TestStepper:
    """`StepPlan.step` against a per-row Python-float evaluation of the step formula."""

    @pytest.fixture(scope="class")
    def loop(self, request, boundary_ms):
        if request.param == "internal_m1":
            es = eigen_closed_form(OperatorParams(6.0, math.pi), HINGED, 10)
            ms = assemble_internal(es, [Indicator(0.3, 2.8)], 2)
        elif request.param == "internal_m2":
            ms = two_input_hinged()
        elif request.param == "boundary":
            ms = boundary_ms
        else:  # lam = 0.5, L = 1: no unstable mode, so K has no columns
            es = eigen_closed_form(OperatorParams(0.5, 1.0), HINGED, 6)
            assert unstable_count(es).n == 0
            ms = assemble_internal(es, [Indicator(0.0, 0.5)], 0)
        head = ms.n + (ms.mode == "boundary")
        K = np.random.default_rng(7).normal(size=(ms.B.shape[1], head))
        return ms, Gain(K=K, closed_loop_spectrum=np.full(head, -1.0))

    @pytest.mark.parametrize("ell", [1.0, math.inf])
    @pytest.mark.parametrize("loop, nonlinear", STEPPED, indirect=["loop"])
    def test_step_matches_python_floats(self, loop, nonlinear, ell):
        self.check_against_python_floats(loop, ell, nonlinear, into=False)

    @pytest.mark.parametrize("ell", [1.0, math.inf])
    @pytest.mark.parametrize("loop, nonlinear", STEPPED, indirect=["loop"])
    def test_step_into_out_matches_python_floats(self, loop, nonlinear, ell):
        self.check_against_python_floats(loop, ell, nonlinear, into=True)

    @staticmethod
    def check_against_python_floats(loop, ell, nonlinear, into):
        ms, gain = loop
        rng = np.random.default_rng(11)
        dt = 1e-2
        terms = (1.0, 0.5) if nonlinear else ()  # delta and nu of a nonlinear plan
        plan = step_plan(ms, gain, SaturationLevel(ell), dt, *terms)
        dim = len(plan.growth)
        rows = rng.normal(size=(6, dim)) * np.array([1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])[:, None]
        command = np.abs(rows[:, : gain.K.shape[1]] @ gain.K.T)
        if gain.K.shape[1] and ell == 1.0:  # both clamped and free rows
            assert np.any(command > ell) and np.any(command < ell)
        # with `out`, the batch lands in an array of its own and each row in
        # a strided slot of a block, as a stepping pass steps a single row
        out = np.empty_like(rows) if into else None
        got = plan.step(rows, out)
        assert (got is out) == into
        eps = np.finfo(float).eps
        for i, row in enumerate(rows):
            want, scale = oracle_step(ms, gain.K, ell, dt, row, *terms)
            assert np.all(np.abs(got[i] - want) <= 32 * eps * scale), i
            # alone or in a batch, a row gets the same bits
            slot = np.full((1, 3, dim), np.nan)[:, 1] if into else None
            alone = plan.step(rows[i : i + 1], slot)
            assert (alone is slot) == into
            np.testing.assert_array_equal(alone[0], got[i])

    @pytest.mark.parametrize("loop, nonlinear", STEPPED, indirect=["loop"])
    def test_step_into_a_slot_is_the_plain_step(self, loop, nonlinear):
        # special values through the kernel, alone, in a batch and into
        # slots of a block, one of them taking every other column
        ms, gain = loop
        plan = step_plan(ms, gain, SaturationLevel(1.0), 1e-2, *((1.0, 0.5) if nonlinear else ()))
        dim = len(plan.growth)
        rows = special_draw(np.random.default_rng(dim), (40, dim))
        block = np.full((2, 40, 2 * dim), np.nan)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            batch = plan.step(rows)
            for i in range(40):
                alone = plan.step(rows[i : i + 1])
                assert_same_bits(alone[0], batch[i])
                for slot in (block[:1, i, :dim], block[1:, i, ::2]):
                    assert plan.step(rows[i : i + 1], out=slot) is slot
                    assert_same_bits(slot[0], batch[i])

    @pytest.mark.parametrize(
        "delta, nu", [(1.0, 1.0), (0.5, 1.0), (1.0, 0.25), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
    )
    def test_forcing_into_a_slot_is_the_batched_row(self, walls, delta, nu):
        # the non-unit coefficients keep their multiply; a unit one skips it
        for es, scale in walls:
            rows = np.random.default_rng(es.count).normal(size=(5, es.count)) * scale
            rows[0] = -0.0  # signed zeros through both products
            rows[1] *= 1e120  # the cube overflows, as past a blow-up
            with np.errstate(over="ignore", invalid="ignore"):
                batched = nonlinear_forcing(es, rows, delta, nu)
                forcing = np.full((1, 4, es.count), np.nan)
                for i, row in enumerate(rows):
                    slot = forcing[:, 2]
                    assert nonlinear_forcing(es, rows[i : i + 1], delta, nu, slot) is slot
                    assert_same_bits(forcing[0, 2], batched[i])
                    assert_same_bits(nonlinear_forcing(es, row, delta, nu), batched[i])
            if not (delta or nu):
                assert_same_bits(batched, np.zeros_like(rows))
            # each coefficient scales its own term
            convective = nonlinear_forcing(es, rows[2:], 1.0, 0.0)
            dispersive = nonlinear_forcing(es, rows[2:], 0.0, 1.0)
            np.testing.assert_allclose(
                batched[2:], delta * convective + nu * dispersive, rtol=1e-13, atol=1e-13
            )

    @pytest.mark.parametrize("rows", [1, 17, 64, 1000])
    @pytest.mark.parametrize("inner", [0, 1])
    def test_short_rowwise_is_the_stacked_product(self, rows, inner):
        # the plain product `_product` picks for inner dimension <= 1 must give
        # the stacked product's bits, signed zeros of underflowed products too
        rng = np.random.default_rng(rows)
        states, matrix = special_draw(rng, (rows, 3)), special_draw(rng, (inner, 33))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got = rowwise(states[:, :inner], matrix)
            want = np.matmul(states[:, None, :inner], matrix)[:, 0, :]
        assert_same_bits(got, want)
        check_rowwise_into_slots(states[:, :inner], matrix, want)

    @pytest.mark.parametrize("vector", [False, True], ids=["2-D", "1-D"])
    @pytest.mark.parametrize("inner", [0, 1, 2, 3, 24, 33, 98])
    def test_one_row_rowwise_is_the_stacked_product(self, inner, vector):
        # one row takes `dot`, which must give the stacked product's bits, in
        # a new array and in `out`; with an inner dimension of one it does
        # not (the sign of some zeros differs), so `_product` keeps `@` there
        rng = np.random.default_rng(inner)
        if not vector:  # several rows beside it take the stacked product, into `out` too
            states, matrix = special_draw(rng, (17, inner)), special_draw(rng, (inner, 33))
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                want = np.matmul(states[:, None, :], matrix)[:, 0, :]
            check_rowwise_into_slots(states, matrix, want)
        for _ in range(200):
            state, matrix = special_draw(rng, (1, inner)), special_draw(rng, (inner, 33))
            rows = state[0] if vector else state
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                want = np.matmul(state[:, None, :], matrix)[:, 0, :]
                got = rowwise(rows, matrix)
                slot = np.full((1, 3, 33), np.nan)[:, 1]
                into = rowwise(rows, matrix, slot[0] if vector else slot)
            assert got.shape == rows.shape[:-1] + (33,)
            assert_same_bits(np.atleast_2d(got), want)
            assert np.shares_memory(into, slot)
            assert_same_bits(slot, want)

    def test_two_input_rows_end_in_different_blocks(self):
        ms = two_input_hinged()
        gain = Gain(
            K=np.array([[-3.0, 1.0], [0.5, -2.0]]), closed_loop_spectrum=np.array([-1.0, -2.0])
        )
        level = SaturationLevel(0.5)
        # the clamped input cannot hold the unstable modes: each row grows, and
        # the smaller it starts the later it crosses the threshold
        starts = np.zeros((4, 10))
        starts[:, :3] = np.array([[1.0], [0.05], [2e-3], [0.0]]) * [1.0, 0.5, -0.2]
        config = SimConfig(dt=1e-2, T=2.5, blowup_threshold=30.0)
        batch = run_batch(config, ms, gain, starts, level=level)
        assert [t.exit_reason for t in batch] == [EXIT_BLOWUP] * 3 + [EXIT_HORIZON]
        assert len({(t.times.size - 1) // 64 for t in batch[:3]}) == 3
        assert_identical(batch, per_step_reference(config, ms, gain, starts, level=level))
        serial = [
            run(replace(config, initial=tuple(y0.tolist())), ms, gain, level=level)
            for y0 in starts
        ]
        assert_identical(batch, serial)


def kernel_steps(plan, rows, steps):
    """`steps` steps of one `plan.stepper` kernel as a stepping pass takes them.

    Each step writes into the next slot of a time-major block, which is
    returned.
    """
    step = plan.stepper(len(rows))
    block = np.full((steps + 1,) + rows.shape, np.nan)
    block[0] = rows
    for k in range(steps):
        slot = block[k + 1]
        assert step(block[k], slot) is slot
    return block


def forcing_reach(es, y, delta, nu):
    """Per mode, the sum of the magnitudes of the terms of `nonlinear_forcing(es, y, delta, nu)`."""
    nodes = es.quadrature.nodes.size
    field_table, forcing_table = grid_tables(es)
    size = np.abs(y) @ np.abs(field_table)  # each grid value's terms, summed in magnitude
    y, y_x = size[:, :nodes], size[:, nodes:]
    table = np.abs(forcing_table)
    return (abs(delta) * y * y_x) @ table[:nodes] + (abs(nu) * y**3) @ table[nodes:]


class TestStepKernel:
    """A pass's step kernel, step by step, against one-shot steps, bit for bit."""

    @staticmethod
    def check(plan, rows):
        """Kernel steps of `rows`, as a batch and one row at a time, against one-shot steps."""
        with np.errstate(over="ignore", invalid="ignore"):
            block = kernel_steps(plan, rows, 12)
            for k in range(12):
                assert_same_bits(block[k + 1], plan.step(block[k]))
            for i in range(len(rows)):  # alone or in a batch, a row gets the same bits
                assert_same_bits(kernel_steps(plan, rows[i : i + 1], 12)[:, 0], block[:, i])
        return block

    @pytest.mark.parametrize("delta, nu", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.7)])
    @pytest.mark.parametrize("inputs", [1, 2])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_nonlinear_kernel_is_forcing_then_step(self, walls, delta, nu, inputs, batch):
        # the kernel is the one-shot nonlinear step, and that is the linear
        # step plus the held forcing up to rounding; one input and one head
        # mode take the plain product, two take `dot` or `vecmat`
        dt, eps = 1e-3, np.finfo(float).eps
        for es, scale in walls:
            L = es.params.length
            windows = [Indicator(0.1 * L, 0.6 * L), Indicator(0.5 * L, 0.9 * L)][:inputs]
            ms = assemble_internal(es, windows, inputs)
            rng = np.random.default_rng(es.count + inputs)
            gain = Gain(K=rng.normal(size=(inputs, inputs)), closed_loop_spectrum=-np.ones(inputs))
            level = SaturationLevel(0.05)  # clamps some commands and not others
            linear = step_plan(ms, gain, level, dt)
            plan = step_plan(ms, gain, level, dt, delta, nu)
            rows = rng.normal(size=(batch, es.count)) * scale
            block = self.check(plan, rows)
            hold = dt * simulate._phi1(es.values * dt)
            for y, new in zip(block[:-1], block[1:]):
                stepped = linear.step(y)
                held = hold * nonlinear_forcing(es, y, delta, nu)
                bound = np.abs(new) + np.abs(stepped) + hold * forcing_reach(es, y, delta, nu)
                assert np.all(np.abs(new - stepped - held) <= 32 * eps * bound)
            assert not np.array_equal(block[-1], kernel_steps(linear, rows, 12)[-1])

    @pytest.mark.parametrize("delta, nu", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    def test_nonlinear_read_holds_the_field_alone(self, walls, delta, nu):
        # the read takes y on the grid, and with delta on y at Neumann walls,
        # but no derivative of it; the drive holds one row per y^2 and y^3 column
        gain = Gain(K=np.array([[-2.0]]), closed_loop_spectrum=np.array([-1.0]))
        for es, _ in walls:
            L = es.params.length
            ms = assemble_internal(es, [Indicator(0.1 * L, 0.6 * L)], 1)
            plan = step_plan(ms, gain, UNSATURATED, 1e-3, delta, nu)
            m, nodes = plan.inputs, es.quadrature.nodes.size
            ends = 2 if delta and es.bc is NEUMANN else 0
            assert plan.read.shape == (es.count, m + nodes + ends)
            assert_same_bits(plan.read[:, m : m + nodes], es.basis)
            assert_same_bits(plan.read[:, m + nodes :], es.modes(np.array([0.0, L]))[:, 2 - ends :])
            assert plan.convective == (nodes + ends if delta else 0)
            assert plan.cubic == (nodes if nu else 0)
            assert plan.drive.shape == (plan.convective + plan.cubic + m, es.count)

    def test_kernel_takes_only_states_and_a_slot(self, hinged_system, scalar_gain):
        plan = step_plan(hinged_system, scalar_gain, UNSATURATED, 1e-3, 1.0, 1.0)
        assert list(inspect.signature(plan.stepper(1)).parameters) == ["states", "out"]

    @pytest.mark.parametrize("loop", ["internal", "boundary"])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_linear_kernel_is_the_one_shot_step(self, boundary_ms, loop, batch):
        ms = two_input_hinged() if loop == "internal" else boundary_ms
        head = ms.n + (ms.mode == "boundary")
        rng = np.random.default_rng(head)
        gain = Gain(K=rng.normal(size=(ms.B.shape[1], head)), closed_loop_spectrum=-np.ones(head))
        plan = step_plan(ms, gain, SaturationLevel(0.05), 1e-3)
        self.check(plan, rng.normal(size=(batch, len(plan.growth))))


class TestHeadMap:
    """`StepPlan.head_map` is the step of the head when no command is clamped."""

    @pytest.mark.parametrize("loop", ["internal", "boundary", "nonlinear"])
    def test_is_the_unclamped_step_of_the_head(self, boundary_ms, loop):
        ms = boundary_ms if loop == "boundary" else two_input_hinged()
        head = ms.dim
        rng = np.random.default_rng(head)
        gain = Gain(K=rng.normal(size=(ms.B.shape[1], head)), closed_loop_spectrum=-np.ones(head))
        terms = (1.0, 0.5) if loop == "nonlinear" else ()
        plan = step_plan(ms, gain, UNSATURATED, 1e-2, *terms)
        rows = np.zeros((6, len(plan.growth)))
        rows[:, :head] = rng.normal(size=(6, head))
        head_map = plan.head_map()
        assert head_map.shape == (head, head)
        if loop == "nonlinear":  # the forcing is no part of the map
            assert np.array_equal(head_map, step_plan(ms, gain, UNSATURATED, 1e-2).head_map())
            return
        stepped = plan.step(rows)
        np.testing.assert_allclose(stepped[:, :head], rows[:, :head] @ head_map.T, rtol=1e-13)
        # the head's step leaves a zero tail to the coupling and the input alone
        assert np.any(stepped[:, head:] != 0.0)


def recorded_commands(monkeypatch):
    """The commands, before their clamp, of every step the kernels take, in order.

    Each kernel's read product is wrapped to copy its command columns out
    after it writes them.
    """
    commands = []
    stepper, product = simulate.StepPlan.stepper, simulate._product

    def recording(plan, rows):
        def picked(rows, matrix):
            chosen = product(rows, matrix)
            if matrix is not plan.read:
                return chosen

            def read(states, matrix, out):
                chosen(states, matrix, out=out)
                commands.append(out[:, : plan.inputs].copy())

            return read

        monkeypatch.setattr(simulate, "_product", picked)
        try:
            return stepper(plan, rows)
        finally:
            monkeypatch.setattr(simulate, "_product", product)

    monkeypatch.setattr(simulate.StepPlan, "stepper", recording)
    return commands


class TestControlColumn:
    """`Trajectory.control` holds the command each step applied, before its clamp, bit for bit."""

    @pytest.mark.parametrize("loop", ["internal", "boundary", "nonlinear"])
    @pytest.mark.parametrize("head", [1, 2])
    def test_control_is_the_stepped_command(self, monkeypatch, loop, head):
        # at lam = 20 no mode is unstable: the head is the integrator alone, which
        # starts at rest, so every command is zero
        if loop == "boundary":
            lam = 45.0 if head == 2 else 20.0
            ms = assemble_boundary(eigen_clamped(OperatorParams(lam, 1.0), 8), head - 1)
        elif head == 1:
            ms = assemble_internal(eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 12),
                                   [Indicator(0.3, 2.8)], 1)
        else:
            ms = two_input_hinged()
        assert ms.dim == head
        rng = np.random.default_rng(head)
        gain = Gain(K=rng.normal(size=(ms.B.shape[1], head)), closed_loop_spectrum=-np.ones(head))
        starts = np.zeros((3, ms.es.count))
        starts[0] = rng.normal(size=ms.es.count) * 0.05
        starts[2] = -0.0  # a zero start, of both signs
        terms = {"delta": 1.0, "nu": 0.5} if loop == "nonlinear" else {}
        config = SimConfig(dt=1e-3, T=0.15, **terms)
        commands = recorded_commands(monkeypatch)
        batch = run_batch(config, ms, gain, starts, level=SaturationLevel(0.01))
        assert len(commands) == 150
        clamped = np.any(np.abs(np.array(commands)) > 0.01)
        assert clamped != (loop == "boundary" and head == 1)
        for i, traj in enumerate(batch):
            assert traj.times.size == 151
            assert_same_bits(traj.control[:-1], np.array(commands)[:, i])
        # no step reads the last sample: one more recorded step from it does
        plan = step_plan(ms, gain, SaturationLevel(0.01), config.dt, *terms.values())
        plan.stepper(3)(np.array([traj.states[-1] for traj in batch]))
        assert len(commands) == 151
        for i, traj in enumerate(batch):
            assert_same_bits(traj.control[-1], commands[-1][i])
        assert not (batch[1].control.any() or batch[2].control.any())


class TestForcingPeak:
    """nl_ratio_max is the peak of `nonlinear_forcing` of each stored state over its v2."""

    @pytest.mark.parametrize("loop", ["closed", "open"])
    @pytest.mark.parametrize("wall", ["hinged", "neumann", "clamped"])
    def test_ratio_is_the_peak_of_each_sample(self, hinged_system, wall, loop):
        # open, the unstable modes grow and with them the cubic forcing over
        # v2, so the largest ratio is the last sample's; closed, the convective
        # term takes the Neumann wall columns
        if wall == "hinged":
            ms = hinged_system
        else:
            es = (eigen_closed_form(OperatorParams(2.0, math.pi), NEUMANN, 12) if wall == "neumann"
                  else eigen_clamped(OperatorParams(45.0, 1.0), 8))
            L = es.params.length
            ms = assemble_internal(es, [Indicator(0.1 * L, 0.6 * L)], unstable_count(es).n)
        n = ms.dim
        level = SaturationLevel(1.0)
        gain = design_gain(ms, poles=[-4.0 - k for k in range(n)])
        cert = build_certificate(ms, gain, level)
        consts = select_h2_constants(cert, ms, gain)
        config = SimConfig(dt=1e-3, T=0.3, delta=1.0, nu=0.5, initial=("smooth", 0.2))
        if loop == "open":
            gain = Gain(K=np.zeros((1, n)), closed_loop_spectrum=np.ones(n))
            config = replace(config, delta=0.0, nu=1.0, initial=("first_mode", 0.05))
        traj = run(config, ms, gain, cert, consts, level)
        ratios = [
            np.max(np.abs(nonlinear_forcing(ms.es, y, config.delta, config.nu))) / v2
            for y, v2 in zip(traj.states, traj.v2)
            if v2 > 0.0
        ]
        assert len(ratios) == 301
        assert traj.nl_ratio_max == max(ratios)
        assert (ratios[-1] == max(ratios)) == (loop == "open")
        linear = run(replace(config, delta=0.0, nu=0.0), ms, gain, cert, consts, level)
        assert math.isnan(linear.nl_ratio_max)

    def test_long_call_is_its_rows_one_at_a_time(self, walls):
        # 6001 rows span several chunks and end in a partial one
        delta, nu = 0.3, 0.7
        for es, scale in walls:
            rows = np.random.default_rng(es.count).normal(size=(6001, es.count)) * scale
            rows[7] = -0.0
            batched = nonlinear_forcing(es, rows, delta, nu)
            for row, forcing in zip(rows, batched):
                assert_same_bits(nonlinear_forcing(es, row, delta, nu), forcing)


class TestRun:
    def test_horizon_exit_and_contraction(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        y0 = np.zeros(12)
        y0[0] = 0.9 / math.sqrt(cert.P[0, 0])
        y0[1] = 0.02
        config = SimConfig(dt=1e-3, T=3.0, initial=tuple(y0.tolist()))
        traj = run(config, ms, gain, cert, level=SaturationLevel(1.0))
        assert traj.exit_reason == EXIT_HORIZON
        assert traj.l2[-1] < traj.l2[0]
        assert not traj.left_region

    def test_saturated_escape_blows_up(self, hinged_system, scalar_gain):
        config = SimConfig(
            dt=1e-3, T=25.0, initial=(2.0,) + (0.0,) * 11, blowup_threshold=1e5
        )
        traj = run(config, hinged_system, scalar_gain, level=SaturationLevel(1.0))
        assert traj.exit_reason == EXIT_BLOWUP
        assert traj.times[-1] < 25.0

    def test_zero_horizon_single_sample(self, hinged_system, scalar_gain):
        config = SimConfig(dt=1e-3, T=0.0, initial=("first_mode", 0.1))
        traj = run(config, hinged_system, scalar_gain)
        assert traj.times.shape == (1,)
        assert traj.l2[0] == pytest.approx(0.1)

    def test_left_region_exit(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        # run with a much tighter clamp than certified: growth escapes the set
        edge = 0.98 / math.sqrt(cert.P[0, 0])
        config = SimConfig(dt=1e-3, T=10.0, initial=(edge,) + (0.0,) * 11)
        traj = run(config, ms, gain, cert, level=SaturationLevel(1e-4))
        # leaving the region is flagged afterwards; it does not end the run
        assert traj.left_region
        assert traj.v1[0] < 1.0 < traj.v1[-1]
        assert (traj.exit_reason, traj.times.size) == (EXIT_HORIZON, 10001)

    def test_unsaturated_equivalence(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        y0 = np.zeros(12)
        y0[0] = 0.05
        config = SimConfig(dt=1e-3, T=1.0, initial=tuple(y0.tolist()))
        a = run(config, ms, gain)
        b = run(config, ms, gain, level=SaturationLevel(10.0))
        assert not b.sat_active.any()
        np.testing.assert_allclose(a.states, b.states, atol=1e-14)

    def test_parseval_against_quadrature(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        config = SimConfig(dt=1e-2, T=0.5, initial=("smooth", 0.2))
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
        ms = assemble_internal(es, [ModeCombination([0.0])], 1)
        gain = Gain(K=np.zeros((1, 1)), closed_loop_spectrum=np.array([-1.0]))
        dt = 2e-5
        config = SimConfig(dt=dt, T=0.004, initial=("smooth", 0.3))
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
        config = SimConfig(dt=1e-3, T=1.0, initial=tuple(y0.tolist()))
        traj = run(config, ms_full, gain)

        state = np.array([0.2])
        coeffs_head = actuator_coefficients(es, [ModeCombination([1.0])])[:1]
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
            ms = assemble_internal(es, shapes, 1)
            gain = design_gain(ms, poles=[-4.0])
            config = SimConfig(dt=1e-3, T=2.0, initial=tuple(y0.tolist()))
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
        config = SimConfig(dt=1e-3, T=15.0, blowup_threshold=1e5)
        batch = run_batch(config, hinged_system, scalar_gain, starts, level=level)
        serial = self.serial(config, hinged_system, scalar_gain, starts, level=level)
        assert [t.exit_reason for t in batch] == [EXIT_HORIZON, EXIT_BLOWUP, EXIT_HORIZON]
        self.assert_same(batch, serial, ("l2", "h1", "h2"))
        # a linear sample over the threshold is stored, then the run ends
        plan_form = 1.0 + hinged_system.es.gram_d1 + hinged_system.es.gram_d2
        assert quad_form(batch[1].states[-1], plan_form) > 1e10
        assert quad_form(batch[1].states[-2], plan_form) <= 1e10

    def test_empty_batch_rejected(self, hinged_system, scalar_gain):
        with pytest.raises(ValueError, match="batch of initial data is empty"):
            run_batch(SimConfig(dt=1e-3, T=0.1), hinged_system, scalar_gain, np.zeros((0, 12)))

    def test_nonlinear_batch_matches_serial(self, hinged_system):
        ms = hinged_system
        level = SaturationLevel(1.0)
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, level)
        consts = select_h2_constants(cert, ms, gain)
        starts = np.zeros((2, 12))
        starts[0, :3] = (0.5 / math.sqrt(cert.P[0, 0]), 0.05, -0.02)  # decays
        starts[1, 0] = 40.0  # far outside the basin: blows up
        config = SimConfig(dt=1e-3, T=3.0, delta=1.0, nu=0.5, blowup_threshold=1e5)
        batch = run_batch(config, ms, gain, starts, cert, consts, level=level)
        serial = self.serial(config, ms, gain, starts, cert=cert, constants=consts, level=level)
        assert [t.exit_reason for t in batch] == [EXIT_HORIZON, EXIT_BLOWUP]
        self.assert_same(batch, serial, ("l2", "h1", "h2", "v1", "v2"))
        for b, s in zip(batch, serial):
            assert b.nl_ratio_max == s.nl_ratio_max
        # a nonlinear step over the threshold is dropped, not stored
        plan_form = 1.0 + ms.es.gram_d1 + ms.es.gram_d2
        assert quad_form(batch[1].states[-1], plan_form) <= 1e10

    def test_boundary_batch_matches_serial(self, boundary_ms):
        ms = boundary_ms
        gain = design_gain(ms, poles=[-(i + 1.0) for i in range(ms.n + 1)])
        level = SaturationLevel(5.0)
        starts = np.zeros((3, 8))
        starts[0] = 0.01 * 0.5 ** np.arange(8)
        starts[1, 0] = 0.2  # saturates and escapes
        starts[2, :3] = (0.02, -0.1, 0.05)
        config = SimConfig(dt=5e-4, T=1.0)
        batch = run_batch(config, ms, gain, starts, level=level)
        serial = self.serial(config, ms, gain, starts, level=level)
        assert [t.exit_reason for t in batch] == [EXIT_HORIZON, EXIT_BLOWUP, EXIT_HORIZON]
        assert all(t.states[0, 0] == 0.0 for t in batch)
        self.assert_same(batch, serial, ("l2", "h1", "h2", "u_plus_w"))

    @pytest.mark.parametrize(
        "iters, loop",
        [pytest.param(i, "hinged", id=str(i)) for i in [12, 9, 8, 5, 4, 3, 2, 1]]
        + [pytest.param(i, "clamped", id=f"clamped-{i}") for i in [12, 9, 4, 1]],
    )
    def test_ksection_matches_serial_bisection(self, hinged_system, scalar_gain, iters, loop):
        # hinged Grams are weights, clamped ones matrices: the block check takes
        # one squared block for the former and a product per form for the latter
        ms, gain, level = hinged_system, scalar_gain, SaturationLevel(1.0)
        if loop == "clamped":
            # z' = s z + sat(-3 s z) at level s has its basin edge at z = 1 too
            ms = assemble_internal(eigen_clamped(OperatorParams(39.6, 1.0), 8),
                                   [ModeCombination([1.0])], 1)
            s = float(ms.es.values[0])
            gain = Gain(K=np.array([[-3.0 * s]]), closed_loop_spectrum=np.array([-2.0 * s]))
            level = SaturationLevel(s)
            assert ms.es.gram_d2.ndim == 2 and step_plan(ms, gain, level, 1e-3).norm_form.ndim == 2

        def decays(amplitude):
            traj = run(scalar_edge_config(amplitude), ms, gain, level=level)
            return decayed(traj, 1.0)

        low, high = 0.2, 2.0
        for _ in range(iters):
            mid = 0.5 * (low + high)
            low, high = (mid, high) if decays(mid) else (low, mid)
        assert low <= 1.0 <= high
        edge, bracketed = estimate_basin(
            scalar_edge_config(0.2), ms, gain, 2.0, iters=iters, level=level
        )
        assert bracketed
        assert edge == 0.5 * (low + high)


def per_step_reference(config, ms, gain, initials, cert=None, constants=None, level=None):
    """Oracle for `run_batch`: one row at a time, the blow-up check after every step.

    A nonlinear sample over the blow-up threshold is dropped unless it is the
    initial one, and a linear or boundary sample is kept.  Monitors come from
    the same `_monitored` as in `run_batch`, so only the loop is compared.
    """
    nonlinear = config.delta != 0.0 or config.nu != 0.0
    initials = np.atleast_2d(np.asarray(initials, dtype=float))
    if ms.mode == "boundary":
        initials = np.hstack([np.zeros((initials.shape[0], 1)), initials])
    level = UNSATURATED if level is None else level
    plan = step_plan(ms, gain, level, config.dt, config.delta, config.nu)
    limit = config.blowup_threshold**2
    samples = int(round(config.T / config.dt)) + 1
    out = []
    for row in initials:
        y = row[None]
        stored, reason = [], EXIT_HORIZON
        with np.errstate(over="ignore", invalid="ignore"):  # the crossing step may overflow
            for k in range(samples):
                over = not quad_form(y, plan.norm_form)[0] <= limit  # a NaN norm is over too
                if nonlinear and k and over:
                    reason = EXIT_BLOWUP
                    break
                stored.append(y[0])
                if over:
                    reason = EXIT_BLOWUP
                    break
                if k == samples - 1:
                    break
                y = plan.step(y)
        times = np.arange(len(stored)) * config.dt
        out.append(_monitored(plan, ms, config, times, np.array(stored), reason, cert, constants))
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


def counted_steps(monkeypatch):
    """The row count of every step the kernels of `StepPlan.stepper` take, in order."""
    steps = []
    stepper = simulate.StepPlan.stepper

    def counting(plan, rows):
        step = stepper(plan, rows)

        def counted(*args):
            steps.append(len(args[0]))
            return step(*args)

        return counted

    monkeypatch.setattr(simulate.StepPlan, "stepper", counting)
    return steps


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
        consts = select_h2_constants(cert, ms, gain)
        form = 1.0 + ms.es.gram_d1 + ms.es.gram_d2
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
        free = SimConfig(dt=1e-2, T=2.0, blowup_threshold=1e150)
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
        free = SimConfig(dt=1e-2, T=2.0, delta=1.0, nu=0.01, blowup_threshold=1e150)
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
        config = SimConfig(dt=1e-3, T=0.3, delta=1.0, nu=0.5, blowup_threshold=1e5)
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
            dt=1e-3, T=(samples - 1) * 1e-3, delta=1.0, nu=0.5, blowup_threshold=1e5
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
        config = SimConfig(dt=1e-2, T=3.0, blowup_threshold=30.0)
        kwargs = dict(cert=cert, constants=consts, level=level)
        trajs = self.check(config, ms, gain, starts, **kwargs)
        assert [t.exit_reason for t in trajs] == [EXIT_BLOWUP] * 3 + [EXIT_HORIZON]
        blocks = {(t.times.size - 1) // 64 for t in trajs[:3]}
        assert len(blocks) == 3

    def test_nonlinear_pass_stops_after_the_crossing_block(self, loop, monkeypatch):
        ms, gain, _, _, level, form = loop
        start = self.escaping(3.0)
        free = SimConfig(dt=1e-2, T=2.0, delta=1.0, nu=0.01, blowup_threshold=1e150)
        probe = run_batch(free, ms, gain, start[None], level=level)[0]
        config = replace(free, blowup_threshold=crossing_threshold(probe, form, 100))
        steps = counted_steps(monkeypatch)
        (traj,) = run_batch(config, ms, gain, start[None], level=level)
        assert (traj.exit_reason, traj.times.size) == (EXIT_BLOWUP, 100)
        # the steps to samples 1..127 of the first two blocks, none to the horizon at 200
        assert steps == [1] * 127

    def test_linear_pass_stops_after_the_last_row_ends(self, loop, monkeypatch):
        ms, gain, cert, consts, level, _ = loop
        # crossings of threshold 30 in the blocks of samples 0..63, 64..127 and 128..191
        starts = np.array([self.escaping(a) for a in (15.0, 9.0, 4.0)])
        config = SimConfig(dt=1e-2, T=3.0, blowup_threshold=30.0)
        steps = counted_steps(monkeypatch)
        trajs = run_batch(config, ms, gain, starts, cert, consts, level)
        assert [t.exit_reason for t in trajs] == [EXIT_BLOWUP] * 3
        assert [(t.times.size - 1) // 64 for t in trajs] == [0, 1, 2]
        # every row is stepped until the last one ends; no fourth block of the 301 samples
        assert steps == [3] * 191

    @pytest.fixture(scope="class")
    def two_modes(self):
        # hinged, lam = 6: sigma = 5 and 8 on the two unstable modes, which
        # carry the blow-up weights 3 and 21; zero gain lets both grow freely
        es = eigen_closed_form(OperatorParams(6.0, math.pi), HINGED, 6)
        ms = assemble_internal(es, [ModeCombination([1.0, 1.0])], 2)
        gain = Gain(K=np.zeros((1, 2)), closed_loop_spectrum=np.array([-1.0, -2.0]))
        form = 1.0 + es.gram_d1 + es.gram_d2
        starts = np.zeros((2, 6))
        starts[0, 0] = 1e-3  # leaves the region, then blows up
        starts[1, 1] = 1.0  # blows up
        free = SimConfig(dt=2e-3, T=0.5, blowup_threshold=1e150)
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
        # all in the block of samples 64..127: row 0 leaves the region at a,
        # which only sets its flag, and blows up at a + 10; row 1 blows up at b
        a, b = 100, 70
        y1 = probe[0].states[:, 0]
        cert = self.region(1.0 / (y1[a - 1] * y1[a]))
        threshold = crossing_threshold(probe[0], form, a + 10)
        config = replace(free, blowup_threshold=threshold)
        # the flow is linear: scale row 1 so that its norm crosses at b
        q1 = quad_form(probe[1].states, form)
        starts = starts.copy()
        starts[1] *= threshold / (q1[b - 1] * q1[b]) ** 0.25
        trajs = self.check(config, ms, gain, starts, cert=cert)
        assert [t.exit_reason for t in trajs] == [EXIT_BLOWUP, EXIT_BLOWUP]
        assert [t.times.size for t in trajs] == [a + 11, b + 1]
        assert [t.left_region for t in trajs] == [True, False]
        assert np.flatnonzero(trajs[0].v1 > 1.0 + 1e-9)[0] == a

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_region_exit_and_blowup_at_one_sample(self, two_modes, nonlinear):
        ms, gain, form, starts, free, probe = two_modes
        a = 90
        y1 = probe[0].states[:, 0]
        cert = self.region(1.0 / (y1[a - 1] * y1[a]))
        config = replace(free, blowup_threshold=crossing_threshold(probe[0], form, a))
        if nonlinear:  # forcing ~1e-9 of the drive: same crossing sample, now dropped
            config = replace(config, nu=1e-6)
        (traj,) = self.check(config, ms, gain, starts[:1], cert=cert)
        # the region flag reads the stored samples only: a dropped one never sets it
        if nonlinear:
            assert (traj.exit_reason, traj.times.size, traj.left_region) == (EXIT_BLOWUP, a, False)
        else:
            assert (traj.exit_reason, traj.times.size, traj.left_region) == (
                EXIT_BLOWUP, a + 1, True
            )

    def test_boundary_batch(self, boundary_ms):
        ms = boundary_ms
        gain = design_gain(ms, poles=[-(i + 1.0) for i in range(ms.n + 1)])
        starts = np.zeros((3, 8))
        starts[0] = 0.01 * 0.5 ** np.arange(8)
        starts[1, 0] = 0.2  # saturates and escapes
        starts[2, 0] = 0.5
        config = SimConfig(dt=5e-4, T=1.0)
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
        config = SimConfig(dt=dt, T=63 * dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (traj,) = run_batch(config, hinged_system, scalar_gain, start, level=level)
            # the streamed basin verdict reads the same block
            _, verdicts = _stepping_pass(
                config, hinged_system, scalar_gain, start, level, keep=0, t_start=dt
            )
        assert verdicts == [False]
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
        config = SimConfig(dt=1e-3, T=0.1, delta=1.0, blowup_threshold=1e150)
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
        consts = select_h2_constants(cert, ms, gain)
        start = np.zeros((1, 12))
        start[0, 0] = 40.0
        config = SimConfig(dt=1e-3, T=0.1, delta=1.0, nu=1.0, blowup_threshold=1e5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (traj,) = run_batch(config, ms, gain, start, cert, consts, level)
        assert traj.exit_reason == EXIT_BLOWUP
        assert traj.times.size < 64
        for name in ("states", "control", "l2", "h1", "h2", "v1", "v2"):
            assert np.all(np.isfinite(getattr(traj, name)))
        assert math.isfinite(traj.nl_ratio_max)
        plan = step_plan(ms, gain, level, config.dt, config.delta, config.nu)
        y = traj.states[-1:]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(63 - traj.times.size):
                y = plan.step(y)
        assert not np.all(np.isfinite(y))


class TestNonFiniteNorm:
    """A blow-up norm that is not finite ends a run as a blow-up, as a large one does.

    From 1e103 the cube of the dispersive term overflows in the first step,
    and the state turns to NaN; its norm compares False against any limit.
    """

    @pytest.fixture(scope="class")
    def loop(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 8)
        ms = assemble_internal(es, [ModeCombination([1.0])], 1)
        config = SimConfig(
            dt=1e-3, T=0.1, nu=1.0, blowup_threshold=1e150, initial=("first_mode", 1e103)
        )
        return ms, design_gain(ms, poles=[-4.0]), config

    def test_run_ends_as_blowup(self, loop):
        ms, gain, config = loop
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(config, ms, gain)
        assert (traj.exit_reason, traj.times.size) == (EXIT_BLOWUP, 1)
        assert np.all(np.isfinite(traj.states))

    def test_basin_search_brackets_below_it(self, loop):
        ms, gain, config = loop
        low = replace(config, initial=("first_mode", 0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edge, bracketed = estimate_basin(low, ms, gain, 1e103)
        assert bracketed
        assert edge < 1e103

    def test_single_step_raises_blowup(self, loop):
        ms, gain, config = loop
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUp):
                step_nonlinear_closed_loop(
                    resolve_initial(config, ms.es), ms, gain, UNSATURATED, config
                )

    def test_batch_row_beside_it_keeps_its_bits(self, loop):
        ms, gain, config = loop
        starts = np.zeros((2, 8))
        starts[0, 0] = 1e103
        starts[1, :2] = (0.1, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = run_batch(config, ms, gain, starts)
            alone = run_batch(config, ms, gain, starts[1:])
        assert [t.exit_reason for t in batch] == [EXIT_BLOWUP, EXIT_HORIZON]
        assert_identical(batch[1:], alone)
        assert_identical(batch, per_step_reference(config, ms, gain, starts))


def v2_and_sandwich_lower(state, cert, consts, es):
    """v2 at one state as `run_batch` computes it, and its sandwich lower bound."""
    z = state[: cert.P.shape[0]]
    v2 = float(simulate._v2(quad_form(z, cert.P), state, consts, es.values))
    lower = 0.5 * consts.C1 * float(z @ z) + consts.C1 / (2.0 * consts.C2) * float(
        quad_form(state, es.gram_d2)
    )
    return v2, lower


class TestMonitors:
    def test_v2_zero_state(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        consts = select_h2_constants(cert, ms, gain)
        assert v2_and_sandwich_lower(np.zeros(12), cert, consts, ms.es) == (0.0, 0.0)

    def test_v2_single_stable_mode(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        consts = select_h2_constants(cert, ms, gain)
        state = np.zeros(12)
        state[1] = 1.0  # sigma = -8, z = 0
        v2, _ = v2_and_sandwich_lower(state, cert, consts, ms.es)
        assert v2 == pytest.approx(8.0)

    def test_sandwich_on_random_states(self, hinged_system):
        ms = hinged_system
        es = ms.es
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        consts = select_h2_constants(cert, ms, gain)
        rng = np.random.default_rng(31)
        for _ in range(1000):
            state = rng.normal(size=12) * rng.uniform(0.01, 2.0)
            v2, lower = v2_and_sandwich_lower(state, cert, consts, es)
            assert v2 >= lower * (1.0 - 1e-12) - 1e-12
            h2_full = quad_form(state, 1.0 + es.gram_d1 + es.gram_d2)
            assert v2 <= consts.C4 * h2_full * (1.0 + 1e-12)

    def test_tail_duhamel_bound(self, hinged_system):
        ms = hinged_system
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        eta = unstable_count(ms.es).eta
        y0 = np.zeros(12)
        y0[0] = 0.9 / math.sqrt(cert.P[0, 0])
        y0[1:6] = 0.02
        config = SimConfig(dt=2e-4, T=2.0, initial=tuple(y0.tolist()))
        traj = run(config, ms, gain, cert, level=SaturationLevel(1.0))
        fit = fit_decay_rate(traj, "l2", t_start=0.5)
        zfit = np.sqrt(np.sum(traj.states[:, : ms.n] ** 2, axis=1))
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


    def test_boundary_l2_is_the_lifted_field_norm(self):
        # l2 of a boundary run is the physical field w + u d, integrated on the grid
        es = eigen_clamped(OperatorParams(45.0, 1.0), 8)
        lift = Lifting(1.0)
        ms = assemble_boundary(es, unstable_count(es).n)
        gain = design_gain(ms, poles=[-2.0, -4.0])
        config = SimConfig(dt=5e-4, T=0.5, initial=("smooth", 0.02))
        traj = run(config, ms, gain, level=SaturationLevel(20.0))
        x = es.quadrature.nodes
        for k in range(0, traj.times.size, 50):
            u, w = traj.states[k, 0], traj.states[k, 1:]
            field = es.synthesize(w) + u * lift.d(x)
            assert abs(u) > 1e-4 or k == 0
            expected = math.sqrt(es.quadrature.integrate(field**2))
            assert traj.l2[k] == pytest.approx(expected, rel=1e-12)


FORM_DIMS = (1, 2, 8, 9, 17, 33, 65)


def drawn_forms(dim):
    """A positive definite matrix form and a positive weight vector, both of size `dim`."""
    rng = np.random.default_rng(dim)
    half = rng.normal(size=(dim, dim))
    return half @ half.T + np.eye(dim), rng.random(dim) + 0.5


def misaligned(row):
    """A copy of a 1-D `row` one element past the start of its buffer."""
    copy = np.empty(row.size + 1)[1:]
    copy[:] = row
    return copy


class TestQuadForm:
    """`quad_form` is one contraction per row: batch-invariant and exact to rounding."""

    @pytest.mark.parametrize("kind", ["matrix", "vector"])
    @pytest.mark.parametrize("dim", FORM_DIMS)
    def test_row_gets_its_bits_alone_and_in_any_batch(self, dim, kind):
        matrix, weights = drawn_forms(dim)
        form = matrix if kind == "matrix" else weights
        rng = np.random.default_rng(100 + dim)
        x = rng.normal(size=(1088, dim)) * 10.0 ** rng.integers(-3, 4, size=(1088, 1))
        full = quad_form(x, form)
        for batch in (1, 15, 17, 1088):
            assert_same_bits(quad_form(x[:batch], form), full[:batch])
        for i in (0, 14, 16, 1087):
            assert_same_bits(quad_form(x[i], form), full[i])
            assert_same_bits(quad_form(x[i : i + 1], form), full[i : i + 1])
            assert_same_bits(quad_form(misaligned(x[i]), form), full[i])
        # a time-major block of 64 samples of 17 rows, and its transposed view
        block = x.reshape(64, 17, dim)
        assert_same_bits(quad_form(block, form), full.reshape(64, 17))
        assert_same_bits(quad_form(block.swapaxes(0, 1), form), full.reshape(64, 17).T)

    @pytest.mark.parametrize("dim", FORM_DIMS)
    def test_matches_fsum_oracle(self, dim):
        matrix, weights = drawn_forms(dim)
        eps = np.finfo(float).eps
        rng = np.random.default_rng(200 + dim)
        for form in (matrix, weights):
            dense = form if form.ndim == 2 else np.diag(form)
            x = rng.normal(size=(20, dim))
            for row, got in zip(x, quad_form(x, form)):
                terms = (row[:, None] * dense * row[None, :]).ravel().tolist()
                exact = math.fsum(terms)
                scale = math.fsum(abs(t) for t in terms)
                assert abs(got - exact) <= 4 * eps * scale

    @pytest.mark.parametrize("dim", FORM_DIMS)
    def test_vector_form_is_its_diagonal_matrix(self, dim):
        _, weights = drawn_forms(dim)
        x = np.random.default_rng(300 + dim).normal(size=(50, dim))
        np.testing.assert_allclose(
            quad_form(x, weights), quad_form(x, np.diag(weights)), rtol=4 * np.finfo(float).eps
        )

    @pytest.mark.parametrize(
        "es, diagonal",
        [
            (eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 12), (True, True)),
            (eigen_closed_form(OperatorParams(1.0, 2.0), NEUMANN, 8), (True, True)),
            (eigen_clamped(OperatorParams(10.0, 1.0), 1), (True, True)),
            (eigen_clamped(OperatorParams(0.0, 1.0), 6), (False, True)),
            (eigen_clamped(OperatorParams(45.0, 1.0), 8), (False, False)),
        ],
        ids=["hinged", "neumann", "clamped_one_mode", "clamped_lam0", "clamped"],
    )
    def test_plan_holds_diagonal_forms_as_weights(self, es, diagonal):
        # oracle: each Gram by quadrature of the stored derivative tables
        w = es.quadrature.weights
        dense = []
        pairs = zip((es.gram_d1, es.gram_d2), (es.basis_d1, es.basis_d2), diagonal)
        for form, table, weights in pairs:
            assert form.ndim == (1 if weights else 2)
            dense.append(np.diag(form) if weights else form)
            quadrature = (table * w) @ table.T
            assert np.max(np.abs(dense[-1] - quadrature)) <= 1e-10 * np.max(np.abs(quadrature))
        n = unstable_count(es).n
        ms = assemble_internal(es, [Indicator(0.1, 0.9)], n)
        gain = Gain(K=np.zeros((1, n)), closed_loop_spectrum=-np.ones(n))
        plan = step_plan(ms, gain, UNSATURATED, 1e-3)
        # the blow-up form as the dense sum, held as weights when that is diagonal
        form = np.eye(es.count) + dense[0] + dense[1]
        assert np.array_equal(plan.norm_form, np.diag(form) if all(diagonal) else form)
        assert plan.norm_form.ndim == (1 if all(diagonal) else 2)

    def test_plans_cache_nothing_on_the_eigen_system(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 12)
        ms = assemble_internal(es, [ModeCombination([1.0])], 1)
        gain = Gain(K=np.array([[-3.0]]), closed_loop_spectrum=np.array([-2.0]))
        before = dict(vars(es))
        step_plan(ms, gain, UNSATURATED, 1e-3, 1.0, 1.0)
        run(SimConfig(dt=1e-3, T=0.01, delta=1.0, nu=1.0), ms, gain)
        nonlinear_forcing(es, np.full(12, 0.1), 1.0, 1.0)
        after = vars(es)
        assert after.keys() == before.keys()
        assert all(after[name] is before[name] for name in before)

    def test_plan_build_holds_the_grid_twice_at_most(self):
        # tracemalloc counts the plan's allocations above the eigen system,
        # which hold read and drive, one copy each of the grid tables
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 256)
        assert es.gram_d1.ndim == es.gram_d2.ndim == 1
        ms = assemble_internal(es, [Indicator(0.0, 0.6 * math.pi)], 1)
        gain = Gain(K=np.array([[-3.0]]), closed_loop_spectrum=np.array([-2.0]))
        tracemalloc.start()
        try:
            plan = step_plan(ms, gain, SaturationLevel(1.0), 5e-4, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (plan.read.nbytes + plan.drive.nbytes)

    def test_monitors_hold_the_grid_four_times_at_most(self):
        # 1,201 stored samples take three chunks of the read-back; its buffers,
        # reused from chunk to chunk, hold one chunk of [R | y^2 | y^3] rows
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 256)
        ms = assemble_internal(es, [Indicator(0.0, 0.6 * math.pi)], 1)
        level = SaturationLevel(1.0)
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, level)
        consts = select_h2_constants(cert, ms, gain)
        config = SimConfig(dt=5e-4, T=0.6, delta=1.0, nu=1.0, initial=("smooth", 0.1))
        traj = run(config, ms, gain, cert, consts, level)
        assert traj.times.size == 1201 > 2 * simulate._CHUNK
        plan = step_plan(ms, gain, level, config.dt, config.delta, config.nu)
        tracemalloc.start()
        try:
            again = _monitored(
                plan, ms, config, traj.times, traj.states, traj.exit_reason, cert, consts
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.nl_ratio_max == traj.nl_ratio_max
        assert peak <= 4 * (plan.read.nbytes + plan.drive.nbytes)


def fit_decay_rate_from(times, values):
    slope, _ = np.polyfit(times, np.log(np.maximum(values, 1e-300)), 1)
    return -float(slope)


class TestFitDecay:
    def test_pure_mode_rate(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 4)
        ms = assemble_internal(es, [ModeCombination([0.0])], 1)
        gain = Gain(K=np.zeros((1, 1)), closed_loop_spectrum=np.array([-1.0]))
        y0 = (0.0, 1.0, 0.0, 0.0)  # sigma = -8
        config = SimConfig(dt=1e-3, T=1.0, initial=y0)
        traj = run(config, ms, gain)
        fit = fit_decay_rate(traj, "l2")
        assert fit.rate == pytest.approx(8.0, rel=1e-9)
        assert fit.r_squared > 1.0 - 1e-12

    def test_scalar_loop_rate_window(self, hinged_system):
        # discrete hold shifts the rate to exactly 2 + 3 dt for this loop
        gain = design_gain(hinged_system, poles=[-2.0])
        config = SimConfig(dt=1e-4, T=2.0, initial=("first_mode", 0.1))
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

    def test_closed_form_matches_polyfit_on_drawn_windows(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(2, 500))
            t = rng.uniform(0.0, 3.0) + rng.uniform(1e-4, 1e-2) * np.arange(n)
            rate = rng.uniform(-5.0, 5.0)
            noise = 0.1 * abs(rate) * (t[-1] - t[0]) * rng.normal(size=n)
            logs = rng.normal() - rate * t + noise
            slope, intercept = np.polyfit(t, logs, 1)
            residual = logs - (slope * t + intercept)
            centred = logs - logs.mean()
            r_squared = 1.0 - np.sum(residual**2) / np.sum(centred**2)
            got = simulate._fit_decay(t, logs.copy())
            np.testing.assert_allclose(got, (-slope, np.exp(intercept), r_squared), rtol=1e-12)

    def test_closed_form_pure_exponential_and_constant(self):
        t = 0.25 + 1e-3 * np.arange(3001)
        rate, prefactor, r_squared = simulate._fit_decay(t, np.log(2.5 * np.exp(-3.0 * t)))
        assert rate == pytest.approx(3.0, rel=1e-12)
        assert prefactor == pytest.approx(2.5, rel=1e-12)
        assert r_squared == pytest.approx(1.0, abs=1e-15)
        for level in (0.3, -7.1, math.log(1e-300)):
            rate, prefactor, r_squared = simulate._fit_decay(t, np.full(t.size, level))
            assert rate == 0.0
            assert prefactor == math.exp(level)
            assert r_squared == 1.0

    def test_closed_form_row_gets_its_bits_alone_and_in_any_batch(self):
        rng = np.random.default_rng(43)
        t = 1.0 + 5e-4 * np.arange(200)
        logs = rng.normal() - rng.uniform(-3.0, 3.0, size=(1088, 1)) * t
        logs += 0.01 * rng.normal(size=logs.shape)
        fitted = logs.copy()
        full = simulate._fit_decay(t, fitted)
        for batch in (1, 15, 17, 1088):
            rows = logs[:batch].copy()
            for got, want in zip(simulate._fit_decay(t, rows), full):
                assert_same_bits(got, want[:batch])
            assert_same_bits(rows, fitted[:batch])  # the residuals left in place
        for i in (0, 14, 16, 1087):
            for row in (logs[i].copy(), misaligned(logs[i])):
                for got, want in zip(simulate._fit_decay(t, row), full):
                    assert_same_bits(got, want[i])
        # rows with overflowed or unwritten samples leave the others' bits alone
        spoiled = logs[:17].copy()
        spoiled[3, 50], spoiled[5, :], spoiled[8, 0] = np.inf, np.nan, -np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            got = simulate._fit_decay(t, spoiled)
        clean = np.setdiff1d(np.arange(17), [3, 5, 8])
        for g, want in zip(got, full):
            assert_same_bits(g[clean], want[clean])

    def test_nonpositive_rejected(self, hinged_system, scalar_gain):
        config = SimConfig(dt=1e-3, T=0.1, initial=(0.0,) * 12)
        traj = run(config, hinged_system, scalar_gain)
        with pytest.raises(NonPositiveChannel):
            fit_decay_rate(traj, "l2")


def decayed(traj, t_start):
    """Reference verdict from a stored run: the horizon reached with a positive H2 rate."""
    if traj.exit_reason != EXIT_HORIZON:
        return False
    try:
        return fit_decay_rate(traj, "h2", t_start).rate > 0.0
    except NonPositiveChannel:
        return True  # channel hit the floor: decayed outright


def scalar_edge_config(amplitude):
    # z' = z + sat(-3 z) with ell = 1 has its basin edge exactly at z = 1
    return SimConfig(dt=1e-3, T=4.0, initial=("first_mode", amplitude))


class TestEstimateBasin:
    def test_scalar_saturated_edge(self, hinged_system, scalar_gain):
        edge, bracketed = estimate_basin(
            scalar_edge_config(0.2), hinged_system, scalar_gain, 2.0, level=SaturationLevel(1.0)
        )
        assert bracketed
        assert edge == pytest.approx(1.0, abs=0.05)

    def test_edge_outside_bracket_reported(self, hinged_system, scalar_gain):
        edge, bracketed = estimate_basin(
            scalar_edge_config(0.2), hinged_system, scalar_gain, 0.5, level=SaturationLevel(1.0)
        )
        assert bracketed is False
        assert edge == 0.5

    def test_no_bracket_rejected(self, hinged_system, scalar_gain):
        with pytest.raises(ValueError):
            estimate_basin(
                scalar_edge_config(1.5), hinged_system, scalar_gain, 2.0,
                level=SaturationLevel(1.0),
            )

    def test_modal_initial_state_rejected(self, hinged_system, scalar_gain):
        config = SimConfig(dt=1e-3, T=4.0, initial=(0.2,) + (0.0,) * 11)
        with pytest.raises(ValueError, match="needs a preset initial state"):
            estimate_basin(config, hinged_system, scalar_gain, 2.0, level=SaturationLevel(1.0))


class TestDecayVerdicts:
    """The basin search's streamed verdicts against runs with stored states."""

    @pytest.fixture
    def system(self, request, hinged_system, scalar_gain, boundary_ms):
        if request.param == "boundary":
            gain = design_gain(boundary_ms, poles=[-(i + 1.0) for i in range(boundary_ms.n + 1)])
            config = SimConfig(dt=5e-4, T=3.0, blowup_threshold=1e100)
            return config, boundary_ms, gain, SaturationLevel(5.0), [1e-3, 0.03, 1e95]
        if request.param == "linear":
            config = SimConfig(dt=1e-3, T=4.0, blowup_threshold=1e3)
            return config, hinged_system, scalar_gain, SaturationLevel(1.0), [0.2, 1.0, 1.2, 100.0]
        config = SimConfig(dt=1e-3, T=4.0, delta=1.0, nu=0.5, blowup_threshold=1e3)
        return config, hinged_system, scalar_gain, SaturationLevel(0.3), [0.05, 0.5, 1.0, 20.0]

    @pytest.mark.parametrize("system", ["linear", "boundary", "nonlinear"], indirect=True)
    def test_streamed_verdicts_match_stored_runs(self, system, monkeypatch):
        config, ms, gain, level, amplitudes = system
        fitted = []
        fit = simulate._fit_decay

        def recording(t, logs):
            fitted.append(logs.copy())
            return fit(t, logs)

        monkeypatch.setattr(simulate, "_fit_decay", recording)
        t_start = config.T / 4.0
        configs = [replace(config, initial=("first_mode", a)) for a in amplitudes]
        runs = [run(c, ms, gain, level=level) for c in configs]
        expected = [decayed(traj, t_start) for traj in runs]
        # the grid covers decay, a horizon run that does not decay, and blow-up
        assert True in expected
        assert any(t.exit_reason == EXIT_HORIZON and not v for t, v in zip(runs, expected))
        assert any(t.exit_reason == EXIT_BLOWUP for t in runs)
        initials = [resolve_initial(c, ms.es) for c in configs]
        fitted.clear()
        _, verdicts = _stepping_pass(config, ms, gain, initials, level, keep=0, t_start=t_start)
        assert verdicts == expected
        # one batched fit, whose horizon rows hold the logs of the very H2
        # norms a stored run fits
        (logs,) = fitted
        assert logs.shape == (len(runs), np.count_nonzero(runs[0].times >= t_start))
        for row, traj in zip(logs, runs):
            if traj.exit_reason == EXIT_HORIZON:
                with np.errstate(divide="ignore"):
                    window = np.log(traj.h2[traj.times >= t_start])
                assert_same_bits(row, window)

    def test_window_without_positive_norms_decays_outright(self, hinged_system, scalar_gain):
        # a run at rest has H2 norm 0: no rate can be fitted, and it counts as decayed
        config = SimConfig(dt=1e-3, T=1.0)
        rest = replace(config, initial=(0.0,) * 12)
        with pytest.raises(NonPositiveChannel):
            fit_decay_rate(run(rest, hinged_system, scalar_gain), "h2", 0.25)
        initials = [np.zeros(12), resolve_initial(scalar_edge_config(0.2), hinged_system.es)]
        _, verdicts = _stepping_pass(
            config, hinged_system, scalar_gain, initials, SaturationLevel(1.0), keep=0,
            t_start=0.25,
        )
        assert verdicts == [True, True]

    @pytest.mark.parametrize("bracketed", [True, False])
    @pytest.mark.parametrize("system", ["linear", "boundary", "nonlinear"], indirect=True)
    def test_first_pass_keeps_the_low_run(self, system, bracketed):
        config, ms, gain, level, amplitudes = system
        cert = build_certificate(ms, gain, level)
        consts = select_h2_constants(cert, ms, gain)
        low = amplitudes[0]
        high = amplitudes[-1] if bracketed else 2.0 * low  # blows up, or still decays
        configured = replace(config, initial=("first_mode", low))

        _, found, kept = estimate_basin(
            configured, ms, gain, high, level=level, monitors=(cert, consts)
        )
        assert found is bracketed
        assert_identical([kept], [run(configured, ms, gain, cert, consts, level=level)])

    @staticmethod
    def counted_passes(monkeypatch):
        # every stepping pass validates its start rows once, before it steps
        rows = []
        initial_rows = simulate._initial_rows

        def counting(ms, initials):
            validated = initial_rows(ms, initials)
            rows.append(validated.shape[0])
            return validated

        monkeypatch.setattr(simulate, "_initial_rows", counting)
        return rows

    def test_pass_count(self, hinged_system, scalar_gain, monkeypatch):
        rows = self.counted_passes(monkeypatch)
        level = SaturationLevel(1.0)
        estimate_basin(scalar_edge_config(0.2), hinged_system, scalar_gain, 2.0, level=level)
        assert rows == [17, 15, 15]  # the ends and four levels, then four levels per pass
        rows.clear()
        _, bracketed = estimate_basin(
            scalar_edge_config(0.2), hinged_system, scalar_gain, 0.5, level=level
        )
        assert not bracketed
        assert rows == [17]

    def test_zero_amplitude_rejected_before_any_run(self, hinged_system, scalar_gain, monkeypatch):
        rows = self.counted_passes(monkeypatch)
        with pytest.raises(ValueError, match="needs a nonzero initial.amplitude"):
            estimate_basin(
                scalar_edge_config(0.0), hinged_system, scalar_gain, 2.0, t_start=5.0,
                level=SaturationLevel(1.0),
            )
        assert rows == []

    @pytest.mark.parametrize("t_start", [3.9995, 4.0, 5.0])
    def test_short_fit_window_rejected_before_any_run(
        self, hinged_system, scalar_gain, monkeypatch, t_start
    ):
        # samples at 3.999 and 4.0: a window from t_start > 3.999 holds one or none
        rows = self.counted_passes(monkeypatch)
        with pytest.raises(ValueError, match=f"fit window start t = {t_start}"):
            estimate_basin(
                scalar_edge_config(0.2), hinged_system, scalar_gain, 2.0, t_start=t_start,
                level=SaturationLevel(1.0),
            )
        assert rows == []

    def test_search_holds_no_state_array(self, scalar_gain):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 32)
        ms = assemble_internal(es, [ModeCombination([1.0])], 1)
        config = SimConfig(dt=5e-4, T=4.0, initial=("first_mode", 0.2))

        one_row = (int(round(4.0 / 5e-4)) + 1) * 32 * 8  # bytes of one row's states
        tracemalloc.start()
        try:
            edge, bracketed = estimate_basin(
                config, ms, scalar_gain, 2.0, iters=3, level=SaturationLevel(1.0)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bracketed and 0.75 <= edge <= 1.25
        assert peak < one_row


class TestResolveInitial:
    def test_modal_passthrough(self, hinged_system):
        config = SimConfig(dt=1e-3, T=1.0, initial=tuple(float(i) for i in range(12)))
        y0 = resolve_initial(config, hinged_system.es)
        assert y0[3] == 3.0

    def test_presets(self, hinged_system):
        for preset in ("first_mode", "smooth", "bump"):
            config = SimConfig(dt=1e-3, T=1.0, initial=(preset, 0.05))
            y0 = resolve_initial(config, hinged_system.es)
            assert y0.shape == (12,)
            assert np.all(np.isfinite(y0))

    def test_bump_matches_fine_projection(self):
        systems = [eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, J) for J in (1, 4, 8, 24)]
        systems += [
            eigen_closed_form(OperatorParams(1.0, 2.0), NEUMANN, 8),
            eigen_clamped(OperatorParams(45.0, 1.0), 8),
            eigen_clamped(OperatorParams(20.0, 1.0), 1),  # even first modes
            eigen_clamped(OperatorParams(45.0, 1.0), 1),
        ]
        for es in systems:
            L = es.params.length
            fine = composite_gauss_legendre(L, 400, 16)
            bump = np.exp(-(((fine.nodes - L / 2) / (L / 10)) ** 2))
            coeffs = np.array([fine.weights @ row for row in es.modes(fine.nodes) * bump])
            config = SimConfig(dt=1e-3, T=1.0, initial=("bump", 1.0))
            y0 = resolve_initial(config, es)
            np.testing.assert_allclose(y0, coeffs / np.linalg.norm(coeffs), rtol=0.0, atol=1e-14)

    def test_bump_coefficients_are_the_row_loop(self):
        # reference: one `weights @ row` per mode, which one `np.vecdot` replaced
        for es in (
            eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 24),
            eigen_closed_form(OperatorParams(1.0, 2.0), NEUMANN, 8),
            eigen_clamped(OperatorParams(45.0, 1.0), 8),
        ):
            L = es.params.length
            top = int(math.ceil(float(es.modes.frequency.max()) * L / math.pi))
            rule = quadrature_for_modes(L, top)
            g = np.exp(-(((rule.nodes - L / 2) / (L / 10)) ** 2))
            loop = np.array([rule.weights @ row for row in es.modes(rule.nodes) * g])
            assert_same_bits(simulate._bump_coefficients(es), loop)

    @pytest.mark.parametrize("lam", [100.0, 150.0])
    def test_bump_without_support_rejected(self, lam):
        # the first clamped mode is odd about L/2 here: the bump projects to rounding noise
        es = eigen_clamped(OperatorParams(lam, 1.0), 1)
        config = SimConfig(dt=1e-3, T=1.0, initial=("bump", 0.1))
        with pytest.raises(ValueError, match="even about L/2 and the retained modes are odd"):
            resolve_initial(config, es)

    def test_unknown_preset(self, hinged_system):
        config = SimConfig(dt=1e-3, T=1.0, initial=("wavelet", 0.05))
        with pytest.raises(ValueError):
            resolve_initial(config, hinged_system.es)

    def test_wrong_length(self, hinged_system):
        config = SimConfig(dt=1e-3, T=1.0, initial=(1.0, 2.0))
        with pytest.raises(ValueError):
            resolve_initial(config, hinged_system.es)


class TestSimConfig:
    @pytest.mark.parametrize("threshold", [1e300, math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_blowup_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="blow-up threshold"):
            SimConfig(dt=1e-3, T=1.0, blowup_threshold=threshold)

    def test_fit_start_is_a_quarter_of_the_horizon(self):
        assert SimConfig(dt=1e-3, T=3.0).fit_start == 0.75

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("T", math.nan, "horizon"),
            ("delta", math.nan, "nonlinearity switches"),
            ("nu", math.nan, "nonlinearity switches"),
            ("delta", math.inf, "nonlinearity switches"),
        ],
    )
    def test_nan_settings_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            SimConfig(**{"dt": 1e-3, "T": 1.0, field: value})

    def test_blowup_threshold_with_finite_square_accepted(self):
        config = SimConfig(dt=1e-3, T=1.0, blowup_threshold=1e150)
        assert math.isfinite(config.blowup_threshold**2)
