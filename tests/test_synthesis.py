import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, event, given, reject, settings
from hypothesis import strategies as st

from satstab.errors import GapTooSmall, NotStabilizable
from satstab.modal import (
    Indicator,
    ModeCombination,
    assemble_boundary,
    assemble_internal,
)
from satstab.saturation import UNSATURATED, SaturationLevel
from satstab.simulate import _phi1, quad_form, step_plan
from satstab.spectral import (
    BoundaryCondition,
    OperatorParams,
    eigen_clamped,
    eigen_closed_form,
    unstable_count,
)
from satstab.synthesis import (
    Certificate,
    ControllabilityReport,
    Gain,
    H2Constants,
    _ackermann,
    build_certificate,
    certificate_document,
    certificate_head,
    check_certificate,
    design_gain,
    diagnose_pair,
    kalman_matrix,
    read_certificate,
    sample_ellipsoid,
    select_h2_constants,
    solve_lyapunov,
    solve_stein,
)

HINGED = BoundaryCondition.HINGED


def scalar_system(b_coeff=1.0):
    """lam=2, L=pi: one unstable mode with sigma_1 = 1 and a unit actuator."""
    es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 8)
    return assemble_internal(es, [ModeCombination([b_coeff])], 1)


DT = 5e-4  # the time step of the stepped designs below


def stepped_pair(ms, dt):
    """(Phi, Gamma, r^2) of the head as `simulate` steps it: an independent build.

    Phi = diag(exp(sigma dt)) and Gamma = diag(dt phi1(sigma dt)) B, with the
    integrator (sigma = 0) first on a boundary head, whose coupling column
    is frozen over a step like its input; r^2 = exp(-2 eta dt).
    """
    sigma = np.diag(ms.A)
    hold = dt * _phi1(sigma * dt)
    phi = np.diag(np.exp(sigma * dt))
    if ms.mode == "boundary":
        phi[1:, 0] = hold[1:] * ms.A[1:, 0]
    return phi, hold[:, None] * ms.B, math.exp(-2.0 * unstable_count(ms.es).eta * dt)


def manual_gain(K):
    K = np.atleast_2d(np.asarray(K, dtype=float))
    return K


class TestDiagnose:
    def test_repeated_eigenvalue_rank_two(self):
        A = np.diag([2.0, 2.0, 1.0])
        rep = diagnose_pair(A, [[2.0], [3.0], [4.0]])
        assert rep.rank == 2
        assert not rep.controllable
        assert not rep.stabilizable

    def test_augmented_column_restores_rank(self):
        A = np.diag([2.0, 2.0, 1.0])
        rep = diagnose_pair(A, [[2.0, 1.0], [3.0, 1.0], [4.0, 1.0]])
        assert rep.rank == 3
        assert rep.controllable

    def test_bad_augmentation_stays_deficient(self):
        A = np.diag([2.0, 2.0, 1.0])
        rep = diagnose_pair(A, [[2.0, 0.0], [3.0, 0.0], [4.0, 1.0]])
        assert rep.rank == 2

    def test_vandermonde_product(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            sigma = np.sort(rng.uniform(-5, 5, n))[::-1]
            while np.min(-np.diff(sigma)) < 0.3:
                sigma = np.sort(rng.uniform(-5, 5, n))[::-1]
            b = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
            rep = diagnose_pair(np.diag(sigma), b[:, None])
            det = np.linalg.det(kalman_matrix(np.diag(sigma), b[:, None]))
            assert det == pytest.approx(rep.vandermonde_value, rel=1e-8)

    @pytest.mark.parametrize("lam", [301.0, 450.0])
    def test_overflowing_vandermonde_product_is_none(self, lam):
        # a hinged head of 17 or 21 unstable modes: the product overflows at
        # lam = 301 and turns NaN (inf * 0) at lam = 450; the suite makes any
        # numpy warning an error, so a leaked one fails here
        es = eigen_closed_form(OperatorParams(lam, math.pi), HINGED, 40)
        ms = assemble_internal(es, [Indicator(0.05, 2.0)], unstable_count(es).n)
        assert ms.n >= 15
        rep = diagnose_pair(ms.A, ms.B)
        assert rep.vandermonde_value is None
        assert rep.dim == ms.n

    def test_modal_system_entry_point(self):
        ms = scalar_system()
        rep = diagnose_pair(ms.A, ms.B)
        assert rep.controllable
        assert rep.vandermonde_value == pytest.approx(1.0)


class TestDesignGain:
    def test_scalar_pole_placement(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 8)
        ms = assemble_internal(es, [Indicator(0.0, math.pi)], 1)
        gain = design_gain(ms, poles=[-2.0])
        expected = -1.5 * math.sqrt(math.pi / 2.0)
        assert gain.K[0, 0] == pytest.approx(expected, rel=1e-12)
        assert gain.closed_loop_spectrum[0].real == pytest.approx(-2.0, abs=1e-12)

    def test_empty_system(self):
        es = eigen_closed_form(OperatorParams(0.5, 1.0), HINGED, 4)
        ms = assemble_internal(es, [Indicator(0.0, 0.5)], 0)
        gain = design_gain(ms)
        assert gain.K.shape == (1, 0)
        assert gain.hurwitz

    def test_two_pole_placement(self):
        es = eigen_closed_form(OperatorParams(2.0, 2 * math.pi), HINGED, 8)
        ms = assemble_internal(es, [Indicator(0.0, 3.0)], 2)
        gain = design_gain(ms, poles=[-1.0, -2.0])
        got = np.sort(gain.closed_loop_spectrum.real)
        np.testing.assert_allclose(got, [-2.0, -1.0], atol=1e-10)

    @pytest.mark.parametrize("head", ["internal", "boundary"])
    @pytest.mark.parametrize("explicit", [True, False], ids=["explicit", "default"])
    def test_single_input_gain_is_ackermanns(self, head, explicit):
        # for m = 1 explicit poles are Ackermann's formula on (A, B), bit for bit; the
        # default is the gain that Ackermann's formula gives on the stepped pair
        # (Phi, Gamma) for the stepped poles r^2 / phi_i, the only one that places them
        if head == "internal":
            es = eigen_closed_form(OperatorParams(2.0, 2 * math.pi), HINGED, 8)
            ms = assemble_internal(es, [Indicator(0.0, 3.0)], 2)
        else:
            es = eigen_clamped(OperatorParams(45.0, 1.0), 8)
            ms = assemble_boundary(es, unstable_count(es).n)
        d = ms.dim
        if explicit:
            poles = [-1.5 * (i + 1) for i in range(d)]
            gain = design_gain(ms, poles=poles)
            expected = _ackermann(ms.A, ms.B, poles)
            assert gain.K.shape == expected.shape == (1, d)
            assert gain.K.tobytes() == expected.tobytes()
        else:
            phi, gamma, r_sq = stepped_pair(ms, DT)
            gain = design_gain(ms, dt=DT)
            expected = _ackermann(phi, gamma, r_sq / np.diag(phi))
            assert gain.K.shape == expected.shape == (1, d)
            np.testing.assert_allclose(gain.K, expected, rtol=1e-9)

    def test_default_poles_use_gap(self):
        # eta = 4 for lam = 2, L = pi and sigma_1 = 1: the stepped pole is
        # r^2 / phi = exp(-(2 eta + sigma_1) dt), and the ODE's pole
        # 1 + (exp(-9 dt) - exp(dt)) / (exp(dt) - 1) tends to -9 as dt -> 0
        ms = scalar_system()
        for dt in (1e-4, 5e-4, 1e-2):
            gain = design_gain(ms, dt=dt)
            stepped = step_plan(ms, gain, UNSATURATED, dt).head_map()[0, 0]
            assert stepped == pytest.approx(math.exp(-9.0 * dt), rel=1e-12)
            ode = 1.0 + (math.exp(-9.0 * dt) - math.exp(dt)) / math.expm1(dt)
            assert gain.closed_loop_spectrum[0].real == pytest.approx(ode, rel=1e-9)
            assert ode == pytest.approx(-9.0, rel=10.0 * dt)

    def test_not_stabilizable(self):
        ms = scalar_system()
        bad = type(ms)(
            es=ms.es,
            n=3,
            A=np.diag([2.0, 2.0, 1.0]),
            B=np.array([[2.0], [3.0], [4.0]]),
            b_tail=np.zeros((0, 1)),
            mode="internal",
            shape_norms_sq=np.array([29.0]),
        )
        with pytest.raises(NotStabilizable):
            design_gain(bad)

    def test_unstable_placement_names_path_and_margin(self):
        with pytest.raises(NotStabilizable) as info:
            design_gain(scalar_system(), poles=[3.0])
        message = str(info.value)
        assert "designed gain (pole placement) failed" in message
        real = float(message.rsplit("largest closed-loop real part ", 1)[1])
        assert real == pytest.approx(3.0, rel=1e-12)

    def test_stepped_design_needs_a_controllable_head(self):
        # lam = 2, L = pi: the second head mode (sigma = -8) is stable and no input
        # reaches it, so the pair is stabilizable, but W's row for it is 0: the
        # stepped design names lambda_min(W) = 0 and W_11 = gamma^2 / (phi^2 - r^2)
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 8)
        ms = assemble_internal(es, [ModeCombination([1.0])], 2)
        report = diagnose_pair(ms.A, ms.B)
        assert report.stabilizable and not report.controllable
        with pytest.raises(NotStabilizable) as info:
            design_gain(ms, dt=DT)
        match = re.fullmatch(
            r"stepped design: the Gramian W of Phi W Phi\^T - r\^2 W = Gamma Gamma\^T is not "
            r"positive definite to working precision: lambda_min\(W\) = (\S+), "
            r"lambda_max\(W\) = (\S+) \(needs lambda_min\(W\) > d eps lambda_max\(W\) = (\S+)\)",
            str(info.value),
        )
        assert match, str(info.value)
        gamma = DT * _phi1(DT)
        w11 = gamma**2 / (math.exp(2.0 * DT) - math.exp(-8.0 * DT))  # eta = 4
        assert float(match.group(1)) == 0.0
        assert float(match.group(2)) == pytest.approx(w11, rel=1e-3)
        assert float(match.group(3)) == pytest.approx(2 * np.finfo(float).eps * w11, rel=1e-3)

    def test_stepped_design_checks_its_radius(self, monkeypatch):
        # a Stein solve that returns W = I: K = -Gamma / Phi leaves the scalar head
        # map at Phi - Gamma^2 / Phi > 1, which the design names instead of
        # returning the gain
        from satstab import synthesis

        monkeypatch.setattr(synthesis, "solve_stein", lambda phi, q, r_sq: (np.eye(1), 0.0))
        with pytest.raises(NotStabilizable) as info:
            design_gain(scalar_system(), dt=DT)
        match = re.fullmatch(
            r"stepped design: the stepped head map Phi \+ Gamma K has spectral radius (\S+) "
            r"at dt = 0.0005 \(needs < 1\)",
            str(info.value),
        )
        assert match, str(info.value)
        phi, gamma = math.exp(DT), DT * _phi1(DT)  # sigma_1 = 1, b = 1
        assert float(match.group(1)) == pytest.approx(phi - gamma**2 / phi, rel=1e-6)

    def test_multi_input_stepped_design(self):
        # lam = 12, L = pi: sigma = 32, 27, 11 unstable, two indicators; the
        # stepped loop has the eigenvalues r^2 / phi_i at every dt, and its ODE
        # is Hurwitz
        es = eigen_closed_form(OperatorParams(12.0, math.pi), HINGED, 12)
        ms = assemble_internal(es, [Indicator(0.2, 1.1), Indicator(1.6, 2.7)], 3)
        for dt in (1e-4, 5e-4, 2e-3):
            gain = design_gain(ms, dt=dt)
            assert gain.K.shape == (2, 3)
            assert gain.hurwitz
            _, _, r_sq = stepped_pair(ms, dt)
            moduli = np.abs(np.linalg.eigvals(step_plan(ms, gain, UNSATURATED, dt).head_map()))
            expected = r_sq / np.exp(es.values[:3] * dt)
            np.testing.assert_allclose(np.sort(moduli), np.sort(expected), rtol=1e-9)

    def test_multi_input_explicit_poles(self):
        # lam = 12, L = pi: sigma = 32, 27, 11 unstable, two indicators
        es = eigen_closed_form(OperatorParams(12.0, math.pi), HINGED, 12)
        shapes = [Indicator(0.2, 1.1), Indicator(1.6, 2.7)]
        ms = assemble_internal(es, shapes, 3)
        assert ms.B.shape == (3, 2)
        for poles in ([-1.0, -2.0, -3.0], [-5.0, -6.0, -40.0]):
            gain = design_gain(ms, poles=poles)
            assert gain.K.shape == (2, 3)
            spectrum = np.linalg.eigvals(ms.A + ms.B @ gain.K)
            np.testing.assert_allclose(np.sort_complex(spectrum), sorted(poles), rtol=1e-8)

    def test_multi_input_explicit_poles_need_a_controllable_pair(self):
        # stabilizable (the mode no input reaches is stable), not controllable
        ms = scalar_system()
        pair = type(ms)(
            es=ms.es,
            n=2,
            A=np.diag([1.0, -0.5]),
            B=np.array([[1.0, 0.2], [0.0, 0.0]]),
            b_tail=np.zeros((0, 2)),
            mode="internal",
            shape_norms_sq=np.array([1.0, 1.0]),
        )
        with pytest.raises(NotStabilizable, match="pole placement requires a controllable pair"):
            design_gain(pair, poles=[-1.0, -2.0])


def lyapunov_residual(a, x, q):
    return np.linalg.norm(a @ x + x @ a.T - q) / (
        2.0 * np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q)
    )


def stein_residual(phi, w, q, r_sq):
    return np.linalg.norm(phi @ w @ phi.T - r_sq * w - q) / (
        (np.linalg.norm(phi) ** 2 + r_sq) * np.linalg.norm(w) + np.linalg.norm(q)
    )


# entries on a 1e-3 grid: no subnormal inputs for scipy's balancing to choke on
ENTRIES = st.floats(-3.0, 3.0).map(lambda v: round(v, 3))


@st.composite
def hurwitz_heads(draw):
    """A d x d matrix, d <= 8, shifted so its rightmost eigenvalue sits at -margin."""
    d = draw(st.integers(1, 8))
    a = np.array(draw(st.lists(ENTRIES, min_size=d * d, max_size=d * d))).reshape(d, d)
    margin = draw(st.floats(1e-3, 2.0))
    return a - (np.max(np.linalg.eigvals(a).real) + margin) * np.eye(d)


@st.composite
def anti_stable_heads(draw):
    """(phi, gamma, r^2): phi d x d, d <= 6, scaled so that every |eigenvalue| is over r."""
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    a = np.array(draw(st.lists(ENTRIES, min_size=d * d, max_size=d * d))).reshape(d, d)
    gamma = np.array(draw(st.lists(ENTRIES, min_size=d * m, max_size=d * m))).reshape(d, m)
    assume(np.any(gamma))  # q = 0 has the solution 0 and a residual of 0 / 0
    r_sq = draw(st.floats(0.5, 1.0))
    smallest = np.min(np.abs(np.linalg.eigvals(a)))
    assume(smallest > 1e-3)
    margin = draw(st.floats(1e-3, 2.0))
    return a * (math.sqrt(r_sq) * (1.0 + margin) / smallest), gamma, r_sq


class TestMatrixEquations:
    """The numpy solves against scipy's, kept here as the oracle."""

    @settings(max_examples=200, deadline=None, database=None, print_blob=True)
    @given(hurwitz_heads())
    def test_lyapunov_matches_scipy(self, a):
        from scipy.linalg import solve_continuous_lyapunov

        d = len(a)
        q = -np.eye(d)
        x, residual = solve_lyapunov(a, q)
        assert residual == pytest.approx(lyapunov_residual(a, x, q), rel=1e-6, abs=1e-300)
        assert lyapunov_residual(a, x, q) <= 1e-14
        oracle = solve_continuous_lyapunov(a, q)
        # both solves are backward stable: each forward error is at most the
        # Kronecker operator's condition number times its backward error
        op = np.kron(a, np.eye(d)) + np.kron(np.eye(d), a)
        norm_op = np.linalg.norm(op, 2)
        backward = [np.linalg.norm(op @ y.ravel() - q.ravel()) / (norm_op * np.linalg.norm(y))
                    for y in (x, oracle)]
        bound = 2.0 * np.linalg.cond(op) * (sum(backward) + np.finfo(float).eps)
        assert np.linalg.norm(x - oracle) <= bound * np.linalg.norm(oracle)

    def test_lyapunov_singular_operator_raises(self):
        # a and -a share the eigenvalue 0
        with pytest.raises(np.linalg.LinAlgError):
            solve_lyapunov(np.diag([0.0, -1.0]), -np.eye(2))

    @settings(max_examples=200, deadline=None, database=None, print_blob=True)
    @given(anti_stable_heads())
    def test_stein_matches_scipy(self, head):
        from scipy.linalg import solve_discrete_lyapunov

        phi, gamma, r_sq = head
        d = len(phi)
        q = gamma @ gamma.T
        w, residual = solve_stein(phi, q, r_sq)
        assert residual == pytest.approx(stein_residual(phi, w, q, r_sq), rel=1e-6, abs=1e-300)
        assert stein_residual(phi, w, q, r_sq) <= 1e-14
        # phi W phi^T - r^2 W = q is W = a W a^T + q' for a = phi / r, q' = -q / r^2
        r = math.sqrt(r_sq)
        oracle = solve_discrete_lyapunov(phi / r, -q / r_sq, method="direct")
        # both solves are backward stable: each forward error is at most the
        # Kronecker operator's condition number times its backward error
        op = np.kron(phi, phi) - r_sq * np.eye(d * d)
        norm_op = np.linalg.norm(op, 2)
        backward = [np.linalg.norm(op @ y.ravel() - q.ravel()) / (norm_op * np.linalg.norm(y))
                    for y in (w, oracle)]
        bound = 2.0 * np.linalg.cond(op) * (sum(backward) + np.finfo(float).eps)
        assert np.linalg.norm(w - oracle) <= bound * np.linalg.norm(oracle)

    @pytest.mark.parametrize("sigma", [[1.0], [2.0, 0.5], [30.0, 12.0, 0.0]], ids=["1", "2", "3"])
    def test_stein_on_a_diagonal_head_is_cauchy_like(self, sigma):
        # Phi = diag(phi): W_ij = (Gamma Gamma^T)_ij / (phi_i phi_j - r^2), entry by entry
        phi = np.exp(np.array(sigma) * DT)
        gamma = np.array([[1.0, -0.5], [0.25, 2.0], [-3.0, 0.5]])[: len(sigma)]
        q, r_sq = gamma @ gamma.T, math.exp(-2.0 * 4.0 * DT)
        w, residual = solve_stein(np.diag(phi), q, r_sq)
        assert residual <= 1e-14
        np.testing.assert_allclose(w, q / (np.outer(phi, phi) - r_sq), rtol=1e-9)

    def test_stein_singular_operator_raises(self):
        # phi_1 phi_2 = 2 x 0.5 = r^2: the operator is singular
        with pytest.raises(np.linalg.LinAlgError):
            solve_stein(np.diag([2.0, 0.5]), np.eye(2), 1.0)


@st.composite
def designed_heads(draw):
    """A head as `design_gain` meets it, and the dt it is stepped at.

    Distinct sigma >= 0 (at least 0.5 apart) on d = 1..4 modes of a hinged
    eigen system, then a tail of negative eigenvalues whose first sets the
    gap eta; m = 1..3 inputs.  Internal heads are diag(sigma); boundary
    heads add the integrator, coupled to every mode by a drawn column, and
    their sigma are positive: a mode at sigma = 0 beside the integrator
    makes Phi a Jordan block, whose eigenvalues rounding moves by sqrt(eps).
    """
    es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 8)
    internal = draw(st.booleans())
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    gaps = np.array(draw(st.lists(st.floats(0.5, 20.0), min_size=d, max_size=d)))
    sigma = np.cumsum(gaps)[::-1]
    if internal and draw(st.booleans()):
        sigma -= gaps[0]  # sigma_d = 0
    eta = draw(st.floats(0.25, 20.0))
    values = np.concatenate([sigma, -2.0 * eta - np.arange(es.count - d)])
    es = replace(es, values=values)
    entries = st.floats(-3.0, 3.0).filter(lambda v: abs(v) >= 0.05)
    B = np.array(draw(st.lists(entries, min_size=d * m, max_size=d * m))).reshape(d, m)
    b_tail = np.zeros((es.count - d, m))
    dt = draw(st.sampled_from([1e-4, 5e-4, 2e-3]))
    if internal:
        return assemble_like(es, d, np.diag(sigma), B, b_tail, "internal"), dt
    A = np.zeros((d + 1, d + 1))
    A[1:, 0] = draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
    A[1:, 1:] = np.diag(sigma)
    B = np.vstack([np.ones((1, m)), B])
    return assemble_like(es, d, A, B, b_tail, "boundary"), dt


def assemble_like(es, n, A, B, b_tail, mode):
    return type(scalar_system())(
        es=es, n=n, A=A, B=B, b_tail=b_tail, mode=mode, shape_norms_sq=np.ones(B.shape[1]),
        a_tail=np.zeros(len(b_tail)) if mode == "boundary" else None,
    )


class TestSteppedDesign:
    @settings(max_examples=200, deadline=None, database=None, print_blob=True)
    @given(designed_heads())
    def test_stepped_loop_has_the_mirrored_eigenvalues(self, drawn):
        # Phi + Gamma K = r^2 W Phi^-T W^-1: its eigenvalues are r^2 / phi_i.  Its
        # eigenvectors are W times Phi^-T's, so rounding moves the eigenvalues by
        # up to about eps cond(W) relative: over 1500 draws the error reached
        # 20 eps cond(W), 6.2e-8 at cond(W) between 1e7 and 1e8, and 2.6e-12
        # below 1e4.  Up to cond(W) = 1e5 the eigenvalues hold to rtol 1e-9
        # (20 eps cond(W) <= 4.4e-10 there); above, to 64 eps cond(W)
        from scipy.linalg import solve_discrete_lyapunov

        ms, dt = drawn
        phi, gamma, r_sq = stepped_pair(ms, dt)
        r = math.sqrt(r_sq)
        w = solve_discrete_lyapunov(phi / r, -(gamma @ gamma.T) / r_sq, method="direct")
        cond = np.linalg.cond(w)
        assume(cond <= 1e8)
        try:
            gain = design_gain(ms, dt=dt)
        except NotStabilizable as exc:  # a stepped loop whose ODE is not Hurwitz
            assert "failed to produce a Hurwitz closed loop" in str(exc)
            reject()
        moduli = np.abs(np.linalg.eigvals(step_plan(ms, gain, UNSATURATED, dt).head_map()))
        rtol = 1e-9 if cond <= 1e5 else 64.0 * np.finfo(float).eps * cond
        event("cond(W) <= 1e5" if cond <= 1e5 else "1e5 < cond(W) <= 1e8")
        np.testing.assert_allclose(np.sort(moduli), np.sort(r_sq / np.diag(phi)), rtol=rtol)
        assert np.max(moduli) < 1.0


class TestCertificate:
    def test_documented_scalar_witnesses(self):
        ms = scalar_system()
        gain = Gain(K=np.array([[-3.0]]), closed_loop_spectrum=np.array([-2.0]))
        cert = Certificate(
            P=np.array([[9.0]]),
            D=np.array([[2.0]]),
            C=np.array([[0.0]]),
            alpha=20.0 - math.sqrt(337.0),
            beta_min=9.0,
            beta_max=9.0,
            ell=1.0,
        )
        check = check_certificate(cert, ms, gain)
        assert check.lambda_max_m1 == pytest.approx(-20.0 + math.sqrt(337.0), abs=1e-12)
        assert check.lambda_min_m2 == pytest.approx(0.0, abs=1e-12)
        assert check.ok

    def test_halved_p_violates_inclusion(self):
        ms = scalar_system()
        gain = Gain(K=np.array([[-3.0]]), closed_loop_spectrum=np.array([-2.0]))
        cert = Certificate(
            P=np.array([[4.5]]),
            D=np.array([[2.0]]),
            C=np.array([[0.0]]),
            alpha=1.0,
            beta_min=4.5,
            beta_max=4.5,
            ell=1.0,
        )
        check = check_certificate(cert, ms, gain)
        assert check.lambda_min_m2 < 0.0
        assert not check.ok

    def test_zero_deadzone_weight_rejected(self):
        ms = scalar_system()
        gain = Gain(K=np.array([[-3.0]]), closed_loop_spectrum=np.array([-2.0]))
        cert = Certificate(
            P=np.array([[9.0]]),
            D=np.array([[0.0]]),
            C=np.array([[0.0]]),
            alpha=1.0,
            beta_min=9.0,
            beta_max=9.0,
            ell=1.0,
        )
        with pytest.raises(ValueError):
            check_certificate(cert, ms, gain)

    def test_constructive_path_scalar(self):
        ms = scalar_system()
        gain = design_gain(ms, poles=[-2.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        assert cert.alpha > 0.0
        check = check_certificate(cert, ms, gain)
        assert check.ok
        assert check.lambda_min_m2 >= -1e-9

    def test_unsaturated_level(self):
        ms = scalar_system()
        gain = design_gain(ms, poles=[-2.0])
        cert = build_certificate(ms, gain, UNSATURATED)
        assert cert.alpha > 0.0
        check = check_certificate(cert, ms, gain)
        assert check.ok
        assert math.isinf(check.lambda_min_m2)

    def test_lyapunov_quadratic_form_negative(self):
        es = eigen_closed_form(OperatorParams(2.0, 2 * math.pi), HINGED, 8)
        ms = assemble_internal(es, [Indicator(0.0, 3.0)], 2)
        gain = design_gain(ms, poles=[-1.0, -2.0])
        cert = build_certificate(ms, gain, SaturationLevel(2.0))
        acl = ms.A + ms.B @ gain.K
        lyap = acl.T @ cert.P + cert.P @ acl
        rng = np.random.default_rng(17)
        for _ in range(1000):
            z = rng.normal(size=2)
            if np.linalg.norm(z) < 1e-12:
                continue
            assert z @ lyap @ z < 0.0

    def test_schur_equivalence(self):
        ms = scalar_system()
        gain = design_gain(ms, poles=[-2.0])
        cert = build_certificate(ms, gain, SaturationLevel(0.7))
        check = check_certificate(cert, ms, gain)
        # M2 >= 0 exactly when its Schur complement P - (K - C)^T (K - C) / ell^2 is
        schur = cert.P - (gain.K - cert.C).T @ (gain.K - cert.C) / 0.7**2
        schur_min = float(np.min(np.linalg.eigvalsh(schur)))
        assert (schur_min >= 0.0) == (check.lambda_min_m2 >= -1e-12)

    def test_closed_form_scalar_witness(self):
        # K = -3 places sigma_1 = 1 at -2: P0 = 1/4, scaled by 1.1 * 9 / (1/4) to
        # P = 9.9; T = -39.6, target 36, G = 9.9 and delta = (36 + 9.9^2 / 3.6) / 2
        ms = scalar_system()
        gain = design_gain(ms, poles=[-2.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        assert cert.P[0, 0] == pytest.approx(9.9, rel=1e-12)
        assert cert.D[0, 0] == pytest.approx(31.6125, rel=1e-12)
        assert cert.alpha == pytest.approx(36.0, rel=1e-12)
        assert not cert.C.any()

    def test_closed_form_two_input_head(self):
        es = eigen_closed_form(OperatorParams(20.0, math.pi), HINGED, 12)
        shapes = [Indicator(0.0, 1.0), Indicator(1.5, 3.0)]
        n = unstable_count(es).n
        ms = assemble_internal(es, shapes, n)
        gain = design_gain(ms, dt=DT)
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        acl = ms.A + ms.B @ gain.K
        lyap = acl.T @ cert.P + cert.P @ acl
        target = -float(np.max(np.linalg.eigvalsh(lyap))) / 1.1
        pb = cert.P @ ms.B
        schur = pb.T @ np.linalg.inv(-(lyap + target * np.eye(ms.dim))) @ pb
        delta = 0.5 * (target + float(np.max(np.linalg.eigvalsh(schur))))
        assert ms.m == 2
        np.testing.assert_allclose(cert.D, delta * np.eye(2), rtol=1e-9, atol=0.0)
        m1 = np.block([[lyap, pb], [pb.T, -2.0 * cert.D]])
        assert float(np.max(np.linalg.eigvalsh(m1))) == pytest.approx(-target, rel=1e-9)
        assert cert.alpha == pytest.approx(target, rel=1e-9)


class TestEllipsoid:
    def test_center(self):
        cert = Certificate(
            P=np.array([[9.0]]), D=np.array([[2.0]]), C=np.array([[0.0]]),
            alpha=1.0, beta_min=9.0, beta_max=9.0, ell=1.0,
        )
        assert quad_form(np.array([0.0]), cert.P) <= 1.0

    def test_boundary_and_outside(self):
        cert = Certificate(
            P=np.array([[9.0]]), D=np.array([[2.0]]), C=np.array([[0.0]]),
            alpha=1.0, beta_min=9.0, beta_max=9.0, ell=1.0,
        )
        assert quad_form(np.array([1.0 / 3.0]), cert.P) <= 1.0
        assert not quad_form(np.array([0.34]), cert.P) <= 1.0

    def test_sector_inclusion_sampling(self):
        es = eigen_closed_form(OperatorParams(2.0, 2 * math.pi), HINGED, 8)
        ms = assemble_internal(es, [Indicator(0.0, 3.0)], 2)
        gain = design_gain(ms, poles=[-1.0, -2.0])
        level = SaturationLevel(0.8)
        cert = build_certificate(ms, gain, level)
        rng = np.random.default_rng(99)
        boundary = sample_ellipsoid(cert, rng, 10000, surface=True)
        margin = level.ell * (1.0 + 1e-9)
        sector = np.abs(boundary @ (gain.K - cert.C).T)
        assert np.all(sector <= margin)


class TestH2Constants:
    def test_scalar_selection_passes_invariants(self):
        ms = scalar_system()
        gain = design_gain(ms, poles=[-2.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        consts = select_h2_constants(cert, ms, gain)
        sigma_tail = ms.es.values[1]
        gain_energy = np.linalg.norm(gain.K, 2) ** 2 * np.sum(ms.shape_norms_sq)
        assert consts.M >= -1.0 / sigma_tail
        assert consts.C3 > 1.0 / (2.0 * cert.alpha)
        assert gain_energy - cert.alpha * consts.M < -consts.M / (2.0 * consts.C3)
        assert consts.M >= 2.0 * consts.C3 * cert.beta_max
        assert consts.C1 > 0.0
        assert consts.C2 > 0.0
        assert consts.a == pytest.approx(1.0 / (2.0 * consts.C3 * cert.beta_max))
        assert consts.C3 >= 1.0 / cert.alpha - 1e-15
        assert consts.a <= -sigma_tail + 1e-12

    def test_two_mode_selection(self):
        es = eigen_closed_form(OperatorParams(2.0, 2 * math.pi), HINGED, 16)
        ms = assemble_internal(es, [Indicator(0.0, 3.0)], 2)
        gain = design_gain(ms, poles=[-0.5, -1.0])
        cert = build_certificate(ms, gain, SaturationLevel(2.0))
        consts = select_h2_constants(cert, ms, gain)
        assert consts.M > 0 and consts.a > 0

    def test_wrong_split_raises(self):
        es = eigen_closed_form(OperatorParams(2.0, 2 * math.pi), HINGED, 8)
        # sigma_2 = 7/16 >= 0 left in the tail
        ms = assemble_internal(es, [Indicator(0.0, 3.0)], 1)
        gain = design_gain(ms, poles=[-1.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        with pytest.raises(GapTooSmall):
            select_h2_constants(cert, ms, gain)

    def test_sector_budget_uses_the_full_actuator_norm(self):
        # hinged lam = 2, L = pi, J = 8: the retained modes' Bessel sum 2.4070
        # understates ||b||^2 = 2.5, and M proved against it comes out smaller
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 8)
        ms = assemble_internal(es, [Indicator(0.3, 2.8)], 1)
        gain = design_gain(ms, poles=[-4.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        bessel = np.sum(np.vstack([ms.B, ms.b_tail]) ** 2, axis=0)
        assert bessel[0] == pytest.approx(2.4070, abs=1e-4)
        assert select_h2_constants(cert, ms, gain).M == pytest.approx(1.5584, abs=1e-4)
        understated = replace(ms, shape_norms_sq=bessel)
        assert select_h2_constants(cert, understated, gain).M == pytest.approx(1.5072, abs=1e-4)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def floats(draw, *shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(FINITE, min_size=size, max_size=size))).reshape(shape)


@st.composite
def synth_records(draw):
    """A certificate head, gain, certificate and constants as synth could write them."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(1, 3))
    pairs = draw(st.integers(0, n // 2))  # complex-conjugate pairs; the rest is real
    real = floats(draw, n - 2 * pairs)
    re, im = floats(draw, pairs), floats(draw, pairs)
    spectrum = np.concatenate([real, re, re]).astype(complex)
    spectrum.imag[real.size :] = np.concatenate([im, -im])
    gain = Gain(K=floats(draw, m, n), closed_loop_spectrum=spectrum)
    ell = draw(st.floats(min_value=0.0, exclude_min=True) | st.just(math.inf))
    cert = consts = None
    if n and draw(st.booleans()):  # otherwise the null certificate
        cert = Certificate(
            P=floats(draw, n, n), D=floats(draw, m, m), C=floats(draw, m, n),
            alpha=draw(FINITE), beta_min=draw(FINITE), beta_max=draw(FINITE), ell=ell,
        )
        consts = H2Constants(*floats(draw, 6).tolist())
    head = certificate_head(
        "internal", n, m, draw(st.integers(n + 1, 64)), draw(FINITE), ell, draw(FINITE)
    )
    return head, gain, cert, consts


def bits(value):
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


class TestCertificateFile:
    """certificate_document -> JSON text -> read_certificate gives back the same bits."""

    @settings(max_examples=200, deadline=None, database=None, print_blob=True)
    @given(synth_records())
    def test_round_trip_is_bit_exact(self, records):
        head, gain, cert, consts = records
        report = ControllabilityReport(gain.K.shape[1], gain.K.shape[1], True, True, None, ())
        text = json.dumps(certificate_document(head, replace(gain, report=report), cert, consts))
        back_gain, back_cert, back_consts = read_certificate(json.loads(text))
        assert bits(back_gain.K) == bits(gain.K)
        assert bits(back_gain.closed_loop_spectrum) == bits(gain.closed_loop_spectrum)
        assert (back_cert is None, back_consts is None) == (cert is None, consts is None)
        for record, back in ((cert, back_cert), (consts, back_consts)):
            for f in fields(record) if record is not None else ():
                assert bits(getattr(back, f.name)) == bits(getattr(record, f.name)), f.name

    def test_key_order(self):
        ms = scalar_system()
        gain = design_gain(ms, poles=[-2.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        consts = select_h2_constants(cert, ms, gain)
        head = certificate_head(ms.mode, ms.n, ms.m, 8, 4.0, 1.0, DT)
        top = [
            "mode", "n", "m", "J", "eta", "ell", "dt", "K", "closed_loop_spectrum_real",
            "closed_loop_spectrum_imag", "diagnostics", "P", "D", "C", "alpha", "beta_min",
            "beta_max", "constants",
        ]
        doc = certificate_document(head, gain, cert, consts)
        assert list(doc) == top
        assert list(doc["diagnostics"]) == [
            "rank", "dim", "controllable", "stabilizable", "vandermonde", "pbh_failures_real",
        ]
        assert list(doc["constants"]) == ["M", "C1", "C2", "C3", "C4", "a"]
        null = certificate_document(head, gain, None, None)
        assert list(null) == top
        assert {key: null[key] for key in top[:7]} == head
        assert [null[key] for key in top[11:]] == [None] * 7

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("K", [[1.0], [2.0]], "K has shape (2, 1), the head asks for (1, 1)"),
            ("closed_loop_spectrum_real", [], "closed_loop_spectrum_real has shape (0,)"),
            ("closed_loop_spectrum_imag", [0.0, 0.0], "closed_loop_spectrum_imag has shape (2,)"),
            ("P", [1.0], "P has shape (1,), the head asks for (1, 1)"),
            ("D", [[1.0, 0.0]], "D has shape (1, 2), the head asks for (1, 1)"),
            ("C", [[0.0, 0.0]], "C has shape (1, 2), the head asks for (1, 1)"),
            ("P", None, "constants must be present exactly when P is"),
        ],
    )
    def test_shapes_checked_against_head(self, field, value, message):
        ms = scalar_system()
        gain = design_gain(ms, poles=[-2.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        consts = select_h2_constants(cert, ms, gain)
        head = certificate_head(ms.mode, ms.n, ms.m, 8, 4.0, 1.0, DT)
        doc = certificate_document(head, gain, cert, consts)
        read_certificate(doc)
        doc[field] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            read_certificate(doc)

    def test_unsaturated_level_written_as_inf(self):
        assert certificate_head("internal", 1, 1, 8, 4.0, math.inf, DT)["ell"] == "inf"
