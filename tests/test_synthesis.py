import math

import numpy as np
import pytest

from satstab.errors import GapTooSmall, NotStabilizable
from satstab.modal import Indicator, ModeCombination, actuator_coefficients, assemble_internal
from satstab.saturation import UNSATURATED, SaturationLevel
from satstab.spectral import BoundaryCondition, OperatorParams, eigen_closed_form
from satstab.synthesis import (
    Certificate,
    Gain,
    build_certificate,
    check_certificate,
    design_gain,
    diagnose_pair,
    ellipsoid_contains,
    kalman_matrix,
    sample_ellipsoid,
    select_h2_constants,
)

HINGED = BoundaryCondition.HINGED


def scalar_system(b_coeff=1.0):
    """lam=2, L=pi: one unstable mode with sigma_1 = 1 and a unit actuator."""
    es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 8)
    coeffs = actuator_coefficients(es, [ModeCombination([b_coeff])])
    return assemble_internal(es, coeffs, 1, shape_norms_sq=[b_coeff**2])


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

    def test_modal_system_entry_point(self):
        ms = scalar_system()
        rep = diagnose_pair(ms.A, ms.B)
        assert rep.controllable
        assert rep.vandermonde_value == pytest.approx(1.0)


class TestDesignGain:
    def test_scalar_pole_placement(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 8)
        coeffs = actuator_coefficients(es, [Indicator(0.0, math.pi)])
        ms = assemble_internal(es, coeffs, 1)
        gain = design_gain(ms, poles=[-2.0])
        expected = -1.5 * math.sqrt(math.pi / 2.0)
        assert gain.K[0, 0] == pytest.approx(expected, rel=1e-12)
        assert gain.closed_loop_spectrum[0].real == pytest.approx(-2.0, abs=1e-12)

    def test_empty_system(self):
        es = eigen_closed_form(OperatorParams(0.5, 1.0), HINGED, 4)
        coeffs = actuator_coefficients(es, [Indicator(0.0, 0.5)])
        ms = assemble_internal(es, coeffs, 0)
        gain = design_gain(ms)
        assert gain.K.shape == (1, 0)
        assert gain.hurwitz

    def test_two_pole_placement(self):
        es = eigen_closed_form(OperatorParams(2.0, 2 * math.pi), HINGED, 8)
        coeffs = actuator_coefficients(es, [Indicator(0.0, 3.0)])
        ms = assemble_internal(es, coeffs, 2)
        gain = design_gain(ms, poles=[-1.0, -2.0])
        got = np.sort(gain.closed_loop_spectrum.real)
        np.testing.assert_allclose(got, [-2.0, -1.0], atol=1e-10)

    def test_default_poles_use_gap(self):
        ms = scalar_system()
        gain = design_gain(ms)
        # eta = 4 for lam=2, L=pi
        assert gain.closed_loop_spectrum[0].real == pytest.approx(-4.0, abs=1e-10)

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

    def test_riccati_for_stabilizable_pair(self):
        ms = scalar_system()
        pair = type(ms)(
            es=ms.es,
            n=3,
            A=np.diag([-1.0, -1.0, 1.0]),
            B=np.array([[0.0], [0.0], [1.0]]),
            b_tail=np.zeros((0, 1)),
            mode="internal",
            shape_norms_sq=np.array([1.0]),
        )
        gain = design_gain(pair)
        assert gain.hurwitz

    def test_multi_input_riccati(self):
        ms = scalar_system()
        pair = type(ms)(
            es=ms.es,
            n=2,
            A=np.diag([1.0, 0.5]),
            B=np.array([[1.0, 0.2], [0.0, 1.0]]),
            b_tail=np.zeros((0, 2)),
            mode="internal",
            shape_norms_sq=np.array([1.0, 1.0]),
        )
        gain = design_gain(pair)
        assert gain.hurwitz


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
        coeffs = actuator_coefficients(es, [Indicator(0.0, 3.0)])
        ms = assemble_internal(es, coeffs, 2)
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
        assert (check.schur_min >= 0.0) == (check.lambda_min_m2 >= -1e-12)


class TestEllipsoid:
    def test_center(self):
        cert = Certificate(
            P=np.array([[9.0]]), D=np.array([[2.0]]), C=np.array([[0.0]]),
            alpha=1.0, beta_min=9.0, beta_max=9.0, ell=1.0,
        )
        assert ellipsoid_contains(cert, [0.0])

    def test_boundary_and_outside(self):
        cert = Certificate(
            P=np.array([[9.0]]), D=np.array([[2.0]]), C=np.array([[0.0]]),
            alpha=1.0, beta_min=9.0, beta_max=9.0, ell=1.0,
        )
        assert ellipsoid_contains(cert, [1.0 / 3.0])
        assert not ellipsoid_contains(cert, [0.34])

    def test_sector_inclusion_sampling(self):
        es = eigen_closed_form(OperatorParams(2.0, 2 * math.pi), HINGED, 8)
        coeffs = actuator_coefficients(es, [Indicator(0.0, 3.0)])
        ms = assemble_internal(es, coeffs, 2)
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
        consts = select_h2_constants(cert, ms, gain, ms.es)
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
        coeffs = actuator_coefficients(es, [Indicator(0.0, 3.0)])
        ms = assemble_internal(
            es, coeffs, 2, shape_norms_sq=[3.0]
        )
        gain = design_gain(ms, poles=[-0.5, -1.0])
        cert = build_certificate(ms, gain, SaturationLevel(2.0))
        consts = select_h2_constants(cert, ms, gain, es)
        assert consts.M > 0 and consts.a > 0

    def test_wrong_split_raises(self):
        es = eigen_closed_form(OperatorParams(2.0, 2 * math.pi), HINGED, 8)
        coeffs = actuator_coefficients(es, [Indicator(0.0, 3.0)])
        ms = assemble_internal(es, coeffs, 1)  # sigma_2 = 7/16 >= 0 left in the tail
        gain = design_gain(ms, poles=[-1.0])
        cert = build_certificate(ms, gain, SaturationLevel(1.0))
        with pytest.raises(GapTooSmall):
            select_h2_constants(cert, ms, gain, es)
