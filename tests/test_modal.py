import math

import numpy as np
import pytest

from satstab.errors import CriticalLength
from satstab.modal import (
    Indicator,
    Lifting,
    ModeCombination,
    actuator_coefficients,
    actuator_norms_sq,
    assemble_boundary,
    assemble_internal,
)
from satstab.spectral import (
    BoundaryCondition,
    OperatorParams,
    composite_gauss_legendre,
    eigen_clamped,
    eigen_closed_form,
    unstable_count,
)

HINGED = BoundaryCondition.HINGED
NEUMANN = BoundaryCondition.NEUMANN_CH


@pytest.fixture(scope="module")
def es_pi():
    return eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 12)


class TestCoefficients:
    def test_full_window_first_mode(self, es_pi):
        b = actuator_coefficients(es_pi, [Indicator(0.0, math.pi)])[:1]
        assert b[0, 0] == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-13)

    def test_antisymmetric_window_kills_even_modes(self):
        L = 2.0
        es = eigen_closed_form(OperatorParams(1.0, L), HINGED, 8)
        b = actuator_coefficients(es, [Indicator(L / 4, 3 * L / 4)])
        scaled = es.modes.frequency * L / math.pi
        ks = np.round(scaled)
        assert np.all(np.abs(scaled - ks) <= 1e-12)
        for row in range(8):
            if ks[row] % 2 == 0:
                assert abs(b[row, 0]) < 1e-12

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            Indicator(0.3, 0.3)

    def test_window_inside_domain(self, es_pi):
        with pytest.raises(ValueError):
            actuator_coefficients(es_pi, [Indicator(0.0, 10.0)])

    @pytest.mark.parametrize(
        "es, window",
        [
            (eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 12), (0.4, 2.2)),
            (eigen_closed_form(OperatorParams(2.0, math.pi), NEUMANN, 8), (0.1, 1.9)),
            (eigen_clamped(OperatorParams(45.0, 1.0), 24), (0.1, 0.6)),
        ],
        ids=["hinged", "neumann", "clamped"],
    )
    def test_indicator_column_matches_fine_quadrature(self, es, window):
        # oracle: 400 panels of a 20-point Gauss-Legendre rule over the window
        a, b = window
        rule = composite_gauss_legendre(b - a, 400, 20)
        fine = es.modes(rule.nodes + a) @ rule.weights
        column = actuator_coefficients(es, [Indicator(a, b)])[:, 0]
        np.testing.assert_allclose(column, fine, rtol=0.0, atol=1e-13)

    def test_mode_combination_passthrough(self, es_pi):
        b = actuator_coefficients(es_pi, [ModeCombination([0.0, 1.5, -0.5])])[:5]
        np.testing.assert_allclose(b[:, 0], [0.0, 1.5, -0.5, 0.0, 0.0])

    def test_bessel_inequality(self, es_pi):
        shapes = [Indicator(0.3, 1.1), ModeCombination([1.0, 2.0])]
        coeffs = actuator_coefficients(es_pi, shapes)
        norms = actuator_norms_sq(shapes)
        partial = np.sum(coeffs**2, axis=0)
        assert np.all(partial <= norms + 1e-12)


class TestAssembleInternal:
    def test_scalar_example(self, es_pi):
        ms = assemble_internal(es_pi, [Indicator(0.0, math.pi)], 1)
        np.testing.assert_allclose(ms.A, [[1.0]])
        assert ms.B[0, 0] == pytest.approx(2.0 * math.sqrt(2.0 / math.pi))
        assert ms.b_tail.shape == (11, 1)

    def test_no_unstable_modes(self):
        es = eigen_closed_form(OperatorParams(0.5, 1.0), HINGED, 4)
        assert unstable_count(es).n == 0
        ms = assemble_internal(es, [Indicator(0.0, 0.5)], 0)
        assert ms.A.shape == (0, 0)
        assert ms.B.shape == (0, 1)

    def test_two_unstable(self):
        es = eigen_closed_form(OperatorParams(2.0, 2 * math.pi), HINGED, 8)
        ms = assemble_internal(es, [Indicator(0.0, 3.0)], 2)
        np.testing.assert_allclose(np.diag(ms.A), [1.0, 7.0 / 16.0], rtol=1e-13)

    def test_shape_norms_are_full_l2_norms(self):
        # not the retained modes' share of ||b||^2, which is smaller
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 8)
        shapes = [Indicator(0.3, 2.8), ModeCombination([1.0, 2.0])]
        ms = assemble_internal(es, shapes, 1)
        assert ms.shape_norms_sq.tolist() == [2.5, 5.0]
        table = np.vstack([ms.B, ms.b_tail])
        np.testing.assert_array_equal(table, actuator_coefficients(es, shapes))
        assert np.sum(table[:, 0] ** 2) < 2.5 - 0.09


class TestBoundary:
    def test_lifting_identities(self):
        lift = Lifting(3.0)
        assert lift.d(0.0) == 0.0
        assert lift.d(3.0) == 0.0
        assert lift.d1(0.0) == 1.0
        assert lift.d1(3.0) == 0.0

    def test_forcing_at_wall(self):
        lift = Lifting(1.0)
        assert lift.a(0.0, 1.0) == pytest.approx(4.0)

    def test_norms(self):
        lift = Lifting(2.0)
        x = np.linspace(0, 2, 20001)
        assert lift.d_norm_sq() == pytest.approx(np.trapezoid(lift.d(x) ** 2, x), rel=1e-6)

    def test_critical_length_rejected(self):
        es = eigen_clamped(OperatorParams(10 * math.pi**2, 1.0), 4)
        with pytest.raises(CriticalLength):
            assemble_boundary(es, unstable_count(es).n)
        # the critical set scales with 1 / L^2
        es = eigen_clamped(OperatorParams(10 * math.pi**2 / 4, 2.0), 4)
        with pytest.raises(CriticalLength):
            assemble_boundary(es, unstable_count(es).n)

    def test_structure(self):
        es = eigen_clamped(OperatorParams(45.0, 1.0), 6)
        n = unstable_count(es).n
        assert n >= 1
        ms = assemble_boundary(es, n)
        assert ms.dim == n + 1
        assert ms.B[0, 0] == 1.0
        np.testing.assert_allclose(ms.A[0], 0.0)
        eigs = np.sort(np.linalg.eigvals(ms.A).real)[::-1]
        expected = np.sort(np.concatenate([[0.0], es.values[:n]]))[::-1]
        np.testing.assert_allclose(eigs, expected, atol=1e-10)
        assert ms.a_tail.shape == (6 - n,)

    @pytest.mark.parametrize("lam, length", [(45.0, 1.0), (20.0, 2.0)])
    def test_lift_coefficients_project_d(self, lam, length):
        es = eigen_clamped(OperatorParams(lam, length), 10)
        ms = assemble_boundary(es, unstable_count(es).n)
        lift = Lifting(length)
        x, w = es.quadrature.nodes, es.quadrature.weights
        expected = np.array([math.fsum(w * es.basis[j] * lift.d(x)) for j in range(es.count)])
        assert np.max(np.abs(expected)) > 1e-3
        np.testing.assert_allclose(ms.lift_coefficients, expected, rtol=0.0, atol=1e-12)

    def test_field_coefficients(self, es_pi):
        es = eigen_clamped(OperatorParams(45.0, 1.0), 6)
        ms = assemble_boundary(es, unstable_count(es).n)
        rng = np.random.default_rng(5)
        states = rng.standard_normal((4, 7))
        d = ms.lift_coefficients
        for row, field in zip(states, ms.field_coefficients(states)):
            np.testing.assert_array_equal(field, row[1:] + row[0] * d)
        internal = assemble_internal(es_pi, [Indicator(0.0, 1.0)], 1)
        assert internal.lift_coefficients is None
        np.testing.assert_array_equal(internal.field_coefficients(states), states)

    def test_requires_clamped(self, es_pi):
        with pytest.raises(ValueError):
            assemble_boundary(es_pi, 1)
