import math

import numpy as np
import pytest
from scipy.linalg import eig_banded
from scipy.optimize import brentq

from satstab import spectral
from satstab.errors import AllModesUnstable, ConvergenceFailure
from satstab.spectral import (
    BoundaryCondition,
    ClampedMode,
    OperatorParams,
    composite_gauss_legendre,
    critical_set_member,
    eigen_clamped,
    eigen_closed_form,
    eigen_residual,
    quadrature_for_modes,
    unstable_count,
)

HINGED = BoundaryCondition.HINGED
NEUMANN = BoundaryCondition.NEUMANN_CH
CLAMPED = BoundaryCondition.CLAMPED


class TestClosedForm:
    def test_hinged_first_three(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 3)
        np.testing.assert_allclose(es.values, [1.0, -8.0, -63.0], rtol=1e-14)

    def test_zero_crossing(self):
        L = 2.5
        es = eigen_closed_form(OperatorParams((math.pi / L) ** 2, L), HINGED, 2)
        assert abs(es.values[0]) < 1e-14

    def test_neumann_constant_mode(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), NEUMANN, 3)
        # sorted: sigma = (1, 0, -8); the zero belongs to the constant mode
        np.testing.assert_allclose(es.values, [1.0, 0.0, -8.0], atol=1e-14)
        j = int(np.where(es.mode_index == 0)[0][0])
        x = np.linspace(0, math.pi, 7)
        np.testing.assert_allclose(es.modes[j](x), 1 / math.sqrt(math.pi), rtol=1e-14)

    def test_sorting_not_wavenumber_order(self):
        # lam=10, L=2*pi peaks at k=4
        es = eigen_closed_form(OperatorParams(10.0, 2 * math.pi), HINGED, 8)
        assert es.mode_index[0] == 4
        assert np.all(np.diff(es.values) <= 1e-14)

    def test_orthonormality(self):
        for bc in (HINGED, NEUMANN):
            es = eigen_closed_form(OperatorParams(2.0, math.pi), bc, 16)
            g = (es.basis * es.quadrature.weights) @ es.basis.T
            assert np.max(np.abs(g - np.eye(16))) < 1e-10

    def test_residuals(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 12)
        for j in range(12):
            assert eigen_residual(es, j) < 1e-6

    def test_bc_residual_and_norm_error(self):
        for bc in (HINGED, NEUMANN):
            es = eigen_closed_form(OperatorParams(0.5, 1.0), bc, 6)
            for j in range(6):
                assert es.bc_residual(j) < 1e-10
                assert es.norm_error(j) < 1e-12

    def test_monotone_tail(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 32)
        assert es.values[31] / es.values[15] >= 8.0

    def test_quadrature_refinement_stable(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 8)
        fine = composite_gauss_legendre(math.pi, 64, 20)
        coarse_g = (es.basis * es.quadrature.weights) @ es.basis.T
        bf = np.array([m(fine.nodes) for m in es.modes])
        fine_g = (bf * fine.weights) @ bf.T
        assert np.max(np.abs(fine_g - coarse_g)) < 1e-12

    def test_param_validation(self):
        with pytest.raises(ValueError):
            OperatorParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            OperatorParams(1.0, 0.0)
        with pytest.raises(ValueError):
            eigen_closed_form(OperatorParams(1.0, 1.0), HINGED, 0)


class TestUnstableCount:
    def test_basic(self):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 6)
        split = unstable_count(es)
        assert split.n == 1
        assert split.eta == pytest.approx(4.0)

    def test_zero_counts_unstable(self):
        L = 2.0
        es = eigen_closed_form(OperatorParams((math.pi / L) ** 2, L), HINGED, 4)
        assert unstable_count(es).n == 1

    def test_two_unstable(self):
        es = eigen_closed_form(OperatorParams(2.0, 2 * math.pi), HINGED, 8)
        split = unstable_count(es)
        assert split.n == 2
        assert split.eta == pytest.approx(9.0 / 32.0)

    def test_invariant_under_appending_modes(self):
        p = OperatorParams(2.0, 2 * math.pi)
        a = unstable_count(eigen_closed_form(p, HINGED, 8))
        b = unstable_count(eigen_closed_form(p, HINGED, 32))
        assert a == b

    def test_all_unstable_raises(self):
        es = eigen_closed_form(OperatorParams(10.0, 2 * math.pi), HINGED, 2)
        with pytest.raises(AllModesUnstable):
            unstable_count(es)


class TestCriticalSet:
    def test_member(self):
        assert critical_set_member(10 * math.pi**2, 1.0)

    def test_parity_excluded(self):
        assert not critical_set_member(5 * math.pi**2, 1.0)

    def test_below_minimum(self):
        assert not critical_set_member(1.0, 1.0)

    def test_tolerance_window(self):
        assert critical_set_member(10 * math.pi**2 + 1e-9, 1.0, tol=1e-8)
        assert not critical_set_member(10 * math.pi**2 + 1e-3, 1.0, tol=1e-8)

    def test_length_scaling(self):
        # the set is {pi^2 (k^2 + l^2) / L^2}: 10 pi^2 / 4 is critical at L = 2 only
        assert critical_set_member(10 * math.pi**2 / 4, 2.0)
        assert not critical_set_member(10 * math.pi**2 / 4, 1.0)
        assert not critical_set_member(5 * math.pi**2 / 4, 2.0)
        assert critical_set_member(40.0, math.pi)

    @pytest.mark.parametrize("length", [1.0, 2.0, math.pi])
    def test_matches_double_unstable_eigenvalue(self, length):
        # member exactly when the exact solver returns a double unstable eigenvalue
        for k in range(1, 4):
            for l in range(k, k + 4):
                lam = math.pi**2 * (k * k + l * l) / length**2
                es = eigen_clamped(OperatorParams(lam, length), 2 * l + 4)
                head = es.values[: unstable_count(es).n]
                gaps = -np.diff(head) / np.abs(head[1:])
                double = bool(np.any(gaps <= 1e-12))
                assert double == critical_set_member(lam, length), (k, l)
                if not double:
                    assert np.all(gaps > 1e-6), (k, l)


def beam_root():
    # clamped-clamped beam: cos(s) cosh(s) = 1, first root
    return brentq(lambda s: math.cos(s) * math.cosh(s) - 1.0, 4.5, 5.0, xtol=1e-14)


def orthonormality_error(es):
    g = (es.basis * es.quadrature.weights) @ es.basis.T
    return float(np.max(np.abs(g - np.eye(es.count))))


GRID_LAMS = [2.0, 20.0, 45.0, 60.0, 100.0]
GRID_LENGTHS = [1.0, 2.0, math.pi]


class TestClampedSolver:
    def test_beam_ground_state(self):
        es = eigen_clamped(OperatorParams(0.0, 1.0), 1)
        assert es.values[0] == pytest.approx(-beam_root() ** 4, rel=1e-12)

    def test_double_eigenvalue_exact(self):
        # lam = 10 pi^2, L = 1: cos 3 pi t + 3 cos pi t and sin 3 pi t + sin pi t
        # (t = x - 1/2) share sigma = 9 pi^4
        es = eigen_clamped(OperatorParams(10 * math.pi**2, 1.0), 6)
        np.testing.assert_allclose(es.values[:2], 9 * math.pi**4, rtol=1e-13)
        assert orthonormality_error(es) < 1e-12
        t = es.quadrature.nodes - 0.5
        even = np.cos(3 * math.pi * t) + 3 * np.cos(math.pi * t)
        even /= math.sqrt(es.quadrature.integrate(even**2))
        j = [mode.odd for mode in es.modes[:2]].index(0)
        np.testing.assert_allclose(es.basis[j], even, atol=1e-12)

    def test_orthonormality_and_bc(self):
        es = eigen_clamped(OperatorParams(2.0, math.pi), 4)
        assert orthonormality_error(es) < 1e-12
        for j in range(4):
            assert es.bc_residual(j) < 1e-10
            assert eigen_residual(es, j) < 1e-10

    @pytest.mark.parametrize("count", [8, 16, 32, 64])
    @pytest.mark.parametrize("lam", GRID_LAMS)
    @pytest.mark.parametrize("length", GRID_LENGTHS)
    def test_exact_over_grid(self, count, lam, length):
        es = eigen_clamped(OperatorParams(lam, length), count)
        assert np.all(np.diff(es.values) <= 0.0)
        assert orthonormality_error(es) <= 1e-12
        for j in range(count):
            assert eigen_residual(es, j) <= 1e-10
            assert es.bc_residual(j) <= 1e-10

    @pytest.mark.parametrize(
        "lam, length",
        # plus lam L^2 ~ 2000, where the trig-side roots near sigma = 0 crowd in q
        [(lam, length) for lam in GRID_LAMS for length in GRID_LENGTHS] + [(200.0, math.pi)],
    )
    def test_complete_against_banded_stencil(self, lam, length):
        # no root skipped: the 32 values match the top of the second-order
        # clamped stencil at 2048 cells, whose error here is at most 5e-4 of
        # the scale below
        count, cells = 32, 2048
        h = length / cells
        m = cells - 1
        band = np.zeros((3, m))
        band[2] = -6.0 / h**4 + 2.0 * lam / h**2
        band[2, [0, -1]] -= 1.0 / h**4
        band[1, 1:] = 4.0 / h**4 - lam / h**2
        band[0, 2:] = -1.0 / h**4
        stencil = eig_banded(band, eigvals_only=True, select="i", select_range=(m - count, m - 1))
        es = eigen_clamped(OperatorParams(lam, length), count)
        scale = np.maximum(np.abs(es.values), lam**2 / 4)
        assert np.max(np.abs(stencil[::-1] - es.values) / scale) <= 2e-3

    def test_gram_d2_identity_matches_quadrature(self):
        # gram_d2 comes from lam * gram_d1 - diag(sigma); check it against
        # direct quadrature of the analytic second derivatives
        for lam, length in ((2.0, math.pi), (45.0, 1.0), (100.0, 2.0)):
            es = eigen_clamped(OperatorParams(lam, length), 12)
            direct = (es.basis_d2 * es.quadrature.weights) @ es.basis_d2.T
            scale = np.max(np.abs(direct))
            assert np.max(np.abs(es.gram_d2 - direct)) <= 1e-12 * scale

    def test_sign_convention(self):
        # every mode is signed so that y''(0) > 0; this fixes "smooth" states
        for lam, length in ((0.0, 1.0), (45.0, 1.0), (10 * math.pi**2, 1.0), (100.0, math.pi)):
            es = eigen_clamped(OperatorParams(lam, length), 16)
            assert all(float(mode(0.0, 2)) > 0.0 for mode in es.modes)

    def test_high_root_does_not_overflow(self):
        # p L / 2 > 710: cosh(p t) itself overflows, the stored form must not
        lam, length, half = 45.0, 1.0, 0.5
        q = brentq(
            spectral._secular, 1421.0 * math.pi, 1422.0 * math.pi, args=(lam, half, 0), xtol=1e-300
        )
        mode = spectral._mode_at_root(OperatorParams(lam, length), q, 0)
        assert isinstance(mode, ClampedMode) and mode.partner == "hyperbolic"
        assert mode.w * half > 710.0
        rule = quadrature_for_modes(length, int(q * length / math.pi) + 1)
        values = mode(rule.nodes)
        assert np.all(np.isfinite(values))
        norm = math.sqrt(rule.integrate(values**2))
        for d in (0, 1):
            for x in (0.0, length):
                assert abs(float(mode(x, d))) / norm <= 1e-10

    def test_too_few_roots_raise_convergence_failure(self, monkeypatch):
        monkeypatch.setattr(spectral, "_secular", lambda q, lam, half, odd: 1.0)
        with pytest.raises(ConvergenceFailure, match="bracketed 0 of 8"):
            eigen_clamped(OperatorParams(2.0, 1.0), 8)


class TestPolish:
    @pytest.mark.parametrize("lam", [0.0, 2.0, 45.0, 1e3, 1e4])
    @pytest.mark.parametrize("length", [0.2, 1.0, math.pi, 8.0])
    def test_matches_brentq_on_every_bracket(self, lam, length, monkeypatch):
        # oracle: brentq at full precision on each bracket the scan hands over
        polish = spectral._polish
        calls = []

        def recording(f, a, b, fa, fb, args):
            points = []

            def counted(x, *rest):
                points.append(x)
                return f(x, *rest)

            root = polish(counted, a, b, fa, fb, args)
            calls.append((f, a, b, args, root, len(points)))
            return root

        monkeypatch.setattr(spectral, "_polish", recording)
        eigen_clamped(OperatorParams(lam, length), 24)
        assert calls
        for f, a, b, args, root, evaluations in calls:
            ref = brentq(f, a, b, args=args, xtol=1e-300)
            assert abs(root - ref) <= 4.0 * np.spacing(ref), (a, b, root, ref)
            assert evaluations <= 20

    @pytest.mark.parametrize("height", [1.0, 1e6])
    def test_step_function_stops_within_cap(self, height):
        # a jump has no root to converge on; the bisection safeguard still
        # halves the bracket at least once per three evaluations, also when
        # the lopsided values keep false position next to one end
        jump = 1.2345678
        evaluations = []

        def step(x):
            evaluations.append(x)
            return -1.0 if x < jump else height

        a, b = 1.0, 2.0
        root = spectral._polish(step, a, b, -1.0, height)
        eps = np.finfo(float).eps
        halvings = math.ceil(math.log2((b - a) / (4.0 * eps * b)))
        assert len(evaluations) <= 3 * halvings <= spectral._POLISH_MAX_EVALS
        assert abs(root - jump) <= 4.0 * eps * jump

    def test_exact_zero_returned(self):
        assert spectral._polish(lambda x: x - 0.75, 0.5, 1.0, -0.25, 0.25) == 0.75


class TestQuadrature:
    def test_polynomial_exactness(self):
        q = composite_gauss_legendre(2.0, 4, 8)
        assert q.integrate(q.nodes**7) == pytest.approx(2.0**8 / 8.0, rel=1e-13)

    def test_cubic_mode_products(self):
        L = math.pi
        q = quadrature_for_modes(L, 16)
        f = np.sin(16 * math.pi * q.nodes / L) ** 2 * np.sin(14 * math.pi * q.nodes / L)
        # odd-even product integrates to zero up to rule accuracy
        assert abs(q.integrate(f)) < 1e-12
        g = np.sin(16 * math.pi * q.nodes / L) ** 2
        assert q.integrate(g) == pytest.approx(L / 2, rel=1e-13)

    @pytest.mark.parametrize("J", [1, 8, 24])
    def test_hinged_midpoint_rule_exact(self, J):
        # y y_x e_j and y^3 e_j'' are cosine polynomials of degree <= 4J.  The
        # phases m pi x_i / L = m pi (2i + 1) / 2N are reduced mod 2 pi in
        # integers: rounded float phases near 4J pi would be off by 1e-14.
        L = math.pi
        q = eigen_closed_form(OperatorParams(2.0, L), HINGED, J).quadrature
        N = 2 * J + 1
        i = np.arange(N)
        assert q.nodes.size == N
        np.testing.assert_allclose(q.nodes, (i + 0.5) * L / N, rtol=1e-15)
        np.testing.assert_array_equal(q.weights, L / N)
        for m in range(1, 4 * J + 1):
            phase = math.pi * (m * (2 * i + 1) % (4 * N)) / (2 * N)
            assert abs(q.integrate(np.cos(phase))) < 1e-15
        assert q.integrate(np.ones(N)) == pytest.approx(L, rel=1e-15)

    @pytest.mark.parametrize("order", [8, 16, 20])
    def test_cached_rule_matches_leggauss(self, order):
        nodes, weights = spectral._gauss_legendre(order)
        fresh_nodes, fresh_weights = np.polynomial.legendre.leggauss(order)
        np.testing.assert_array_equal(nodes, fresh_nodes)
        np.testing.assert_array_equal(weights, fresh_weights)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert spectral._gauss_legendre(order)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0

    def test_eigen_tables_match_uncached_rule(self, monkeypatch):
        def build():
            clamped = eigen_clamped(OperatorParams(45.0, 1.0), 8)
            hinged = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 12)
            return clamped, hinged, composite_gauss_legendre(2.0, 3, 16)

        cached = build()
        monkeypatch.setattr(spectral, "_gauss_legendre", np.polynomial.legendre.leggauss)
        fresh = build()
        for a, b in zip(cached[:2], fresh[:2]):
            for name in ("values", "basis", "basis_d1", "basis_d2", "gram_d1", "gram_d2"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            np.testing.assert_array_equal(a.quadrature.nodes, b.quadrature.nodes)
            np.testing.assert_array_equal(a.quadrature.weights, b.quadrature.weights)
        np.testing.assert_array_equal(cached[2].nodes, fresh[2].nodes)
        np.testing.assert_array_equal(cached[2].weights, fresh[2].weights)
