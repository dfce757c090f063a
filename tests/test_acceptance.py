"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertion itself.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from satstab.errors import CertificateFailure, CriticalLength
from satstab.modal import (
    Indicator,
    ModeCombination,
    assemble_boundary,
    assemble_internal,
)
from satstab.saturation import SaturationLevel, UNSATURATED, deadzone
from satstab.simulate import (
    EXIT_BLOWUP,
    EXIT_HORIZON,
    SimConfig,
    fit_decay_rate,
    gronwall_bound,
    run,
    run_batch,
)
from satstab.spectral import (
    BoundaryCondition,
    OperatorParams,
    eigen_clamped,
    eigen_closed_form,
    unstable_count,
)
from satstab.synthesis import (
    Certificate,
    Gain,
    build_certificate,
    check_certificate,
    design_gain,
    diagnose_pair,
    kalman_matrix,
    sample_ellipsoid,
    select_h2_constants,
    solve_lyapunov,
)

HINGED = BoundaryCondition.HINGED
NEUMANN = BoundaryCondition.NEUMANN_CH


def announce(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def build_loop(lam, length, bc, shape, n_modes, poles, ell):
    es = eigen_closed_form(OperatorParams(lam, length), bc, n_modes)
    split = unstable_count(es)
    ms = assemble_internal(es, [shape], split.n)
    gain = design_gain(ms, poles=poles)
    level = SaturationLevel(ell) if not math.isinf(ell) else UNSATURATED
    cert = build_certificate(ms, gain, level)
    return es, split, ms, gain, cert, level


def test_criterion_01_hinged_spectrum_closed_form():
    for lam in (0.5, 2.0, 10.0):
        for length in (1.0, math.pi, 2 * math.pi):
            es = eigen_closed_form(OperatorParams(lam, length), HINGED, 64)
            scaled = es.modes.frequency * length / math.pi
            ks = np.round(scaled)
            assert np.all(np.abs(scaled - ks) <= 1e-12)
            assert sorted(ks) == list(range(1, 65))  # each wavenumber once, from the oracle's side
            for row in range(64):
                k = int(ks[row])
                mu = (k * math.pi / length) ** 2
                expected = mu * (lam - mu)
                assert es.values[row] == pytest.approx(
                    expected, rel=1e-10, abs=1e-10
                )
    announce(1, "hinged spectrum matches the closed form")


def test_criterion_02_clamped_cross_validation():
    # exact double eigenvalue 9 pi^4 at lam = 10 pi^2, L = 1 (q = 3 pi, r = pi)
    es = eigen_clamped(OperatorParams(10 * math.pi**2, 1.0), 4)
    np.testing.assert_allclose(es.values[:2], 9 * math.pi**4, rtol=1e-13)
    gram = (es.basis * es.quadrature.weights) @ es.basis.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    # clamped ground state vs the beam characteristic root
    root = brentq(lambda s: math.cos(s) * math.cosh(s) - 1.0, 4.5, 5.0, xtol=1e-14)
    es = eigen_clamped(OperatorParams(0.0, 1.0), 1)
    assert es.values[0] == pytest.approx(-(root**4), rel=1e-12)

    # brute-force dense second-order eigensolve at 2048 grid points
    from scipy.linalg import eigh

    n_cells = 2048
    h = math.pi / n_cells
    m = n_cells - 1
    main_d = np.full(m, -6.0 / h**4 + 2.0 * 2.0 / h**2)
    main_d[0] += -1.0 / h**4
    main_d[-1] += -1.0 / h**4
    off1 = np.full(m - 1, 4.0 / h**4 - 2.0 / h**2)
    off2 = np.full(m - 2, -1.0 / h**4)
    dense = (
        np.diag(main_d)
        + np.diag(off1, 1)
        + np.diag(off1, -1)
        + np.diag(off2, 2)
        + np.diag(off2, -2)
    )
    brute = eigh(dense, eigvals_only=True, subset_by_index=[m - 2, m - 1])[::-1]
    es2 = eigen_clamped(OperatorParams(2.0, math.pi), 2)
    np.testing.assert_allclose(es2.values, brute, rtol=1e-4)
    announce(2, "clamped solver cross-validates against oracles")


def test_criterion_03_kalman_product_formula():
    # (seed, sizes, eigenvalue spread, least gap, least |b|): 100 draws each; the
    # second set reaches closer eigenvalues and smaller inputs
    for seed, sizes, spread, gap, b_low in ((2024, (2, 6), 5.0, 0.3, 0.5),
                                            (4048, (2, 5), 4.0, 0.25, 0.4)):
        rng = np.random.default_rng(seed)
        done = 0
        while done < 100:
            n = int(rng.integers(*sizes))
            sigma = np.sort(rng.uniform(-spread, spread, n))[::-1]
            if n > 1 and np.min(-np.diff(sigma)) < gap:
                continue
            b = rng.uniform(b_low, 2.0, n) * rng.choice([-1.0, 1.0], n)
            det = float(np.linalg.det(kalman_matrix(np.diag(sigma), b[:, None])))
            rep = diagnose_pair(np.diag(sigma), b[:, None])
            assert det == pytest.approx(rep.vandermonde_value, rel=1e-8)
            done += 1

    A = np.diag([2.0, 2.0, 1.0])
    assert diagnose_pair(A, [[2.0], [3.0], [4.0]]).rank == 2
    assert diagnose_pair(A, [[2.0, 1.0], [3.0, 1.0], [4.0, 1.0]]).rank == 3
    assert diagnose_pair(A, [[2.0, 0.0], [3.0, 0.0], [4.0, 1.0]]).rank == 2
    announce(3, "kalman determinant product and the rank triple")


_SWEEP = [
    (HINGED, 1.5, math.pi, 0.5),
    (HINGED, 2.0, math.pi, 1.0),
    (HINGED, 3.0, math.pi, 2.0),
    (HINGED, 8.0, math.pi, math.inf),
    (HINGED, 2.0, 2 * math.pi, 0.5),
    (HINGED, 4.8, 2 * math.pi, 1.0),
    (HINGED, 12.0, 1.0, 2.0),
    (HINGED, 2.6, 2 * math.pi, math.inf),
    (HINGED, 7.9, math.pi, 1.0),
    (HINGED, 3.7, 2 * math.pi, 0.5),
    (NEUMANN, 2.0, math.pi, 1.0),
    (NEUMANN, 3.0, math.pi, 2.0),
    (NEUMANN, 1.5, 2 * math.pi, 0.5),
    (NEUMANN, 6.0, math.pi, math.inf),
    (NEUMANN, 2.2, 2 * math.pi, 1.0),
    (NEUMANN, 12.0, 1.0, 0.5),
    (NEUMANN, 4.5, math.pi, 2.0),
    (NEUMANN, 8.3, 2 * math.pi, 1.0),
    (NEUMANN, 2.8, math.pi, math.inf),
    (NEUMANN, 7.0, 2 * math.pi, 0.5),
]


# Neumann lam = 7, L = 2 pi: the indicator barely reaches the most unstable
# mode (b = -0.0044 at sigma = 12), so the stepped design's gain reaches 6e7
# and the rounding floor eps ||A+BK|| ||P0|| of the certificate's Lyapunov
# block is near 3e2, far above the -I it certifies.  Whether build_certificate
# accepts that block is decided by rounding (with numpy's OpenBLAS on x86-64
# it rejects it at dt = 5e-4 and accepts it at 1e-3), and `synth` exits 4
# where it rejects it.
_AT_ROUNDING = (NEUMANN, 7.0, 2 * math.pi)


def _certificate_at_rounding(ms, gain, level):
    """`build_certificate`'s result on the `_AT_ROUNDING` head, or None where it rejects the block."""
    acl = ms.A + ms.B @ gain.K
    p0, _ = solve_lyapunov(acl.T, -np.eye(ms.dim))
    floor = np.finfo(float).eps * np.linalg.norm(acl, 2) * np.linalg.norm(p0, 2)
    assert floor > 100.0
    try:
        return build_certificate(ms, gain, level)
    except CertificateFailure as exc:
        assert "the Lyapunov block" in str(exc)
        return None


def test_criterion_04_certificate_sweep():
    assert len(_SWEEP) == 20
    for (bc, lam, length, ell), dt in itertools.product(_SWEEP, (5e-4, 1e-3)):
        shape = Indicator(0.13 * length, 0.61 * length)
        es = eigen_closed_form(OperatorParams(lam, length), bc, 24)
        split = unstable_count(es)
        ms = assemble_internal(es, [shape], split.n)
        gain = design_gain(ms, dt=dt)
        level = SaturationLevel(ell) if not math.isinf(ell) else UNSATURATED
        if (bc, lam, length) == _AT_ROUNDING:
            cert = _certificate_at_rounding(ms, gain, level)
            if cert is None:
                continue
        else:
            cert = build_certificate(ms, gain, level)
        assert split.n >= 1
        # independent assembly and eigensolve of both block matrices
        acl = ms.A + ms.B @ gain.K
        m1 = np.block(
            [
                [acl.T @ cert.P + cert.P @ acl, cert.P @ ms.B - (cert.D @ cert.C).T],
                [(cert.P @ ms.B).T - cert.D @ cert.C, -2.0 * cert.D],
            ]
        )
        lam_max = float(np.max(np.linalg.eigvalsh(m1)))
        assert lam_max <= -cert.alpha + 1e-12
        assert cert.alpha > 0.0
        if not math.isinf(ell):
            m2 = np.block(
                [
                    [cert.P, (gain.K - cert.C).T],
                    [gain.K - cert.C, ell**2 * np.eye(ms.m)],
                ]
            )
            assert float(np.min(np.linalg.eigvalsh(m2))) >= -1e-9

    # documented scalar witnesses: P = 9, D = 2, C = 0, ell = 1, K = -3
    es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 8)
    ms = assemble_internal(es, [ModeCombination([1.0])], 1)
    gain = Gain(K=np.array([[-3.0]]), closed_loop_spectrum=np.array([-2.0]))
    cert = Certificate(
        P=np.array([[9.0]]), D=np.array([[2.0]]), C=np.array([[0.0]]),
        alpha=20.0 - math.sqrt(337.0), beta_min=9.0, beta_max=9.0, ell=1.0,
    )
    check = check_certificate(cert, ms, gain)
    assert check.lambda_max_m1 == pytest.approx(-20.0 + math.sqrt(337.0), abs=1e-9)
    assert -check.lambda_max_m1 == pytest.approx(20.0 - math.sqrt(337.0), abs=1e-9)
    assert check.ok
    announce(4, "certificate sweep valid under independent eigensolves")


def test_criterion_04_lyapunov_matches_scipy():
    # the certificate's Lyapunov solve on each sweep head, against scipy's
    from scipy.linalg import solve_continuous_lyapunov

    eps = np.finfo(float).eps
    for (bc, lam, length, ell), dt in itertools.product(_SWEEP, (5e-4, 1e-3)):
        shape = Indicator(0.13 * length, 0.61 * length)
        es = eigen_closed_form(OperatorParams(lam, length), bc, 24)
        ms = assemble_internal(es, [shape], unstable_count(es).n)
        gain = design_gain(ms, dt=dt)
        a = (ms.A + ms.B @ gain.K).T
        q = -np.eye(ms.dim)
        x, _ = solve_lyapunov(a, q)
        residual = np.linalg.norm(a @ x + x @ a.T - q) / (
            2.0 * np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q)
        )
        assert residual <= 1e-14
        oracle = solve_continuous_lyapunov(a, q)
        # the heads reach cond(P0) = 3.6e12 (Neumann, lam = 7, L = 2 pi), where
        # the two solves part at 4.6e-4.  On Neumann lam = 4.5, L = pi they part
        # at 25 eps cond(P0) (dt = 5e-4), and it is the Kronecker LU that strays:
        # 25 eps cond(P0) from a 50-digit solve, against scipy's 0.2
        change = np.linalg.norm(x - oracle) / np.linalg.norm(oracle)
        assert change <= 32.0 * eps * np.linalg.cond(oracle)


def test_criterion_05_sector_condition_fuzz():
    rng = np.random.default_rng(7531)
    checked = 0
    worst = -math.inf
    while checked < 100000:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        K = rng.normal(size=(m, n)) * rng.uniform(0.5, 3.0)
        C = rng.normal(size=(m, n)) * rng.uniform(0.0, 2.0)
        D = np.diag(rng.uniform(0.05, 5.0, m))
        ell = float(rng.uniform(0.2, 3.0))
        z = rng.normal(size=n)
        gap = float(np.max(np.abs((K - C) @ z)))
        if gap > 0.0:
            z = z * min(1.0, ell / gap) * rng.uniform(0.0, 1.0)
        assert np.all(np.abs((K - C) @ z) <= ell)
        level = SaturationLevel(ell)
        phi = deadzone(K @ z, level)
        value = float(phi @ D @ (phi + C @ z))
        worst = max(worst, value)
        assert value <= 1e-12
        checked += 1
    announce(5, f"sector inequality held on 1e5 fuzzed points (worst {worst:.1e})")


def test_criterion_06_v1_dissipation_and_invariance():
    es, split, ms, gain, cert, level = build_loop(
        2.0, math.pi, HINGED, Indicator(0.3, 2.8), 16, [-4.0], 1.0
    )
    rng = np.random.default_rng(99)
    starts = sample_ellipsoid(cert, rng, 50)
    dt = 1e-3
    acl = ms.A + ms.B @ gain.K
    scale = np.linalg.norm(acl, 2) + np.linalg.norm(ms.B @ gain.K, 2)
    slack = 4.0 * dt * float(np.linalg.norm(cert.P, 2)) * scale**2
    initials = np.zeros((len(starts), 16))
    initials[:, : ms.n] = starts
    config = SimConfig(dt=dt, T=2.0)
    for traj in run_batch(config, ms, gain, initials, cert, level=level):
        assert not traj.left_region
        assert np.all(traj.v1 <= 1.0 + 1e-9)
        dv = np.diff(traj.v1) / dt
        znorm_sq = np.sum(traj.states[:-1, : ms.n] ** 2, axis=1)
        assert np.all(dv <= -cert.alpha * znorm_sq + slack * znorm_sq + 1e-12)
    announce(6, "ellipsoid invariance and v1 dissipation on 50 starts")


@pytest.fixture(scope="module")
def decay_run():
    es, split, ms, gain, cert, level = build_loop(
        2.0, math.pi, HINGED, Indicator(0.0, math.pi), 32, [-4.0], 1.0
    )
    consts = select_h2_constants(cert, ms, gain)
    y0 = np.zeros(32)
    y0[0] = 0.9 / math.sqrt(cert.P[0, 0])
    y0[1:7] = 0.01 * 0.5 ** np.arange(6)
    config = SimConfig(dt=5e-4, T=4.0, initial=tuple(y0.tolist()))
    traj = run(config, ms, gain, cert, consts, level=level)
    return es, split, ms, gain, cert, consts, traj


def test_criterion_07_l2_decay(decay_run):
    es, split, ms, gain, cert, consts, traj = decay_run
    assert traj.exit_reason == EXIT_HORIZON
    placed = 4.0
    fit = fit_decay_rate(traj, "l2", t_start=0.5)
    assert fit.rate >= 0.8 * min(placed, split.eta)
    envelope = 1.05 * fit.prefactor * np.exp(-fit.rate * traj.times)
    assert np.all(traj.l2 <= envelope + 1e-15)
    announce(7, f"l2 decay rate {fit.rate:.3f} with pointwise envelope")


def test_criterion_08_h2_decay_envelope_and_sandwich(decay_run):
    es, split, ms, gain, cert, consts, traj = decay_run
    a = consts.a
    assert a == pytest.approx(1.0 / (2.0 * consts.C3 * cert.beta_max))
    envelope = 1.05 * traj.v2[0] * np.exp(-a * traj.times)
    assert np.all(traj.v2 <= envelope + 1e-12)
    znorm_sq = np.sum(traj.states[:, : ms.n] ** 2, axis=1)
    lower = 0.5 * consts.C1 * znorm_sq + consts.C1 / (2.0 * consts.C2) * traj.h2**2
    assert np.all(traj.v2 >= lower - 1e-10)
    announce(8, "v2 exponential envelope and sandwich bound")


def test_criterion_09_nonlinear_stabilization():
    for bc, delta, nu, label in ((HINGED, 1.0, 0.0, "convective"), (NEUMANN, 0.0, 1.0, "dispersive")):
        es = eigen_closed_form(OperatorParams(2.0, math.pi), bc, 24)
        split = unstable_count(es)
        shape = Indicator(0.0, 2.0)
        ms = assemble_internal(es, [shape], split.n)
        gain = design_gain(ms, dt=5e-4)
        level = SaturationLevel(1.0)
        cert = build_certificate(ms, gain, level)
        consts = select_h2_constants(cert, ms, gain)
        config = SimConfig(
            dt=5e-4, T=3.0, delta=delta, nu=nu, initial=("smooth", 1e-2)
        )
        traj = run(config, ms, gain, cert, consts, level=level)
        assert traj.exit_reason == EXIT_HORIZON
        fit = fit_decay_rate(traj, "h2", t_start=0.75)
        assert fit.rate > 0.0
        # structural identities along the trajectory
        w = es.quadrature.weights
        for k in range(0, traj.times.size, 400):
            state = traj.states[k]
            y = es.synthesize(state)
            yx = es.synthesize(state, 1)
            scale = max(1.0, float(np.sum(state**2)))
            if bc == HINGED:
                assert abs(float(w @ (y * y * yx))) <= 1e-10 * scale
            dispersive = float((es.basis_d2 @ (w * y**3)) @ state)
            assert dispersive <= 1e-10 * scale
    announce(9, "nonlinear loops decay in h2 with identities intact")


def test_criterion_10_saturated_divergence():
    es = eigen_closed_form(OperatorParams(2.0, math.pi), HINGED, 8)
    ms = assemble_internal(es, [ModeCombination([1.0])], 1)
    gain = Gain(K=np.array([[-3.0]]), closed_loop_spectrum=np.array([-2.0]))
    config = SimConfig(
        dt=1e-3, T=30.0, initial=(2.0,) + (0.0,) * 7, blowup_threshold=1e6
    )
    traj = run(config, ms, gain, level=SaturationLevel(1.0))
    assert traj.exit_reason == EXIT_BLOWUP
    assert traj.l2[-1] > traj.l2[0]
    announce(10, "saturated loop from z(0) = 2 diverges to blow-up")


def test_criterion_11_boundary_loop():
    es = eigen_clamped(OperatorParams(45.0, 1.0), 8)
    split = unstable_count(es)
    assert split.n >= 1
    ms = assemble_boundary(es, split.n)
    gain = design_gain(ms, poles=[-2.0 * (i + 1.0) for i in range(ms.dim)])
    config = SimConfig(dt=5e-4, T=3.0, initial=("smooth", 0.02))
    traj = run(config, ms, gain, level=SaturationLevel(20.0))
    assert traj.exit_reason == EXIT_HORIZON
    fit = fit_decay_rate(traj, "u_plus_w", t_start=0.75)
    assert fit.rate > 0.0
    d_norm = math.sqrt(ms.lifting.d_norm_sq())
    bound = traj.channel("w_l2") + traj.channel("u") * d_norm
    assert np.all(traj.l2 <= bound + 1e-12)

    with pytest.raises(CriticalLength):
        es_bad = eigen_clamped(OperatorParams(10 * math.pi**2, 1.0), 6)
        assemble_boundary(es_bad, unstable_count(es_bad).n)
    announce(11, "boundary loop decays with reconstruction bound")


def test_criterion_12_gronwall_oracle():
    t = np.linspace(0.0, 10.0, 2001)
    out = gronwall_bound(0.5, -1.0, 1.0, 2.0, t)
    exact = 1.0 / (1.0 + np.exp(t))
    assert float(np.max(np.abs(out.values / exact - 1.0))) <= 1e-13

    a_rate, b_coef = 1.0, 0.25
    out2 = gronwall_bound(a_rate / (2 * b_coef), -a_rate, b_coef, 2.0, t)
    envelope = (a_rate / b_coef) * np.exp(-a_rate * t)
    assert np.all(out2.values <= envelope)
    announce(12, "gronwall bound matches the logistic oracle")


def test_criterion_13_unsaturated_equivalence():
    es, split, ms, gain, cert, level = build_loop(
        2.0, math.pi, HINGED, Indicator(0.3, 2.8), 12, [-4.0], math.inf
    )
    y0 = np.zeros(12)
    y0[0] = 0.02
    config = SimConfig(dt=1e-3, T=2.0, initial=tuple(y0.tolist()))
    unsat = run(config, ms, gain)
    finite = run(config, ms, gain, level=SaturationLevel(0.5))
    assert not finite.sat_active.any()
    assert float(np.max(np.abs(unsat.states - finite.states))) <= 1e-14
    announce(13, "finite-but-inactive clamp reproduces the unsaturated loop")
