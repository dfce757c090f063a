"""Gain design, certificate construction, and decay-constant selection.

The certificate follows a constructive feasibility path rather than an SDP
solver: solve a Lyapunov equation for the closed loop, scale until the
ellipsoid fits inside the clamp-free sector, then grow the deadzone weight
until the block matrix is negative definite.  Every certificate is verified
a posteriori by independent symmetric eigensolves.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CertificateFailure, GapTooSmall, NotStabilizable
from .spectral import unstable_count

_MARGIN = 0.1  # multiplicative slack turning strict inequalities into margins


@dataclass(frozen=True)
class Gain:
    K: np.ndarray
    closed_loop_spectrum: np.ndarray

    @property
    def hurwitz(self):
        if self.closed_loop_spectrum.size == 0:
            return True
        return bool(np.max(self.closed_loop_spectrum.real) < 0.0)


@dataclass(frozen=True)
class Certificate:
    """Quadratic-form witnesses for local exponential stability.

    P shapes the invariant ellipsoid {z : z^T P z <= 1}, D weights the
    deadzone sector, C is the auxiliary sector gain, alpha the certified
    decay margin; beta_min/beta_max are the extreme eigenvalues of P.
    """

    P: np.ndarray
    D: np.ndarray
    C: np.ndarray
    alpha: float
    beta_min: float
    beta_max: float
    ell: float


class CertificateCheck(NamedTuple):
    lambda_max_m1: float
    lambda_min_m2: float
    schur_min: float
    ok: bool


@dataclass(frozen=True)
class H2Constants:
    """Energy-functional constants tied to one certificate."""

    M: float
    C1: float
    C2: float
    C3: float
    C4: float
    a: float


class ControllabilityReport(NamedTuple):
    rank: int
    dim: int
    controllable: bool
    stabilizable: bool
    vandermonde_value: float | None
    pbh_failures: tuple


def kalman_matrix(A, B):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    blocks = []
    power = B.copy()
    for _ in range(n):
        blocks.append(power)
        power = A @ power
    return np.hstack(blocks)


def diagnose_pair(A, B):
    """Rank diagnostics for one (A, B) pair.

    Reports the controllability-matrix rank, the single-input determinant
    product (prod of input coefficients times the Vandermonde of the
    eigenvalues, valid for diagonal A), and the eigenvalue-wise rank test;
    `stabilizable` requires every failing eigenvalue to be strictly stable.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    if n == 0:
        return ControllabilityReport(0, 0, True, True, None, ())

    rank = int(np.linalg.matrix_rank(kalman_matrix(A, B)))

    vdm = None
    if B.shape[1] == 1 and np.allclose(A, np.diag(np.diag(A))):
        sigma = np.diag(A)
        vdm = float(np.prod(B[:, 0]))
        for i in range(n):
            for k in range(i + 1, n):
                vdm *= sigma[k] - sigma[i]

    eigs = np.linalg.eigvals(A)
    failures = []
    for lam in eigs:
        test = np.hstack([A - lam * np.eye(n), B])
        if np.linalg.matrix_rank(test) < n:
            failures.append(complex(lam))
    failures = tuple(failures)
    stabilizable = all(f.real < 0 for f in failures)
    return ControllabilityReport(
        rank=rank,
        dim=n,
        controllable=rank == n,
        stabilizable=stabilizable,
        vandermonde_value=vdm,
        pbh_failures=failures,
    )


def _ackermann(A, B, poles):
    n = A.shape[0]
    ctrb = kalman_matrix(A, B)
    char = np.real(np.poly(np.asarray(poles, dtype=complex)))
    p_of_a = np.zeros_like(A)
    for c in char:
        p_of_a = p_of_a @ A + c * np.eye(n)
    last_row = np.zeros(n)
    last_row[-1] = 1.0
    k = last_row @ np.linalg.solve(ctrb, p_of_a)
    return -k[None, :]


def design_gain(ms, poles=None, weights=None):
    """Stabilizing gain for the truncated pair.

    Single-input controllable pairs are placed at `poles` (default: the tail
    gap times 1..dim); everything else goes through a Riccati synthesis with
    the given state/input weights (default identity).  Raises
    `NotStabilizable` when an unstable eigenvalue fails the rank test.
    """
    A, B = ms.A, ms.B
    d = A.shape[0]
    if d == 0:
        return Gain(K=np.zeros((B.shape[1], 0)), closed_loop_spectrum=np.array([]))

    report = diagnose_pair(A, B)
    if not report.stabilizable:
        bad = ", ".join(f"{f.real:.4g}" for f in report.pbh_failures if f.real >= 0)
        raise NotStabilizable(f"unstable eigenvalues fail the rank test: {bad}")

    if poles is None and weights is None and B.shape[1] == 1 and report.controllable:
        eta = unstable_count(ms.es).eta
        poles = [-eta * (i + 1) for i in range(d)]

    if poles is not None:
        if len(poles) != d:
            raise ValueError(f"need {d} poles, got {len(poles)}")
        if B.shape[1] == 1:
            if not report.controllable:
                raise NotStabilizable("pole placement requires a controllable pair")
            K = _ackermann(A, B, poles)
        else:
            from scipy.signal import place_poles

            K = -place_poles(A, B, np.asarray(poles, dtype=float)).gain_matrix
    else:
        if weights is None:
            Q = np.eye(d)
            R = np.eye(B.shape[1])
        else:
            Q, R = weights
        from scipy.linalg import solve_continuous_are  # see build_certificate

        X = solve_continuous_are(A, B, Q, R)
        K = -np.linalg.solve(R, B.T @ X)

    spectrum = np.linalg.eigvals(A + B @ K)
    gain = Gain(K=K, closed_loop_spectrum=spectrum)
    if not gain.hurwitz:
        raise NotStabilizable("designed gain failed to produce a Hurwitz closed loop")
    return gain


def _m1(A, B, K, P, D, C):
    acl = A + B @ K
    top_left = acl.T @ P + P @ acl
    top_right = P @ B - (D @ C).T
    return np.block([[top_left, top_right], [top_right.T, -2.0 * D]])


def _m2(P, K, C, ell):
    m = K.shape[0]
    return np.block([[P, (K - C).T], [K - C, ell**2 * np.eye(m)]])


def build_certificate(ms, gain, level):
    """Constructive certificate for the saturated closed loop.

    Solves (A+BK)^T P0 + P0 (A+BK) = -I, scales P = c P0 until the ellipsoid
    sits inside the clamp-free sector, sets C = 0, and doubles the diagonal
    deadzone weight until the block matrix goes negative definite; the decay
    margin alpha is its negated largest eigenvalue.
    """
    A, B, K = ms.A, ms.B, gain.K
    d = A.shape[0]
    m = B.shape[1]
    ell = level.ell
    if d == 0:
        raise ValueError("no unstable modes: nothing to certify")
    if not gain.hurwitz:
        raise ValueError("gain must make the closed loop Hurwitz")

    # Imported here, not at module level: spectrum, modal, simulate and
    # gronwall never need scipy.linalg, so they start without loading it.
    from scipy.linalg import solve_continuous_lyapunov

    p0 = solve_continuous_lyapunov((A + B @ K).T, -np.eye(d))
    p0 = 0.5 * (p0 + p0.T)
    p0_min = float(np.min(np.linalg.eigvalsh(p0)))
    if p0_min <= 0:
        raise CertificateFailure("Lyapunov solve returned a non-definite matrix")

    if math.isinf(ell):
        scale = 1.0
    else:
        k_sq = float(np.max(np.linalg.eigvalsh(K.T @ K)))
        scale = max(1.0, (1.0 + _MARGIN) * k_sq / (ell**2 * p0_min))
    P = scale * p0

    pb = P @ B
    gamma = scale  # the scaled Lyapunov block is exactly -scale * I
    d0 = (1.0 + _MARGIN) * float(np.max(np.linalg.eigvalsh(pb @ pb.T))) / (
        2.0 * scale * gamma
    )
    d_val = max(d0, 1e-9)
    C = np.zeros((m, d))
    alpha = None
    for _ in range(200):
        D = d_val * np.eye(m)
        lam_max = float(np.max(np.linalg.eigvalsh(_m1(A, B, K, P, D, C))))
        if lam_max < 0.0:
            if alpha is not None and lam_max > -alpha * 1.05:
                break  # no further improvement worth another doubling
            alpha = -lam_max
            d_val *= 2.0
            continue
        d_val *= 2.0
    if alpha is None:
        raise CertificateFailure("deadzone weight search exhausted its iterations")
    d_val /= 2.0  # the accepted weight

    D = d_val * np.eye(m)
    beta = np.linalg.eigvalsh(P)
    cert = Certificate(
        P=P,
        D=D,
        C=C,
        alpha=alpha,
        beta_min=float(beta[0]),
        beta_max=float(beta[-1]),
        ell=ell,
    )
    check = check_certificate(cert, ms, gain)
    if not check.ok:
        raise CertificateFailure(
            f"a-posteriori check failed: lambda_max(M1) = {check.lambda_max_m1:.3e}, "
            f"lambda_min(M2) = {check.lambda_min_m2:.3e}"
        )
    return cert


def check_certificate(cert, ms, gain):
    """Independent eigensolve of both block matrices plus the Schur cross-check."""
    P, D, C, ell = cert.P, cert.D, cert.C, cert.ell
    if np.any(np.diag(D) <= 0.0) or not np.allclose(D, np.diag(np.diag(D))):
        raise ValueError("deadzone weight must be diagonal positive definite")
    if np.any(np.linalg.eigvalsh(0.5 * (P + P.T)) <= 0.0):
        raise ValueError("ellipsoid matrix must be symmetric positive definite")

    lam_max = float(np.max(np.linalg.eigvalsh(_m1(ms.A, ms.B, gain.K, P, D, C))))
    if math.isinf(ell):
        lam_min = math.inf
        schur_min = math.inf
    else:
        lam_min = float(np.min(np.linalg.eigvalsh(_m2(P, gain.K, C, ell))))
        schur = P - (gain.K - C).T @ (gain.K - C) / ell**2
        schur_min = float(np.min(np.linalg.eigvalsh(schur)))
    ok = lam_max < 0.0 and (math.isinf(ell) or lam_min >= -1e-9)
    return CertificateCheck(
        lambda_max_m1=lam_max, lambda_min_m2=lam_min, schur_min=schur_min, ok=ok
    )


def ellipsoid_contains(cert, z):
    z = np.asarray(z, dtype=float)
    return bool(z @ cert.P @ z <= 1.0)


def sample_ellipsoid(cert, rng, count, surface=False):
    """Uniform samples from the certified ellipsoid (or its boundary)."""
    d = cert.P.shape[0]
    ew, ev = np.linalg.eigh(cert.P)
    half_inv = ev @ np.diag(1.0 / np.sqrt(ew)) @ ev.T
    u = rng.normal(size=(count, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    if not surface:
        r = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / d)
        u = u * r
    return u @ half_inv


def select_h2_constants(cert, ms, gain, es):
    """Weighting and sandwich constants for the energy functional.

    The weighting exceeds every lower bound required by the tail comparison,
    the envelope rate, the sector budget and the sandwich positivity, each
    with a multiplicative margin; the remaining constants follow in closed
    form and all invariants are re-checked before returning.
    """
    n = ms.n
    if es.count <= n:
        raise GapTooSmall("no tail mode retained beyond the unstable block")
    sigma_tail = float(es.values[n])
    if sigma_tail >= 0.0:
        raise GapTooSmall(
            f"first tail eigenvalue {sigma_tail} is non-negative; unstable count is wrong"
        )
    sigma_one = float(es.values[0])
    alpha = cert.alpha
    beta_min, beta_max = cert.beta_min, cert.beta_max

    gain_energy = float(np.linalg.norm(gain.K, 2) ** 2 * np.sum(ms.shape_norms_sq))
    # the second term keeps the envelope rate a below the tail gap
    c3 = max(1.0 / alpha, 1.0 / (2.0 * beta_max * (-sigma_tail)))
    a = 1.0 / (2.0 * c3 * beta_max)
    bounds = [
        -1.0 / sigma_tail,
        2.0 * c3 * beta_max,
        4.0 * (gain_energy + a * max(sigma_one, 0.0)) / alpha,
        (1.0 + 2.0 * max(sigma_one, 0.0)) / beta_min,
    ]
    M = (1.0 + _MARGIN) * max(bounds)

    c1 = min((M * beta_min - sigma_one) / 2.0, 0.5)
    lam = es.params.lam
    c2 = max(lam**2, 2.0 - lam**2 / sigma_tail)
    c4 = max(1.0, M * beta_max / 2.0)

    consts = H2Constants(M=M, C1=c1, C2=c2, C3=c3, C4=c4, a=a)
    _verify_h2_constants(consts, cert, ms, gain, sigma_tail, gain_energy)
    return consts


def _verify_h2_constants(consts, cert, ms, gain, sigma_tail, gain_energy):
    checks = [
        consts.M >= -1.0 / sigma_tail,
        consts.C3 > 1.0 / (2.0 * cert.alpha),
        gain_energy - cert.alpha * consts.M < -consts.M / (2.0 * consts.C3),
        consts.M >= 2.0 * consts.C3 * cert.beta_max,
        consts.C1 > 0.0,
        consts.C2 > 0.0,
    ]
    if not all(checks):
        raise CertificateFailure(f"constant selection failed its own checks: {checks}")
