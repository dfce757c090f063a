"""Gain design, certificate construction, and decay-constant selection.

Explicit poles are placed by Ackermann's formula.  Without them the gain is
designed on the pair the loop is stepped with at the config's dt, by one
Stein solve (Bass's method), so the stepped head map is stable at that dt.
The certificate follows a constructive feasibility path rather than an SDP
solver: solve a Lyapunov equation for the closed loop, scale until the
ellipsoid fits inside the clamp-free sector, then take the deadzone weight
that a Schur complement gives for a chosen decay margin.  Every certificate
is verified a posteriori by independent symmetric eigensolves.  The
certificate file's JSON format is written and read here and nowhere else.
"""

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import CertificateFailure, GapTooSmall, NotStabilizable
from .saturation import UNSATURATED
from .simulate import step_plan
from .spectral import unstable_count

_MARGIN = 0.1  # multiplicative slack turning strict inequalities into margins


@dataclass(frozen=True)
class Gain:
    """A feedback gain u = Kz; `report` is the pair's `diagnose_pair` when designed here."""

    K: np.ndarray
    closed_loop_spectrum: np.ndarray
    report: "ControllabilityReport | None" = None

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
    `check` is the `check_certificate` result that gated it when
    `build_certificate` made it; the certificate file does not hold it.
    """

    P: np.ndarray
    D: np.ndarray
    C: np.ndarray
    alpha: float
    beta_min: float
    beta_max: float
    ell: float
    check: "CertificateCheck | None" = None


class CertificateCheck(NamedTuple):
    lambda_max_m1: float
    lambda_min_m2: float
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
    eigenvalues, valid for diagonal A; None where it is not finite), and the
    eigenvalue-wise rank test; `stabilizable` requires every failing
    eigenvalue to be strictly stable.
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
        # a long head overflows the product (inf, or NaN from inf * 0): it is recorded as None
        with np.errstate(over="ignore", invalid="ignore"):
            vdm = float(np.prod(B[:, 0]))
            for i in range(n):
                for k in range(i + 1, n):
                    vdm *= sigma[k] - sigma[i]
        if not math.isfinite(vdm):
            vdm = None

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


def _single_input_direction(A, B):
    """A unit g for which (A, Bg) passes the Kalman rank test, or None.

    The candidates are (1, t, ..., t^(m-1)), normalized, for t = 1, -1, 2,
    -2, ..., +-(d (m - 1) + 1) (Heymann, IEEE TAC 1968), and the first that
    passes is taken.  For a diagonal A with distinct eigenvalues, (A, Bg) is
    controllable when no entry of Bg is zero; each entry is a polynomial in
    t of degree below m, nonzero when (A, B) is controllable, so at most
    d (m - 1) values of t fail.
    """
    d, m = B.shape
    for t in range(1, d * (m - 1) + 2):
        for s in (t, -t):
            g = float(s) ** np.arange(m)
            g /= np.linalg.norm(g)
            if np.linalg.matrix_rank(kalman_matrix(A, B @ g[:, None])) == d:
                return g
    return None


def design_gain(ms, poles=None, dt=None):
    """Stabilizing gain for the truncated pair, carrying the pair's `diagnose_pair` report.

    Explicit poles are placed on a controllable pair through one input
    direction g (`_single_input_direction`, which picks g = [1] for a
    single input) by Ackermann's formula on (A, Bg): K = g k.  Without
    poles the gain is Bass's (Armstrong, IEEE TAC 1975) on the pair the
    loop is stepped with at `dt`: Phi, the head map of a plan with K = 0,
    and Gamma, the plan's input rows on the head.  With r^2 = exp(-2 eta
    dt) for the tail gap eta, W solves Phi W Phi^T - r^2 W = Gamma
    Gamma^T (`solve_stein`) and K = -Gamma^T Phi^-T W^-1, so Phi + Gamma K
    = r^2 W Phi^-T W^-1 steps with eigenvalues r^2 / phi_i, inside the unit
    circle at every dt.  Raises `NotStabilizable` when an unstable
    eigenvalue fails the rank test, when the pole placement fails, when
    A + BK is not Hurwitz, and in the stepped design when W is not positive
    definite to working precision (lambda_min(W) <= d eps lambda_max(W))
    or when rounding leaves Phi + Gamma K a spectral radius of 1 or more.
    """
    A, B = ms.A, ms.B
    d, m = B.shape
    report = diagnose_pair(A, B)
    if d == 0:
        return Gain(K=np.zeros((m, 0)), closed_loop_spectrum=np.array([]), report=report)

    if not report.stabilizable:
        bad = ", ".join(f"{f.real:.4g}" for f in report.pbh_failures if f.real >= 0)
        raise NotStabilizable(f"unstable eigenvalues fail the rank test: {bad}")

    if poles is not None:
        if len(poles) != d:
            raise ValueError(f"need {d} poles, got {len(poles)}")
        if not report.controllable:
            raise NotStabilizable("pole placement requires a controllable pair")
        g = _single_input_direction(A, B)
        if g is None:
            raise NotStabilizable(
                f"pole placement failed: none of the {2 * d * (m - 1) + 2} input "
                f"directions g tried makes (A, Bg) pass the rank test"
            )
        K = g[:, None] @ _ackermann(A, B @ g[:, None], poles)
    else:
        if dt is None:
            raise ValueError("the stepped design needs the time step dt")
        plan = step_plan(ms, Gain(np.zeros((m, d)), np.array([])), UNSATURATED, dt)
        phi, gamma = plan.head_map(), plan.drive[:m, :d].T
        r_sq = math.exp(-2.0 * unstable_count(ms.es).eta * dt)
        w, _ = solve_stein(phi, gamma @ gamma.T, r_sq)
        w = 0.5 * (w + w.T)
        low, high = np.linalg.eigvalsh(w)[[0, -1]]
        floor = d * np.finfo(float).eps * high  # eigvalsh's error bound, up to a factor
        if not low > floor:
            raise NotStabilizable(
                f"stepped design: the Gramian W of Phi W Phi^T - r^2 W = Gamma Gamma^T is not "
                f"positive definite to working precision: lambda_min(W) = {low:.3e}, "
                f"lambda_max(W) = {high:.3e} (needs lambda_min(W) > d eps lambda_max(W) "
                f"= {floor:.3e})"
            )
        K = -np.linalg.solve(w, np.linalg.solve(phi, gamma)).T
        rho = float(np.max(np.abs(np.linalg.eigvals(phi + gamma @ K))))
        if not rho < 1.0:
            raise NotStabilizable(
                f"stepped design: the stepped head map Phi + Gamma K has spectral radius "
                f"{rho:.6g} at dt = {dt:g} (needs < 1)"
            )

    spectrum = np.linalg.eigvals(A + B @ K)
    gain = Gain(K=K, closed_loop_spectrum=spectrum, report=report)
    if not gain.hurwitz:
        method = "pole placement" if poles is not None else (
            f"stepped design, sigma_max dt = {np.max(np.diag(A)) * dt:.6g}"
        )
        raise NotStabilizable(
            f"designed gain ({method}) failed to produce a Hurwitz closed loop: "
            f"largest closed-loop real part {np.max(spectrum.real):.6g}"
        )
    return gain


# ---------------------------------------------------------------------------
# matrix equations on the head, in numpy alone

_RESIDUAL_TOL = 1e-8  # largest normalized residual a solve may return: about sqrt(eps)


def _gate(residual):
    """`residual`, after checking that it is at most `_RESIDUAL_TOL` (NaN fails)."""
    if not residual <= _RESIDUAL_TOL:
        raise np.linalg.LinAlgError(
            f"normalized residual {residual:.3e} exceeds {_RESIDUAL_TOL:.0e}"
        )
    return residual


def solve_lyapunov(a, q):
    """X with a X + X a^T = q, and its normalized residual.

    One LU solve of the Kronecker form (a (x) I + I (x) a) vec X = vec q,
    vec stacking rows: d^2 unknowns, few on a truncated head.  The residual
    is the backward error ||a X + X a^T - q||_F / (2 ||a||_F ||X||_F + ||q||_F).
    Raises LinAlgError when the system is singular (a and -a share an
    eigenvalue) or the residual fails `_gate`.
    """
    eye = np.eye(a.shape[0])
    x = np.linalg.solve(np.kron(a, eye) + np.kron(eye, a), q.ravel()).reshape(q.shape)
    scale = 2.0 * np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q)
    return x, _gate(float(np.linalg.norm(a @ x + x @ a.T - q) / scale))


def solve_stein(phi, q, r_sq):
    """W with phi W phi^T - r_sq W = q, and its normalized residual.

    One LU solve of the Kronecker form (phi (x) phi - r_sq I) vec W = vec q,
    vec stacking rows.  The residual is the backward error
    ||phi W phi^T - r_sq W - q||_F / ((||phi||_F^2 + r_sq) ||W||_F + ||q||_F).
    Raises LinAlgError when the system is singular (two eigenvalues of phi
    multiply to r_sq) or the residual fails `_gate`.
    """
    w = np.linalg.solve(np.kron(phi, phi) - r_sq * np.eye(q.size), q.ravel()).reshape(q.shape)
    scale = (np.linalg.norm(phi) ** 2 + r_sq) * np.linalg.norm(w) + np.linalg.norm(q)
    return w, _gate(float(np.linalg.norm(phi @ w @ phi.T - r_sq * w - q) / scale))


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
    sits inside the clamp-free sector, and sets C = 0.  With the Lyapunov
    block T = (A+BK)^T P + P (A+BK), G = P B and a = -lambda_max(T) /
    (1 + _MARGIN), a Schur complement (Boyd, El Ghaoui, Feron & Balakrishnan,
    SIAM 1994, sec. 2.1) gives lambda_max(M1) = -a for the deadzone weight
    D = delta I with 2 delta = a + lambda_max(G^T (-(T + a I))^-1 G).  The
    decay margin alpha is M1's negated largest eigenvalue, taken from the
    `check_certificate` run that gates the result.  Raises
    CertificateFailure when T is not negative definite: then no weight
    makes M1 negative definite, or when `check_certificate` rejects the
    result; the certificate returned carries that check.
    """
    A, B, K = ms.A, ms.B, gain.K
    d = A.shape[0]
    m = B.shape[1]
    ell = level.ell
    if d == 0:
        raise ValueError("no unstable modes: nothing to certify")
    if not gain.hurwitz:
        raise ValueError("gain must make the closed loop Hurwitz")

    acl = A + B @ K
    try:
        p0, residual = solve_lyapunov(acl.T, -np.eye(d))
    except ValueError as exc:  # np.linalg.LinAlgError included
        raise CertificateFailure(f"Lyapunov solve (solve_lyapunov) failed: {exc}") from exc
    p0 = 0.5 * (p0 + p0.T)
    p0_min = float(np.min(np.linalg.eigvalsh(p0)))
    if p0_min <= 0:
        raise CertificateFailure(
            f"Lyapunov solve (solve_lyapunov) returned a non-definite matrix: "
            f"lambda_min(P0) = {p0_min:.3e} (needs > 0), normalized residual {residual:.3e}"
        )

    if math.isinf(ell):
        scale = 1.0
    else:
        k_sq = float(np.max(np.linalg.eigvalsh(K.T @ K)))
        scale = max(1.0, (1.0 + _MARGIN) * k_sq / (ell**2 * p0_min))
    P = scale * p0

    lyap = acl.T @ P + P @ acl
    lyap_max = float(np.max(np.linalg.eigvalsh(lyap)))
    if not lyap_max < 0.0:
        raise CertificateFailure(
            f"the Lyapunov block (A+BK)^T P + P (A+BK) has lambda_max = {lyap_max:.3e} "
            f"(needs < 0): no deadzone weight can make M1 negative definite"
        )
    target = -lyap_max / (1.0 + _MARGIN)
    pb = P @ B
    schur = pb.T @ np.linalg.solve(-(lyap + target * np.eye(d)), pb)
    D = 0.5 * (target + float(np.max(np.linalg.eigvalsh(schur)))) * np.eye(m)
    C = np.zeros((m, d))
    beta = np.linalg.eigvalsh(P)
    cert = Certificate(
        P=P,
        D=D,
        C=C,
        alpha=math.nan,  # set from the check below
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
    return replace(cert, alpha=-check.lambda_max_m1, check=check)


def check_certificate(cert, ms, gain):
    """Independent eigensolves of both block matrices.

    Raises ValueError, naming the values, unless P is symmetric positive
    definite and D is diagonal with positive entries (NaN fails both).
    """
    P, D, C, ell = cert.P, cert.D, cert.C, cert.ell
    diagonal = np.diag(D)
    if not (np.all(diagonal > 0.0) and np.allclose(D, np.diag(diagonal))):
        off = float(np.max(np.abs(D - np.diag(diagonal)), initial=0.0))
        raise ValueError(
            f"deadzone weight D must be diagonal positive definite: smallest diagonal "
            f"{diagonal.min():.3e}, largest off-diagonal {off:.2e}"
        )
    symmetric = np.allclose(P, P.T)
    p_min = float(np.min(np.linalg.eigvalsh(0.5 * (P + P.T))))
    if not (symmetric and p_min > 0.0):
        raise ValueError(
            f"ellipsoid matrix P must be symmetric positive definite: lambda_min = {p_min:.3e}"
            + ("" if symmetric else ", not symmetric")
        )

    lam_max = float(np.max(np.linalg.eigvalsh(_m1(ms.A, ms.B, gain.K, P, D, C))))
    if math.isinf(ell):
        lam_min = math.inf
    else:
        lam_min = float(np.min(np.linalg.eigvalsh(_m2(P, gain.K, C, ell))))
    ok = lam_max < 0.0 and (math.isinf(ell) or lam_min >= -1e-9)
    return CertificateCheck(lambda_max_m1=lam_max, lambda_min_m2=lam_min, ok=ok)


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


def select_h2_constants(cert, ms, gain):
    """Weighting and sandwich constants for the energy functional.

    The weighting exceeds every lower bound required by the tail comparison,
    the envelope rate, the sector budget and the sandwich positivity, each
    with a multiplicative margin; the remaining constants follow in closed
    form and all invariants are re-checked before returning.
    """
    es, n = ms.es, ms.n
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


# ---------------------------------------------------------------------------
# the certificate file: one JSON document, written and read by field loops


def _write(value):
    """A value as the certificate file holds it: arrays as nested lists, inf as "inf"."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return "inf" if value == math.inf else value


def _read(field, value):
    if field.type is np.ndarray:
        return np.array(value, dtype=float)
    return math.inf if value == "inf" else float(value)


def _stored(cls):
    """The fields of `cls` the certificate file holds: all but `Certificate.check`."""
    return [f for f in fields(cls) if f.name != "check"]


def _read_record(cls, values):
    return cls(**{f.name: _read(f, values[f.name]) for f in _stored(cls)})


def certificate_head(mode, n, m, J, eta, ell, dt):
    """The system a certificate is built for, and the time step its gain was designed at."""
    return {"mode": mode, "n": n, "m": m, "J": J, "eta": eta, "ell": _write(ell), "dt": dt}


def certificate_document(head, gain, cert, consts):
    """The certificate file's JSON document.

    The `certificate_head`, the gain, its controllability diagnostics
    (`gain.report`), each stored `Certificate` field the head does not hold
    (null without a certificate), and the `H2Constants` (null without them).
    """
    report = gain.report
    doc = dict(head)
    doc["K"] = gain.K.tolist()
    doc["closed_loop_spectrum_real"] = gain.closed_loop_spectrum.real.tolist()
    doc["closed_loop_spectrum_imag"] = gain.closed_loop_spectrum.imag.tolist()
    doc["diagnostics"] = dict(
        rank=report.rank, dim=report.dim, controllable=report.controllable,
        stabilizable=report.stabilizable, vandermonde=report.vandermonde_value,
        pbh_failures_real=[f.real for f in report.pbh_failures],
    )
    for f in _stored(Certificate):
        if f.name not in head:
            doc[f.name] = None if cert is None else _write(getattr(cert, f.name))
    doc["constants"] = None if consts is None else {
        f.name: _write(getattr(consts, f.name)) for f in fields(H2Constants)
    }
    return doc


def certificate_fields_held(doc):
    """The fields of the certificate block that `doc` holds, i.e. does not leave null.

    The block is each `Certificate` field outside the head (which holds ell)
    and `constants`; a file without a certificate holds none of them.
    """
    names = [f.name for f in _stored(Certificate) if f.name != "ell"] + ["constants"]
    return [name for name in names if doc.get(name) is not None]


def _shaped(name, array, shape):
    """`array`, after checking that it has the `shape` the certificate head gives it."""
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, the head asks for {shape}")
    return array


def read_certificate(doc):
    """(gain, cert, consts) from a `certificate_document`; cert and consts may be None.

    Each array must have the shape the head gives it.  With h = n (n + 1 for
    mode "boundary"): K and C are (m, h), each spectrum part has h entries,
    P is (h, h) and D is (m, m); `constants` is present exactly when P is.
    Raises KeyError, TypeError or ValueError on a malformed document.
    """
    h = doc["n"] + (doc["mode"] == "boundary")
    m = doc["m"]

    def read(name, shape):
        return _shaped(name, np.array(doc[name], dtype=float), shape)

    spectrum = read("closed_loop_spectrum_real", (h,)).astype(complex)
    spectrum.imag = read("closed_loop_spectrum_imag", (h,))
    gain = Gain(K=read("K", (m, h)), closed_loop_spectrum=spectrum)
    if (doc.get("P") is None) != (doc.get("constants") is None):
        raise ValueError("constants must be present exactly when P is")
    if doc.get("P") is None:
        return gain, None, None
    cert = _read_record(Certificate, doc)
    for name, shape in (("P", (h, h)), ("D", (m, m)), ("C", (m, h))):
        _shaped(name, getattr(cert, name), shape)
    return gain, cert, _read_record(H2Constants, doc["constants"])
