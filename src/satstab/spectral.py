"""Spectral data for the operator A y = -y'''' - lam * y'' on (0, L).

Three boundary-condition families are supported:

* clamped:  y(0) = y(L) = y'(0) = y'(L) = 0
* hinged:   y(0) = y(L) = y''(0) = y''(L) = 0
* neumann:  y'(0) = y'(L) = y'''(0) = y'''(L) = 0

Hinged and Neumann eigenpairs have closed forms built on the Dirichlet /
Neumann Laplacian.  Clamped eigenpairs are exact too: the modes split into
even and odd about L/2, each parity has one scalar secular equation in the
trig frequency q, and its roots (bracketed on a grid, polished by Illinois
false position) give closed-form eigenfunctions, cos/sin(q t) plus a
cosh/sinh or cos/sin partner.

Eigenfunctions are stored in two forms at once: a per-mode analytic record
with derivatives 0-4, and cached samples (value, first and second
derivative) on a shared Gauss-Legendre quadrature grid sized so that cubic
products of the retained modes integrate essentially exactly.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import AllModesUnstable, ConvergenceFailure


class BoundaryCondition(Enum):
    CLAMPED = "clamped"
    HINGED = "hinged"
    NEUMANN_CH = "neumann_ch"


@dataclass(frozen=True)
class OperatorParams:
    """Anti-diffusion coefficient and domain length."""

    lam: float
    length: float

    def __post_init__(self):
        if not self.lam >= 0.0:
            raise ValueError(f"anti-diffusion coefficient must be >= 0, got {self.lam}")
        if not self.length > 0.0:
            raise ValueError(f"domain length must be > 0, got {self.length}")


# ---------------------------------------------------------------------------
# Quadrature


@dataclass(frozen=True)
class Quadrature:
    """Composite Gauss-Legendre rule on (0, L)."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values):
        return float(self.weights @ values)


def composite_gauss_legendre(length, panels, order=16):
    """Composite rule with `panels` equal panels of `order` points each."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    h = length / panels
    starts = np.arange(panels) * h
    nodes = (starts[:, None] + 0.5 * h * (xg[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * h * wg, panels)
    return Quadrature(nodes=nodes, weights=weights)


def quadrature_for_modes(length, max_wavenumber, order=16):
    """Rule integrating triple products of trig modes up to `max_wavenumber`.

    One panel per two-pi of phase of the worst product keeps the per-panel
    Gauss error at the 1e-14 level.
    """
    panels = max(8, int(math.ceil(1.5 * max(1, max_wavenumber))))
    return composite_gauss_legendre(length, panels, order)


# ---------------------------------------------------------------------------
# Mode representations


@dataclass(frozen=True)
class TrigMode:
    """Closed-form mode: amplitude * trig(frequency * x)."""

    kind: str  # "sin" | "cos" | "const"
    amplitude: float
    frequency: float

    def __call__(self, x, deriv=0):
        x = np.asarray(x, dtype=float)
        if self.kind == "const":
            return np.full_like(x, self.amplitude) if deriv == 0 else np.zeros_like(x)
        shift = deriv * math.pi / 2.0
        scale = self.amplitude * self.frequency**deriv
        phase = self.frequency * x + shift
        return scale * (np.sin(phase) if self.kind == "sin" else np.cos(phase))


# ---------------------------------------------------------------------------
# Eigen system


class UnstableSplit(NamedTuple):
    n: int
    eta: float


@dataclass(frozen=True)
class EigenSystem:
    """Ordered eigenpairs of the spatial operator for one BC family.

    `values` is nonincreasing; `modes[j]` evaluates the j-th eigenfunction;
    `basis`, `basis_d1`, `basis_d2` cache mode samples on the quadrature
    grid; `gram_d1`/`gram_d2` are the first/second-derivative Gram matrices
    used for the H1/H2 norms.  Immutable after construction.
    """

    params: OperatorParams
    bc: BoundaryCondition
    count: int
    values: np.ndarray
    mode_index: np.ndarray
    modes: tuple
    quadrature: Quadrature
    basis: np.ndarray
    basis_d1: np.ndarray
    basis_d2: np.ndarray
    gram_d1: np.ndarray
    gram_d2: np.ndarray
    solver: str

    def synthesize(self, coeffs, deriv=0):
        """Field values on the quadrature grid from modal coefficients."""
        table = (self.basis, self.basis_d1, self.basis_d2)[deriv]
        return np.asarray(coeffs) @ table

    def project_values(self, values):
        """Modal coefficients of a function sampled on the quadrature grid."""
        return self.basis @ (self.quadrature.weights * values)

    def bc_residual(self, j):
        """Worst violation of this BC family by the stored j-th mode."""
        L = self.params.length
        derivs = {
            BoundaryCondition.CLAMPED: (0, 1),
            BoundaryCondition.HINGED: (0, 2),
            BoundaryCondition.NEUMANN_CH: (1, 3),
        }[self.bc]
        worst = 0.0
        for d in derivs:
            for x in (0.0, L):
                worst = max(worst, abs(float(self.modes[j](x, deriv=d))))
        return worst

    def norm_error(self, j):
        return abs(self.quadrature.integrate(self.basis[j] ** 2) - 1.0)


def _gram(basis_a, basis_b, weights):
    g = (basis_a * weights) @ basis_b.T
    return 0.5 * (g + g.T)


def _sorted_sigma(params, wavenumbers):
    mu = (wavenumbers * math.pi / params.length) ** 2
    sigma = mu * (params.lam - mu)
    order = np.lexsort((wavenumbers, -sigma))
    return sigma[order], wavenumbers[order]


def eigen_closed_form(params, bc, count):
    """Closed-form eigen system for the hinged or Neumann families.

    Hinged modes are sine waves with wavenumbers 1..count; Neumann modes are
    cosines with wavenumbers 0..count-1 (the constant mode first).  Both have
    sigma_k = (k pi / L)^2 * (lam - (k pi / L)^2); output is sorted by
    nonincreasing sigma and L2-normalized.
    """
    if count < 1:
        raise ValueError("mode count must be >= 1")
    L = params.length
    if bc == BoundaryCondition.HINGED:
        ks = np.arange(1, count + 1)
    elif bc == BoundaryCondition.NEUMANN_CH:
        ks = np.arange(0, count)
    else:
        raise ValueError("closed forms exist only for hinged and neumann families")

    sigma, ks = _sorted_sigma(params, ks)
    k_max = int(ks.max())
    quad = quadrature_for_modes(L, max(k_max, count))

    modes = []
    for k in ks:
        if k == 0:
            modes.append(TrigMode("const", 1.0 / math.sqrt(L), 0.0))
        else:
            kind = "sin" if bc == BoundaryCondition.HINGED else "cos"
            modes.append(TrigMode(kind, math.sqrt(2.0 / L), k * math.pi / L))
    modes = tuple(modes)

    basis = np.array([m(quad.nodes) for m in modes])
    basis_d1 = np.array([m(quad.nodes, 1) for m in modes])
    basis_d2 = np.array([m(quad.nodes, 2) for m in modes])

    # Both families diagonalize the derivative Gram matrices.
    freq2 = (ks * math.pi / L) ** 2
    gram_d1 = np.diag(freq2)
    gram_d2 = np.diag(freq2**2)

    return EigenSystem(
        params=params,
        bc=bc,
        count=count,
        values=sigma,
        mode_index=ks,
        modes=modes,
        quadrature=quad,
        basis=basis,
        basis_d1=basis_d1,
        basis_d2=basis_d2,
        gram_d1=gram_d1,
        gram_d2=gram_d2,
        solver="closed-form",
    )


# ---------------------------------------------------------------------------
# Clamped family: even/odd secular equations
#
# With the trig frequency q >= sqrt(lam/2), sigma = q^2 (lam - q^2) and the
# partner frequency is p = sqrt(q^2 - lam) (hyperbolic, sigma < 0) or
# r = sqrt(lam - q^2) (trig, sigma > 0).  About the centre t = x - L/2 every
# mode is even, cos(q t) + B cosh(p t) (or cos(r t)), or odd, sin(q t) +
# B sinh(p t) (or sin(r t)), so each parity has one 2x2 wall determinant.


def _hyperbolic(p, s, half, odd):
    """cosh(p s) / cosh(p half) (odd=0) or sinh(p s) / cosh(p half) (odd=1), s >= 0.

    Written with non-positive exponents only, so it cannot overflow however
    large p * half grows (the direct quotient overflows past 710).
    """
    scale = np.exp(p * (s - half)) / (1.0 + math.exp(-2.0 * p * half))
    if odd:
        return scale * -np.expm1(-2.0 * p * s)
    return scale * (1.0 + np.exp(-2.0 * p * s))


@dataclass(frozen=True)
class ClampedMode:
    """Clamped mode a * T(q t) + b * P(t) in the centred coordinate t = x - L/2.

    Even modes (odd=0) take T = cos and P = cosh(w t) / cosh(w L/2),
    cos(w t) or 1; odd modes (odd=1) take T = sin and P = sinh(w t) /
    cosh(w L/2), sin(w t) or t, for `partner` "hyperbolic", "trig" or
    "poly" (q^2 = lam).  Derivatives 0-4 are analytic, and are evaluated at
    |t| with the parity sign applied, so both walls see identical rounding.
    """

    odd: int
    q: float
    partner: str  # "hyperbolic" | "trig" | "poly"
    w: float
    half: float
    a: float = 1.0
    b: float = 1.0

    def parts(self, x, deriv=0):
        """The deriv-th derivatives of T(q t) and P(t), unscaled."""
        t = np.asarray(x, dtype=float) - self.half
        s = np.abs(t)
        parity = (deriv + self.odd) % 2
        shift = (deriv - self.odd) * math.pi / 2.0
        trig = self.q**deriv * np.cos(self.q * s + shift)
        if self.partner == "trig":
            partner = self.w**deriv * np.cos(self.w * s + shift)
        elif self.partner == "hyperbolic":
            partner = self.w**deriv * _hyperbolic(self.w, s, self.half, parity)
        else:
            partner = s if deriv < self.odd else np.full_like(s, float(deriv == self.odd))
        if parity:
            sign = np.sign(t)
            return trig * sign, partner * sign
        return trig, partner

    def __call__(self, x, deriv=0):
        trig, partner = self.parts(x, deriv)
        return self.a * trig + self.b * partner


def _secular(q, lam, half, odd):
    """Wall determinant of one parity at trig frequency q, over a positive factor.

    Continuous in q across sigma = 0 (q^2 = lam), where the hyperbolic and
    trig forms meet, and free of the spurious zero the raw determinant has
    at q = r (q^2 = lam/2), where the two trig frequencies coincide.
    """
    s2 = q * q - lam
    sin_qa, cos_qa = math.sin(q * half), math.cos(q * half)
    if s2 >= 0.0:
        p = math.sqrt(s2)
        if odd:
            return sin_qa / q - cos_qa * (math.tanh(p * half) / p if p > 0.0 else half)
        return sin_qa + p / q * math.tanh(p * half) * cos_qa
    r = math.sqrt(-s2)
    u, v = (q + r) * half, (q - r) * half
    u_sinc_v = u * math.sin(v) / v if v != 0.0 else u
    if not odd:
        return 0.5 * (math.sin(u) + u_sinc_v)
    if 2.0 * r >= q:
        return (u_sinc_v - math.sin(u)) / (2.0 * r)
    ra = r * half
    return (sin_qa * math.cos(ra) - q * cos_qa * math.sin(ra) / r) / (q - r)


# A bracket of positive floats reaches 4 eps relative width in at most 50
# halvings, and `_polish` spends at most 3 evaluations per halving.
_POLISH_MAX_EVALS = 200


def _polish(f, a, b, fa, fb, args=()):
    """Root of f(x, *args) in [a, b], given its values fa at a and fb at b of opposite sign.

    Illinois false position: when one end is kept twice in a row, its weight
    in the secant is halved so the next step lands on its side.  A step
    bisects instead whenever the two before it did not halve the bracket, so
    the bracket at least halves every three evaluations even where f jumps,
    and no step lands closer than 2 eps max(|a|, |b|) to an end.  Stops when
    b - a <= 4 eps max(|a|, |b|) or f is exactly 0, and returns the end with
    the smaller |f|.
    """
    eps = math.ulp(1.0)
    wa, wb = fa, fb  # secant weights of the two ends
    previous = two_back = b - a  # bracket widths one and two steps back
    kept = 0  # -1: a was kept last step, 1: b was kept, 0: neither
    for _ in range(_POLISH_MAX_EVALS):
        width = b - a
        tol = 2.0 * eps * max(abs(a), abs(b))
        if width <= 2.0 * tol:
            break
        if 2.0 * width > two_back:
            c = a + 0.5 * width
        else:
            c = a - wa * width / (wb - wa)
        # a step finer than tol would leave the far end in place
        if c < a + tol:
            c = a + tol
        elif c > b - tol:
            c = b - tol
        fc = f(c, *args)
        if fc == 0.0:
            return c
        if (fc > 0.0) == (fb > 0.0):
            b, fb, wb = c, fc, fc
            if kept == -1:
                wa *= 0.5
            kept = -1
        else:
            a, fa, wa = c, fc, fc
            if kept == 1:
                wb *= 0.5
            kept = 1
        previous, two_back = width, previous
    return a if abs(fa) < abs(fb) else b


def _clamped_roots(params, count):
    """The `count` smallest secular roots q, each with its parity (0 even, 1 odd).

    Sign changes are bracketed on a grid whose steps move both q and r by at
    most pi / (8 L): sixteen points per root spacing of one parity (about
    2 pi / L in q), and r is gridded too because it varies fast in q near
    sigma = 0.  Brackets are polished by `_polish`.  No root has q L/2 < pi/2:
    both determinants are positive there.
    """
    lam, L = params.lam, params.length
    half = 0.5 * L
    step = math.pi / (8.0 * L)
    q_lo = max(math.sqrt(0.5 * lam), math.pi / L)
    q_hi = max(q_lo, math.sqrt(lam)) + (count + 2) * math.pi / L
    grid = np.arange(q_lo, q_hi, step)
    if q_lo * q_lo < lam:
        r = np.arange(0.0, math.sqrt(lam - q_lo * q_lo), step)
        grid = np.unique(np.concatenate([grid, np.sqrt(lam - r * r)]))
    grid = grid.tolist()
    roots = []
    for odd in (0, 1):
        values = [_secular(q, lam, half, odd) for q in grid]
        sign = np.sign(values)
        roots += [(grid[i], odd) for i in np.flatnonzero(sign == 0.0)]
        for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
            q = _polish(
                _secular, grid[i], grid[i + 1], values[i], values[i + 1], (lam, half, odd)
            )
            roots.append((q, odd))
    if len(roots) < count:
        raise ConvergenceFailure(
            f"secular scan bracketed {len(roots)} of {count} clamped eigenvalues "
            f"up to q = {q_hi:.6g}"
        )
    return sorted(roots)[:count]


def _mode_at_root(params, q, odd):
    """Unnormalized mode at a secular root.

    The coefficients are the null vector of the wall row (value or slope at
    x = L) with the larger norm: at a double eigenvalue one row vanishes.
    """
    s2 = q * q - params.lam
    partner = "hyperbolic" if s2 > 0.0 else "trig" if s2 < 0.0 else "poly"
    unit = ClampedMode(odd, q, partner, math.sqrt(abs(s2)), 0.5 * params.length)
    rows = [tuple(map(float, unit.parts(params.length, d))) for d in (0, 1)]
    t_wall, p_wall = max(rows, key=lambda row: math.hypot(*row))
    return replace(unit, a=p_wall, b=-t_wall)


def eigen_clamped(params, count):
    """Exact eigen system for the clamped family.

    The `count` smallest roots q of the even/odd secular equations give
    sigma = q^2 (lam - q^2), sorted nonincreasing (equal values list the even
    mode first).  Modes are L2-normalized and signed so that y''(0) > 0.
    """
    if count < 1:
        raise ValueError("mode count must be >= 1")
    L = params.length
    roots = _clamped_roots(params, count)
    q = np.array([root[0] for root in roots])
    sigma = q * q * (params.lam - q * q)
    order = np.lexsort(([root[1] for root in roots], -sigma))
    raw = [_mode_at_root(params, *roots[j]) for j in order]
    values = sigma[order]

    quad = quadrature_for_modes(L, int(math.ceil(q.max() * L / math.pi)))
    basis = np.array([m(quad.nodes) for m in raw])
    scale = np.array(
        [math.copysign(1.0, float(m(0.0, 2))) for m in raw]
    ) / np.sqrt(basis**2 @ quad.weights)
    modes = tuple(replace(m, a=m.a * s, b=m.b * s) for m, s in zip(raw, scale))
    basis *= scale[:, None]
    basis_d1 = np.array([m(quad.nodes, 1) for m in modes])
    basis_d2 = np.array([m(quad.nodes, 2) for m in modes])

    gram_d1 = _gram(basis_d1, basis_d1, quad.weights)
    # <e_i'', e_j''> = lam <e_i', e_j'> - sigma_j delta_ij for eigenfunctions
    # satisfying the clamped walls (integrate by parts twice).
    gram_d2 = params.lam * gram_d1 - np.diag(values)

    return EigenSystem(
        params=params,
        bc=BoundaryCondition.CLAMPED,
        count=count,
        values=values,
        mode_index=np.arange(1, count + 1),
        modes=modes,
        quadrature=quad,
        basis=basis,
        basis_d1=basis_d1,
        basis_d2=basis_d2,
        gram_d1=gram_d1,
        gram_d2=gram_d2,
        solver="secular",
    )


# ---------------------------------------------------------------------------
# Derived spectral quantities


def unstable_count(es):
    """Number of non-negative eigenvalues and the tail gap eta.

    Zero eigenvalues count as unstable.  eta defaults to half the magnitude
    of the first stable eigenvalue, strictly inside (0, -sigma_{n+1}).
    """
    negative = es.values < 0.0
    if not negative.any():
        raise AllModesUnstable(
            f"all {es.count} computed eigenvalues are non-negative; increase the mode count"
        )
    n = int(np.argmax(negative))
    eta = -float(es.values[n]) / 2.0
    return UnstableSplit(n=n, eta=eta)


def eigen_residual(es, j):
    """Relative ODE residual of the j-th stored eigenpair, for every family.

    The quadrature norm of -y'''' - lam y'' - sigma y over max(1, |sigma|),
    with y'''' from the stored mode and y, y'' from the cached tables.
    """
    y4 = es.modes[j](es.quadrature.nodes, 4)
    r = -y4 - es.params.lam * es.basis_d2[j] - es.values[j] * es.basis[j]
    norm = math.sqrt(max(0.0, es.quadrature.integrate(r**2)))
    return norm / max(1.0, abs(float(es.values[j])))


def critical_set_member(lam, length, tol=1e-8):
    """Membership of lam in {pi^2 (k^2 + l^2) / L^2 : 0 < k < l, same parity}.

    Exactly there the clamped spectrum has a double unstable eigenvalue,
    (k l pi^2 / L^2)^2, and the wall-slope pair is not stabilizable.  `tol`
    is absolute in lam.
    """
    if lam <= 0.0:
        return False
    unit = (math.pi / length) ** 2
    bound = (lam + tol) / unit + 1.0
    k = 1
    while k * k <= bound:
        l = k + 2
        while k * k + l * l <= bound:
            if abs(lam - unit * (k * k + l * l)) <= tol:
                return True
            l += 2
        k += 1
    return False
