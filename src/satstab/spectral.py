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

Each eigen system holds its modes two ways.  One family object keeps the
constants of every mode as arrays (amplitudes and frequencies for the hinged
and Neumann sines and cosines; parity, trig frequency q, partner kind,
partner frequency and coefficients for the clamped modes).  `es.modes(x,
deriv)` evaluates every mode's derivative of order 0-4 at the points x as one
(count, len(x)) table; the clamped family also takes order -1, the
antiderivative.  `es.modes.integral(a, b)` gives every mode's integral over
(a, b) in closed form, one entry per mode.
The tables of value, first and second derivative are also stored on a shared
quadrature grid, on which the nonlinear forcing's products y^2 e_j' and
y^3 e_j'' integrate exactly or essentially so.  Hinged modes use the midpoint
rule with 2 k_max + 1 nodes, exact for those products; Neumann and clamped
modes use composite Gauss-Legendre.  The eigen system holds no table derived
from these: the forcing's field and projection tables belong to `simulate`.
"""

import functools
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
    """Quadrature rule on (0, L): nodes and their weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values):
        return float(self.weights @ values)


@functools.cache
def _gauss_legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order, read-only."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


def composite_gauss_legendre(length, panels, order=16):
    """Composite rule with `panels` equal panels of `order` points each."""
    xg, wg = _gauss_legendre(order)
    h = length / panels
    starts = np.arange(panels) * h
    nodes = (starts[:, None] + 0.5 * h * (xg[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * h * wg, panels)
    return Quadrature(nodes=nodes, weights=weights)


def quadrature_for_modes(length, max_wavenumber, order=16):
    """Composite Gauss-Legendre rule for products of modes up to `max_wavenumber`.

    One panel per two-pi of phase of the worst product keeps the per-panel
    Gauss error at the 1e-14 level.  The Neumann and clamped grids use it;
    hinged modes take the exact `midpoint_rule` instead.
    """
    panels = max(8, int(math.ceil(1.5 * max(1, max_wavenumber))))
    return composite_gauss_legendre(length, panels, order)


def midpoint_rule(length, count):
    """`count` nodes at (i + 1/2) L / count, each with weight L / count.

    Integrates cos(m pi x / L) over (0, L) exactly for 0 <= m < 2 count.
    """
    h = length / count
    return Quadrature(nodes=(np.arange(count) + 0.5) * h, weights=np.full(count, h))


# ---------------------------------------------------------------------------
# Mode families


@dataclass(frozen=True)
class TrigFamily:
    """Closed-form modes amplitude * trig(frequency * x), one array entry per mode.

    `kind` ("sin" | "cos") is shared by the family; a zero frequency marks
    the constant mode (Neumann k = 0), whose derivatives vanish.
    """

    kind: str
    amplitude: np.ndarray
    frequency: np.ndarray

    def __call__(self, x, deriv=0):
        """The deriv-th derivative of every mode at the points x, as a (count, len(x)) table."""
        scale = [a * f**deriv for a, f in zip(self.amplitude.tolist(), self.frequency.tolist())]
        phase = self.frequency[:, None] * np.asarray(x, dtype=float) + deriv * math.pi / 2.0
        table = np.array(scale)[:, None] * (np.sin(phase) if self.kind == "sin" else np.cos(phase))
        if deriv:
            table[self.frequency == 0.0] = 0.0
        return table

    def tables(self, x, derivs):
        """Per order in `derivs`, every mode's derivative at the points x, (count, len(x))."""
        return [self(x, d) for d in derivs]

    def integral(self, a, b):
        """Every mode's integral over (a, b), one entry per mode."""
        constant = self.frequency == 0.0
        f = np.where(constant, 1.0, self.frequency)
        if self.kind == "sin":
            out = self.amplitude / f * (np.cos(f * a) - np.cos(f * b))
        else:
            out = self.amplitude / f * (np.sin(f * b) - np.sin(f * a))
        out[constant] = self.amplitude[constant] * (b - a)
        return out


# ---------------------------------------------------------------------------
# Eigen system


class UnstableSplit(NamedTuple):
    n: int
    eta: float


@dataclass(frozen=True)
class EigenSystem:
    """Ordered eigenpairs of the spatial operator for one BC family.

    `values` is nonincreasing; `modes` is the family of eigenfunctions
    (`TrigFamily` or `ClampedFamily`), and `modes(x, deriv)` evaluates all
    of them at once, one row per mode; `basis`, `basis_d1`, `basis_d2` hold
    those rows on the quadrature grid, the only copy of the modes on it.
    `gram_d1`/`gram_d2`, the H1/H2 Grams, are held once as `quad_form`
    takes them: a diagonal Gram (every hinged and Neumann one) as its
    weight vector, else the matrix.  Immutable, and nothing is cached on it.
    """

    params: OperatorParams
    bc: BoundaryCondition
    count: int
    values: np.ndarray
    modes: "TrigFamily | ClampedFamily"
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

    def bc_residual(self):
        """Worst violation of this BC family by each stored mode, one value per mode."""
        derivs = {
            BoundaryCondition.CLAMPED: (0, 1),
            BoundaryCondition.HINGED: (0, 2),
            BoundaryCondition.NEUMANN_CH: (1, 3),
        }[self.bc]
        walls = np.array([0.0, self.params.length])
        return np.max(np.abs(np.hstack(self.modes.tables(walls, derivs))), axis=1)

    def norm_error(self):
        """|<e_j, e_j> - 1| on the quadrature grid, one value per mode."""
        return np.abs(np.vecdot(self.basis**2, self.quadrature.weights) - 1.0)


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
    if bc == BoundaryCondition.HINGED:
        # y^2 e_j' and y^3 e_j'' are cosine polynomials of degree <= 3 k_max and 4 k_max
        quad = midpoint_rule(L, 2 * k_max + 1)
    else:
        # y^2 e_j' is a sine polynomial, which no equispaced rule integrates exactly
        quad = quadrature_for_modes(L, max(k_max, count))

    modes = TrigFamily(
        "sin" if bc == BoundaryCondition.HINGED else "cos",
        amplitude=np.where(ks == 0, 1.0 / math.sqrt(L), math.sqrt(2.0 / L)),
        frequency=ks * math.pi / L,
    )
    basis, basis_d1, basis_d2 = modes.tables(quad.nodes, (0, 1, 2))

    # Both families diagonalize the derivative Gram matrices: their weights are freq^2, freq^4.
    freq2 = modes.frequency**2

    return EigenSystem(
        params=params,
        bc=bc,
        count=count,
        values=sigma,
        modes=modes,
        quadrature=quad,
        basis=basis,
        basis_d1=basis_d1,
        basis_d2=basis_d2,
        gram_d1=freq2,
        gram_d2=freq2**2,
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


@dataclass(frozen=True)
class ClampedFamily:
    """Clamped modes a * T(q t) + b * P(t) in the centred coordinate t = x - L/2.

    Every field but `half` holds one entry per mode; `frequency` is the trig
    frequency q.  Even modes (odd 0) take T = cos and P = cosh(w t) /
    cosh(w L/2), cos(w t) or 1; odd modes (odd 1) take T = sin and P =
    sinh(w t) / cosh(w L/2), sin(w t) or t, for `partner` "hyperbolic",
    "trig" or "poly" (q^2 = lam).  Derivatives of order -1 (the
    antiderivative) to 4 are analytic, and are evaluated at |t| with the
    parity sign applied, so both walls see identical rounding.
    """

    odd: np.ndarray
    frequency: np.ndarray
    partner: np.ndarray
    w: np.ndarray
    half: float
    a: np.ndarray
    b: np.ndarray

    def parts(self, x, derivs):
        """Per order in `derivs`, the unscaled (count, len(x)) tables of T(q t) and P(t)."""
        t = np.asarray(x, dtype=float) - self.half
        s = np.abs(t)
        sign = np.sign(t)
        hyperbolic = self.partner == "hyperbolic"
        trig = self.partner == "trig"
        poly = self.partner == "poly"
        # cosh(p s) / cosh(p half) and sinh(p s) / cosh(p half), written with
        # non-positive exponents only, so they cannot overflow however large
        # p * half grows (the direct quotient overflows past 710)
        p = self.w[hyperbolic]
        denominator = [1.0 + math.exp(-2.0 * pj * self.half) for pj in p.tolist()]
        scale = np.exp(p[:, None] * (s - self.half)) / np.array(denominator)[:, None]
        decay = (-2.0 * p)[:, None] * s
        cosh, sinh = scale * (1.0 + np.exp(decay)), scale * -np.expm1(decay)
        q_s = self.frequency[:, None] * s
        w_s = self.w[trig, None] * s
        tables = []
        for d in derivs:
            # rows whose T and P are odd in t take sign(t), and sinh for P
            odd_in_t = self.odd != d % 2
            shift = ((d - self.odd) * math.pi / 2.0)[:, None]
            q_d = np.array([qj**d for qj in self.frequency.tolist()])[:, None]
            # the poly rows (w = 0) take no power of w
            w_d = np.array([wj**d if wj else 0.0 for wj in self.w.tolist()])[:, None]
            trig_part = q_d * np.cos(q_s + shift)
            partner = np.empty_like(trig_part)
            partner[hyperbolic] = w_d[hyperbolic] * np.where(odd_in_t[hyperbolic, None], sinh, cosh)
            partner[trig] = w_d[trig] * np.cos(w_s + shift[trig])
            if poly.any():
                # P = t^odd: order d is t^(odd - d) for d <= odd, over odd + 1 at d = -1
                power = self.odd[poly, None] - d
                monomial = np.where(power >= 0, s ** np.maximum(power, 0), 0.0)
                partner[poly] = monomial / power if d < 0 else monomial
            np.multiply(trig_part, sign, out=trig_part, where=odd_in_t[:, None])
            np.multiply(partner, sign, out=partner, where=odd_in_t[:, None])
            tables.append((trig_part, partner))
        return tables

    def tables(self, x, derivs):
        """Per order in `derivs`, every mode's derivative at the points x, (count, len(x))."""
        return [
            self.a[:, None] * trig + self.b[:, None] * partner
            for trig, partner in self.parts(x, derivs)
        ]

    def __call__(self, x, deriv=0):
        """The deriv-th derivative of every mode at the points x, as a (count, len(x)) table."""
        return self.tables(x, (deriv,))[0]

    def integral(self, a, b):
        """Every mode's integral over (a, b), one entry per mode: the antiderivative's increment."""
        F = self(np.array([a, b]), -1)
        return F[:, 1] - F[:, 0]


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


def _clamped_family(params, q, odd, x):
    """Unnormalized modes at the secular roots q, of parities odd, and their parts at x.

    Each mode's coefficients are the null vector of its wall row (value or
    slope at x = L) with the larger norm: at a double eigenvalue one row
    vanishes.  The wall and the points x are evaluated in one call, which
    also returns the unscaled tables of T and P of orders 0-2 at x.
    """
    q = np.asarray(q, dtype=float)
    s2 = q * q - params.lam
    ones = np.ones(q.size)
    unit = ClampedFamily(
        odd=np.asarray(odd),
        frequency=q,
        partner=np.where(s2 > 0.0, "hyperbolic", np.where(s2 < 0.0, "trig", "poly")),
        w=np.sqrt(np.abs(s2)),
        half=0.5 * params.length,
        a=ones,
        b=ones,
    )
    parts = unit.parts(np.concatenate([[params.length], x]), (0, 1, 2))
    value_rows, slope_rows = (
        np.column_stack([trig[:, 0], partner[:, 0]]).tolist() for trig, partner in parts[:2]
    )
    walls = [max(rows, key=lambda row: math.hypot(*row)) for rows in zip(value_rows, slope_rows)]
    t_wall, p_wall = np.array(walls).T
    family = replace(unit, a=p_wall, b=-t_wall)
    return family, [(trig[:, 1:], partner[:, 1:]) for trig, partner in parts]


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
    odd = np.array([root[1] for root in roots])
    sigma = q * q * (params.lam - q * q)
    order = np.lexsort((odd, -sigma))
    values = sigma[order]

    quad = quadrature_for_modes(L, int(math.ceil(q.max() * L / math.pi)))
    # one evaluation: x = 0, for the sign of y''(0), then the nodes
    x = np.concatenate([[0.0], quad.nodes])
    raw, parts = _clamped_family(params, q[order], odd[order], x)
    (t0, p0), (t1, p1), (t2, p2) = parts
    sign = np.copysign(1.0, raw.a * t2[:, 0] + raw.b * p2[:, 0])
    basis = raw.a[:, None] * t0[:, 1:] + raw.b[:, None] * p0[:, 1:]
    scale = sign / np.sqrt(basis**2 @ quad.weights)
    modes = replace(raw, a=raw.a * scale, b=raw.b * scale)
    basis *= scale[:, None]
    basis_d1 = modes.a[:, None] * t1[:, 1:] + modes.b[:, None] * p1[:, 1:]
    basis_d2 = modes.a[:, None] * t2[:, 1:] + modes.b[:, None] * p2[:, 1:]

    gram_d1 = _gram(basis_d1, basis_d1, quad.weights)
    # <e_i'', e_j''> = lam <e_i', e_j'> - sigma_j delta_ij for eigenfunctions
    # satisfying the clamped walls (integrate by parts twice).
    gram_d2 = params.lam * gram_d1 - np.diag(values)
    # a Gram that is exactly diagonal (one mode's, or gram_d2 at lam = 0) is held as its weights
    gram_d1, gram_d2 = (
        np.diag(g).copy() if np.array_equal(g, np.diag(np.diag(g))) else g
        for g in (gram_d1, gram_d2)
    )

    return EigenSystem(
        params=params,
        bc=BoundaryCondition.CLAMPED,
        count=count,
        values=values,
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


def eigen_residual(es):
    """Relative ODE residual of every stored eigenpair, one value per mode, for every family.

    Per mode, the quadrature norm of -y'''' - lam y'' - sigma y over
    max(1, |sigma|), with y'''' from the mode family and y, y'' from the
    stored tables.
    """
    y4 = es.modes(es.quadrature.nodes, 4)
    r = -y4 - es.params.lam * es.basis_d2 - es.values[:, None] * es.basis
    squares = np.vecdot(r**2, es.quadrature.weights)
    return np.sqrt(np.maximum(0.0, squares)) / np.maximum(1.0, np.abs(es.values))


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
