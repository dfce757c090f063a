"""Spectral data for the operator A y = -y'''' - lam * y'' on (0, L).

Three boundary-condition families are supported:

* clamped:  y(0) = y(L) = y'(0) = y'(L) = 0
* hinged:   y(0) = y(L) = y''(0) = y''(L) = 0
* neumann:  y'(0) = y'(L) = y'''(0) = y'''(L) = 0

Hinged and Neumann eigenpairs have closed forms built on the Dirichlet /
Neumann Laplacian.  Clamped eigenpairs come from a symmetric second-order
finite-difference discretization solved at two resolutions, with each
eigenvalue re-evaluated through a weak-form Rayleigh quotient of the spline
eigenfunction and a refinement acceptance test on the cross-resolution gap.
The same machinery runs with the hinged stencil for cross-validation against
the closed form.

Eigenfunctions are stored in two forms at once: a per-mode analytic or
spline record, and cached samples (value, first and second derivative) on a
shared Gauss-Legendre quadrature grid sized so that cubic products of the
retained modes integrate essentially exactly.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

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


@dataclass(frozen=True)
class GridMode:
    """Grid-represented mode: cubic spline through finite-difference values."""

    spline: CubicSpline

    def __call__(self, x, deriv=0):
        return self.spline(np.asarray(x, dtype=float), nu=deriv)


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
    value_error: np.ndarray

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
        value_error=np.zeros(count),
    )


# ---------------------------------------------------------------------------
# Finite-difference eigensolver (clamped, plus hinged for cross-validation)


def _fd_matrix(params, bc, cells):
    """Symmetric pentadiagonal -D4 - lam*D2 on the interior of a uniform grid."""
    h = params.length / cells
    m = cells - 1
    inv2 = 1.0 / h**2
    inv4 = 1.0 / h**4

    main = np.full(m, -6.0 * inv4 + 2.0 * params.lam * inv2)
    off1 = np.full(m - 1, 4.0 * inv4 - params.lam * inv2)
    off2 = np.full(m - 2, -1.0 * inv4)

    # Ghost-node elimination at both walls: y'(0)=0 folds the ghost back with
    # +1 (clamped), y''(0)=0 with -1 (hinged).
    ghost = {BoundaryCondition.CLAMPED: 1.0, BoundaryCondition.HINGED: -1.0}[bc]
    main[0] += -ghost * inv4
    main[-1] += -ghost * inv4

    mat = sp.diags(
        [off2, off1, main, off1, off2], [-2, -1, 0, 1, 2], format="csc"
    )
    return mat, h


def _fd_top_eigs(params, bc, count, cells, vectors):
    mat, h = _fd_matrix(params, bc, cells)
    m = mat.shape[0]
    if count > m - 1:
        raise ValueError(f"requested {count} modes from a {m}-point interior grid")
    # The discrete spectrum lies below lam^2/4, so this shift is strictly
    # above it and shift-invert returns the top of the spectrum.
    shift = 0.25 * params.lam**2 + 1.0
    v0 = np.full(m, 1.0 / math.sqrt(m))
    try:
        w, v = eigsh(
            mat,
            k=count,
            sigma=shift,
            which="LM",
            v0=v0,
            return_eigenvectors=True,
        )
    except (ArpackError, ArpackNoConvergence) as exc:
        raise ConvergenceFailure(f"sparse eigensolve failed at {cells} cells: {exc}")
    order = np.argsort(w)[::-1]
    w = w[order]
    if not vectors:
        return w, None, h
    v = v[:, order]
    # deterministic sign: largest-magnitude entry positive
    for j in range(count):
        col = v[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            v[:, j] = -col
    return w, v, h


def _interval_rule(length, cells, order=4):
    """Per-interval Gauss rule, exact for the squares of spline derivatives."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    h = length / cells
    starts = np.arange(cells) * h
    pts = (starts[:, None] + 0.5 * h * (xg[None, :] + 1.0)).ravel()
    w = np.tile(0.5 * h * wg, cells)
    return pts, w


def _rayleigh_quotients(splines, lam, length, cells):
    """Weak-form Rayleigh quotient (lam*|s'|^2 - |s''|^2) / |s|^2 per spline.

    Quadratically insensitive to the eigenvector error and free of the
    1/h^4 roundoff that limits the discrete eigenvalues themselves.
    """
    pts, w = _interval_rule(length, cells)
    out = np.empty(len(splines))
    for j, s in enumerate(splines):
        s0 = s(pts)
        s1 = s(pts, 1)
        s2 = s(pts, 2)
        out[j] = (lam * (w @ s1**2) - (w @ s2**2)) / (w @ s0**2)
    return out


def _fd_splines(params, bc, count, cells):
    w, v, h = _fd_top_eigs(params, bc, count, cells, vectors=True)
    x_full = np.linspace(0.0, params.length, cells + 1)
    spline_bc = ((1, 0.0), (1, 0.0)) if bc == BoundaryCondition.CLAMPED else "natural"
    raw = np.zeros((count, x_full.size))
    raw[:, 1:-1] = (v / math.sqrt(h)).T
    splines = [CubicSpline(x_full, raw[j], bc_type=spline_bc) for j in range(count)]
    return raw, splines, x_full, spline_bc


def eigen_fd(params, bc, count, base_cells=None, rtol=1e-6):
    """Finite-difference eigen system refined by Rayleigh-quotient polishing.

    The symmetric stencil is eigensolved at `base_cells` and `2*base_cells`
    cells; each eigenvector is interpolated by a BC-respecting cubic spline
    and its eigenvalue recomputed from the weak-form Rayleigh quotient.  The
    gap between the two resolutions is the per-mode error indicator and must
    pass `rtol`, otherwise `ConvergenceFailure` is raised.  Stored modes are
    the fine-grid splines, symmetric re-orthonormalized under the shared
    quadrature.
    """
    if count < 1:
        raise ValueError("mode count must be >= 1")
    if bc == BoundaryCondition.NEUMANN_CH:
        raise ValueError("finite-difference solver supports clamped and hinged only")
    if base_cells is None:
        base_cells = max(768, 44 * count)
    L = params.length

    _, splines_coarse, _, _ = _fd_splines(params, bc, count, base_cells)
    rq_coarse = _rayleigh_quotients(splines_coarse, params.lam, L, base_cells)

    fine_cells = 2 * base_cells
    raw, splines_raw, x_full, spline_bc = _fd_splines(params, bc, count, fine_cells)

    # Symmetric orthonormalization under the quadrature inner product.
    quad = quadrature_for_modes(L, count)
    basis_raw = np.array([s(quad.nodes) for s in splines_raw])
    g = _gram(basis_raw, basis_raw, quad.weights)
    ew, ev = np.linalg.eigh(g)
    mix = ev @ np.diag(1.0 / np.sqrt(ew)) @ ev.T
    grid_values = mix @ raw
    splines = [
        CubicSpline(x_full, grid_values[j], bc_type=spline_bc) for j in range(count)
    ]
    rq_fine = _rayleigh_quotients(splines, params.lam, L, fine_cells)

    order = np.argsort(rq_fine)[::-1]
    values = rq_fine[order]
    rq_coarse = np.sort(rq_coarse)[::-1]
    scale = np.maximum(1.0, np.abs(values))
    indicator = np.abs(values - rq_coarse) / (2.0 * scale)
    if np.any(indicator > rtol):
        worst = int(np.argmax(indicator))
        raise ConvergenceFailure(
            f"eigenvalue {worst + 1} not stabilized: indicator "
            f"{indicator[worst]:.3e} > {rtol:.1e} at {fine_cells} cells"
        )

    modes = tuple(GridMode(splines[j]) for j in order)
    basis = np.array([m(quad.nodes) for m in modes])
    basis_d1 = np.array([m(quad.nodes, 1) for m in modes])
    basis_d2 = np.array([m(quad.nodes, 2) for m in modes])

    gram_d1 = _gram(basis_d1, basis_d1, quad.weights)
    # <e_i'', e_j''> = lam * <e_i', e_j'> - sigma_j delta_ij for eigenfunctions;
    # avoids differentiating grid data four times.
    gram_d2 = params.lam * gram_d1 - np.diag(values)
    gram_d2 = 0.5 * (gram_d2 + gram_d2.T)

    return EigenSystem(
        params=params,
        bc=bc,
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
        solver="fd-rayleigh",
        value_error=indicator,
    )


def eigen_clamped(params, count, base_cells=None, rtol=1e-6):
    """Numerical eigen system for the clamped family."""
    return eigen_fd(params, BoundaryCondition.CLAMPED, count, base_cells, rtol)


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
    """Relative residual of the j-th stored eigenpair.

    Closed-form modes are differentiated analytically and the residual
    norm evaluated by quadrature.  Grid modes report the stored refinement
    error indicator of the polished eigenvalue.
    """
    if es.solver != "closed-form":
        return float(es.value_error[j])
    mode = es.modes[j]
    x = es.quadrature.nodes
    r = -mode(x, 4) - es.params.lam * mode(x, 2) - es.values[j] * mode(x, 0)
    norm = math.sqrt(max(0.0, es.quadrature.integrate(r**2)))
    return norm / max(1.0, abs(float(es.values[j])))


def critical_set_member(lam, tol=1e-8):
    """Membership of lam in {pi^2 (k^2 + l^2) : k < l, same parity}.

    Meaningful for the unit-length clamped normalization.
    """
    if lam <= 0.0:
        return False
    bound = (lam + tol) / math.pi**2 + 1.0
    k = 1
    while k * k <= bound:
        l = k + 2
        while k * k + l * l <= bound:
            if abs(lam - math.pi**2 * (k * k + l * l)) <= tol:
                return True
            l += 2
        k += 1
    return False
