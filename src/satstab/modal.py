"""Finite-dimensional truncation of the controlled dynamics.

Assembles the unstable-subsystem matrices, the actuator coefficient table,
and the boundary lifting used when the control enters through the wall
slope with an integrator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CriticalLength
from .spectral import BoundaryCondition, EigenSystem, critical_set_member


@dataclass(frozen=True)
class Indicator:
    """Characteristic-function actuator on the window (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not 0.0 <= self.a:
            raise ValueError(f"indicator window must start at >= 0, got {self.a}")
        if not self.a < self.b:
            raise ValueError(f"indicator window ({self.a}, {self.b}) is empty")


@dataclass(frozen=True)
class ModeCombination:
    """Actuator shaped as a finite combination of eigenfunctions."""

    coefficients: tuple

    def __init__(self, coefficients):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in coefficients))
        if len(self.coefficients) == 0:
            raise ValueError("mode combination needs at least one coefficient")


@dataclass(frozen=True)
class Lifting:
    """Cubic lifting d(x) = x^3/L^2 - 2x^2/L + x carrying the wall input.

    d(0) = d(L) = 0, d'(0) = 1, d'(L) = 0; the transformed state sees the
    forcings a(x) = -lam * d''(x) and b(x) = -d(x).
    """

    length: float

    def d(self, x):
        L = self.length
        x = np.asarray(x, dtype=float)
        return x**3 / L**2 - 2.0 * x**2 / L + x

    def d1(self, x):
        L = self.length
        x = np.asarray(x, dtype=float)
        return 3.0 * x**2 / L**2 - 4.0 * x / L + 1.0

    def d2(self, x):
        L = self.length
        x = np.asarray(x, dtype=float)
        return 6.0 * x / L**2 - 4.0 / L

    def a(self, x, lam):
        return -lam * self.d2(x)

    def b(self, x):
        return -self.d(x)

    def d_norm_sq(self):
        return self.length**3 / 105.0


@dataclass(frozen=True)
class ModalSystem:
    """Truncation data: head matrices plus tail forcing coefficients.

    Internal mode: state z holds the n unstable modal coordinates,
    A = diag(sigma_1..sigma_n), B the head rows of the coefficient table.
    Boundary mode: state z = (u, w_1..w_n) with an integrator first row;
    a_tail carries the tail forcing proportional to u.
    """

    es: EigenSystem
    n: int
    A: np.ndarray
    B: np.ndarray
    b_tail: np.ndarray
    mode: str  # "internal" | "boundary"
    shape_norms_sq: np.ndarray
    a_tail: np.ndarray | None = None
    lifting: Lifting | None = None

    @property
    def dim(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def lift_coefficients(self):
        """<d, e_j> over the J modes (the input column below the integrator is b = -d).

        None for internal actuation.
        """
        if self.mode != "boundary":
            return None
        return -np.concatenate([self.B[1:, 0], self.b_tail[:, 0]])

    def field_coefficients(self, states):
        """Modal coefficients of the field: w + u d for boundary rows (u, w), else the rows."""
        d = self.lift_coefficients
        if d is None:
            return states
        return states[:, 1:] + states[:, :1] * d


def actuator_coefficients(es, shapes):
    """Coefficient table <b_k, e_j> over the retained modes, one column per channel.

    An indicator window's column is every mode's integral over the window,
    `es.modes.integral(a, b)`, in closed form for each wall family; a mode
    combination's column is its coefficients, padded with zeros.
    """
    cols = []
    for shape in shapes:
        if isinstance(shape, Indicator):
            if shape.b > es.params.length:
                raise ValueError(
                    f"indicator window ends at {shape.b} beyond length {es.params.length}"
                )
            cols.append(es.modes.integral(shape.a, shape.b))
        elif isinstance(shape, ModeCombination):
            c = np.zeros(es.count)
            coeffs = np.asarray(shape.coefficients)
            if len(coeffs) > es.count:
                raise ValueError("mode combination longer than the retained basis")
            c[: len(coeffs)] = coeffs
            cols.append(c)
        else:
            raise TypeError(f"unknown actuator shape {shape!r}")
    return np.column_stack(cols) if cols else np.zeros((es.count, 0))


def actuator_norms_sq(shapes):
    """Squared L2 norms of the actuator shape functions."""
    out = []
    for shape in shapes:
        if isinstance(shape, Indicator):
            out.append(shape.b - shape.a)
        elif isinstance(shape, ModeCombination):
            out.append(float(np.sum(np.asarray(shape.coefficients) ** 2)))
        else:
            raise TypeError(f"unknown actuator shape {shape!r}")
    return np.array(out)


def assemble_internal(es, shapes, n):
    """Head/tail split of the modal dynamics under `shapes`, with their full L2 norms."""
    coeffs = actuator_coefficients(es, shapes)
    return ModalSystem(
        es=es,
        n=n,
        A=np.diag(es.values[:n]),
        B=coeffs[:n].copy(),
        b_tail=coeffs[n:].copy(),
        mode="internal",
        shape_norms_sq=actuator_norms_sq(shapes),
    )


def assemble_boundary(es, n):
    """Integrator-augmented system for wall-slope actuation through `Lifting(L)`.

    State z = (u, w_1..w_n): the first equation integrates the saturated
    input, the modal rows see sigma_j w_j + a_j u + b_j sat(h).  Requires the
    clamped family and an anti-diffusion coefficient outside the critical
    set, otherwise the augmented pair is not stabilizable.
    """
    if es.bc != BoundaryCondition.CLAMPED:
        raise ValueError("boundary assembly requires the clamped family")
    lam, L = es.params.lam, es.params.length
    if critical_set_member(lam, L, 1e-8):
        raise CriticalLength(
            f"lam L^2 / pi^2 = {lam * L**2 / math.pi**2:.12g} (lam = {lam}, L = {L}) lies in "
            "the critical set {k^2 + l^2 : k < l, same parity}; the boundary pair is not "
            "stabilizable"
        )
    lifting = Lifting(L)
    x = es.quadrature.nodes
    w = es.quadrature.weights
    a_vals = lifting.a(x, es.params.lam)
    b_vals = lifting.b(x)
    a_coeff = es.basis @ (w * a_vals)
    b_coeff = es.basis @ (w * b_vals)

    A = np.zeros((n + 1, n + 1))
    A[1:, 0] = a_coeff[:n]
    A[1:, 1:] = np.diag(es.values[:n])
    B = np.concatenate(([1.0], b_coeff[:n]))[:, None]
    return ModalSystem(
        es=es,
        n=n,
        A=A,
        B=B,
        b_tail=b_coeff[n:, None].copy(),
        mode="boundary",
        shape_norms_sq=np.array([lifting.d_norm_sq()]),
        a_tail=a_coeff[n:].copy(),
        lifting=lifting,
    )
