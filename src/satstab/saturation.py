"""Componentwise saturation, its deadzone, and the generalized sector test."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class SaturationLevel:
    """Symmetric clamp bound; math.inf disables saturation."""

    ell: float

    def __post_init__(self):
        if not self.ell > 0.0:
            raise ValueError(f"saturation level must be positive, got {self.ell}")


UNSATURATED = SaturationLevel(math.inf)


def sat(s, level):
    """Clamp each component of s to [-ell, ell]."""
    clipped = np.minimum(np.maximum(s, -level.ell), level.ell)
    return float(clipped) if np.ndim(s) == 0 else clipped


def deadzone(u, level):
    """sat(u) - u; zero exactly where the clamp is inactive."""
    out = sat(u, level) - u
    return float(out) if np.ndim(out) == 0 else out


class SectorReport(NamedTuple):
    hypothesis_ok: bool
    weighted_value: float
    holds: bool


def sector_holds(z, K, C, D, level, tol=1e-12):
    """Weighted sector inequality phi(Kz)^T D (phi(Kz) + Cz) <= tol.

    The inequality is guaranteed when |((K - C) z)_j| <= ell for every
    channel; that hypothesis is checked and reported separately so callers
    can distinguish a violated premise from a violated conclusion.  A row
    batch z of shape (N, n) gives each field per row, as arrays of length N.
    """
    z = np.asarray(z, dtype=float)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    phi = deadzone(z @ K.T, level)
    hypothesis_ok = np.all(np.abs(z @ (K - C).T) <= level.ell, axis=-1)
    value = np.sum((phi @ D) * (phi + z @ C.T), axis=-1)
    return SectorReport(hypothesis_ok=hypothesis_ok, weighted_value=value, holds=value <= tol)
