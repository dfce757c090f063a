"""Exception types shared across the package."""


class SatStabError(Exception):
    """Base class for all library errors."""


class ConfigError(SatStabError):
    """Invalid experiment configuration."""


class ConvergenceFailure(SatStabError):
    """A numerical solve did not reach its target (e.g. too few eigenvalues bracketed)."""


class AllModesUnstable(SatStabError):
    """No negative eigenvalue among the computed modes (mode count too small)."""


class CriticalLength(SatStabError):
    """Anti-diffusion parameter lies in the critical set; boundary pair not stabilizable."""


class NotStabilizable(SatStabError):
    """An unstable eigenvalue fails the rank test; no stabilizing gain exists."""


class CertificateFailure(SatStabError):
    """Certificate construction did not reach a negative-definite block matrix."""


class GapTooSmall(SatStabError):
    """First tail eigenvalue is non-negative; the unstable count is inconsistent."""


class BlowUp(SatStabError):
    """State norm exceeded the blow-up threshold during time integration."""


class NonPositiveChannel(SatStabError):
    """Monitor channel is not strictly positive on the fit window."""


class BoundExpired(SatStabError):
    """The comparison function w(t) lost positivity; the bound is void past that time."""

    def __init__(self, message, time=None, partial=None):
        super().__init__(message)
        self.time = time
        self.partial = partial
