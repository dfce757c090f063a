"""Exception types shared across the package, each with its CLI exit code and label."""


class SatStabError(Exception):
    """Base class for all library errors; by default a numerical failure."""

    exit_code = 3
    label = "numerical failure"


class ConfigError(SatStabError):
    """Invalid experiment configuration."""

    exit_code = 2
    label = "config error"


class Infeasible(SatStabError):
    """The configured system admits no stabilizing design."""

    exit_code = 4
    label = "infeasible"


class ConvergenceFailure(SatStabError):
    """A numerical solve did not reach its target (e.g. too few eigenvalues bracketed)."""


class AllModesUnstable(SatStabError):
    """No negative eigenvalue among the computed modes (mode count too small)."""


class CriticalLength(Infeasible):
    """Anti-diffusion parameter lies in the critical set; boundary pair not stabilizable."""


class NotStabilizable(Infeasible):
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
