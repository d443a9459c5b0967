"""Exception types shared across the analytic and oracle paths."""


class DivergentSensitivityError(RuntimeError):
    """The quadrature mean has no phase slope here; error propagation diverges."""


class DegenerateConfigurationError(RuntimeError):
    """Vacuum-only configuration: the requested benchmark is undefined."""


class InsufficientCutoffError(RuntimeError):
    """The requested Fock cutoff cannot hold the state to the required tail mass."""


class NonconvergedOracleError(RuntimeError):
    """Cutoff escalation hit its budget before the tail diagnostics converged."""
