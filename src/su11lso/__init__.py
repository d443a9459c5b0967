"""SU(1,1) interferometer with an internal single-path squeezer.

Phase sensitivity under homodyne detection, photon-number benchmarks, and
quantum Fisher information, ideal and with photon loss, computed along two
independent routes: a closed-form moment-generating-function path and a
brute-force truncated Fock-space oracle.
"""

from .errors import (
    DegenerateConfigurationError,
    DivergentSensitivityError,
    InsufficientCutoffError,
    NonconvergedOracleError,
)
from .metrology import (
    LossyQfiReport,
    OptimalPhaseResult,
    QfiReport,
    SensitivityReport,
    optimal_phase,
    phase_sensitivity,
    qfi_ideal,
    qfi_lossy,
    sensitivity_curve,
    sql_hl,
    total_photon_number,
)
from .moments import (
    InterferometerParams,
    MomentTable,
    QuadratureStats,
    moment_table,
    q_moment,
    quadrature_stats,
    trig_coefficients,
)

__all__ = [
    "DegenerateConfigurationError",
    "DivergentSensitivityError",
    "InsufficientCutoffError",
    "InterferometerParams",
    "LossyQfiReport",
    "MomentTable",
    "NonconvergedOracleError",
    "OptimalPhaseResult",
    "QfiReport",
    "QuadratureStats",
    "SensitivityReport",
    "moment_table",
    "optimal_phase",
    "phase_sensitivity",
    "q_moment",
    "qfi_ideal",
    "qfi_lossy",
    "quadrature_stats",
    "sensitivity_curve",
    "sql_hl",
    "total_photon_number",
    "trig_coefficients",
]

__version__ = "0.1.0"
