"""Quantum Fisher information for parameter-dependent measurement channels.

Subpackages cover the linear-algebra core, Fisher-information estimators,
the measurement-encoding calculus with its losslessness checks, the
discrete collision model for post-selected non-Hermitian sensing, worked
scenarios, and the command-line interface.
"""

__version__ = "0.1.0"

from .quantum_core import (  # noqa: F401
    Ket,
    MeasurementChannel,
    Operator,
    kraus_from_dilation,
    mixed_state,
)
