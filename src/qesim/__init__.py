"""qesim: deterministic state-vector simulation of quantum separation experiments."""

from .qstate import (
    BasisChange,
    CompositionError,
    Dof,
    StateVector,
    ValidationError,
    global_phase_deviation,
    inner,
    rebase,
)

__all__ = [
    "BasisChange",
    "CompositionError",
    "Dof",
    "StateVector",
    "ValidationError",
    "global_phase_deviation",
    "inner",
    "rebase",
]

__version__ = "0.1.0"
