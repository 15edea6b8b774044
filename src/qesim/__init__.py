"""qesim: deterministic state-vector simulation of quantum separation experiments."""

from .qstate import (
    BasisChange,
    CompositionError,
    Dof,
    StateStack,
    StateVector,
    ValidationError,
    global_phase_deviation,
    rebase,
)

__all__ = [
    "BasisChange",
    "CompositionError",
    "Dof",
    "StateStack",
    "StateVector",
    "ValidationError",
    "global_phase_deviation",
    "rebase",
]

__version__ = "0.1.0"
