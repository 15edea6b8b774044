"""qesim: deterministic state-vector simulation of quantum separation experiments."""

from .qstate import (
    CompositionError,
    Dof,
    StateStack,
    StateVector,
    ValidationError,
    rebase,
)

__all__ = [
    "CompositionError",
    "Dof",
    "StateStack",
    "StateVector",
    "ValidationError",
    "rebase",
]

__version__ = "0.1.0"
