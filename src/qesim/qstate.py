"""Complex-amplitude state algebra over composite labeled Hilbert spaces.

States live on an ordered list of degrees of freedom (dofs), each with a
small set of named basis labels.  Amplitudes are stored dense over the full
product basis in canonical order (C order over dof positions, label order
within each dof), always normalized; survival probability through filters is
tracked separately as ``weight``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12


class ValidationError(ValueError):
    """A constructor argument violates a structural invariant."""


class CompositionError(ValueError):
    """Two values cannot be combined (mismatched or colliding spaces)."""


@dataclass(frozen=True)
class Dof:
    """A named degree of freedom with ordered basis labels."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise ValidationError(f"dof {self.name!r} needs >= 2 labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"dof {self.name!r} has duplicate labels")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(
                f"dof {self.name!r} has no label {label!r}"
            ) from None


@dataclass(frozen=True, eq=False)
class BasisChange:
    """A unitary relabeling of one dof's basis."""

    dof: str
    matrix: np.ndarray  # rows: new labels, columns: old labels
    new_labels: tuple[str, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "new_labels", tuple(self.new_labels))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("basis-change matrix must be square")
        if len(self.new_labels) != m.shape[0]:
            raise ValidationError("label count must match matrix dimension")
        if not is_unitary(m):
            raise ValidationError("basis-change matrix is not unitary")


def is_unitary(m: np.ndarray, tol: float = NORM_TOL):
    """Whether every entry of M^dag M - I is below ``tol``; over a stack of
    matrices (the last two axes), one bool per matrix."""
    m = np.asarray(m, dtype=complex)
    return np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1)) < tol


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitudes over the product basis of ``dofs``.

    ``weight`` is the probability mass that survived all filters applied so
    far; it multiplies any Born probability computed from the amplitudes.
    """

    dofs: tuple[Dof, ...]
    amps: np.ndarray = field(repr=False)
    weight: float = 1.0

    def __post_init__(self):
        dofs = tuple(self.dofs)
        object.__setattr__(self, "dofs", dofs)
        names = [d.name for d in dofs]
        if len(set(names)) != len(names):
            raise CompositionError(f"duplicate dof names in {names}")
        a = np.asarray(self.amps, dtype=complex).reshape(-1)
        n = self.dim
        if a.size != n:
            raise ValidationError(f"expected {n} amplitudes, got {a.size}")
        a = _unit(a).copy()
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)
        object.__setattr__(self, "weight", _weight(self.weight))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_amplitudes(dofs, mapping, weight: float = 1.0) -> "StateVector":
        """Build a state from a {label tuple: amplitude} mapping (normalized)."""
        dofs = tuple(dofs)
        dims = tuple(d.dim for d in dofs)
        a = np.zeros(math.prod(dims), dtype=complex)
        for labels, amp in mapping.items():
            labels = (labels,) if isinstance(labels, str) else tuple(labels)
            if len(labels) != len(dofs):
                raise ValidationError(f"key {labels} has wrong arity")
            idx = np.ravel_multi_index(
                tuple(d.index(l) for d, l in zip(dofs, labels)), dims
            )
            a[idx] += amp
        norm = np.linalg.norm(a)
        if norm < 1e-15:
            raise ValidationError("amplitudes are not normalizable (all zero)")
        return StateVector(dofs, a / norm, weight)

    @staticmethod
    def basis_state(dofs, labels, weight: float = 1.0) -> "StateVector":
        return StateVector.from_amplitudes(dofs, {tuple(labels): 1.0}, weight)

    # -- structure ------------------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d.dim for d in self.dofs)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def dof(self, name: str) -> Dof:
        for d in self.dofs:
            if d.name == name:
                return d
        raise CompositionError(f"no dof named {name!r}")

    def axis(self, name: str) -> int:
        return _axis(self.dofs, name)

    def tensor_view(self) -> np.ndarray:
        return self.amps.reshape(self.dims)

    def amplitude(self, labels) -> complex:
        labels = (labels,) if isinstance(labels, str) else tuple(labels)
        idx = np.ravel_multi_index(
            tuple(d.index(l) for d, l in zip(self.dofs, labels)), self.dims
        )
        return complex(self.amps[idx])

    def same_space(self, other: "StateVector") -> bool:
        return self.dofs == other.dofs


@dataclass(frozen=True)
class AllBlocked:
    """Degenerate evolution result: every branch was absorbed by filters."""

    dofs: tuple[Dof, ...]
    weight: float = 0.0


@dataclass(frozen=True, eq=False)
class StateStack:
    """States over one space, as one array: ``amps[i]`` is row i's amplitude
    tensor over ``dofs`` and ``weights[i]`` its weight.  A row of ``blocked``
    was absorbed entirely by a filter; its amplitudes and weight are zero."""

    dofs: tuple[Dof, ...]
    amps: np.ndarray
    weights: np.ndarray
    blocked: np.ndarray

    @property
    def dim(self) -> int:
        return math.prod(self.amps.shape[1:])

    def state(self, i: int) -> StateVector | AllBlocked:
        """Row i as a state, with the same bytes; AllBlocked if it is blocked."""
        if self.blocked[i]:
            return AllBlocked(self.dofs)
        return StateVector(self.dofs, self.amps[i], self.weights[i])


def _unit(a: np.ndarray) -> np.ndarray:
    """``a`` itself, or ``a`` over its norm when that is off 1 by more than
    NORM_TOL; ValidationError when it is off by more than 1e-9."""
    norm = np.linalg.norm(a)
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError(f"amplitudes not normalized (norm={norm})")
    return a / norm if abs(norm - 1.0) > NORM_TOL else a


def _normalize_rows(flat: np.ndarray, blocked) -> None:
    """Check and renormalize each unblocked row of ``flat`` in place, as
    ``StateVector`` does its amplitudes.

    One vectorised pass sums the squares of each row's real parts.  For k
    amplitudes that sum is within a factor 1 +- 2k * 2**-53 of the squared
    norm, and ``_unit``'s norm within (k + 3) * 2**-54 of the norm, so a row
    whose sum is within 2 * (NORM_TOL - (k + 4) * 2**-52) of 1 is one
    ``_unit`` leaves as it is.  Every other row goes through ``_unit``: every
    row, without the pass, when that margin is not positive (k > 4499)."""
    margin = NORM_TOL - (flat.shape[1] + 4) * 2.0**-52
    unsure = ~np.asarray(blocked, dtype=bool)
    if margin > 0:
        re = np.ascontiguousarray(flat).view(np.float64)
        unsure = unsure & (np.abs(np.einsum("ij,ij->i", re, re) - 1.0) > 2 * margin)
    for i in unsure.nonzero()[0]:
        row = flat[i]
        a = _unit(row)
        if a is not row:
            flat[i] = a


def _weight(w: float) -> float:
    """A survival weight clamped into [0, 1]; ValidationError when it lies
    outside by more than NORM_TOL."""
    if not (-NORM_TOL <= w <= 1.0 + NORM_TOL):
        raise ValidationError(f"weight {w} outside [0, 1]")
    return float(min(max(w, 0.0), 1.0))


def _axis(dofs, name: str) -> int:
    for i, d in enumerate(dofs):
        if d.name == name:
            return i
    raise CompositionError(f"no dof named {name!r}")


# -- operations ----------------------------------------------------------------


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> over the joint basis; spaces must match exactly."""
    if not a.same_space(b):
        raise CompositionError("inner product requires identical spaces")
    return complex(np.vdot(a.amps, b.amps))


def contract(t: np.ndarray, m: np.ndarray, axes) -> np.ndarray:
    """Contract the trailing ``len(axes)`` axes of ``m[i]`` with ``axes`` of
    ``t[i]`` over a stack of states (axis 0 of ``t`` and ``m``, kept in front,
    so ``axes`` count from 1); as many leading axes of ``m[i]`` take their
    places, and ``m[0]`` acts on every state if ``m`` has length 1.  Folding
    the stack into the columns instead would be another gemm, whose last bits
    may differ.

    Written as transpose, reshape and one ``@``: at the small dimensions
    elements act on, that costs less per call than ``np.tensordot``.
    """
    n = len(axes)
    perm = [0] + list(axes) + [i for i in range(1, t.ndim) if i not in axes]
    k = math.prod(m.shape[1 + n:])
    # no -1: it is ambiguous on an empty stack
    flat = t.transpose(perm).reshape(t.shape[0], k, math.prod(t.shape[1:]) // k)
    shape = [t.shape[i] for i in perm]
    shape[1:1 + n] = m.shape[1:1 + n]
    out = (m.reshape(m.shape[0], math.prod(m.shape[1:1 + n]), k) @ flat).reshape(shape)
    return out.transpose(sorted(range(t.ndim), key=perm.__getitem__))


def rebase(s: StateVector, change: BasisChange) -> StateVector:
    """Express the same physical state in a new basis for one dof."""
    ax = s.axis(change.dof)
    old = s.dofs[ax]
    if change.matrix.shape[0] != old.dim:
        raise ValidationError(
            f"basis change dimension {change.matrix.shape[0]} != dof dim {old.dim}"
        )
    dofs = list(s.dofs)
    dofs[ax] = Dof(old.name, change.new_labels)
    new = contract(s.tensor_view()[None], change.matrix[None], (ax + 1,))[0]
    return StateVector(tuple(dofs), new, s.weight)


def global_phase_deviation(a: StateVector, b: StateVector) -> float:
    """min over unit phases c of max_k |a_k - c*b_k|, with c fixed from the
    largest-magnitude component of b (deterministic and numerically stable)."""
    if not a.same_space(b):
        raise CompositionError("comparison requires identical spaces")
    return _phase_deviation(a.amps, b.amps)


def _phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """``global_phase_deviation`` of two amplitude arrays of one shape."""
    k = int(np.argmax(np.abs(b)))
    c = a.flat[k] / b.flat[k]
    if abs(c) < 1e-15:
        return float(np.max(np.abs(a - b)))
    c = c / abs(c)
    return float(np.max(np.abs(a - c * b)))
