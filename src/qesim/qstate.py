"""Complex-amplitude state algebra over composite labeled Hilbert spaces.

States live on an ordered list of degrees of freedom (dofs), each with a
small set of named basis labels.  Amplitudes are stored dense over the full
product basis in canonical order (C order over dof positions, label order
within each dof), always normalized; filter survival is a separate weight.
``StateVector`` is the validated input (a circuit's source, a check's
target); every state past it is a row of a ``StateStack``.
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


def is_unitary(m: np.ndarray):
    """Whether every entry of M^dag M - I is below ``NORM_TOL``; over a stack
    of matrices (the last two axes), one bool per matrix."""
    m = np.asarray(m, dtype=complex)
    return np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1)) < NORM_TOL


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
        a = np.array(self.amps, dtype=complex).reshape(1, -1)
        n = self.dim
        if a.size != n:
            raise ValidationError(f"expected {n} amplitudes, got {a.size}")
        _normalize_rows(a, np.zeros(1, dtype=bool))
        a.setflags(write=False)
        object.__setattr__(self, "amps", a[0])
        object.__setattr__(self, "weight", float(_weight(self.weight)))

    @staticmethod
    def from_amplitudes(dofs, mapping, weight: float = 1.0) -> "StateVector":
        """Build a state from a {label tuple: amplitude} mapping, normalized."""
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
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(a)
        if not 1e-150 < norm < math.inf:
            # squares under- or overflowed: scale the real and imaginary parts first
            if not a.any() or not np.isfinite(a).all():
                raise ValidationError("amplitudes are not normalizable (all zero or not finite)")
            parts = a.view(np.float64)
            a = (parts / np.abs(parts).max()).view(complex)
            norm = np.linalg.norm(a)
        return StateVector(dofs, a / norm, weight)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d.dim for d in self.dofs)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def tensor_view(self) -> np.ndarray:
        return self.amps.reshape(self.dims)


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


def _one(stack: StateStack) -> StateStack:
    """``stack``; ValidationError unless it holds exactly one state."""
    if len(stack.amps) != 1:
        raise ValidationError(f"expected a stack of one state, got {len(stack.amps)}")
    return stack


def row_norms(x: np.ndarray) -> np.ndarray:
    """The norm of each row of ``x`` (axis 0 counts them), to the bit of
    ``np.linalg.norm``: both dot the row's strided real and imaginary views
    with one BLAS kernel (a contiguous copy of a view would take another)."""
    flat = x.reshape(len(x), math.prod(x.shape[1:]))
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _normalize_rows(flat: np.ndarray, blocked) -> None:
    """Check each unblocked row of ``flat``: ValidationError if its norm is NaN
    or off 1 by more than 1e-9; divided in place by it if off by more than NORM_TOL."""
    norms = row_norms(flat)
    dev = np.abs(norms - 1.0)
    dev[blocked] = 0.0
    worst = dev.max(initial=0.0)
    if not worst <= 1e-9:
        raise ValidationError(f"amplitudes not normalized (norm={norms[~(dev <= 1e-9)].tolist()[0]})")
    if worst > NORM_TOL:
        np.divide(flat, norms[:, None], out=flat, where=(dev > NORM_TOL)[:, None])


def _weight(w):
    """Survival weights clamped into [0, 1] as ``min(max(w, 0.0), 1.0)``
    does, elementwise; ValidationError for the first outside by more than NORM_TOL."""
    w = np.asarray(w, dtype=float)
    ok = (-NORM_TOL <= w) & (w <= 1.0 + NORM_TOL)
    if not ok.all():
        raise ValidationError(f"weight {w[~ok].tolist()[0]} outside [0, 1]")
    return np.where(w < 0.0, 0.0, np.where(w > 1.0, 1.0, w))


def _axis(dofs, name: str) -> int:
    for i, d in enumerate(dofs):
        if d.name == name:
            return i
    raise CompositionError(f"no dof named {name!r}")


# -- operations ----------------------------------------------------------------


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


def rebase(stack: StateStack, dof: str, matrix, labels) -> StateStack:
    """Express every state of the stack in a new basis for one dof: row j of
    the unitary ``matrix`` is new label ``labels[j]`` over the old labels."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("basis-change matrix must be square")
    if len(labels) != m.shape[0]:
        raise ValidationError("label count must match matrix dimension")
    if not is_unitary(m):
        raise ValidationError("basis-change matrix is not unitary")
    ax = _axis(stack.dofs, dof)
    if m.shape[0] != stack.dofs[ax].dim:
        raise ValidationError(
            f"basis change dimension {m.shape[0]} != dof dim {stack.dofs[ax].dim}"
        )
    dofs = list(stack.dofs)
    dofs[ax] = Dof(dof, labels)
    # the reshape copies contract's transposed view; return the rows it fixed
    flat = contract(stack.amps, m[None], (ax + 1,)).reshape(len(stack.amps), stack.dim)
    _normalize_rows(flat, stack.blocked)
    return StateStack(tuple(dofs), flat.reshape(stack.amps.shape), stack.weights, stack.blocked)


def phase_deviations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of the stacks ``a`` and ``b`` of one shape (axis 0 counts rows),
    min over unit phases c of max_k |a_k - c*b_k|, c fixed by b's first
    largest-magnitude component; max |a_k| if b is all zero, max |a_k - b_k|
    if |c| < 1e-15.  |c| is ``np.hypot``, as ``abs`` of one complex is."""
    if a.shape != b.shape:
        raise CompositionError(f"comparison requires stacks of one shape, got {a.shape} and {b.shape}")
    n, d = len(a), math.prod(a.shape[1:])
    a, b = a.reshape(n, d), b.reshape(n, d)
    rows, k = np.arange(n), np.abs(b).argmax(axis=1)
    c = np.divide(a[rows, k], b[rows, k], out=np.zeros(n, complex), where=b[rows, k] != 0)
    r = np.hypot(c.real, c.imag)
    # c = 1 where |c| < 1e-15, and where b is all zero, which c then leaves 0
    c = np.divide(c, r, out=np.ones(n, complex), where=~(r < 1e-15))
    return np.abs(a - c[:, None] * b).max(axis=1)
