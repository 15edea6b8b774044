"""The physical element library: unitaries and filters apparatuses are built from.

Conventions (all fixed, checked by tests):

* beam splitter: transmission 1/sqrt2, reflection i/sqrt2 (symmetric);
* circular basis: |L> = (|x> + i|y>)/sqrt2, |R> = (|x> - i|y>)/sqrt2;
* quarter-wave plate: R(theta) . diag(1, -i) . R(-theta), i.e. unit phase on
  the fast axis and -i on the slow axis, with no extra global phase.

With these choices the two-photon eraser pipeline produces the familiar
entangled four-term state whose plus/minus-basis form makes the erasure
correlations explicit; the scenario tests pin the exact amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .qstate import (
    NORM_TOL,
    Dof,
    StateStack,
    ValidationError,
    _axis,
    _normalize_rows,
    _weight,
    contract,
    is_unitary,
)

UNITARY = "unitary"
FILTER = "filter"

#: survival probability below which a filtered state counts as fully blocked
ALL_BLOCKED_EPS = 1e-15


_BS_TRANSMISSION = 1 / math.sqrt(2)
_BS_REFLECTION = 1j / math.sqrt(2)
_CIRCULAR_L = (1 / math.sqrt(2), 1j / math.sqrt(2))
_CIRCULAR_R = (1 / math.sqrt(2), -1j / math.sqrt(2))


@dataclass(frozen=True, eq=False)
class ElementOp:
    """One element's action on a state.

    ``matrix`` acts on the product space of ``target_dofs`` (C order).  A
    ``condition`` restricts the action to the branch where the named dof
    carries the given label; elsewhere the element is the identity.
    """

    kind: str
    target_dofs: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)
    condition: Optional[tuple[str, str]] = None
    name: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "target_dofs", tuple(self.target_dofs))
        if self.kind not in (UNITARY, FILTER):
            raise ValidationError(f"unknown element kind {self.kind!r}")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("element matrix must be square")
        if len(set(self.target_dofs)) != len(self.target_dofs):
            raise ValidationError(f"element targets a dof twice: {list(self.target_dofs)}")
        if self.condition is not None and self.condition[0] in self.target_dofs:
            raise ValidationError("condition dof cannot also be a target dof")
        if rejected(self.kind, m[None])[0]:
            raise ValidationError(
                "unitary element matrix fails M^dag M = I" if self.kind == UNITARY
                else "filter matrix must be an orthogonal projector"
            )

    def acts_on(self) -> tuple[str, ...]:
        """Dofs whose joint state this element can change or correlate."""
        if self.condition is None:
            return self.target_dofs
        return self.target_dofs + (self.condition[0],)


def rejected(kind: str, m: np.ndarray) -> np.ndarray:
    """For each matrix of the stack ``m`` of ``kind``, whether ElementOp
    rejects it: a unitary unless every entry of M^dag M - I is below NORM_TOL,
    a filter if some entry of M M - M or M^dag - M exceeds it."""
    if kind == UNITARY:
        return ~is_unitary(m)
    return (np.abs(m @ m - m).max(axis=(-2, -1)) > NORM_TOL) | (
        np.abs(m.conj().swapaxes(-1, -2) - m).max(axis=(-2, -1)) > NORM_TOL
    )


def _act(t: np.ndarray, dofs, op: ElementOp, matrices: np.ndarray | None = None) -> np.ndarray:
    """The element's matrix action on a stack ``t`` of amplitude tensors over
    ``dofs`` (axis 0 counts the states): ``op.matrix`` acts on each state or,
    given ``matrices`` of op's shape stacked, ``matrices[i]`` on state ``i``."""
    axes = [_axis(dofs, n) + 1 for n in op.target_dofs]
    targets = tuple(t.shape[a] for a in axes)
    k = math.prod(targets)
    if op.matrix.shape[0] != k:
        raise ValidationError(
            f"element expects dimension {op.matrix.shape[0]}, targets give {k}"
        )
    if matrices is None:
        matrices = op.matrix[None]  # matmul broadcasts it over the stack
    m = matrices.reshape((len(matrices),) + targets + targets)
    if op.condition is None:
        return contract(t, m, axes)
    # transform only the condition label's slice, kept one wide so that no
    # axis is renumbered
    cond_dof, cond_label = op.condition
    cax = _axis(dofs, cond_dof)
    ci = dofs[cax].index(cond_label)
    block = (slice(None),) * (cax + 1) + (slice(ci, ci + 1),)
    out = t.copy()
    out[block] = contract(t[block], m, axes)
    return out


def apply_op(stack: StateStack, op: ElementOp, matrices: np.ndarray | None = None) -> StateStack:
    """Apply an element to each state of a stack, with the bytes each would
    get alone: ``op.matrix`` to every row or, given ``matrices`` of op's
    shape stacked, ``matrices[i]`` to row i.  Unitaries rotate amplitudes;
    filters project and post-select, and a row they block stays blocked.
    """
    n = len(stack.amps)
    flat = _act(stack.amps, stack.dofs, op, matrices).reshape(n, stack.dim)
    weights, blocked = stack.weights, stack.blocked
    if op.kind == FILTER:
        # a row blocked before is all 0 and so is blocked again
        weights, blocked = _post_select(flat, weights)
    else:
        _normalize_rows(flat, blocked)
    return StateStack(stack.dofs, flat.reshape(stack.amps.shape), weights, blocked)


def _post_select(flat: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Post-select each row of ``flat`` after a filter, in place, and return
    the rows' new weights and which rows are blocked: a row whose pass
    probability is below ALL_BLOCKED_EPS gets amplitudes and weight 0; every
    other is normalized, and its weight times that probability clamped.  The
    probabilities are one ``np.vecdot``, which calls ``np.vdot``'s BLAS dot per row."""
    pass_prob = np.vecdot(flat, flat).real
    blocked = pass_prob < ALL_BLOCKED_EPS
    flat[blocked] = 0.0
    flat[~blocked] /= np.sqrt(pass_prob[~blocked])[:, None]
    weights = _weight(np.where(blocked, 0.0, weights * pass_prob))
    _normalize_rows(flat, blocked)
    return weights, blocked


# -- constructors ---------------------------------------------------------------


def _embed_two(dof: Dof, ia: int, ib: int, block: np.ndarray) -> np.ndarray:
    m = np.eye(dof.dim, dtype=complex)
    m[ia, ia], m[ia, ib] = block[0, 0], block[0, 1]
    m[ib, ia], m[ib, ib] = block[1, 0], block[1, 1]
    return m


def beam_splitter(path_dof: Dof, port_a: str, port_b: str) -> ElementOp:
    """50/50 beam splitter coupling two port labels of a path dof."""
    ia, ib = path_dof.index(port_a), path_dof.index(port_b)
    t, r = _BS_TRANSMISSION, _BS_REFLECTION
    m = _embed_two(path_dof, ia, ib, np.array([[t, r], [r, t]]))
    return ElementOp(UNITARY, (path_dof.name,), m, name="bs")


def phase_shifter(path_dof: Dof, label: str, phi: float) -> ElementOp:
    """Multiply one path label's amplitude by e^{i phi}."""
    return ElementOp(UNITARY, (path_dof.name,), phase_shifter_stack(path_dof, label, [phi])[0], name="phase")


def phase_shifter_stack(path_dof: Dof, label: str, phis) -> np.ndarray:
    """The matrices of ``phase_shifter`` at each of ``phis``, stacked and
    unchecked (``rejected`` checks them); ValidationError if an angle is not
    finite."""
    a = np.asarray(phis, dtype=float)
    if not (ok := np.isfinite(a)).all():
        raise ValidationError(f"angle {a[~ok].tolist()[0]} is not finite")
    m = np.repeat(np.eye(path_dof.dim, dtype=complex)[None], len(a), axis=0)
    m[:, path_dof.index(label), path_dof.index(label)] = np.exp(1j * a)
    return m


def _tag_matrix(internal: Dof, path: Dof) -> np.ndarray:
    """Controlled shift: internal label k moves path label j to j+k (mod n).

    From the reference path label (index 0) this correlates internal label k
    with path label k; the adjoint removes the tags.
    """
    n = internal.dim
    if path.dim != n:
        raise ValidationError("internal and path dofs must have equal dimension")
    m = np.zeros((n * n, n * n), dtype=complex)
    for k in range(n):
        for j in range(n):
            m[k * n + (j + k) % n, k * n + j] = 1.0
    return m


def analyzer(pol_dof: Dof, path_dof: Dof) -> ElementOp:
    """Tag polarization eigenstates with path channels (first pol label to the
    first/reference channel, second to the other)."""
    if pol_dof.dim != 2 or path_dof.dim != 2:
        raise ValidationError("analyzer needs 2-dim polarization and path dofs")
    m = _tag_matrix(pol_dof, path_dof)
    return ElementOp(UNITARY, (pol_dof.name, path_dof.name), m, name="analyzer")


def inverse_analyzer(pol_dof: Dof, path_dof: Dof) -> ElementOp:
    op = analyzer(pol_dof, path_dof)
    return ElementOp(UNITARY, op.target_dofs, op.matrix.conj().T, name="analyzer_inv")


def stern_gerlach(spin_dof: Dof, path_dof: Dof) -> ElementOp:
    """Tag the three spin labels with three path labels."""
    if spin_dof.dim != 3 or path_dof.dim != 3:
        raise ValidationError("stern_gerlach needs 3-dim spin and path dofs")
    m = _tag_matrix(spin_dof, path_dof)
    return ElementOp(UNITARY, (spin_dof.name, path_dof.name), m, name="sg")


def inverse_stern_gerlach(spin_dof: Dof, path_dof: Dof) -> ElementOp:
    op = stern_gerlach(spin_dof, path_dof)
    return ElementOp(UNITARY, op.target_dofs, op.matrix.conj().T, name="sg_inv")


def _cos_sin(thetas) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of each angle by ``math``, whose rounding no numpy build's
    vector kernels can change; ValidationError if an angle is not finite."""
    a = np.asarray(thetas, dtype=float).tolist()
    if bad := [x for x in a if not math.isfinite(x)]:
        raise ValidationError(f"angle {bad[0]} is not finite")
    return np.array([math.cos(x) for x in a]), np.array([math.sin(x) for x in a])


def _rot_stack(thetas) -> np.ndarray:
    c, s = _cos_sin(thetas)
    return np.ascontiguousarray(np.array([[c, -s], [s, c]], dtype=complex).transpose(2, 0, 1))


def quarter_wave_plate(
    pol_dof: Dof, fast_axis: float, condition: Optional[tuple[str, str]] = None
) -> ElementOp:
    """Quarter-wave plate with its fast axis at ``fast_axis`` radians."""
    m = quarter_wave_plate_stack(pol_dof, [fast_axis])[0]
    return ElementOp(UNITARY, (pol_dof.name,), m, condition=condition, name="qwp")


def quarter_wave_plate_stack(pol_dof: Dof, fast_axes) -> np.ndarray:
    """The matrices of ``quarter_wave_plate`` at each of ``fast_axes``, stacked
    and unchecked."""
    if pol_dof.dim != 2:
        raise ValidationError("quarter_wave_plate needs a 2-dim polarization dof")
    a = np.asarray(fast_axes, dtype=float)
    return _rot_stack(a) @ np.diag([1.0, -1.0j]) @ _rot_stack(-a)


def linear_polarizer(
    pol_dof: Dof, angle: float, condition: Optional[tuple[str, str]] = None
) -> ElementOp:
    """Projector onto cos(angle)|first> + sin(angle)|second>."""
    m = linear_polarizer_stack(pol_dof, [angle])[0]
    return ElementOp(FILTER, (pol_dof.name,), m, condition=condition, name="pol")


def linear_polarizer_stack(pol_dof: Dof, angles) -> np.ndarray:
    """The matrices of ``linear_polarizer`` at each of ``angles``, stacked and
    unchecked."""
    if pol_dof.dim != 2:
        raise ValidationError("linear_polarizer needs a 2-dim polarization dof")
    v = np.stack(_cos_sin(angles), axis=-1).astype(complex)
    return v[:, :, None] * v.conj()[:, None, :]


def blocker(path_dof: Dof, label: str) -> ElementOp:
    """Absorb the named path label: project onto its complement."""
    m = np.eye(path_dof.dim, dtype=complex)
    i = path_dof.index(label)
    m[i, i] = 0.0
    return ElementOp(FILTER, (path_dof.name,), m, name="block")


def recombiner(path_dof: Dof, into_label: str) -> ElementOp:
    """Map the symmetric combination of a 2-label path dof onto ``into_label``."""
    if path_dof.dim != 2:
        raise ValidationError("recombiner needs a 2-dim path dof")
    i = path_dof.index(into_label)
    s = 1 / math.sqrt(2)
    m = np.empty((2, 2), dtype=complex)
    m[i, :] = (s, s)
    m[1 - i, :] = (s, -s)
    return ElementOp(UNITARY, (path_dof.name,), m, name="recombine")


def splitter(path_dof: Dof) -> ElementOp:
    """Two-slit screen: reference label -> equal superposition of both labels."""
    if path_dof.dim != 2:
        raise ValidationError("splitter needs a 2-dim path dof")
    s = 1 / math.sqrt(2)
    m = np.array([[s, s], [s, -s]], dtype=complex)
    return ElementOp(UNITARY, (path_dof.name,), m, name="split")


# -- named measurement bases ----------------------------------------------------

#: every detector basis name ``basis_change`` resolves, aliases included
BASIS_NAMES = ("path", "comp", "computational", "pm45", "diag", "circular")


def basis_change(name: str, dof: Dof) -> Optional[tuple[np.ndarray, tuple[str, ...]]]:
    """Resolve a named detector basis of ``dof`` to the matrix and labels
    ``qstate.rebase`` takes (None = computational)."""
    if name not in BASIS_NAMES:
        raise ValidationError(f"unknown basis name {name!r}")
    if name in ("path", "comp", "computational"):
        return None
    if dof.dim != 2:
        raise ValidationError(f"basis {name!r} needs a 2-dim dof")
    if name == "circular":
        l_row = np.conj(_CIRCULAR_L)
        r_row = np.conj(_CIRCULAR_R)
        return np.array([l_row, r_row]), ("L", "R")
    s = 1 / math.sqrt(2)
    return np.array([[s, s], [s, -s]]), ("+", "-")
