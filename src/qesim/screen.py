"""Far-field two-slit screen: intensity patterns, visibility, pattern algebra.

Small-angle model: each slit contributes an equal-envelope plane wave with
relative phase delta(x) = 2 pi d x / (lambda L); the single-slit diffraction
envelope is ignored.  Intensities are normalized so a fully incoherent (flat)
pattern sits at 1.  A pattern is read from a stack of one state, as
``circuit.evolve`` returns it.  Every experiment has the one geometry of the
constants below: it sets the fringe spacing, not what marks or erases a path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import _csv_rows
from .qstate import StateStack, ValidationError, _axis, _one

#: the one two-slit geometry (m): slit separation, wavelength and slit-screen
#: distance; the far-field assumption L >> d is assumed, not enforced
SLIT_SEPARATION, WAVELENGTH, SCREEN_DISTANCE = 50e-6, 650e-9, 1.0
#: the screen's x range (m), cut into ``BINS`` equal bins
X_RANGE, BINS = (-0.02, 0.02), 256

_WIDTH = (X_RANGE[1] - X_RANGE[0]) / BINS
#: x of each bin center, and the relative slit phase delta(x) there
BIN_CENTERS = X_RANGE[0] + _WIDTH * (np.arange(BINS) + 0.5)
DELTA = 2 * math.pi * SLIT_SEPARATION * BIN_CENTERS / (WAVELENGTH * SCREEN_DISTANCE)
BIN_LABELS = tuple(f"bin{i:03d}" for i in range(BINS))
#: bin amplitudes per slit: row ``b`` maps slit amplitudes (a1, a2) to
#: a1 exp(i delta_b / 2) + a2 exp(-i delta_b / 2) at bin center ``b``
SCREEN_MATRIX = np.stack([np.exp(1j * DELTA / 2), np.exp(-1j * DELTA / 2)], axis=1)
#: the columns 1, cos(delta), sin(delta) that ``fringe_visibility`` fits
_FIT_DESIGN = np.stack([np.ones_like(DELTA), np.cos(DELTA), np.sin(DELTA)], axis=1)
for _a in (BIN_CENTERS, DELTA, SCREEN_MATRIX, _FIT_DESIGN):
    _a.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Pattern:
    """Binned screen intensities: a read-only float64 array with one finite,
    non-negative value per bin center."""

    intensities: np.ndarray

    def __post_init__(self):
        v = np.array(self.intensities, dtype=np.float64)
        if v.shape != (BINS,):
            raise ValidationError(f"expected {BINS} intensities, got shape {v.shape}")
        # NaN fails both comparisons
        if not ((v >= -1e-12) & (v < math.inf)).all():
            raise ValidationError("intensities must be finite and non-negative")
        v.setflags(write=False)
        object.__setattr__(self, "intensities", v)

    def to_csv(self) -> str:
        cells = np.column_stack([BIN_CENTERS, self.intensities])
        return "x,intensity\n" + _csv_rows(cells)


def pattern_from_state(s: StateStack, path_dof: str) -> Pattern:
    """Interference pattern of a stack of one state, other dofs Born-marginalized."""
    ax = _axis(s.dofs, path_dof)
    if s.dofs[ax].dim != 2:
        raise ValidationError("screen path dof must have exactly 2 labels")
    a1, a2 = np.moveaxis(_one(s).amps[0], ax, 0).reshape(2, -1, 1)
    e1, e2 = SCREEN_MATRIX.T
    # one row per residual basis state, summed in that order; elementwise,
    # since qstate.contract (a matmul) rounds differently and changes verify
    return Pattern((np.abs(a1 * e1 + a2 * e2) ** 2).sum(axis=0))


def pattern_from_bin_probs(probs: dict[str, float]) -> Pattern:
    """Pattern from a bin-label probability (or count) map, mean-normalized to 1."""
    vals = np.array([probs.get(label, 0.0) for label in BIN_LABELS])
    mean = vals.mean()
    if mean < 1e-300:
        raise ValidationError("all-zero histogram")
    return Pattern(vals / mean)


def fringe_visibility(p: Pattern) -> float:
    """Visibility sqrt(B^2 + C^2) / A of the least-squares fit
    I(x) = A + B cos(delta) + C sin(delta) over the bin centers.

    Every pattern this model produces lies exactly in that span, so the fit is
    exact and the result does not depend on whether the bin grid happens to
    hit the fringe extrema (unlike a max/min estimate).
    """
    (a, b, c), *_ = np.linalg.lstsq(_FIT_DESIGN, p.intensities, rcond=None)
    if a <= 0:
        raise ValidationError("fitted baseline is not positive")
    return float(math.hypot(b, c) / a)


def sum_patterns(a: Pattern, b: Pattern, weights: tuple[float, float] = (1.0, 1.0)) -> Pattern:
    """Pointwise weighted sum of two patterns."""
    wa, wb = weights
    return Pattern(wa * a.intensities + wb * b.intensities)
