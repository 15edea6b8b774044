"""Far-field two-slit screen: intensity patterns, visibility, pattern algebra.

Small-angle model: each slit contributes an equal-envelope plane wave with
relative phase delta(x) = 2 pi d x / (lambda L); the single-slit diffraction
envelope is ignored.  Intensities are normalized so a fully incoherent (flat)
pattern sits at 1.  A pattern is read from a stack of one state, as
``circuit.evolve`` returns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measure import _csv_rows
from .qstate import StateStack, ValidationError, _axis, _one


@dataclass(frozen=True)
class SlitGeometry:
    """Two-slit far-field geometry (far-field assumption L >> d is assumed,
    not enforced)."""

    slit_separation: float = 50e-6
    wavelength: float = 650e-9
    screen_distance: float = 1.0
    x_range: tuple[float, float] = (-0.02, 0.02)
    bins: int = 256

    def __post_init__(self):
        lengths = (self.slit_separation, self.wavelength, self.screen_distance)
        # NaN fails every comparison, so each test asks for what is valid
        if not all(0 < v < math.inf for v in lengths):
            raise ValidationError("geometry lengths must be positive and finite")
        if self.bins < 2:
            raise ValidationError("need at least 2 bins")
        lo, hi = self.x_range
        if not -math.inf < lo < hi < math.inf:
            raise ValidationError("x range must be finite and not empty")

    def bin_centers(self) -> np.ndarray:
        lo, hi = self.x_range
        w = (hi - lo) / self.bins
        return lo + w * (np.arange(self.bins) + 0.5)

    def delta(self, x: np.ndarray) -> np.ndarray:
        return 2 * math.pi * self.slit_separation * x / (
            self.wavelength * self.screen_distance
        )

    def bin_label(self, i: int) -> str:
        return f"bin{i:03d}"

    @cached_property
    def bin_labels(self) -> tuple[str, ...]:
        """``bin_label`` of every bin, in order, made once per geometry."""
        return tuple(map(self.bin_label, range(self.bins)))


DEFAULT_GEOMETRY = SlitGeometry()


@dataclass(frozen=True, eq=False)
class Pattern:
    """Binned screen intensities: a read-only float64 array with one finite,
    non-negative value per bin center of ``geometry``."""

    geometry: SlitGeometry
    intensities: np.ndarray

    def __post_init__(self):
        v = np.array(self.intensities, dtype=np.float64)
        if v.shape != (self.geometry.bins,):
            raise ValidationError(f"expected {self.geometry.bins} intensities, got shape {v.shape}")
        # NaN fails both comparisons
        if not ((v >= -1e-12) & (v < math.inf)).all():
            raise ValidationError("intensities must be finite and non-negative")
        v.setflags(write=False)
        object.__setattr__(self, "intensities", v)

    def to_csv(self) -> str:
        cells = np.column_stack([self.geometry.bin_centers(), self.intensities])
        return "x,intensity\n" + _csv_rows(cells)


def _screen_matrix(geometry: SlitGeometry) -> np.ndarray:
    """Bin amplitudes per slit: row ``b`` maps slit amplitudes (a1, a2) to
    a1 exp(i delta_b / 2) + a2 exp(-i delta_b / 2) at bin center ``b``."""
    delta = geometry.delta(geometry.bin_centers())
    return np.stack([np.exp(1j * delta / 2), np.exp(-1j * delta / 2)], axis=1)


def intensity_profile(
    s: StateStack, path_dof: str, geometry: SlitGeometry
) -> np.ndarray:
    """Unnormalized I(x) over bin centers of a stack of one state, other dofs
    Born-marginalized."""
    ax = _axis(s.dofs, path_dof)
    if s.dofs[ax].dim != 2:
        raise ValidationError("screen path dof must have exactly 2 labels")
    a1, a2 = np.moveaxis(_one(s).amps[0], ax, 0).reshape(2, -1, 1)
    e1, e2 = _screen_matrix(geometry).T
    # one row per residual basis state, summed in that order; elementwise,
    # since qstate.contract (a matmul) rounds differently and changes verify
    return (np.abs(a1 * e1 + a2 * e2) ** 2).sum(axis=0)


def pattern_from_state(
    s: StateStack, path_dof: str, geometry: SlitGeometry = DEFAULT_GEOMETRY
) -> Pattern:
    """Interference pattern of a stack of one state on the screen, flat
    baseline at 1."""
    # baseline: the incoherent (cross-term-free) intensity, which is the
    # squared norm of the state = 1 per bin
    return Pattern(geometry, intensity_profile(s, path_dof, geometry))


def pattern_from_bin_probs(
    probs: dict[str, float], geometry: SlitGeometry
) -> Pattern:
    """Pattern from a bin-label probability (or count) map, mean-normalized to 1."""
    vals = np.array([probs.get(label, 0.0) for label in geometry.bin_labels])
    mean = vals.mean()
    if mean < 1e-300:
        raise ValidationError("all-zero histogram")
    return Pattern(geometry, vals / mean)


def fringe_visibility(p: Pattern) -> float:
    """Visibility sqrt(B^2 + C^2) / A of the least-squares fit
    I(x) = A + B cos(delta) + C sin(delta) over the pattern's own geometry.

    Every pattern this model produces lies exactly in that span, so the fit is
    exact and the result does not depend on whether the bin grid happens to
    hit the fringe extrema (unlike a max/min estimate).
    """
    delta = p.geometry.delta(p.geometry.bin_centers())
    design = np.stack([np.ones_like(delta), np.cos(delta), np.sin(delta)], axis=1)
    (a, b, c), *_ = np.linalg.lstsq(design, p.intensities, rcond=None)
    if a <= 0:
        raise ValidationError("fitted baseline is not positive")
    return float(math.hypot(b, c) / a)


def sum_patterns(a: Pattern, b: Pattern, weights: tuple[float, float] = (1.0, 1.0)) -> Pattern:
    """Pointwise weighted sum of two patterns on the same geometry."""
    if a.geometry != b.geometry:
        raise ValidationError("patterns live on different geometries")
    wa, wb = weights
    return Pattern(a.geometry, wa * a.intensities + wb * b.intensities)
