"""Born-rule outcome distributions: marginals, conditionals, distances, and
the package's seeded random generator.

The generator is numpy's PCG64 with explicit seed threading; its identity is
part of the external contract so event logs are portable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .qstate import ValidationError

#: probabilities below this are treated as exactly zero when conditioning
NULL_EPS = 1e-15


class ConditioningError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probabilities over joint outcomes, held as a dense array.

    ``probs`` has one array axis per entry of ``axes`` (a dof name, or a
    detector name for binned screen outcomes); index ``j`` along axis ``i`` is
    the outcome labelled ``labels[i][j]``.  ``total_mass`` is the summed
    probability, which is below 1 when filters removed part of the ensemble.
    When every branch was absorbed there are no outcomes: each label tuple is
    empty and ``total_mass`` is 0.
    """

    axes: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    probs: np.ndarray
    total_mass: float

    def __post_init__(self):
        axes, labels = tuple(self.axes), tuple(map(tuple, self.labels))
        p = np.array(self.probs, dtype=np.float64, order="C")
        check_probs(axes, labels, p[None], [self.total_mass])
        p.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", p)

    @cached_property
    def outcomes(self) -> dict[tuple[str, ...], float]:
        """Label tuple -> probability for every entry of ``probs``, in C order."""
        return dict(zip(product(*self.labels), self.probs.ravel().tolist()))

    def prob(self, labels) -> float:
        labels = (labels,) if isinstance(labels, str) else tuple(labels)
        return self.outcomes.get(labels, 0.0)

    def axis(self, name: str) -> int:
        try:
            return self.axes.index(name)
        except ValueError:
            raise ValidationError(f"no axis named {name!r}") from None

    def renormalized(self) -> "OutcomeDistribution":
        if self.total_mass < NULL_EPS:
            raise ConditioningError("cannot renormalize an empty distribution")
        f = 1.0 / self.total_mass
        return OutcomeDistribution(self.axes, self.labels, self.probs * f, 1.0)

    def to_json_dict(self) -> dict:
        return {
            "axes": list(self.axes),
            "outcomes": [
                {"labels": list(k), "p": p} for k, p in self.outcomes.items()
            ],
            "totalMass": self.total_mass,
        }

    def to_csv(self) -> str:
        """A header of the axes and ``p``, then one row of labels and
        probability per outcome, in C order; no rows when there are no outcomes."""
        head = ",".join(self.axes) + ",p\n"
        if not self.probs.size:
            return head
        # labels are literals of the format, so one % formats only the probs:
        # the first half of the axes gives each row's prefix, the rest its suffix
        cells = [[label.replace("%", "%%") + "," for label in ls] for ls in self.labels]
        k = len(cells) // 2
        pre, suf = (list(map("".join, product(*c))) for c in (cells[:k], cells[k:]))
        form = "".join(p + ("%.12g\n" + p).join(suf) + "%.12g\n" for p in pre)
        return head + form % tuple(self.probs.ravel().tolist())


def check_probs(axes, labels, p: np.ndarray, masses) -> None:
    """Check each array of the C-ordered stack ``p`` (axis 0 counts them) as
    OutcomeDistribution checks its probabilities, declared to sum to
    ``masses[i]``: raise ValidationError for the first that fails, after
    setting each negative no lower than -1e-12 to 0 in place."""
    shape = tuple(map(len, labels))
    if len(labels) != len(axes) or p.shape[1:] != shape:
        raise ValidationError(
            f"probabilities of shape {p.shape[1:]} do not match axes {axes} with {shape} labels"
        )
    flat = p.reshape(len(p), math.prod(shape))
    lows = flat.min(axis=1, initial=0.0).tolist()
    if min(lows, default=0.0) < 0.0:
        tiny = [i for i, low in enumerate(lows) if -1e-12 <= low < 0.0]
        flat[tiny] = np.maximum(flat[tiny], 0.0)
    for i, (low, s, mass) in enumerate(zip(lows, flat.sum(axis=1).tolist(), masses)):
        if low < -1e-12:
            idx = np.unravel_index(flat[i].argmin(), shape)
            key = tuple(names[j] for names, j in zip(labels, idx))
            raise ValidationError(f"negative probability {low} for {key}")
        if not abs(s - mass) <= 1e-9:
            raise ValidationError(f"probabilities sum to {s}, declared total_mass {mass}")
        if mass > 1 + 1e-9:
            raise ValidationError(f"total_mass {mass} > 1")


def marginal(d: OutcomeDistribution, axis_subset) -> OutcomeDistribution:
    """Sum out every axis not in ``axis_subset`` (order follows the subset)."""
    axis_subset = [axis_subset] if isinstance(axis_subset, str) else list(axis_subset)
    keep = [d.axis(a) for a in axis_subset]
    drop = [i for i in range(len(d.axes)) if i not in keep]
    shape = [d.probs.shape[i] for i in keep]
    n = math.prod(d.probs.shape[i] for i in drop)
    p = d.probs.transpose(drop + keep).reshape([n] + shape)
    # a running sum adds the summed-out outcomes one by one in C order, so
    # the last bits do not depend on numpy's choice of summation
    p = np.cumsum(p, axis=0)[-1] if n else np.zeros(shape)
    return OutcomeDistribution(
        tuple(axis_subset), tuple(d.labels[i] for i in keep), p, d.total_mass
    )


def conditional(d: OutcomeDistribution, given: tuple[str, str]) -> OutcomeDistribution:
    """Condition on one axis carrying one label; renormalize to mass 1.
    Outcomes below ``NULL_EPS`` become exactly 0."""
    axis_name, label = given
    i = d.axis(axis_name)
    labels = d.labels[i]
    sub = np.take(d.probs, labels.index(label), axis=i) if label in labels else np.zeros(0)
    # left to right in C order, as a loop over the outcomes adds them
    mass = float(np.cumsum(sub)[-1]) if sub.size else 0.0
    if mass < NULL_EPS:
        raise ConditioningError(f"P({axis_name}={label}) = 0")
    return OutcomeDistribution(
        d.axes[:i] + d.axes[i + 1 :],
        d.labels[:i] + d.labels[i + 1 :],
        np.where(sub < NULL_EPS, 0.0, sub / mass),
        1.0,
    )


def total_variation(a: OutcomeDistribution, b: OutcomeDistribution) -> float:
    """(1/2) sum |p_a - p_b| after renormalizing both to mass 1."""
    if a.axes != b.axes or a.labels != b.labels:
        raise ValidationError(f"axis or label mismatch: {a.axes} vs {b.axes}")
    a, b = a.renormalized(), b.renormalized()
    return 0.5 * float(np.abs(a.probs - b.probs).sum())


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """The package-wide generator: PCG64 seeded via SeedSequence(seed, stream)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))
