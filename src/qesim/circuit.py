"""Executable experiments: sources, elements, choice points, and detectors.

Evolution is pure and deterministic.  Detection is ideal projective
measurement in each detector's declared basis; a screen detector measures the
far-field position distribution of a two-label path dof.  Filters post-select:
the evolved state is renormalized and the pass probability accumulates in its
weight.  ``compare_marginals`` instead keeps the absorbed branches, so the
full-ensemble marginal of an untouched subsystem can be compared across
delayed-choice settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elements as el
from .measure import OutcomeDistribution, total_variation
from .qstate import Dof, StateVector, ValidationError, contract, rebase
from .screen import DEFAULT_GEOMETRY, SlitGeometry, _screen_matrix


class ContractError(ValueError):
    """A caller violated an operation's stated precondition."""


@dataclass(frozen=True)
class DetectorSpec:
    """What one detector registers.

    Either ``measured`` (dof name, basis name) pairs, or ``screen_of`` naming
    a two-label path dof whose far-field pattern the detector bins.
    ``time_offset`` (ns) shifts this detector's event timestamps unless the
    sampler is given an explicit delay for it, which replaces it.
    """

    name: str
    measured: tuple[tuple[str, str], ...] = ()
    screen_of: str | None = None
    geometry: SlitGeometry = DEFAULT_GEOMETRY
    time_offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "measured", tuple(tuple(m) for m in self.measured))
        if (self.screen_of is None) == (not self.measured):
            raise ValidationError(
                f"detector {self.name!r} must measure dofs or be a screen, not both/neither"
            )

    def measured_dofs(self) -> tuple[str, ...]:
        if self.screen_of is not None:
            return (self.screen_of,)
        return tuple(d for d, _ in self.measured)

    def axis_names(self) -> tuple[str, ...]:
        if self.screen_of is not None:
            return (self.name,)
        return tuple(d for d, _ in self.measured)


@dataclass(frozen=True)
class Apply:
    op: el.ElementOp


@dataclass(frozen=True)
class Detect:
    spec: DetectorSpec


@dataclass(frozen=True)
class Choice:
    """A named point where one of several alternative stage lists is wired in."""

    name: str
    alternatives: dict[str, tuple]

    def __post_init__(self):
        if not self.alternatives:
            raise ValidationError(f"choice {self.name!r} needs >= 1 alternative")
        object.__setattr__(
            self,
            "alternatives",
            {k: tuple(v) for k, v in self.alternatives.items()},
        )


Stage = Apply | Detect | Choice


@dataclass(frozen=True)
class AllBlocked:
    """Degenerate evolution result: every branch was absorbed by filters."""

    dofs: tuple[Dof, ...]
    weight: float = 0.0


def _detector_names(stages) -> set[str]:
    """Names of the detectors some setting activates; raises ValidationError
    if one setting can activate two detectors of the same name.  Choices are
    set independently, so any alternative of one may meet any of another."""
    seen: set[str] = set()
    for s in stages:
        if isinstance(s, Detect):
            names = {s.spec.name}
        elif isinstance(s, Choice):
            names = set().union(*map(_detector_names, s.alternatives.values()))
        else:
            continue
        if seen & names:
            raise ValidationError(
                f"detector name {min(seen & names)!r} is used twice under one setting"
            )
        seen |= names
    return seen


@dataclass(frozen=True)
class Circuit:
    dofs: tuple[Dof, ...]
    source: StateVector
    stages: tuple[Stage, ...]

    def __post_init__(self):
        object.__setattr__(self, "dofs", tuple(self.dofs))
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.source.dofs != self.dofs:
            raise ValidationError("source state space does not match circuit dofs")
        names = {d.name for d in self.dofs}
        for spec in self.detectors():
            for dn in spec.measured_dofs():
                if dn not in names:
                    raise ValidationError(
                        f"detector {spec.name!r} references unknown dof {dn!r}"
                    )
        _detector_names(self.stages)

    def choice_names(self) -> list[str]:
        return [s.name for s in _walk(self.stages) if isinstance(s, Choice)]

    def detectors(self, settings: dict[str, str] | None = None) -> list[DetectorSpec]:
        """Detectors in stage order; with settings, only the active branch."""
        return [s.spec for s in _walk(self.stages, settings) if isinstance(s, Detect)]

    def find_choice(self, name: str) -> Choice:
        for s in _walk(self.stages):
            if isinstance(s, Choice) and s.name == name:
                return s
        raise ValidationError(f"no choice named {name!r}")


def _walk(stages, settings: dict[str, str] | None = None):
    """Each stage in order, a Choice before the stages of its alternatives:
    all of them, or with ``settings`` only the chosen one."""
    for s in stages:
        yield s
        if isinstance(s, Choice):
            alts = s.alternatives
            for alt in alts.values() if settings is None else (alts[settings[s.name]],):
                yield from _walk(alt, settings)


def validate_settings(c: Circuit, settings: dict[str, str]) -> None:
    choices = [s for s in _walk(c.stages) if isinstance(s, Choice)]
    wanted = {s.name for s in choices}
    got = set(settings)
    if wanted - got:
        raise ValidationError(f"missing settings for choices {sorted(wanted - got)}")
    if got - wanted:
        raise ValidationError(f"unknown choice names {sorted(got - wanted)}")
    for s in choices:
        if settings[s.name] not in s.alternatives:
            raise ValidationError(
                f"choice {s.name!r} has no alternative {settings[s.name]!r}"
            )


def evolve(c: Circuit, settings: dict[str, str] | None = None) -> StateVector | AllBlocked:
    """Pre-measurement state after all active Apply stages (Detects are inert)."""
    settings = settings or {}
    validate_settings(c, settings)
    state = c.source
    for s in _walk(c.stages, settings):
        if isinstance(s, Apply):
            try:
                state = el.apply_op(state, s.op)
            except el.AllBlockedError:
                return AllBlocked(c.dofs)
    return state


def _branched_evolve(c: Circuit, settings: dict[str, str]) -> list[StateVector]:
    """Evolve keeping both outcomes of every filter (pass and absorbed).

    Returns a list of normalized branch states whose weights sum to the
    pre-filter mass; zero-weight branches are dropped.
    """
    validate_settings(c, settings)
    branches = [c.source]
    for s in _walk(c.stages, settings):
        if not isinstance(s, Apply):
            continue
        op = s.op
        nxt: list[StateVector] = []
        for st in branches:
            if op.kind == el.UNITARY:
                nxt.append(el.apply_op(st, op))
                continue
            raw = el._transform(st, op)
            blocked = st.amps - raw
            for arr in (raw, blocked):
                p = float(np.vdot(arr, arr).real)
                if p < el.ALL_BLOCKED_EPS:
                    continue
                nxt.append(StateVector(st.dofs, arr / np.sqrt(p), st.weight * p))
        branches = nxt
    return branches


def distribution_from_state(
    state: StateVector, detectors: list[DetectorSpec]
) -> OutcomeDistribution:
    """Joint Born distribution over the detectors' declared measurements."""
    seen: set[str] = set()
    for spec in detectors:
        for dn in spec.measured_dofs():
            if dn in seen:
                raise ValidationError(f"dof {dn!r} measured by two detectors")
            seen.add(dn)

    for spec in detectors:
        if spec.screen_of is None:
            for dn, basis in spec.measured:
                change = el.basis_change(basis, state.dof(dn))
                if change is not None:
                    state = rebase(state, change)

    t = state.tensor_view()
    dof_axis = {d.name: i for i, d in enumerate(state.dofs)}
    n_dofs = len(state.dofs)
    screens = [s for s in detectors if s.screen_of is not None]
    # contract each screen's path axis against its bin-phase matrix; the new
    # bin axis is appended at the end, so earlier axes keep their meaning
    for spec in screens:
        ax = dof_axis[spec.screen_of]
        if state.dof(spec.screen_of).dim != 2:
            raise ValidationError("screen path dof must have 2 labels")
        t = np.moveaxis(contract(t, _screen_matrix(spec.geometry), (ax,)), ax, -1)
        for name in list(dof_axis):
            if dof_axis[name] > ax:
                dof_axis[name] -= 1
        del dof_axis[spec.screen_of]

    n_plain = n_dofs - len(screens)
    screen_axis = {spec.name: n_plain + i for i, spec in enumerate(screens)}
    axis_info: list[tuple[str, tuple[str, ...], int]] = []  # name, labels, axis
    for spec in detectors:
        if spec.screen_of is not None:
            labels = tuple(
                spec.geometry.bin_label(i) for i in range(spec.geometry.bins)
            )
            axis_info.append((spec.name, labels, screen_axis[spec.name]))
        else:
            for dn, _basis in spec.measured:
                axis_info.append((dn, state.dof(dn).labels, dof_axis[dn]))

    probs = np.abs(t) ** 2
    keep = [ax for _, _, ax in axis_info]
    drop = tuple(i for i in range(probs.ndim) if i not in keep)
    p = probs.sum(axis=drop) if drop else probs
    if keep:
        p = np.transpose(p, np.argsort(np.argsort(keep)))
    total = float(p.sum())
    if total > 0:
        p = p * (state.weight / total)
    mass = state.weight if total > 0 else 0.0
    return OutcomeDistribution(
        tuple(name for name, _, _ in axis_info),
        tuple(labels for _, labels, _ in axis_info),
        p,
        mass,
    )


def joint_distribution(
    c: Circuit, settings: dict[str, str] | None = None
) -> OutcomeDistribution:
    """Born probabilities over the joint outcomes of all active detectors."""
    settings = settings or {}
    state = evolve(c, settings)
    specs = c.detectors(settings)
    if not specs:
        raise ContractError("circuit has no Detect stage under these settings")
    if isinstance(state, AllBlocked):
        axes: list[str] = []
        for spec in specs:
            axes.extend(spec.axis_names())
        return OutcomeDistribution(
            tuple(axes), ((),) * len(axes), np.zeros((0,) * len(axes)), 0.0
        )
    return distribution_from_state(state, specs)


def compare_marginals(
    c: Circuit,
    axis_subset,
    choice_name: str,
    base_settings: dict[str, str] | None = None,
) -> float:
    """Max pairwise total-variation distance of the subset's full-ensemble
    marginal across all alternatives of the named choice.

    Each axis is either a screen detector declared outside the choice or a dof
    name (measured in its computational basis).  Filters inside the evolution
    keep their absorbed branches here, so the marginal covers the whole
    ensemble, not just post-selected survivors.
    """
    axis_subset = [axis_subset] if isinstance(axis_subset, str) else list(axis_subset)
    choice = c.find_choice(choice_name)
    common_screens = {
        s.name: s for s in c.detectors(None) if s.screen_of is not None
    }
    choice_detnames = {s.spec.name for s in _walk((choice,)) if isinstance(s, Detect)}

    subset_dofs: set[str] = set()
    probes: list[DetectorSpec] = []
    for ax in axis_subset:
        if ax in common_screens and ax not in choice_detnames:
            probes.append(common_screens[ax])
            subset_dofs.add(common_screens[ax].screen_of)
        else:
            d = c.source.dof(ax)  # raises CompositionError for unknown names
            probes.append(DetectorSpec(name=f"_probe_{ax}", measured=((ax, "path"),)))
            subset_dofs.add(d.name)

    for alt_stages in choice.alternatives.values():
        touched = {
            d for s in _walk(alt_stages) if isinstance(s, Apply) for d in s.op.acts_on()
        }
        overlap = touched & subset_dofs
        if overlap:
            raise ContractError(
                f"choice {choice_name!r} acts on subset dofs {sorted(overlap)}"
            )

    base = dict(base_settings or {})
    mixtures: list[OutcomeDistribution] = []
    for alt in choice.alternatives:
        settings = {**base, choice_name: alt}
        dist, acc, mass = None, 0.0, 0.0
        for branch in _branched_evolve(c, settings):
            dist = distribution_from_state(branch, probes)
            acc = acc + dist.probs
            mass += dist.total_mass
        if dist is None:
            raise ContractError("all branches blocked; marginal undefined")
        mixtures.append(OutcomeDistribution(dist.axes, dist.labels, acc, mass))

    worst = 0.0
    for i in range(len(mixtures)):
        for j in range(i + 1, len(mixtures)):
            worst = max(worst, total_variation(mixtures[i], mixtures[j]))
    return worst
