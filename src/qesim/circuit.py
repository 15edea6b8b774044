"""Executable experiments: sources, elements, choice points, and detectors.

Evolution is pure and deterministic, and has one step: ``evolve_rows``
takes a stack of sources through one ``elements.apply_op`` per active Apply
stage, so many variants of one circuit (the steps of a PARAM sweep, or one
circuit fed many sources) evolve at once, each row with the bytes it would
have alone; ``evolve`` is its stack of one.  Filters post-select: each row
is renormalized and its pass probability accumulates in its weight.
Detection is ideal projective measurement in each detector's declared basis;
a screen detector measures the far-field position distribution of a
two-label path dof, and its bin axis goes after every dof axis.  ``_born``
is the one Born step, over a stack: ``distribution_from_state`` (a stack of
one), ``joint_probs`` and ``compare_marginals`` all call it.
``compare_marginals`` instead keeps the absorbed branches, as a stack whose
rows split in two at each filter and are post-selected by the rule
``apply_op`` uses, so the full-ensemble marginal of an untouched subsystem
can be compared across delayed-choice settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elements as el
from .measure import OutcomeDistribution, check_probs, total_variation, worst
from .qstate import (
    Dof,
    StateStack,
    StateVector,
    ValidationError,
    _axis,
    _one,
    contract,
    rebase,
)
from .screen import BIN_LABELS, SCREEN_MATRIX

#: the most amplitudes ``joint_probs`` evolves at once, unless one row alone
#: holds more
BLOCK_AMPS = 2**16


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


@dataclass(frozen=True, eq=False)
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
            if spec.screen_of is not None and spec.name in names - {spec.screen_of}:
                raise ValidationError(f"screen {spec.name!r} is named like another dof")
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


def evolve(c: Circuit, settings: dict[str, str] | None = None) -> StateStack:
    """Pre-measurement state after all active Apply stages (Detects are
    inert): ``evolve_rows``' stack of one row."""
    return evolve_rows(c, 1, {}, settings)


def evolve_rows(
    c: Circuit, n: int, stacks: dict, settings: dict[str, str] | None = None, sources: StateStack | None = None
) -> StateStack:
    """``n`` variants of ``c``: the stack of their sources after one
    ``apply_op`` per active Apply stage, all rows held at once.

    Row i is ``c`` with ``stacks[id(s)][i]`` as the matrix of each Apply ``s``
    whose id keys ``stacks`` (``edl.Template.rows`` builds them), and row i of
    ``sources`` (a stack over ``c.dofs``; ``c.source`` by default) as its source.
    """
    settings = settings or {}
    validate_settings(c, settings)
    if any(len(m) != n for m in stacks.values()):
        raise ContractError(f"evolve_rows needs {n} matrices in each stack")
    if stacks and not stacks.keys() <= {id(s) for s in _walk(c.stages) if isinstance(s, Apply)}:
        raise ContractError("evolve_rows got matrices for a stage that is not an Apply of this circuit")
    if sources is None:
        sources = StateStack(c.dofs, c.source.tensor_view()[None].repeat(n, axis=0),
                             np.full(n, c.source.weight), np.zeros(n, dtype=bool))
    elif sources.dofs != c.dofs or sources.amps.shape != (n, *c.source.dims):
        raise ContractError(f"evolve_rows needs one source per row ({n}), each over the circuit's dofs")
    stack = sources
    for s in _walk(c.stages, settings):
        if isinstance(s, Apply):
            stack = el.apply_op(stack, s.op, stacks.get(id(s)))
    return stack


def _branches(c: Circuit, settings: dict[str, str]) -> StateStack:
    """``evolve`` keeping both outcomes of every filter: the stack of the
    branches, whose weights sum to the source's.

    A unitary acts by ``apply_op``.  At a filter every row splits into its
    pass branch, then its absorbed branch, each post-selected as ``apply_op``
    does a row; a branch that ``elements._post_select`` blocks is dropped.
    """
    validate_settings(c, settings)
    t, weights = c.source.tensor_view()[None], np.array([c.source.weight])
    for s in _walk(c.stages, settings):
        if isinstance(s, Apply) and s.op.kind == el.UNITARY:
            t = el.apply_op(StateStack(c.dofs, t, weights, np.zeros(len(t), dtype=bool)), s.op).amps
        elif isinstance(s, Apply):
            passed = el._act(t, c.dofs, s.op)
            flat = np.stack([passed, t - passed], axis=1).reshape(2 * len(t), c.source.dim)
            weights, blocked = el._post_select(flat, np.repeat(weights, 2))
            flat, weights = flat[~blocked], weights[~blocked]
            t = flat.reshape((len(flat),) + c.source.dims)
    return StateStack(c.dofs, t, weights, np.zeros(len(t), dtype=bool))


def _born(stack: StateStack, detectors):
    """The one Born step: joint probabilities of each state of the stack in
    the detectors' bases, each weighted by its weight.  Returns the axes,
    their labels, the probabilities as one C-ordered stack (axis 0 counts the
    states), and each state's mass, which is 0 where it has no amplitude.
    ValidationError if two detectors measure one dof."""
    seen: set[str] = set()
    for spec in detectors:
        for dn in spec.measured_dofs():
            if dn in seen:
                raise ValidationError(f"dof {dn!r} measured by two detectors")
            seen.add(dn)
    for spec in detectors:
        for dn, basis in spec.measured:  # a screen measures none
            change = el.basis_change(basis, stack.dofs[_axis(stack.dofs, dn)])
            if change is not None:
                stack = rebase(stack, change)
    t = stack.amps
    held = [d.name for d in stack.dofs]  # what each axis of t after axis 0 holds: a dof or a screen
    labels_of = {d.name: d.labels for d in stack.dofs}
    # contract each screen's path axis against its bin-phase matrix and move
    # the new bin axis to the end: the axis order sets the Born sum's last bits
    for spec in detectors:
        if spec.screen_of is not None:
            if len(labels_of[spec.screen_of]) != 2:
                raise ValidationError("screen path dof must have 2 labels")
            ax = held.index(spec.screen_of)
            t = np.moveaxis(contract(t, SCREEN_MATRIX[None], (ax + 1,)), ax + 1, -1)
            del held[ax]
            held.append(spec.name)
            labels_of[spec.name] = BIN_LABELS

    axis_of = {name: i for i, name in enumerate(held)}
    axes = tuple(name for spec in detectors for name in spec.axis_names())
    labels = tuple(labels_of[name] for name in axes)
    keep = [axis_of[name] for name in axes]
    probs = np.abs(t) ** 2
    drop = tuple(i + 1 for i in range(probs.ndim - 1) if i not in keep)
    p = probs.sum(axis=drop) if drop else probs
    if keep:
        p = np.transpose(p, [0] + [i + 1 for i in np.argsort(np.argsort(keep))])
    totals = p.sum(axis=tuple(range(1, p.ndim)))
    # each state's weight over its total, unless that is 0 and so is every probability
    scale = stack.weights / np.where(totals > 0, totals, 1.0)
    masses = np.where(totals > 0, stack.weights, 0.0)
    p = p * scale.reshape((-1,) + (1,) * (p.ndim - 1))
    return axes, labels, np.ascontiguousarray(p), masses


def distribution_from_state(
    state: StateStack, detectors: list[DetectorSpec]
) -> OutcomeDistribution:
    """Joint Born distribution of a stack of one state over the detectors'
    declared measurements."""
    axes, labels, p, masses = _born(_one(state), detectors)
    return OutcomeDistribution(axes, labels, p[0], float(masses[0]))


def _active_detectors(c: Circuit, settings: dict[str, str]) -> list[DetectorSpec]:
    specs = c.detectors(settings)
    if not specs:
        raise ContractError("circuit has no Detect stage under these settings")
    return specs


def joint_distribution(
    c: Circuit, settings: dict[str, str] | None = None
) -> OutcomeDistribution:
    """Born probabilities over the joint outcomes of all active detectors."""
    settings = settings or {}
    state = evolve(c, settings)
    specs = _active_detectors(c, settings)
    if state.blocked[0]:
        # no outcomes, mass 0
        axes = tuple(axis for spec in specs for axis in spec.axis_names())
        return OutcomeDistribution(axes, ((),) * len(axes), np.zeros((0,) * len(axes)), 0.0)
    return distribution_from_state(state, specs)


def joint_probs(c: Circuit, n: int, stacks: dict, settings: dict[str, str] | None = None):
    """``joint_distribution`` of each of ``n`` variants of ``c`` (see
    ``evolve_rows``), with the same bytes, as arrays.

    Rows are evolved in blocks of at most ``BLOCK_AMPS`` amplitudes (or of
    one row), and the Born step runs on each block.  Each block yields its
    axes, their labels, its rows' probabilities as one C-ordered array (axis
    0 counts the rows), their masses and which rows are blocked; a blocked
    row's probabilities and mass are 0.  Every row is checked as
    OutcomeDistribution checks its probabilities, with the same bytes.
    """
    settings = settings or {}
    validate_settings(c, settings)
    per, specs = max(1, BLOCK_AMPS // c.source.dim), _active_detectors(c, settings)
    for start in range(0, n, per):
        m = min(per, n - start)
        stack = evolve_rows(c, m, {k: v[start:start + m] for k, v in stacks.items()}, settings)
        axes, labels, p, masses = _born(stack, specs)
        check_probs(axes, labels, p, masses)
        yield axes, labels, p, masses, stack.blocked


def compare_marginals(
    c: Circuit,
    axis_subset,
    choice_name: str,
    base_settings: dict[str, str] | None = None,
) -> float:
    """Max pairwise total-variation distance of the subset's full-ensemble
    marginal across all alternatives of the named choice.

    Each axis is either a screen detector declared outside the choice or a dof
    name (measured in its computational basis); a detector declared inside the
    choice, or one that measures dofs, raises ContractError.  Filters inside
    the evolution keep their absorbed branches here, so the marginal covers
    the whole ensemble, not just post-selected survivors.
    """
    axis_subset = [axis_subset] if isinstance(axis_subset, str) else list(axis_subset)
    choice = c.find_choice(choice_name)
    specs = c.detectors(None)
    common_screens = {s.name: s for s in specs if s.screen_of is not None}
    choice_detnames = {s.spec.name for s in _walk((choice,)) if isinstance(s, Detect)}

    subset_dofs: set[str] = set()
    probes: list[DetectorSpec] = []
    dof_names = {d.name for d in c.dofs}
    for ax in axis_subset:
        if ax in common_screens and ax not in choice_detnames:
            probes.append(common_screens[ax])
            subset_dofs.add(common_screens[ax].screen_of)
        elif ax in choice_detnames and ax not in dof_names:
            raise ContractError(
                f"detector {ax!r} belongs to the compared choice {choice_name!r},"
                " so not every alternative has it"
            )
        elif any(s.name == ax for s in specs) and ax not in dof_names:
            raise ContractError(
                f"detector {ax!r} measures dofs; only screens and dofs can be compared"
            )
        else:
            _axis(c.dofs, ax)  # raises CompositionError for unknown names
            probes.append(DetectorSpec(name=f"_probe_{ax}", measured=((ax, "path"),)))
            subset_dofs.add(ax)

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
        branches = _branches(c, {**base, choice_name: alt})
        if not len(branches.amps):
            raise ContractError("all branches blocked; marginal undefined")
        axes, labels, p, masses = _born(branches, probes)
        check_probs(axes, labels, p, masses)
        # each branch's probabilities added to the sum of those before it
        acc = np.cumsum(p, axis=0)[-1]
        mixtures.append(OutcomeDistribution(axes, labels, acc, sum(masses.tolist())))

    return worst(total_variation(mixtures[i], mixtures[j])
                 for i in range(len(mixtures)) for j in range(i + 1, len(mixtures)))
