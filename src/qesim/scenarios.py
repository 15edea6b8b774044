"""The catalog: every experiment of the paper, each with machine-checkable
expected properties.

Each circuit is defined once, by ``golden/<name>.edl``, whose header comment
describes it; this module adds only the checks, as one table: ``_CATALOG``
holds (check name, tol, measurement) rows per scenario, and a check passes iff
its measurement of the scenario's ``_Shared`` store (which computes what several
checks read once per scenario) is <= tol.  Most rows restate a claim of the
paper through a few shared measurements: ``_vis_gap`` (marking the path
flattens a screen's fringes, erasure restores them), ``_prob_gap`` and
``_phi_grid_gap`` (a Mach-Zehnder port follows cos^2(phi/2)), ``_weight_gap``,
and ``compare_marginals`` (a marginal does not depend on a later choice).  The
amplitude-algebra and random-input loop checks are plain functions.

Detector naming for the interferometers: D1 is the port in line with the
transmitted arm, D2 the port in line with the reflected arm; with the
i-reflection beam-splitter convention the two-splitter arrangement routes all
probability to D2 at zero phase, so P(D2) = cos^2(phi/2).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import edl
from . import elements as el
from .circuit import (
    Circuit,
    compare_marginals,
    evolve,
    evolve_rows,
    joint_distribution,
    joint_probs,
)
from .measure import OutcomeDistribution, conditional, marginal, rng_for, worst
from .qstate import (
    BasisChange,
    StateStack,
    StateVector,
    ValidationError,
    global_phase_deviation,
    phase_deviations,
    rebase,
    row_norms,
)
from .screen import (
    DELTA,
    Pattern,
    pattern_from_bin_probs,
    fringe_visibility,
    pattern_from_state,
    sum_patterns,
)

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class CatalogError(LookupError):
    """Unknown scenario name; the message lists the valid names."""


@dataclass(frozen=True)
class Check:
    """One executable expectation: passes iff measured() <= tol."""

    name: str
    tol: float
    measured: Callable[[], float]

    def run(self) -> tuple[float, bool]:
        v = float(self.measured())
        return v, v <= self.tol


@dataclass(frozen=True)
class Scenario:
    name: str
    circuit: Circuit  # the golden file at its PARAM defaults
    expectations: tuple[Check, ...]
    template: edl.Template  # the compiled golden file, whose ``rows`` sweep a PARAM


# -- shared measurements --------------------------------------------------------

PHI_GRID = tuple(2 * math.pi * k / 64 for k in range(64))


class _Shared:
    """One scenario's store of the results its checks share: ``store(fn,
    *args)`` is ``fn(store, *args)``, computed on first use, with its arrays (a
    StateStack's, a dict's values; a Pattern's already are) made read-only so
    that no check can change another's input.  Each Scenario's checks hold one."""

    def __init__(self, template: edl.Template):
        self.template, self.circuit, self._results = template, template.circuit, {}

    def __call__(self, fn, *args):
        key = (fn, repr(args))
        if key not in self._results:
            result = self._results[key] = fn(self, *args)
            arrays = (result.amps, result.weights, result.blocked) if isinstance(result, StateStack) \
                else result.values() if isinstance(result, dict) else ()
            for a in arrays:
                a.flags.writeable = False
        return self._results[key]


def _unblocked(stack: StateStack) -> StateStack:
    """``stack``; ValidationError if a row of it is blocked."""
    if stack.blocked.any():
        raise ValidationError("evolution unexpectedly blocked")
    return stack


def _state(s: _Shared, settings: dict[str, str]) -> StateStack:
    """``evolve``'s stack of one under ``settings``; a blocked evolution raises."""
    return _unblocked(evolve(s.circuit, settings))


def _phi_rows(s: _Shared) -> dict[int, np.ndarray]:
    """The matrices of the circuit's stages at each step of ``PHI_GRID``."""
    return s.template.rows("phi", PHI_GRID)


def _vis_gap(s: _Shared, target: float, *settings: dict[str, str]) -> float:
    """|target - fitted visibility| of the ``slit`` screen after ``evolve``,
    the worst over ``settings``."""
    return worst(
        abs(target - fringe_visibility(pattern_from_state(s(_state, x), "slit")))
        for x in settings
    )


def _prob_gap(s: _Shared, want: dict[str, float], settings=None) -> float:
    """The largest |P(label) - want[label]| of the golden circuit's one-axis
    distribution under ``settings``."""
    d = joint_distribution(s.circuit, settings)
    return worst(abs(d.prob(label) - p) for label, p in want.items())


def _phi_grid_gap(s: _Shared, want: Callable[[float], dict[str, float]]) -> float:
    """``_prob_gap`` at each step of ``PHI_GRID``, the worst, from one batched
    evolution; ``want(phi)`` gives that step's targets."""
    blocks = list(joint_probs(s.circuit, len(PHI_GRID), s(_phi_rows)))
    labels = blocks[0][1][0]
    rows = np.concatenate([p for _, _, p, _, _ in blocks]).tolist()
    return worst(
        abs(row[labels.index(label)] - p)
        for phi, row in zip(PHI_GRID, rows)
        for label, p in want(phi).items()
    )


def _weight_gap(s: _Shared, want: float, settings: dict[str, str]) -> float:
    """|weight - want| of the state after ``evolve`` under ``settings``."""
    return abs(s(_state, settings).weights[0] - want)


def _state_gap(st: StateStack, amps: dict) -> float:
    """The worst global-phase deviation of a row of ``st`` from the state with
    amplitudes ``amps`` (normalized) over ``st``'s own dofs."""
    want = StateVector.from_amplitudes(st.dofs, amps).tensor_view()
    return float(phase_deviations(st.amps, np.broadcast_to(want, st.amps.shape)).max())


def _pattern_gap(a: Pattern, b: Pattern) -> float:
    """The largest difference between two screen patterns' intensities."""
    return float(np.max(np.abs(a.intensities - b.intensities)))


def _sum_gap(whole: Pattern, parts: list[Pattern], weights: list[float]) -> float:
    """How far the weighted sum of a fringe and its antifringe is from
    ``whole``, the pattern of the ensemble they split."""
    return _pattern_gap(sum_patterns(*parts, tuple(weights)), whole)


def _bin_pattern(d: OutcomeDistribution) -> Pattern:
    """The screen pattern of a distribution over one screen's bins."""
    return pattern_from_bin_probs(dict(zip(d.labels[0], d.probs.tolist())))


def _filtered(st: StateStack, op: el.ElementOp) -> StateStack:
    """``st`` after the one filter ``op``; a blocked row raises."""
    return _unblocked(el.apply_op(st, op))


# -- plain checks ---------------------------------------------------------------


def _one_plus_cos_dev(s: _Shared) -> float:
    pat = pattern_from_state(s(_state, {}), "slit")
    expect = 1 + np.cos(DELTA)
    return float(np.max(np.abs(pat.intensities - expect)))


def _regrouped_dev(s: _Shared) -> float:
    t_amp, r_amp = 1 / math.sqrt(2), 1j / math.sqrt(2)
    stack = _unblocked(evolve_rows(s.circuit, len(PHI_GRID), s(_phi_rows)))
    arm = stack.dofs[0]
    e = np.exp(1j * np.array(PHI_GRID))
    port_t = t_amp * e * t_amp + r_amp * r_amp  # histories T1T2 + R1R2
    port_r = t_amp * e * r_amp + r_amp * t_amp  # histories T1R2 + R1T2
    gap = np.concatenate([stack.amps[:, arm.index("t")] - port_t, stack.amps[:, arm.index("r")] - port_r])
    return float(np.hypot(gap.real, gap.imag).max())  # hypot rounds as abs() of one complex


def _abs_squared(z: np.ndarray) -> np.ndarray:
    """``abs(z) ** 2`` of each complex, to the bit of that on one numpy scalar,
    which calls C's ``hypot`` and ``pow``; ``np.abs`` and ``**`` round otherwise."""
    return np.float_power(np.hypot(z.real, z.imag), 2)


def _loop_runs(circ: Circuit, top_label: str, seed: int, n: int, *masks: str):
    """``n`` random unit vectors over ``circ``'s first dof, drawn from
    ``seed``, as rows; the stack of sources that holds each in ``top_label`` of
    the second dof, each row again over its own norm (``row_norms``, with the
    bytes of ``np.linalg.norm`` per row); and that stack evolved under each
    ``mask`` setting.  A blocked row raises."""
    # one draw of the stream that a real then an imaginary draw per vector reads
    parts = rng_for(seed).normal(size=(n, 2, circ.dofs[0].dim))
    vs = parts[:, 0] + 1j * parts[:, 1]
    vs /= row_norms(vs)[:, None]
    amps = np.zeros((n, *(d.dim for d in circ.dofs)), dtype=complex)
    amps[:, :, circ.dofs[1].index(top_label)] = vs
    amps /= row_norms(amps)[:, None, None]
    sources = StateStack(circ.dofs, amps, np.ones(n), np.zeros(n, dtype=bool))
    outs = [_unblocked(evolve_rows(circ, n, {}, {"mask": mask}, sources)) for mask in masks]
    return vs, sources, outs


def _analyzer_random_dev(s: _Shared) -> float:
    _, sources, (outs,) = _loop_runs(s.circuit, "U", 20260824, 100, "open")
    return float(phase_deviations(outs.amps, sources.amps).max())


def _blocked_lower_dev(s: _Shared) -> float:
    # |45> with the lower (h-tagged) channel masked: pure |v> out, weight 1/2
    out = s(_state, {"mask": "block_L"})
    return worst([_state_gap(out, {("v", "U"): 1.0}), abs(out.weights[0] - 0.5)])


def _sg_fidelity_dev(s: _Shared) -> float:
    _, sources, (outs,) = _loop_runs(s.circuit, "top", 20260825, 100, "open")
    overlaps = np.vecdot(sources.amps.reshape(100, -1), outs.amps.reshape(100, -1))
    return float(np.abs(1.0 - _abs_squared(overlaps)).max())


def _sg_masked_dev(s: _Shared) -> float:
    keep = {"keep_top": "plus", "keep_mid": "zero", "keep_bot": "minus"}
    vs, _, outs = _loop_runs(s.circuit, "top", 20260826, 20, *keep)
    gaps = []
    for i, (stack, spin_label) in enumerate(zip(outs, keep.values())):
        gaps.append(_state_gap(stack, {(spin_label, "top"): 1.0}))
        gaps.append(np.abs(stack.weights - _abs_squared(vs[:, i])).max())
    return float(np.max(gaps))


def _eraser_parts(s: _Shared) -> tuple[Pattern, list[Pattern], list[float]]:
    """The one-photon eraser's marked screen pattern, and its fringe and
    antifringe with each one's share of the marked weight."""
    marked, plus, minus = (s(_state, {"eraser": x}) for x in ("absent", "plus45", "minus45"))
    return (
        pattern_from_state(marked, "slit"),
        [pattern_from_state(plus, "slit"), pattern_from_state(minus, "slit")],
        [plus.weights[0] / marked.weights[0], minus.weights[0] / marked.weights[0]],
    )


def _post_slit(s: _Shared, pm: bool) -> StateStack:
    """Walborn's state before the p-polarizer choice, with the s polarization
    in circular (L/R) labels, or with ``pm`` both polarizations in +/-
    (diagonal) labels."""
    circ = s.circuit
    _, spol, ppol = circ.dofs
    if not pm:
        st = _unblocked(evolve(replace(circ, stages=circ.stages[:3])))
        return rebase(st, el.basis_change("circular", spol))
    lr_to_pm = np.conj(np.array([[(1 - 1j) / 2, (1 + 1j) / 2], [(1 + 1j) / 2, (1 - 1j) / 2]]))
    st = rebase(s(_post_slit, False), BasisChange("spol", lr_to_pm, ("+", "-")))
    return rebase(st, el.basis_change("pm45", ppol))


def _p_conditioned(s: _Shared) -> tuple[Pattern, tuple[Pattern, ...], tuple[float, ...]]:
    """Walborn with no p polarizer, from one joint distribution: the D_s
    pattern, and for each ppol outcome (+, -) the D_s pattern given it and
    its probability."""
    d = joint_distribution(s.circuit, {"p_pol": "absent"})
    p_marginal = marginal(d, ["ppol"])
    return (
        _bin_pattern(marginal(d, ["D_s"])),
        tuple(_bin_pattern(conditional(d, ("ppol", o))) for o in ("+", "-")),
        tuple(p_marginal.prob(o) for o in ("+", "-")),
    )


def _polarizer_before_ds_dev(s: _Shared) -> float:
    # selecting +/- on the p photon or directly on the s photon picks out
    # the same fringe/antifringe at the screen
    st = s(_post_slit, True)
    gaps = []
    for proj in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        via_p = _filtered(st, el.ElementOp(el.FILTER, ("ppol",), proj))
        via_s = _filtered(st, el.ElementOp(el.FILTER, ("spol",), proj))
        gaps.append(_pattern_gap(pattern_from_state(via_p, "slit"), pattern_from_state(via_s, "slit")))
    return worst(gaps)


# -- catalog --------------------------------------------------------------------

_WALBORN = (
    ("four_term_state", 1e-10, lambda s: _state_gap(s(_post_slit, False), {
        ("s1", "L", "y"): 0.5,
        ("s1", "R", "x"): 0.5j,
        ("s2", "R", "y"): 0.5,
        ("s2", "L", "x"): -0.5j,
    })),
    ("pm_basis_rewrite", 1e-10, lambda s: _state_gap(s(_post_slit, True), {
        ("s1", "+", "+"): 0.5,
        ("s2", "+", "+"): -0.5j,
        ("s1", "-", "-"): 0.5j,
        ("s2", "-", "-"): -0.5,
    })),
    ("conditioned_on_p_x", 1e-10, lambda s: _state_gap(
        _filtered(s(_post_slit, False), el.linear_polarizer(s.circuit.dofs[2], 0.0)),
        {("s1", "R", "x"): 1j, ("s2", "L", "x"): -1j},
    )),
    ("conditioned_visibility_1", 1e-9, lambda s: worst(
        abs(1.0 - fringe_visibility(pat)) for pat in s(_p_conditioned)[1]
    )),
    ("unconditioned_flat", 1e-9, lambda s: _vis_gap(s, 0.0, {"p_pol": "absent"})),
    ("fringe_plus_antifringe_total", 1e-10, lambda s: _sum_gap(*s(_p_conditioned))),
    ("polarizer_before_ds_same_selection", 1e-10, _polarizer_before_ds_dev),
    ("s_marginal_invariance", 1e-10, lambda s: compare_marginals(s.circuit, ["D_s"], "p_pol")),
)

#: Scenario name -> its checks, as (name after the prefix, tol, measurement).
_CATALOG: dict[str, tuple[tuple[str, float, Callable[[_Shared], float]], ...]] = {
    "two_slit": (
        ("fringe_visibility_1", 1e-9, lambda s: _vis_gap(s, 1.0, {})),
        ("pattern_is_1_plus_cos", 1e-10, _one_plus_cos_dev),
    ),
    "wheeler": (
        ("screen_in_interference", 1e-9, lambda s: _vis_gap(s, 1.0, {"screen": "in"})),
        ("screen_out_50_50", 1e-12, lambda s: _prob_gap(s, {"s1": 0.5, "s2": 0.5}, {"screen": "out"})),
        ("marginal_invariance", 1e-10, lambda s: compare_marginals(s.circuit, ["slit"], "screen")),
    ),
    "mz_one_bs": (
        ("half_half_all_phi", 1e-12, lambda s: _phi_grid_gap(s, lambda phi: {"t": 0.5, "r": 0.5})),
    ),
    "mz_two_bs": (
        ("p_d2_cos2_half_phi", 1e-10, lambda s: _phi_grid_gap(s, lambda phi: {"r": math.cos(phi / 2) ** 2})),
        ("phi0_single_port", 1e-12, lambda s: _prob_gap(s, {"r": 1.0})),
        ("regrouped_amplitudes", 1e-12, _regrouped_dev),
    ),
    "mz_recombine_single_detector": (
        ("phi0_detector_prob_1", 1e-12, lambda s: _prob_gap(s, {"t": 1.0})),
    ),
    "analyzer_loop": (
        ("identity_on_45", 1e-10, lambda s: global_phase_deviation(
            s(_state, {"mask": "open"}).amps[0], s.circuit.source.tensor_view()
        )),
        ("identity_on_random", 1e-10, _analyzer_random_dev),
        ("blocked_lower_gives_v", 1e-10, _blocked_lower_dev),
    ),
    "sg_loop": (
        ("identity_on_random_spins", 1e-10, _sg_fidelity_dev),
        ("masked_gives_eigenstate", 1e-12, _sg_masked_dev),
    ),
    "one_photon_eraser": (
        ("marked_pattern_flat", 1e-9, lambda s: _vis_gap(s, 0.0, {"eraser": "absent"})),
        ("erased_visibility_1", 1e-9, lambda s: _vis_gap(s, 1.0, {"eraser": "plus45"}, {"eraser": "minus45"})),
        ("fringe_plus_antifringe_flat", 1e-10, lambda s: _sum_gap(*_eraser_parts(s))),
        ("marked_weight_half", 1e-12, lambda s: _weight_gap(s, 0.5, {"eraser": "absent"})),
    ),
    "walborn": _WALBORN,
    "walborn_delayed": _WALBORN,
}

#: The check-name prefix of a scenario whose checks do not use its own name.
_PREFIX = {"mz_recombine_single_detector": "mz_recombine"}


def list_names() -> list[str]:
    return list(_CATALOG.keys())


@functools.cache
def document(name: str) -> edl.Document:
    """The parsed ``golden/<name>.edl``, read once per name."""
    if name not in _CATALOG:
        raise CatalogError(f"unknown scenario {name!r}; valid names: {', '.join(_CATALOG)}")
    return edl.load_document(os.path.join(_GOLDEN_DIR, f"{name}.edl"))


def build(name: str) -> Scenario:
    """Compile the scenario's golden file once, at its PARAM defaults; other
    values compile with ``edl.build_template(document(name), {"phi": ...})``."""
    template = edl.build_template(document(name))
    prefix = _PREFIX.get(name, name)
    shared = _Shared(template)
    checks = tuple(
        Check(f"{prefix}.{check}", tol, functools.partial(measure, shared))
        for check, tol, measure in _CATALOG[name]
    )
    return Scenario(name, template.circuit, checks, template)
