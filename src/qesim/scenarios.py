"""The catalog: every experiment of the paper, each with machine-checkable
expected properties.

Each circuit is defined once, by ``golden/<name>.edl``, whose header comment
describes it; this module adds only the checks.

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
    Apply,
    Circuit,
    compare_marginals,
    evolve,
    evolve_rows,
    joint_distribution,
    joint_probs,
)
from .measure import OutcomeDistribution, conditional, marginal, rng_for
from .qstate import (
    BasisChange,
    Dof,
    StateStack,
    StateVector,
    ValidationError,
    _phase_deviation,
    global_phase_deviation,
    rebase,
)
from .screen import (
    DEFAULT_GEOMETRY,
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
    circuit: Circuit
    expectations: tuple[Check, ...]
    template: edl.Template  # the compiled golden file, to bind other PARAM values


# -- shared pieces --------------------------------------------------------------

PHI_GRID = tuple(2 * math.pi * k / 64 for k in range(64))


def _lr_to_pm(dof_name: str) -> BasisChange:
    """Basis change from circular (L/R) labels to +/- (diagonal) labels."""
    row_p = np.conj(np.array([(1 - 1j) / 2, (1 + 1j) / 2]))
    row_m = np.conj(np.array([(1 + 1j) / 2, (1 - 1j) / 2]))
    return BasisChange(dof_name, np.array([row_p, row_m]), ("+", "-"))


def _random_amps(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _expect_state(st) -> StateVector:
    if not isinstance(st, StateVector):
        raise ValidationError("evolution unexpectedly blocked")
    return st


def _pattern_gap(a: Pattern, b: Pattern) -> float:
    """The largest difference between two screen patterns' intensities."""
    return float(np.max(np.abs(a.intensities - b.intensities)))


def _bin_pattern(d: OutcomeDistribution) -> Pattern:
    """The screen pattern of a distribution over one screen's bins."""
    return pattern_from_bin_probs(dict(zip(d.labels[0], d.probs.tolist())), DEFAULT_GEOMETRY)


def _fed(circ: Circuit, top_label: str, vectors) -> StateStack:
    """One source row per vector: its amplitudes over ``circ``'s first dof,
    all in ``top_label`` of the second, each row over its own norm."""
    amps = np.zeros((len(vectors), *(d.dim for d in circ.dofs)), dtype=complex)
    amps[:, :, circ.dofs[1].index(top_label)] = vectors
    for row in amps:
        row /= np.linalg.norm(row)
    return StateStack(circ.dofs, amps, np.ones(len(amps)), np.zeros(len(amps), dtype=bool))


def _evolved(circ: Circuit, sources: StateStack, settings) -> StateStack:
    """``circ`` fed with each source row, as one stacked evolution."""
    stack = evolve_rows(circ, len(sources.amps), {}, settings, sources)
    if stack.blocked.any():
        raise ValidationError("evolution unexpectedly blocked")
    return stack


# -- two_slit -------------------------------------------------------------------


def _two_slit_checks(circ: Circuit, template: edl.Template, name: str) -> tuple[Check, ...]:
    def fringe_vis_dev():
        pat = pattern_from_state(_expect_state(evolve(circ)), "slit")
        return abs(1.0 - fringe_visibility(pat))

    def fringe_shape_dev():
        pat = pattern_from_state(_expect_state(evolve(circ)), "slit")
        expect = 1 + np.cos(pat.geometry.delta(pat.geometry.bin_centers()))
        return float(np.max(np.abs(pat.intensities - expect)))

    return (
        Check("two_slit.fringe_visibility_1", 1e-9, fringe_vis_dev),
        Check("two_slit.pattern_is_1_plus_cos", 1e-10, fringe_shape_dev),
    )


# -- wheeler --------------------------------------------------------------------


def _wheeler_checks(circ: Circuit, template: edl.Template, name: str) -> tuple[Check, ...]:
    def screen_in_vis_dev():
        pat = pattern_from_state(_expect_state(evolve(circ, {"screen": "in"})), "slit")
        return abs(1.0 - fringe_visibility(pat))

    def screen_out_5050_dev():
        d = joint_distribution(circ, {"screen": "out"})
        return max(abs(d.prob(("s1",)) - 0.5), abs(d.prob(("s2",)) - 0.5))

    def marginal_invariance():
        return compare_marginals(circ, ["slit"], "screen")

    return (
        Check("wheeler.screen_in_interference", 1e-9, screen_in_vis_dev),
        Check("wheeler.screen_out_50_50", 1e-12, screen_out_5050_dev),
        Check("wheeler.marginal_invariance", 1e-10, marginal_invariance),
    )


# -- Mach-Zehnder family --------------------------------------------------------


def _phi_grid_probs(template: edl.Template) -> dict[str, list[float]]:
    """Each label of the circuit's one detector axis -> its probability at
    each phi of ``PHI_GRID``, from one batched evolution."""
    blocks = list(joint_probs(template.circuit, len(PHI_GRID), template.rows("phi", PHI_GRID)))
    p = np.concatenate([rows for _, _, rows, _, _ in blocks])
    return dict(zip(blocks[0][1][0], p.T.tolist()))


def _mz_one_bs_checks(circ: Circuit, template: edl.Template, name: str) -> tuple[Check, ...]:
    def half_half_dev():
        worst = 0.0
        probs = _phi_grid_probs(template)
        for p_t, p_r in zip(probs["t"], probs["r"]):
            worst = max(worst, abs(p_t - 0.5), abs(p_r - 0.5))
        return worst

    return (Check("mz_one_bs.half_half_all_phi", 1e-12, half_half_dev),)


def _mz_two_bs_checks(circ: Circuit, template: edl.Template, name: str) -> tuple[Check, ...]:
    def cos2_dev():
        worst = 0.0
        for ph, p_r in zip(PHI_GRID, _phi_grid_probs(template)["r"]):
            worst = max(worst, abs(p_r - math.cos(ph / 2) ** 2))
        return worst

    def all_on_one_port_dev():
        return abs(joint_distribution(template.bind(phi=0.0)).prob(("r",)) - 1.0)

    def regroup_dev():
        t_amp, r_amp = 1 / math.sqrt(2), 1j / math.sqrt(2)
        stack = evolve_rows(template.circuit, len(PHI_GRID), template.rows("phi", PHI_GRID))
        if any(stack.blocked):
            raise ValidationError("evolution unexpectedly blocked")
        arm = stack.dofs[0]
        worst = 0.0
        for ph, amps in zip(PHI_GRID, stack.amps):
            e = np.exp(1j * ph)
            port_t = t_amp * e * t_amp + r_amp * r_amp  # histories T1T2 + R1R2
            port_r = t_amp * e * r_amp + r_amp * t_amp  # histories T1R2 + R1T2
            worst = max(
                worst,
                abs(complex(amps[arm.index("t")]) - port_t),
                abs(complex(amps[arm.index("r")]) - port_r),
            )
        return worst

    return (
        Check("mz_two_bs.p_d2_cos2_half_phi", 1e-10, cos2_dev),
        Check("mz_two_bs.phi0_single_port", 1e-12, all_on_one_port_dev),
        Check("mz_two_bs.regrouped_amplitudes", 1e-12, regroup_dev),
    )


def _mz_recombine_checks(circ: Circuit, template: edl.Template, name: str) -> tuple[Check, ...]:
    def phi0_prob1_dev():
        d = joint_distribution(template.bind(phi=0.0))
        return abs(d.prob(("t",)) - 1.0)

    return (Check("mz_recombine.phi0_detector_prob_1", 1e-12, phi0_prob1_dev),)


# -- analyzer loop --------------------------------------------------------------


def _analyzer_loop_checks(circ: Circuit, template: edl.Template, name: str) -> tuple[Check, ...]:
    src45 = circ.source

    def loop_identity_45_dev():
        return global_phase_deviation(
            _expect_state(evolve(circ, {"mask": "open"})), src45
        )

    def loop_identity_random_dev():
        rng = rng_for(20260824)
        sources = _fed(circ, "U", [_random_amps(rng, 2) for _ in range(100)])
        outs = _evolved(circ, sources, {"mask": "open"})
        return max(map(_phase_deviation, outs.amps, sources.amps))

    def blocked_lower_dev():
        # |45> with the lower (h-tagged) channel masked: pure |v> out, weight 1/2
        out = _expect_state(evolve(circ, {"mask": "block_L"}))
        pol, chan = circ.dofs
        want = StateVector.basis_state((pol, chan), ("v", "U"))
        return max(global_phase_deviation(out, want), abs(out.weight - 0.5))

    return (
        Check("analyzer_loop.identity_on_45", 1e-10, loop_identity_45_dev),
        Check("analyzer_loop.identity_on_random", 1e-10, loop_identity_random_dev),
        Check("analyzer_loop.blocked_lower_gives_v", 1e-10, blocked_lower_dev),
    )


# -- Stern-Gerlach loop ---------------------------------------------------------


def _sg_loop_checks(circ: Circuit, template: edl.Template, name: str) -> tuple[Check, ...]:
    def loop_fidelity_dev():
        rng = rng_for(20260825)
        sources = _fed(circ, "top", [_random_amps(rng, 3) for _ in range(100)])
        outs = _evolved(circ, sources, {"mask": "open"})
        return max(abs(1.0 - abs(np.vdot(s, out)) ** 2) for s, out in zip(sources.amps, outs.amps))

    def masked_dev():
        rng = rng_for(20260826)
        worst = 0.0
        keep = {"keep_top": "plus", "keep_mid": "zero", "keep_bot": "minus"}
        vs = [_random_amps(rng, 3) for _ in range(20)]
        sources = _fed(circ, "top", vs)
        for i, (setting, spin_label) in enumerate(keep.items()):
            want = StateVector.basis_state(circ.dofs, (spin_label, "top"))
            outs = _evolved(circ, sources, {"mask": setting})
            for v, out, weight in zip(vs, outs.amps, outs.weights):
                worst = max(
                    worst,
                    _phase_deviation(out, want.tensor_view()),
                    abs(weight - abs(v[i]) ** 2),
                )
        return worst

    return (
        Check("sg_loop.identity_on_random_spins", 1e-10, loop_fidelity_dev),
        Check("sg_loop.masked_gives_eigenstate", 1e-12, masked_dev),
    )


# -- one-photon eraser ----------------------------------------------------------


def _one_photon_eraser_checks(circ: Circuit, template: edl.Template, name: str) -> tuple[Check, ...]:
    def marked_flat_dev():
        st = _expect_state(evolve(circ, {"eraser": "absent"}))
        return fringe_visibility(pattern_from_state(st, "slit"))

    def erased_vis_dev():
        worst = 0.0
        for setting in ("plus45", "minus45"):
            st = _expect_state(evolve(circ, {"eraser": setting}))
            worst = max(worst, abs(1.0 - fringe_visibility(pattern_from_state(st, "slit"))))
        return worst

    def fringe_sum_dev():
        marked = _expect_state(evolve(circ, {"eraser": "absent"}))
        plus = _expect_state(evolve(circ, {"eraser": "plus45"}))
        minus = _expect_state(evolve(circ, {"eraser": "minus45"}))
        p_plus = plus.weight / marked.weight
        p_minus = minus.weight / marked.weight
        total = sum_patterns(
            pattern_from_state(plus, "slit"),
            pattern_from_state(minus, "slit"),
            (p_plus, p_minus),
        )
        return _pattern_gap(total, pattern_from_state(marked, "slit"))

    def marked_weight_dev():
        return abs(_expect_state(evolve(circ, {"eraser": "absent"})).weight - 0.5)

    return (
        Check("one_photon_eraser.marked_pattern_flat", 1e-9, marked_flat_dev),
        Check("one_photon_eraser.erased_visibility_1", 1e-9, erased_vis_dev),
        Check("one_photon_eraser.fringe_plus_antifringe_flat", 1e-10, fringe_sum_dev),
        Check("one_photon_eraser.marked_weight_half", 1e-12, marked_weight_dev),
    )


# -- Walborn two-photon eraser --------------------------------------------------


def _walborn_post_slit_lr(circ: Circuit) -> StateVector:
    """Evolved pre-choice state with the s polarization in circular labels."""
    pre = replace(circ, stages=circ.stages[:3])
    st = _expect_state(evolve(pre))
    return rebase(st, el.basis_change("circular", st.dof("spol")))


def _filtered(st: StateVector, op: el.ElementOp) -> StateVector:
    """``st`` after the one filter ``op``: ``evolve`` of a one-stage circuit."""
    return _expect_state(evolve(Circuit(st.dofs, st, (Apply(op),))))


def _walborn_checks(circ: Circuit, template: edl.Template, name: str) -> tuple[Check, ...]:
    slit = circ.dofs[0]
    spol_lr = Dof("spol", ("L", "R"))
    spol_pm = Dof("spol", ("+", "-"))
    ppol = circ.dofs[2]
    ppol_pm = Dof("ppol", ("+", "-"))

    def four_term_dev():
        got = _walborn_post_slit_lr(circ)
        want = StateVector.from_amplitudes(
            (slit, spol_lr, ppol),
            {
                ("s1", "L", "y"): 0.5,
                ("s1", "R", "x"): 0.5j,
                ("s2", "R", "y"): 0.5,
                ("s2", "L", "x"): -0.5j,
            },
        )
        return global_phase_deviation(got, want)

    def pm_rewrite_dev():
        got = _walborn_post_slit_lr(circ)
        got = rebase(got, _lr_to_pm("spol"))
        got = rebase(got, el.basis_change("pm45", ppol))
        want = StateVector.from_amplitudes(
            (slit, spol_pm, ppol_pm),
            {
                ("s1", "+", "+"): 0.5,
                ("s2", "+", "+"): -0.5j,
                ("s1", "-", "-"): 0.5j,
                ("s2", "-", "-"): -0.5,
            },
        )
        return global_phase_deviation(got, want)

    def conditioned_on_x_dev():
        st = _walborn_post_slit_lr(circ)
        st = _filtered(st, el.linear_polarizer(ppol, 0.0))
        want = StateVector.from_amplitudes(
            (slit, spol_lr, ppol),
            {("s1", "R", "x"): 1j, ("s2", "L", "x"): -1j},
        )
        return global_phase_deviation(st, want)

    def conditioned_vis_dev():
        d = joint_distribution(circ, {"p_pol": "absent"})
        worst = 0.0
        for outcome in ("+", "-"):
            pat = _bin_pattern(conditional(d, ("ppol", outcome)))
            worst = max(worst, abs(1.0 - fringe_visibility(pat)))
        return worst

    def unconditioned_flat_dev():
        st = _expect_state(evolve(circ, {"p_pol": "absent"}))
        return fringe_visibility(pattern_from_state(st, "slit"))

    def fringe_sum_dev():
        d = joint_distribution(circ, {"p_pol": "absent"})
        pats, weights = [], []
        for outcome in ("+", "-"):
            pats.append(_bin_pattern(conditional(d, ("ppol", outcome))))
            weights.append(marginal(d, ["ppol"]).prob((outcome,)))
        total = sum_patterns(pats[0], pats[1], tuple(weights))
        return _pattern_gap(total, _bin_pattern(marginal(d, ["D_s"])))

    def polarizer_before_ds_dev():
        # selecting +/- on the p photon or directly on the s photon picks out
        # the same fringe/antifringe at the screen
        st = _walborn_post_slit_lr(circ)
        st_pm = rebase(st, _lr_to_pm("spol"))
        st_pm = rebase(st_pm, el.basis_change("pm45", ppol))
        worst = 0.0
        for proj in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
            via_p = _filtered(st_pm, el.ElementOp(el.FILTER, ("ppol",), proj))
            via_s = _filtered(st_pm, el.ElementOp(el.FILTER, ("spol",), proj))
            gap = _pattern_gap(pattern_from_state(via_p, "slit"), pattern_from_state(via_s, "slit"))
            worst = max(worst, gap)
        return worst

    def marginal_invariance():
        return compare_marginals(circ, ["D_s"], "p_pol")

    return (
        Check(f"{name}.four_term_state", 1e-10, four_term_dev),
        Check(f"{name}.pm_basis_rewrite", 1e-10, pm_rewrite_dev),
        Check(f"{name}.conditioned_on_p_x", 1e-10, conditioned_on_x_dev),
        Check(f"{name}.conditioned_visibility_1", 1e-9, conditioned_vis_dev),
        Check(f"{name}.unconditioned_flat", 1e-9, unconditioned_flat_dev),
        Check(f"{name}.fringe_plus_antifringe_total", 1e-10, fringe_sum_dev),
        Check(f"{name}.polarizer_before_ds_same_selection", 1e-10, polarizer_before_ds_dev),
        Check(f"{name}.s_marginal_invariance", 1e-10, marginal_invariance),
    )


# -- catalog --------------------------------------------------------------------

_CATALOG: dict[str, Callable[[Circuit, edl.Template, str], tuple[Check, ...]]] = {
    "two_slit": _two_slit_checks,
    "wheeler": _wheeler_checks,
    "mz_one_bs": _mz_one_bs_checks,
    "mz_two_bs": _mz_two_bs_checks,
    "mz_recombine_single_detector": _mz_recombine_checks,
    "analyzer_loop": _analyzer_loop_checks,
    "sg_loop": _sg_loop_checks,
    "one_photon_eraser": _one_photon_eraser_checks,
    "walborn": _walborn_checks,
    "walborn_delayed": _walborn_checks,
}


def list_names() -> list[str]:
    return list(_CATALOG.keys())


@functools.cache
def document(name: str) -> edl.Document:
    """The parsed ``golden/<name>.edl``, read once per name."""
    if name not in _CATALOG:
        raise CatalogError(f"unknown scenario {name!r}; valid names: {', '.join(_CATALOG)}")
    return edl.load_document(os.path.join(_GOLDEN_DIR, f"{name}.edl"))


def build(name: str, **params) -> Scenario:
    """Compile the scenario's golden file once and bind ``params`` (radians);
    an undeclared one raises ValidationError.  The checks bind the same template."""
    template = edl.build_template(document(name))
    circ = template.bind(**params)
    return Scenario(name, circ, _CATALOG[name](circ, template, name), template)
