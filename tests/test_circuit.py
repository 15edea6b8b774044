import math

import numpy as np
import pytest

from qesim import circuit, elements as el, qstate
from qesim import scenarios
from qesim.circuit import (
    Apply,
    Choice,
    Circuit,
    ContractError,
    Detect,
    DetectorSpec,
    compare_marginals,
    distribution_from_state,
    evolve,
    evolve_rows,
    joint_distribution,
    validate_settings,
)
from qesim.measure import marginal
from qesim.qstate import NORM_TOL, Dof, StateVector, ValidationError, _unit

ARM = Dof("arm", ("t", "r"))
POL = Dof("pol", ("v", "h"))


def basis_state(dofs, labels):
    return StateVector.from_amplitudes(dofs, {labels: 1.0})


def mz(phi=0.0):
    return Circuit(
        (ARM,),
        basis_state((ARM,), ("t",)),
        (
            Apply(el.beam_splitter(ARM, "t", "r")),
            Apply(el.phase_shifter(ARM, "t", phi)),
            Apply(el.beam_splitter(ARM, "t", "r")),
            Detect(DetectorSpec("arms", measured=(("arm", "path"),))),
        ),
    )


def masked_loop():
    return Circuit(
        (POL, ARM),
        StateVector.from_amplitudes((POL, ARM), {("v", "t"): 1, ("h", "t"): 1}),
        (
            Apply(el.analyzer(POL, ARM)),
            Choice(
                "mask",
                {
                    "open": (),
                    "closed": (Apply(el.blocker(ARM, "r")),),
                    "both": (
                        Apply(el.blocker(ARM, "r")),
                        Apply(el.blocker(ARM, "t")),
                    ),
                },
            ),
            Detect(DetectorSpec("D", measured=(("pol", "path"), ("arm", "path")))),
        ),
    )


class TestValidation:
    def test_source_space_must_match(self):
        with pytest.raises(ValidationError):
            Circuit((ARM,), basis_state((POL,), ("v",)), ())

    def test_detector_must_reference_known_dof(self):
        with pytest.raises(ValidationError):
            Circuit(
                (ARM,),
                basis_state((ARM,), ("t",)),
                (Detect(DetectorSpec("D", measured=(("ghost", "path"),))),),
            )

    def test_detector_spec_exclusive_modes(self):
        with pytest.raises(ValidationError):
            DetectorSpec("D")
        with pytest.raises(ValidationError):
            DetectorSpec("D", measured=(("a", "path"),), screen_of="a")

    def test_missing_setting_rejected(self):
        with pytest.raises(ValidationError):
            evolve(masked_loop(), {})

    def test_extra_setting_rejected(self):
        with pytest.raises(ValidationError):
            evolve(mz(), {"mask": "open"})

    def test_unknown_alternative_rejected(self):
        with pytest.raises(ValidationError):
            validate_settings(masked_loop(), {"mask": "ajar"})


class TestEvolve:
    def test_mz_amplitudes(self):
        phi = 1.1
        st = evolve(mz(phi))
        e = np.exp(1j * phi)
        assert st.amps.shape == (1, 2)
        assert abs(st.amps[0, ARM.index("t")] - (e - 1) / 2) < 1e-12
        assert abs(st.amps[0, ARM.index("r")] - 1j * (e + 1) / 2) < 1e-12

    def test_filter_updates_weight(self):
        st = evolve(masked_loop(), {"mask": "closed"})
        assert abs(st.weights[0] - 0.5) < 1e-12

    def test_all_blocked_result(self):
        st = evolve(masked_loop(), {"mask": "both"})
        assert st.blocked.tolist() == [True]
        assert st.weights[0] == 0.0 and not st.amps.any()


class TestJointDistribution:
    def test_probabilities_match_amplitudes(self):
        d = joint_distribution(mz(1.1))
        assert abs(d.prob(("r",)) - math.cos(0.55) ** 2) < 1e-12
        assert abs(sum(d.outcomes.values()) - 1.0) < 1e-12

    def test_post_selected_mass(self):
        d = joint_distribution(masked_loop(), {"mask": "closed"})
        assert abs(d.total_mass - 0.5) < 1e-12
        assert abs(d.prob(("v", "t")) - 0.5) < 1e-12

    def test_all_blocked_gives_empty_distribution(self):
        d = joint_distribution(masked_loop(), {"mask": "both"})
        assert d.total_mass == 0.0 and not d.outcomes

    def test_distribution_from_state_takes_a_stack_of_one(self):
        detectors = mz().detectors()
        d = distribution_from_state(evolve(mz(1.1)), detectors)
        assert abs(d.prob(("r",)) - math.cos(0.55) ** 2) < 1e-12
        for n in (0, 2):
            with pytest.raises(ValidationError, match=f"expected a stack of one state, got {n}"):
                distribution_from_state(evolve_rows(mz(1.1), n, {}), detectors)

    def test_requires_a_detector(self):
        c = Circuit((ARM,), basis_state((ARM,), ("t",)), ())
        with pytest.raises(ContractError):
            joint_distribution(c)

    def test_screen_and_dof_detectors_combine(self):
        slit = Dof("slit", ("s1", "s2"))
        c = Circuit(
            (slit, POL),
            StateVector.from_amplitudes((slit, POL), {("s1", "v"): 1, ("s1", "h"): 1}),
            (
                Apply(el.splitter(slit)),
                Detect(DetectorSpec("wall", screen_of="slit")),
                Detect(DetectorSpec("P", measured=(("pol", "pm45"),))),
            ),
        )
        d = joint_distribution(c)
        assert d.axes == ("wall", "pol")
        assert abs(sum(d.outcomes.values()) - 1.0) < 1e-12
        # the polarization is |+>, so the - outcomes carry no mass
        assert marginal(d, ["pol"]).prob(("-",)) < 1e-12


class TestCompareMarginals:
    def test_invariant_for_downstream_choice(self):
        # blockers act on the arm dof only; the full-ensemble pol marginal
        # (absorbed branches included) cannot depend on the mask setting
        assert compare_marginals(masked_loop(), ["pol"], "mask") < 1e-12

    def test_probe_overlapping_choice_is_rejected(self):
        c = masked_loop()
        with pytest.raises(ContractError):
            compare_marginals(c, ["arm"], "mask")

    def test_measuring_detector_is_rejected(self):
        # D_p is declared outside the choice, but it measures polarisation
        # dofs: it is no screen, and no dof is named after it
        walborn = scenarios.build("walborn").circuit
        with pytest.raises(ContractError) as exc:
            compare_marginals(walborn, ["D_p"], "p_pol")
        assert str(exc.value) == (
            "detector 'D_p' measures dofs; only screens and dofs can be compared"
        )

    def test_unknown_axis_is_rejected(self):
        with pytest.raises(Exception):
            compare_marginals(masked_loop(), ["ghost"], "mask")

    def test_choice_with_detectors_only(self):
        slit = Dof("slit", ("s1", "s2"))
        c = Circuit(
            (slit,),
            basis_state((slit,), ("s1",)),
            (
                Apply(el.splitter(slit)),
                Choice(
                    "screen",
                    {
                        "in": (Detect(DetectorSpec("wall", screen_of="slit")),),
                        "out": (Detect(DetectorSpec("c", measured=(("slit", "path"),))),),
                    },
                ),
            ),
        )
        assert compare_marginals(c, ["slit"], "screen") < 1e-15

    def test_screen_in_nested_choice_belongs_to_the_choice(self):
        # a screen inside the compared choice is no common screen, however
        # deeply it is nested, and the error names the choice it belongs to;
        # so does a counter of the choice
        slit = Dof("slit", ("s1", "s2"))
        wall = Detect(DetectorSpec("wall", screen_of="slit"))
        count = Detect(DetectorSpec("c", measured=(("slit", "path"),)))

        def circuit(alt_a):
            return Circuit(
                (slit,),
                basis_state((slit,), ("s1",)),
                (Apply(el.splitter(slit)), Choice("outer", {"a": alt_a, "b": (count,)})),
            )

        direct = circuit((wall,))
        nested = circuit((Choice("inner", {"x": (wall,), "y": (count,)}),))
        for c, base in ((direct, {}), (nested, {"inner": "x"})):
            for name in ("wall", "c"):
                with pytest.raises(ContractError) as exc:
                    compare_marginals(c, [name], "outer", base)
                assert str(exc.value) == (
                    f"detector {name!r} belongs to the compared choice 'outer',"
                    " so not every alternative has it"
                )


def scaled(base: np.ndarray, norm: float) -> np.ndarray:
    """``base`` scaled to about ``norm``; exactly ``norm`` when it has one
    nonzero real amplitude."""
    if np.count_nonzero(base) == 1:
        return base * norm
    return base * (norm / np.linalg.norm(base))


def edge_bases(k: int) -> list[np.ndarray]:
    """Rows of k amplitudes: one nonzero, random ones, and one large amplitude
    beside many tiny ones, whose norm depends most on the order of summation
    (two norms of a row of 2**11 can differ by 100 ulps)."""
    rng = np.random.default_rng(k)
    bases = [np.eye(1, k, dtype=complex)[0], rng.normal(size=k) + 1j * rng.normal(size=k)]
    for tiny in (2.0**-27, 2.0**-28):
        bases.append(np.full(k, tiny, dtype=complex))
        bases[-1][0] = 1.0
    return bases


#: norms off 1 by less than NORM_TOL, around NORM_TOL to a few ulps, and
#: between NORM_TOL and the 1e-9 at which ``_unit`` raises
EDGE_NORMS = [1 + 0.4e-12, 1 - 0.4e-12, 1 + 5e-10, 1 - 5e-10] + [
    x + j * 2.0**-52 * sign
    for x, sign in ((1 + NORM_TOL, 1), (1 - NORM_TOL, -1))
    for j in range(-40, 41)
]


class TestNormalizeRows:
    """``_normalize_rows`` checks every row in one pass and leaves each row
    with the bytes, and the error, ``_unit`` gives it."""

    @pytest.mark.parametrize("k", [2, 3, 9, 2**11, 2**13])
    def test_rows_get_the_bytes_of_unit(self, k):
        rows = [scaled(b, x) for b in edge_bases(k) for x in EDGE_NORMS]
        flat = np.array(rows + [np.zeros(k)] * 2, dtype=complex)
        blocked = [False] * len(rows) + [True] * 2
        qstate._normalize_rows(flat, blocked)
        for row, got in zip(rows, flat):
            assert got.tobytes() == _unit(row.copy()).tobytes()
        assert not flat[len(rows):].any()

    def test_the_boundary_rows_exist(self):
        # the edge norms straddle NORM_TOL: some rows are renormalized, some kept
        rows = [scaled(b, x) for b in edge_bases(9) for x in EDGE_NORMS]
        kept = sum(_unit(r) is r for r in rows)
        assert 0 < kept < len(rows)

    @pytest.mark.parametrize("k", [2, 2**13])
    def test_a_row_off_by_more_than_1e_9_raises_as_unit_does(self, k):
        for base in edge_bases(k):
            row = scaled(base, 1 + 2e-9)
            with pytest.raises(ValidationError) as want:
                _unit(row.copy())
            flat = np.array([scaled(base, 1.0), row, scaled(base, 1 - 2e-9)])
            with pytest.raises(ValidationError) as got:
                qstate._normalize_rows(flat, [False, False, False])
            assert str(got.value) == str(want.value)
