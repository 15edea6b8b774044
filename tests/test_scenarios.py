import math

import pytest

from qesim import edl, scenarios
from qesim.circuit import compare_marginals, joint_distribution

EXPECTED_NAMES = [
    "two_slit",
    "wheeler",
    "mz_one_bs",
    "mz_two_bs",
    "mz_recombine_single_detector",
    "analyzer_loop",
    "sg_loop",
    "one_photon_eraser",
    "walborn",
    "walborn_delayed",
]


class TestCatalog:
    def test_names_and_order_are_stable(self):
        assert scenarios.list_names() == EXPECTED_NAMES

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(scenarios.CatalogError) as exc:
            scenarios.build("nope")
        assert "two_slit" in str(exc.value)

    def test_every_declared_setting_runs(self):
        for name in EXPECTED_NAMES:
            circuit = scenarios.build(name).circuit
            combos = [{}]
            for choice in circuit.choice_names():
                alts = circuit.find_choice(choice).alternatives
                combos = [{**c, choice: alt} for c in combos for alt in alts]
            for settings in combos:
                joint_distribution(circuit, settings)

    def test_delayed_variant_declares_delay(self):
        def offsets(name):
            return {s.name: s.time_offset for s in scenarios.build(name).circuit.detectors()}

        assert offsets("walborn_delayed") == {"D_s": 0.0, "D_p": 1e9}
        assert offsets("walborn") == {"D_s": 0.0, "D_p": 0.0}

    def test_mz_accepts_phi_parameter(self):
        sc = scenarios.build("mz_two_bs", phi=math.pi)
        d = joint_distribution(sc.circuit)
        assert abs(d.prob(("t",)) - 1.0) < 1e-10


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_expected_properties_hold(name):
    for chk in scenarios.build(name).expectations:
        value, ok = chk.run()
        assert ok, f"{chk.name}: measured {value:.3e} > tol {chk.tol:g}"


class TestMeasurementsReportViolations:
    """Each shared measurement reads far above any tol where the paper says
    the property does not hold, so a passing check is not one that cannot fail."""

    def test_visibility_gap_of_the_marked_screen(self):
        # which-path marking leaves no fringes for erasure to restore
        template = scenarios.build("one_photon_eraser").template
        assert scenarios._vis_gap(template, 1.0, {"eraser": "absent"}) > 1 - 1e-9
        assert scenarios._vis_gap(template, 0.0, {"eraser": "plus45"}) > 1 - 1e-9

    def test_probability_gap_off_the_bright_port(self):
        # at phi = pi the two-splitter interferometer sends everything to t
        template = scenarios.build("mz_two_bs").template
        assert scenarios._prob_gap(template, {"r": 1.0}, phi=math.pi) == 1.0

    def test_phi_grid_gap_of_a_two_splitter_interferometer(self):
        # only without the second splitter is each port 1/2 at every phi
        template = scenarios.build("mz_two_bs").template
        assert scenarios._phi_grid_gap(template, lambda phi: {"t": 0.5, "r": 0.5}) == 0.5

    def test_weight_gap_after_the_eraser(self):
        # the +45 eraser passes half of the marked half
        template = scenarios.build("one_photon_eraser").template
        assert abs(scenarios._weight_gap(template, 0.5, {"eraser": "plus45"}) - 0.25) < 1e-12

    def test_marginal_gap_for_a_choice_before_the_coupling(self):
        # a choice made before the analyzer ties pol to chan is a cause of
        # the chan marginal, not a later choice
        circuit = edl.compile_text(
            "EXPERIMENT early_choice\nDOF pol : v h\nDOF chan : U L\n"
            "SOURCE 1+0i |pol=v, chan=U>\n"
            "CHOICE plate : none {\n} | quarter {\n    STAGE q : qwp pol 45\n}\n"
            "STAGE tag : analyzer pol chan\nDETECT D : chan basis=path\n"
        ).circuit
        assert abs(compare_marginals(circuit, ["chan"], "plate") - 0.5) < 1e-12
