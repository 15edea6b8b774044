import math

import pytest

from qesim import scenarios
from qesim.circuit import joint_distribution

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
