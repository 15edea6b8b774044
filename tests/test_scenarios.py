import dataclasses
import math
import weakref
from unittest import mock

import numpy as np
import pytest

from qesim import circuit, edl, scenarios
from qesim.circuit import compare_marginals, joint_distribution
from qesim.measure import OutcomeDistribution

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
        d = joint_distribution(edl.build_template(scenarios.document("mz_two_bs"), {"phi": math.pi}).circuit)
        assert abs(d.prob(("t",)) - 1.0) < 1e-10


@pytest.mark.parametrize("name", ["mz_two_bs", "mz_recombine_single_detector"])
def test_phi0_checks_read_the_golden_default(name):
    # their phi0 checks measure the golden circuit, which must be at phi = 0
    assert dict(scenarios.document(name).params)["phi"] == 0.0


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_expected_properties_hold(name):
    for chk in scenarios.build(name).expectations:
        value, ok = chk.run()
        assert ok, f"{chk.name}: measured {value:.3e} > tol {chk.tol:g}"


def shared(name: str) -> scenarios._Shared:
    """A new store of the results that scenario ``name``'s checks share."""
    return scenarios._Shared(scenarios.build(name).template)


class TestMeasurementsReportViolations:
    """Each shared measurement reads far above any tol where the paper says
    the property does not hold, so a passing check is not one that cannot fail."""

    def test_visibility_gap_of_the_marked_screen(self):
        # which-path marking leaves no fringes for erasure to restore
        eraser = shared("one_photon_eraser")
        assert scenarios._vis_gap(eraser, 1.0, {"eraser": "absent"}) > 1 - 1e-9
        assert scenarios._vis_gap(eraser, 0.0, {"eraser": "plus45"}) > 1 - 1e-9

    def test_probability_gap_off_the_bright_port(self):
        # at phi = 0 the two-splitter interferometer sends nothing to t
        assert scenarios._prob_gap(shared("mz_two_bs"), {"t": 1.0}) == 1.0

    def test_phi_grid_gap_of_a_two_splitter_interferometer(self):
        # only without the second splitter is each port 1/2 at every phi
        assert scenarios._phi_grid_gap(shared("mz_two_bs"), lambda phi: {"t": 0.5, "r": 0.5}) == 0.5

    def test_weight_gap_after_the_eraser(self):
        # the +45 eraser passes half of the marked half
        eraser = shared("one_photon_eraser")
        assert abs(scenarios._weight_gap(eraser, 0.5, {"eraser": "plus45"}) - 0.25) < 1e-12

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


class TestSharedResults:
    """A scenario's checks read one store of the results they share."""

    @pytest.mark.parametrize("name, fn, args", [
        ("one_photon_eraser", scenarios._state, ({"eraser": "absent"},)),
        ("walborn", scenarios._post_slit, (True,)),
        ("mz_two_bs", scenarios._phi_rows, ()),
    ])
    def test_a_check_that_writes_into_a_shared_result_raises(self, name, fn, args):
        # a check that zeroed what it read would hand the next check a
        # corrupt input; the stored arrays refuse the write
        def overwrite(s):
            result = s(fn, *args)
            for a in result.values() if isinstance(result, dict) else (result.amps, result.weights):
                a[...] = 0
            return 0.0

        rows = scenarios._CATALOG[name]
        with mock.patch.dict(scenarios._CATALOG, {name: (("overwrite", 0.0, overwrite),) + rows}):
            writer, *checks = scenarios.build(name).expectations
        with pytest.raises(ValueError, match="read-only"):
            writer.run()
        assert all(chk.run()[1] for chk in checks)

    def test_each_result_is_computed_once_per_store(self):
        eraser = shared("one_photon_eraser")
        first = eraser(scenarios._state, {"eraser": "plus45"})
        assert eraser(scenarios._state, {"eraser": "plus45"}) is first
        assert shared("one_photon_eraser")(scenarios._state, {"eraser": "plus45"}) is not first

    def test_the_store_goes_with_its_scenario(self):
        sc = scenarios.build("walborn")
        assert all([chk.run()[1] for chk in sc.expectations])
        store = weakref.ref(sc.expectations[0].measured.args[0])
        assert isinstance(store(), scenarios._Shared)
        del sc
        assert store() is None


def nan_on_call(fn, call):
    """``fn``, but NaN for its call number ``call`` (the first is 0)."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        return math.nan if len(calls) == call + 1 else fn(*args, **kwargs)

    return patched


def nan_in_last_probability(fn):
    """``joint_probs``, with each block's last probability NaN."""
    def patched(*args, **kwargs):
        for axes, labels, p, masses, blocked in fn(*args, **kwargs):
            p = p.copy()
            p.flat[-1] = math.nan
            yield axes, labels, p, masses, blocked

    return patched


def nan_weights(fn):
    """``_state``, with NaN weights."""
    def patched(*args):
        out = fn(*args)
        return dataclasses.replace(out, weights=np.full_like(out.weights, math.nan))

    return patched


@pytest.mark.parametrize("scenario, check, owner, name, patch", [
    # _vis_gap: the second setting's visibility
    ("one_photon_eraser", "erased_visibility_1", scenarios, "fringe_visibility", lambda f: nan_on_call(f, 1)),
    # _prob_gap: the second label's probability
    ("wheeler", "screen_out_50_50", OutcomeDistribution, "prob", lambda f: nan_on_call(f, 1)),
    # _phi_grid_gap: the last probability of the phi grid
    ("mz_one_bs", "half_half_all_phi", scenarios, "joint_probs", nan_in_last_probability),
    # _polarizer_before_ds_dev: the second projector's gap
    ("walborn", "polarizer_before_ds_same_selection", scenarios, "_pattern_gap", lambda f: nan_on_call(f, 1)),
    # the conditioned_visibility_1 lambda: the second ppol outcome's visibility
    ("walborn", "conditioned_visibility_1", scenarios, "fringe_visibility", lambda f: nan_on_call(f, 1)),
    # compare_marginals: the second of three pairs of p_pol alternatives
    ("walborn", "s_marginal_invariance", circuit, "total_variation", lambda f: nan_on_call(f, 1)),
    # _blocked_lower_dev: the weight gap after the state gap
    ("analyzer_loop", "blocked_lower_gives_v", scenarios, "_state", nan_weights),
])
def test_a_nan_measurement_fails_its_check(scenario, check, owner, name, patch):
    # Python's max keeps an earlier value over a later NaN; a check must not
    with mock.patch.object(owner, name, patch(getattr(owner, name))):
        (chk,) = [c for c in scenarios.build(scenario).expectations if c.name.endswith(f".{check}")]
        value, ok = chk.run()
    assert math.isnan(value) and not ok
