"""The measured value of every catalog check, to the bit.

``verify`` prints each value as ``%.3e``, so its pinned stdout does not see a
change in the last bits of a value.  ``CHECK_VALUES`` holds ``repr`` of all
35 values instead, recorded from the catalog whose ``compare_marginals``
evolved one ``StateVector`` per filter branch and whose ``PHI_GRID`` checks
read one ``OutcomeDistribution`` per step.
"""

from qesim import scenarios

CHECK_VALUES = {
    "two_slit.fringe_visibility_1": "5.551115123125783e-16",
    "two_slit.pattern_is_1_plus_cos": "8.881784197001252e-16",
    "wheeler.screen_in_interference": "5.551115123125783e-16",
    "wheeler.screen_out_50_50": "0.0",
    "wheeler.marginal_invariance": "0.0",
    "mz_one_bs.half_half_all_phi": "1.1102230246251565e-16",
    "mz_two_bs.p_d2_cos2_half_phi": "2.220446049250313e-16",
    "mz_two_bs.phi0_single_port": "0.0",
    "mz_two_bs.regrouped_amplitudes": "0.0",
    "mz_recombine.phi0_detector_prob_1": "0.0",
    "analyzer_loop.identity_on_45": "0.0",
    "analyzer_loop.identity_on_random": "5.551115123125783e-17",
    "analyzer_loop.blocked_lower_gives_v": "1.1102230246251565e-16",
    "sg_loop.identity_on_random_spins": "8.881784197001252e-16",
    "sg_loop.masked_gives_eigenstate": "6.661338147750939e-16",
    "one_photon_eraser.marked_pattern_flat": "1.845521900186338e-16",
    "one_photon_eraser.erased_visibility_1": "2.220446049250313e-16",
    "one_photon_eraser.fringe_plus_antifringe_flat": "4.440892098500626e-16",
    "one_photon_eraser.marked_weight_half": "1.6653345369377348e-16",
    "walborn.four_term_state": "1.7554167342883506e-16",
    "walborn.pm_basis_rewrite": "1.841096603147574e-16",
    "walborn.conditioned_on_p_x": "8.777083671441756e-17",
    "walborn.conditioned_visibility_1": "6.661338147750939e-16",
    "walborn.unconditioned_flat": "9.057406389849895e-17",
    "walborn.fringe_plus_antifringe_total": "3.3306690738754696e-16",
    "walborn.polarizer_before_ds_same_selection": "0.0",
    "walborn.s_marginal_invariance": "6.657001339060997e-17",
    "walborn_delayed.four_term_state": "1.7554167342883506e-16",
    "walborn_delayed.pm_basis_rewrite": "1.841096603147574e-16",
    "walborn_delayed.conditioned_on_p_x": "8.777083671441756e-17",
    "walborn_delayed.conditioned_visibility_1": "6.661338147750939e-16",
    "walborn_delayed.unconditioned_flat": "9.057406389849895e-17",
    "walborn_delayed.fringe_plus_antifringe_total": "3.3306690738754696e-16",
    "walborn_delayed.polarizer_before_ds_same_selection": "0.0",
    "walborn_delayed.s_marginal_invariance": "6.657001339060997e-17",
}


def test_every_check_value_is_pinned():
    got = {}
    for name in scenarios.list_names():
        for chk in scenarios.build(name).expectations:
            value, _ = chk.run()
            got[chk.name] = repr(value)
    assert list(got) == list(CHECK_VALUES)
    assert got == CHECK_VALUES
