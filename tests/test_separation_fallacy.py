"""The separation fallacy as an executable counter-model.

The fallacy reads a superposition of separated paths (after a slit pair, a
beam splitter, a polarization analyzer or a Stern-Gerlach magnet) as a
mixture: each quantum "took" one path, and only which one is unknown.  From
that reading, a later choice that restores interference seems to reach back
and undo the path, hence "retrocausality".

``fallacy`` computes the mixture's prediction from the same circuit: it
evolves the circuit up to and through its first top-level separating stage
(an element named ``split``, ``bs``, ``analyzer`` or ``sg``), cuts the state
into one source row per label k of the stage's path dof, P_k psi normalized
and weighted by |P_k psi|^2, evolves the rest of the circuit on those rows
with ``evolve_rows(..., sources=...)``, and sums their ``_born``
probabilities.  The exact account is ``joint_distribution``.

* Where the paths are recombined, or measured in a basis that mixes them,
  the two differ: the total-variation distances are pinned.
* Where a detector or a marker already records the path, the mixture is
  harmless: the two agree.
* On ``walborn_delayed`` without the p polarizer, the two agree on the
  D_s marginal, and differ on the joint distribution: only coincidences
  tell them apart.

The same cut with one row (the state kept coherent) reproduces the exact
account, so it fails every refutation.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from qesim import elements as el
from qesim import scenarios
from qesim.circuit import Choice, _born, _walk, evolve, evolve_rows, joint_distribution
from qesim.measure import OutcomeDistribution, marginal, total_variation
from qesim.qstate import StateStack, _axis

#: separating element name -> position of its path dof among its target dofs
SEPARATORS = {"split": 0, "bs": 0, "analyzer": 1, "sg": 1}

#: (scenario, settings) -> TV of the mixture from the exact joint distribution
REFUTED = {
    ("two_slit", ()): 0.33074539223230515,
    ("wheeler", (("screen", "in"),)): 0.33074539223230515,
    ("mz_two_bs", ()): 0.5,
    ("mz_recombine_single_detector", ()): 0.5,
    ("analyzer_loop", (("mask", "open"),)): 0.5,
    ("one_photon_eraser", (("eraser", "plus45"),)): 0.33074539223230504,
    ("one_photon_eraser", (("eraser", "minus45"),)): 0.31476056037576894,
    ("walborn", (("p_pol", "plus45"),)): 0.31185849055486436,
    ("walborn", (("p_pol", "minus45"),)): 0.31185849055486436,
    ("walborn", (("p_pol", "absent"),)): 0.31185849055486436,
    ("walborn_delayed", (("p_pol", "plus45"),)): 0.31185849055486436,
    ("walborn_delayed", (("p_pol", "minus45"),)): 0.31185849055486436,
    ("walborn_delayed", (("p_pol", "absent"),)): 0.31185849055486436,
}

#: settings where a record of the path (or a detector in the separating
#: stage's basis, as in ``sg_loop``) leaves nothing for the mixture to get wrong
AGREE = (
    ("wheeler", (("screen", "out"),)),
    ("mz_one_bs", ()),
    ("analyzer_loop", (("mask", "block_L"),)),
    ("analyzer_loop", (("mask", "block_U"),)),
    ("sg_loop", (("mask", "open"),)),
    ("sg_loop", (("mask", "keep_top"),)),
    ("sg_loop", (("mask", "keep_mid"),)),
    ("sg_loop", (("mask", "keep_bot"),)),
    ("one_photon_eraser", (("eraser", "absent"),)),
)


def fallacy(circuit, settings, coherent=False) -> OutcomeDistribution:
    """The mixture's joint distribution under ``settings``: one row per path
    label after the first separating stage, or with ``coherent`` the state
    itself as the one row."""
    i = next(i for i, s in enumerate(circuit.stages)
             if isinstance(s, el.ElementOp) and s.name in SEPARATORS)
    stage = circuit.stages[i]
    psi = evolve(replace(circuit, stages=circuit.stages[: i + 1]))
    t, w = psi.amps[0], psi.weights[0]
    if coherent:
        rows, weights = [t], [w]
    else:
        ax = _axis(circuit.dofs, stage.target_dofs[SEPARATORS[stage.name]])
        rows, weights = [], []
        for k in range(circuit.dofs[ax].dim):
            part = np.zeros_like(t)
            part[(slice(None),) * ax + (k,)] = t[(slice(None),) * ax + (k,)]
            mass = float(np.vdot(part, part).real)
            if mass > 0.0:
                rows.append(part / np.sqrt(mass))
                weights.append(w * mass)
    n = len(rows)
    sources = StateStack(circuit.dofs, np.array(rows), np.array(weights), np.zeros(n, dtype=bool))
    stack = evolve_rows(replace(circuit, stages=circuit.stages[i + 1:]), n, {}, settings, sources)
    axes, labels, p, masses = _born(stack, circuit.detectors(settings))
    return OutcomeDistribution(axes, labels, np.cumsum(p, axis=0)[-1], sum(masses.tolist()))


def distance(case, coherent=False) -> float:
    name, settings = case
    circuit = scenarios.build(name).circuit
    return total_variation(joint_distribution(circuit, dict(settings)),
                           fallacy(circuit, dict(settings), coherent))


def refutes(tv: float, pin: float) -> bool:
    return abs(tv - pin) <= 1e-12


def test_every_catalog_setting_is_classified():
    cases = set()
    for name in scenarios.list_names():
        circuit = scenarios.build(name).circuit
        choices = [s for s in _walk(circuit.stages) if isinstance(s, Choice)]
        for alts in itertools.product(*(list(c.alternatives) for c in choices)):
            cases.add((name, tuple((c.name, a) for c, a in zip(choices, alts))))
    assert cases == REFUTED.keys() | set(AGREE)
    assert not REFUTED.keys() & set(AGREE)


@pytest.mark.parametrize("case", REFUTED, ids=str)
def test_recombination_refutes_the_fallacy(case):
    assert refutes(distance(case), REFUTED[case])


@pytest.mark.parametrize("case", REFUTED, ids=str)
def test_a_coherent_counter_model_fails_every_refutation(case):
    assert not refutes(distance(case, coherent=True), REFUTED[case])


@pytest.mark.parametrize("case", AGREE, ids=str)
def test_a_record_of_the_path_makes_the_fallacy_harmless(case):
    assert distance(case) <= 1e-12


def test_delayed_walborn_singles_agree_and_coincidences_do_not():
    circuit = scenarios.build("walborn_delayed").circuit
    settings = {"p_pol": "absent"}
    exact, mixture = joint_distribution(circuit, settings), fallacy(circuit, settings)
    assert total_variation(marginal(exact, ["D_s"]), marginal(mixture, ["D_s"])) <= 1e-12
    assert refutes(total_variation(exact, mixture), REFUTED[("walborn_delayed", tuple(settings.items()))])
