"""A statistical oracle for the event sampler.

The events oracle holds ``generate_events`` to the generator before it, bit
for bit; an error the two share would pass it.  This file holds the sampler
to the exact probabilities it samples from instead, for every catalog
circuit under every setting:

- every event's time is ``shot * PERIOD_NS`` plus its detector's delay: the
  declared ``time_offset``, or the delay the caller gives, which replaces it;
- the absorbed shots lie within 5 sigma of ``n (1 - weight)``;
- each detector's outcome counts over ``SHOTS`` shots match ``n p`` by a
  chi-square test, where ``p`` is the detector's marginal of
  ``joint_distribution`` and one more cell counts the absorbed shots.  An
  outcome of probability 0 must never be drawn;
- ``coincidences`` and ``qesim sample --pairs --given`` pair a delayed
  eraser's events as a plain dict of one detector's events keyed by shot
  does, under a window below half the shot period, where the greedy
  earliest-first scan can only pair each event with its one candidate.

The chi-square threshold was fixed before the first run: a false alarm
anywhere in the family of ``len(COUNT_TESTS)`` tests (one per circuit,
setting and detector) has probability ``FAMILY_ALPHA``, split evenly over
the family.  Cells expected fewer than ``MIN_EXPECTED`` times are pooled, so
that the chi-square law holds for each cell.
"""

import math
from collections import Counter
from functools import cache

import numpy as np
import pytest

from qesim import cli, events, scenarios
from qesim.circuit import evolve, joint_distribution
from qesim.screen import fringe_visibility, pattern_from_bin_probs
from test_edl import all_settings
from test_events_oracle import pair_shots

SHOTS = 200_000
FAMILY_ALPHA = 1e-6
MIN_EXPECTED = 5.0

CASES = [
    (name, settings)
    for name in scenarios.list_names()
    for settings in all_settings(scenarios.build(name).circuit)
]
#: (case index, detector name): one chi-square test each
COUNT_TESTS = [
    (i, spec.name)
    for i, (name, settings) in enumerate(CASES)
    for spec in scenarios.build(name).circuit.detectors(settings)
]


def case_id(case) -> str:
    name, settings = case
    return "-".join([name, *(f"{k}={v}" for k, v in settings.items())])


def chi2_sf(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square with ``dof`` degrees of freedom: the
    regularized upper incomplete gamma Q(dof / 2, x / 2), by its series
    below a + 1 and by Lentz's continued fraction above."""
    a, x = dof / 2, x / 2
    if x <= 0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:
        term = total = 1 / a
        n = 0
        while term > total * 1e-16:
            n += 1
            term *= x / (a + n)
            total += term
        return 1.0 - front * total
    tiny = 1e-300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1) < 1e-16:
            break
    return front * h


@pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 3.0, 10.0, 40.0, 120.0])
def test_chi2_sf_matches_its_closed_forms(x):
    # one and two degrees of freedom: erfc(sqrt(x / 2)) and exp(-x / 2)
    assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-12)
    assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)


def test_chi2_sf_adds_the_poisson_terms_at_even_dof():
    # Q(k, y) for whole k is the Poisson sum e^-y (1 + y + ... + y^(k-1) / (k-1)!)
    for dof, x in ((10, 4.0), (10, 30.0), (300, 250.0), (300, 450.0)):
        y = x / 2
        want = sum(math.exp(j * math.log(y) - y - math.lgamma(j + 1)) for j in range(dof // 2))
        assert chi2_sf(x, dof) == pytest.approx(want, rel=1e-10)


@cache
def sampled(index: int):
    """Case ``index``'s weight, its absorbed-shot count, and per detector its
    outcome probabilities (an array over the detector's own axes, C order)
    and counts over ``SHOTS`` shots, from a seed fixed per case."""
    name, settings = CASES[index]
    circuit = scenarios.build(name).circuit
    dist = joint_distribution(circuit, settings)
    log = events.generate_events(circuit, settings, SHOTS, seed=7000 + index)
    absorbed = SHOTS - len(np.unique(log.shot))
    by_label = np.bincount(log.label, minlength=len(log.labels))
    detectors = {}
    for spec in circuit.detectors(settings):
        axes = [dist.axes.index(a) for a in spec.axis_names()]
        others = tuple(i for i in range(dist.probs.ndim) if i not in axes)
        p = np.transpose(dist.probs.sum(axis=others, keepdims=True), axes + list(others)).ravel()
        mine = [k for k, (det, _) in enumerate(log.labels) if det == spec.name]
        detectors[spec.name] = (p, by_label[mine])
    return evolve(circuit, settings).weights[0], absorbed, detectors


def pooled(counts: np.ndarray, expected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells expected ``MIN_EXPECTED`` times or more, and one cell of all
    the others (joined to the least kept cell if it is still below that)."""
    small = expected < MIN_EXPECTED
    c, e = list(counts[~small]), list(expected[~small])
    rest_c, rest_e = counts[small].sum(), expected[small].sum()
    if rest_e >= MIN_EXPECTED or not e:
        c.append(rest_c)
        e.append(rest_e)
    elif rest_e > 0:
        k = int(np.argmin(e))
        c[k] += rest_c
        e[k] += rest_e
    return np.array(c, dtype=float), np.array(e)


@pytest.mark.parametrize("index", range(len(CASES)), ids=[case_id(c) for c in CASES])
def test_event_times_are_the_shot_clock_plus_the_delay(index):
    name, settings = CASES[index]
    circuit = scenarios.build(name).circuit
    specs = circuit.detectors(settings)
    # the declared offsets, then a delay given for each detector, which replaces it
    given = {spec.name: (-1) ** k * (1234.5678 + 3e8 * k) for k, spec in enumerate(specs)}
    for delays, want in ((None, {s.name: s.time_offset for s in specs}), (given, given)):
        log = events.generate_events(circuit, settings, 3000, seed=11, delays=delays)
        delay = np.array([want[det] for det, _ in log.labels])[log.label]
        assert np.array_equal(log.time, log.shot * events.PERIOD_NS + delay)


@pytest.mark.parametrize("index", range(len(CASES)), ids=[case_id(c) for c in CASES])
def test_absorbed_shots_follow_the_weight(index):
    weight, absorbed, _ = sampled(index)
    sigma = math.sqrt(SHOTS * weight * (1 - weight))
    assert abs(absorbed - SHOTS * (1 - weight)) <= 5 * sigma


@pytest.mark.parametrize("index, detector", COUNT_TESTS,
                         ids=[f"{case_id(CASES[i])}-{d}" for i, d in COUNT_TESTS])
def test_detector_counts_follow_the_born_probabilities(index, detector):
    _, absorbed, detectors = sampled(index)
    p, counts = detectors[detector]
    assert not counts[p == 0].any(), "an outcome of probability 0 was drawn"
    c, e = pooled(np.append(counts, absorbed), SHOTS * np.append(p, max(0.0, 1 - p.sum())))
    assert c.sum() == SHOTS
    if len(c) > 1:
        stat = float(((c - e) ** 2 / e).sum())
        assert chi2_sf(stat, len(c) - 1) >= FAMILY_ALPHA / len(COUNT_TESTS), (stat, len(c) - 1)


#: the pairing window: below half the shot period, so each event has at most
#: one partner within it
PAIR_WINDOW = 0.3 * events.PERIOD_NS
#: how many shots apart the brute force looks for a partner: more than any
#: offset below is off by
PAIR_SPAN = 5
PAIR_CASES = [
    (p_pol, seed, offsets)
    for p_pol in ("absent", "plus45")
    for seed in (1, 2)
    for offsets in (
        {"D_p": 1e9},  # the declared delay of D_p: each pair is one shot
        {"D_p": 1e9 - 3 * events.PERIOD_NS},  # a wrong offset: A's shot is 3 after B's
        {"D_s": 2.5e5, "D_p": 1e9},  # both compensated, A's within the window
    )
]


def brute_force_pairs(log, offsets: dict[str, float]) -> list[tuple[int, int]]:
    """(shot of D_s, shot of D_p) pairs in D_s's time order: each D_s event
    looks up the D_p events of the ``PAIR_SPAN`` shots around its own in a
    dict keyed by shot and takes the one whose compensated time lies within
    ``PAIR_WINDOW`` of its compensated time."""
    a_events, b_by_shot = [], {}
    for shot, t, k in zip(log.shot.tolist(), log.time.tolist(), log.label.tolist()):
        det = log.labels[k][0]
        t -= offsets.get(det, 0.0)
        if det == "D_s":
            a_events.append((shot, t))
        else:
            b_by_shot[shot] = t
    pairs = []
    for shot, t in a_events:
        for other in range(shot - PAIR_SPAN, shot + PAIR_SPAN + 1):
            if other in b_by_shot and abs(b_by_shot[other] - t) <= PAIR_WINDOW:
                pairs.append((shot, other))
    return pairs


@pytest.mark.parametrize("p_pol, seed, offsets", PAIR_CASES, ids=map(str, PAIR_CASES))
def test_pairing_matches_a_dict_keyed_by_shot(capsys, p_pol, seed, offsets):
    circuit = scenarios.build("walborn_delayed").circuit
    log = events.generate_events(circuit, {"p_pol": p_pol}, 2000, seed=seed)
    want = brute_force_pairs(log, offsets)
    assert len(want) > 500
    got = events.coincidences(log, "D_s", "D_p", window=PAIR_WINDOW, offsets=offsets)
    assert pair_shots(got) == want

    outcome = {(e.detector, e.shot): e.outcome for e in log.events}
    plus = Counter(outcome["D_s", a][0] for a, b in want if outcome["D_p", b] == ("+",))
    pattern = pattern_from_bin_probs({label: float(n) for label, n in plus.items()})
    argv = ["sample", "walborn_delayed", "-n", "2000", "--seed", str(seed),
            "--setting", f"p_pol={p_pol}", "--pairs", "D_s,D_p", "--window", repr(PAIR_WINDOW),
            *(f"--offset={det}={value!r}" for det, value in offsets.items()), "--given", "+"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out == pattern.to_csv()
    assert err == f"{len(want)} pairs, fitted visibility {fringe_visibility(pattern):.4f}\n"
