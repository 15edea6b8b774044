"""Kim et al.'s delayed-choice eraser (PRL 84, 1, 2000), compiled from
``experiments/kim_eraser.edl`` alone.

The file's account, each to 1e-12: every idler outcome has probability 1/4;
D0's pattern among the events paired with D1 (``a``) or D2 (``b``) has
visibility 1 when the eraser is in, and among those paired with D3 (``a3``)
or D4 (``b4``), or with no pairing at all, visibility 0; the D1 and D2
patterns, each weighted by its share, sum to D0's flat pattern; D0's own
pattern is the same with the eraser in and out, while the joint (D0, idler)
distribution is not.  The later choice picks sub-ensembles of D0's record; it
does not change that record.  A sampled run recovers the D1 fringe: its fitted
visibility lies within 5 sigma of 1.

The SHA-256 of a ``sample --pairs`` run pins the bytes of the pair CSV; it
was recorded before the pair list named its events by run indices.  That of
``run --format csv`` with the eraser in pins the joint distribution's CSV; it
was recorded from the writer that placed each byte of a number cell by a
per-byte layout, before cells were laid out as words.
"""

import hashlib
from pathlib import Path

import pytest

from qesim import edl
from qesim.circuit import compare_marginals, joint_distribution
from qesim.cli import main
from qesim.measure import conditional, marginal, total_variation
from qesim.screen import Pattern, fringe_visibility, pattern_from_bin_probs, sum_patterns

KIM = Path(__file__).resolve().parent.parent / "experiments" / "kim_eraser.edl"
CIRCUIT = edl.build_template(edl.load_document(str(KIM))).circuit
IDLER = ("a", "b", "a3", "b4")
#: the joint (D0, idler) distributions' total variation, eraser in against out
JOINT_TV = 0.15592924527743213
PAIRS_SHA256 = "a6e8c0bf0a002c47f5dcd934cc946a2cce7efef44f86b10c85732988f2264abe"
RUN_SHA256 = "b7fafff0f5843bef1e9ec74b41a166bc635faf942589d95b910fc254490ef6a8"
#: the standard deviation of the visibility fitted to a histogram of the
#: 20000 / 4 D0 events paired with D1 (delta method on the exact pattern)
SAMPLED_SIGMA = 0.01448


def pattern(d):
    """The pattern of a distribution over D0's screen bins alone."""
    assert d.axes == ("D0",)
    return pattern_from_bin_probs(dict(zip(d.labels[0], d.probs.tolist())))


def visibility(d):
    return fringe_visibility(pattern(d))


@pytest.mark.parametrize("eraser", ["in", "out"])
def test_each_idler_outcome_has_a_quarter(eraser):
    idler = marginal(joint_distribution(CIRCUIT, {"eraser": eraser}), ["idler"])
    assert idler.labels == (IDLER,)
    assert max(abs(p - 0.25) for p in idler.probs.tolist()) < 1e-12


def test_only_erasing_detectors_show_fringes():
    joint = joint_distribution(CIRCUIT, {"eraser": "in"})
    for outcome, expected in zip(IDLER, (1.0, 1.0, 0.0, 0.0)):
        assert abs(visibility(conditional(joint, ("idler", outcome))) - expected) < 1e-12
    assert visibility(marginal(joint, ["D0"])) < 1e-12


def test_the_erased_fringes_sum_to_d0s_own_pattern():
    joint = joint_distribution(CIRCUIT, {"eraser": "in"})
    p_a, p_b = (marginal(joint, ["idler"]).prob(outcome) for outcome in ("a", "b"))
    fringes = [pattern(conditional(joint, ("idler", outcome))) for outcome in ("a", "b")]
    total = sum_patterns(*fringes, (p_a / (p_a + p_b), p_b / (p_a + p_b)))
    flat = pattern(marginal(joint, ["D0"])).intensities
    assert abs(total.intensities - flat).max() < 1e-12


def test_without_the_eraser_no_detector_shows_fringes():
    joint = joint_distribution(CIRCUIT, {"eraser": "out"})
    assert all(visibility(conditional(joint, ("idler", outcome))) < 1e-12 for outcome in IDLER)


def test_the_choice_moves_the_joint_distribution_but_not_d0():
    assert compare_marginals(CIRCUIT, ["D0"], "eraser") < 1e-12
    joints = [joint_distribution(CIRCUIT, {"eraser": eraser}) for eraser in ("in", "out")]
    assert abs(total_variation(*joints) - JOINT_TV) < 1e-12


def test_pair_csv_is_pinned(capsys):
    argv = ["sample", str(KIM), "--setting", "eraser=in", "-n", "20000", "--seed", "3",
            "--pairs", "D0,Di", "--offset", "Di=1e9"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PAIRS_SHA256


def test_sampled_pairs_given_d1_show_the_fringe(capsys):
    argv = ["sample", str(KIM), "--setting", "eraser=in", "-n", "20000", "--seed", "3",
            "--pairs", "D0,Di", "--offset", "Di=1e9", "--given", "a"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "x,intensity" and len(rows) == 257
    fitted = fringe_visibility(Pattern([float(row.split(",")[1]) for row in rows[1:]]))
    assert abs(fitted - 1.0) <= 5 * SAMPLED_SIGMA


def test_run_csv_is_pinned(capsys):
    assert main(["run", str(KIM), "--setting", "eraser=in", "--format", "csv"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == RUN_SHA256
