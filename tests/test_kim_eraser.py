"""Kim et al.'s delayed-choice eraser (PRL 84, 1, 2000), compiled from
``experiments/kim_eraser.edl`` alone.

The file's account, each to 1e-12: every idler outcome has probability 1/4;
D0's pattern among the events paired with D1 (``a``) or D2 (``b``) has
visibility 1 when the eraser is in, and among those paired with D3 (``a3``)
or D4 (``b4``), or with no pairing at all, visibility 0; D0's own pattern is
the same with the eraser in and out, while the joint (D0, idler) distribution
is not.  The later choice picks sub-ensembles of D0's record; it does not
change that record.

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
from qesim.screen import fringe_visibility, pattern_from_bin_probs

KIM = Path(__file__).resolve().parent.parent / "experiments" / "kim_eraser.edl"
CIRCUIT = edl.build_template(edl.load_document(str(KIM))).circuit
IDLER = ("a", "b", "a3", "b4")
#: the joint (D0, idler) distributions' total variation, eraser in against out
JOINT_TV = 0.15592924527743213
PAIRS_SHA256 = "a6e8c0bf0a002c47f5dcd934cc946a2cce7efef44f86b10c85732988f2264abe"
RUN_SHA256 = "b7fafff0f5843bef1e9ec74b41a166bc635faf942589d95b910fc254490ef6a8"


def visibility(d):
    """Fringe visibility of a distribution over D0's screen bins alone."""
    assert d.axes == ("D0",)
    return fringe_visibility(pattern_from_bin_probs(dict(zip(d.labels[0], d.probs.tolist()))))


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


def test_run_csv_is_pinned(capsys):
    assert main(["run", str(KIM), "--setting", "eraser=in", "--format", "csv"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == RUN_SHA256
