"""Byte pins of ``qesim`` CLI output.

Each case runs the CLI in-process and compares SHA-256 hashes of stdout and
stderr with recorded values.  The ``sample`` cases, run with a fixed seed,
were recorded from the object-per-event implementation of ``qesim.events``:
any change to sampling, event order, pairing, histogramming or number
formatting shows up there.  The ``sample`` cases of ``mz_one_bs``,
``mz_two_bs``, ``analyzer_loop`` and ``one_photon_eraser`` were recorded from
the sampler that searched the whole CDF for every shot and ordered rows by a
lexsort, before shots were drawn from a table of CDF cells.  The ``run`` cases
(every catalog scenario under every choice alternative), ``verify`` and the
``sweep`` cases were recorded
from the catalog as built by Python circuit constructors, before it was
compiled from the golden EDL files: any change to a circuit, to the order of
outcomes or to number formatting shows up there.  The ``run`` cases of the
files in ``FILES`` (a 12-dof chain with 4096 outcomes and an experiment whose
blocker absorbs everything), of ``walborn`` as CSV and of its ``--ascii``
screen on stderr were recorded from the dict-per-outcome Born path, before
``OutcomeDistribution`` held a dense array.  The ``run`` case of a 13-dof
chain as CSV was recorded from the writer that built one label prefix per
row, before the CSV was formatted from a label template.  The ``sweep``
cases of the files in ``FILES`` were recorded from the step-by-step sweep,
which bound and evaluated one value at a time, before a sweep was evaluated
as one batched evolution: filters with all-blocked steps, pm45 and circular
detectors with a dof summed out, a screen, a PARAM inside a CHOICE, and a
12-dof sweep whose steps fill more than one block.  Every case runs in a
temporary directory holding ``FILES``, so that a relative target path prints
the same.  The ``sweep`` case over 33 decades and the screen pattern pin, of
a pattern whose intensities span 60 decades with some exactly 0, were recorded
from the writers that formatted each number with CPython's ``%.12g``, before
one numpy writer formatted them.
"""

import hashlib

import numpy as np
import pytest

from qesim import measure
from qesim.cli import main


def chain_edl(n: int) -> str:
    """n two-level dofs, a beam splitter on each, a QWP at a fixed angle on
    each dof after the first (conditioned on its predecessor), pm45 detection."""
    lines = ["EXPERIMENT chain", ""]
    lines += [f"DOF q{i} : a b" for i in range(n)]
    lines += ["", "SOURCE 1+0i |" + ", ".join(f"q{i}=a" for i in range(n)) + ">", ""]
    lines += [f"STAGE bs{i} : bs q{i} a b" for i in range(n)]
    lines += [f"STAGE qwp{i} : qwp q{i} {(37.25 * i) % 180:g} when q{i - 1}=a" for i in range(1, n)]
    lines.append("DETECT D : " + ", ".join(f"q{i} basis=pm45" for i in range(n)))
    return "\n".join(lines) + "\n"


FILES = {
    "chain12.edl": chain_edl(12),
    "chain13.edl": chain_edl(13),
    "blocked.edl": """EXPERIMENT blocked
DOF slit : s1 s2
DOF chan : U L
SOURCE 1+0i |slit=s1, chan=U> ; 1+0i |slit=s2, chan=U>
STAGE stop : block chan U
DETECT D_s : screen slit
DETECT D_c : chan basis=path
""",
    # the PARAM drives a filter and a conditioned qwp: theta = pi/2 and 3 pi/2
    # are all-blocked steps, the others have weight cos^2(theta)
    "gated.edl": """EXPERIMENT gated
DOF arm : t r
DOF pol : h v
PARAM theta = 0
SOURCE 1+0i |arm=t, pol=h>
STAGE b1 : bs arm t r
STAGE sel : pol pol theta
STAGE tilt : qwp pol 20
STAGE plate : qwp pol theta when arm=t
STAGE b2 : bs arm t r
DETECT D : arm basis=path, pol basis=pm45
""",
    # pm45 and circular detectors; arm is summed out
    "bases.edl": """EXPERIMENT bases
DOF arm : t r
DOF pol : h v
DOF aux : x y
PARAM phi = 0
SOURCE 1+0i |arm=t, pol=h, aux=x> ; 0.5+0.5i |arm=t, pol=v, aux=y>
STAGE b1 : bs arm t r
STAGE shift : phase arm t phi
STAGE b2 : bs arm t r
STAGE mix : qwp pol 30 when arm=t
STAGE tie : qwp aux 60 when arm=r
DETECT P : pol basis=pm45
DETECT C : aux basis=circular
""",
    # a screen behind a phase-shifted slit; pol is summed out
    "fringe.edl": """EXPERIMENT fringe
DOF slit : s1 s2
DOF pol : h v
PARAM phi = 0
SOURCE 1+0i |slit=s1, pol=h>
STAGE slits : split slit
STAGE shift : phase slit s1 phi
STAGE mark : qwp pol 45 when slit=s2
DETECT wall : screen slit
""",
    # the PARAM inside the alternatives of a CHOICE
    "chosen.edl": """EXPERIMENT chosen
DOF arm : t r
DOF pol : h v
PARAM theta = 0
SOURCE 1+0i |arm=t, pol=h>
STAGE b1 : bs arm t r
CHOICE plate : wave {
    STAGE q : qwp pol theta when arm=t
    STAGE b2 : bs arm t r
    DETECT D : arm basis=path, pol basis=circular
} | filter {
    STAGE p : pol pol theta when arm=r
    DETECT D : arm basis=path, pol basis=pm45
}
""",
    # chain12 with its first QWP angle a PARAM
    "chain12_param.edl": chain_edl(12)
    .replace("qwp q1 37.25", "qwp q1 theta")
    .replace("SOURCE", "PARAM theta = 0\nSOURCE"),
}

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

CASES = {
    "jsonl_plus45": (
        "sample walborn_delayed --setting p_pol=plus45 -n 3000 --seed 11",
        "eb903a3c5cfd1a8f779c1ce19ea6c044351176a7e5b39f6e232b9578860cf65a",
        EMPTY,
    ),
    "csv_plus45": (
        "sample walborn_delayed --setting p_pol=plus45 -n 3000 --seed 11 --format csv",
        "174c070aa88bbd6a975235826e14a55c8ce3e31758dd775ad7e76fe4c220a2f8",
        EMPTY,
    ),
    "given_plus": (
        "sample walborn_delayed --setting p_pol=absent -n 3000 --seed 12"
        " --pairs D_s,D_p --offset D_p=1e9 --given +",
        "796cf6364353ccb4c7665a53fa33efd40f5c34a795e474ebdd2684ba89a625b4",
        "7ae9dfb030469f4cf2ea3cc68af2215c6db76c3db12d294d0f86c5050944474b",
    ),
    "pair_csv": (
        "sample walborn_delayed --setting p_pol=absent -n 3000 --seed 12"
        " --pairs D_s,D_p --offset D_p=1e9",
        "051f41b4d6eec6858a657a54ca65f2f5063a744084f756cd1fc794114479eed3",
        EMPTY,
    ),
    "delay_window": (
        "sample walborn_delayed --setting p_pol=absent -n 3000 --seed 13"
        " --delay D_p=1234.5 --window 2000 --pairs D_s,D_p",
        "00bb651cb7461583e297de62f8c57a8ae84e39a09de1d7c896788f0d90fff85b",
        EMPTY,
    ),
    "negative_delay_half_period": (
        "sample walborn --setting p_pol=plus45 -n 3000 --seed 14"
        " --delay D_s=-700 --window 5e5 --pairs D_s,D_p",
        "c8282fb7c98318cb6dea56fe6a1b68a20fc0820e35120bd055a20c3283456cde",
        EMPTY,
    ),
    # a window wider than the shot period: several A events claim one B event
    "window_over_period": (
        "sample walborn --setting p_pol=absent -n 3000 --seed 15"
        " --delay D_s=-700 --window 2.5e6 --pairs D_p,D_s",
        "064de19eb4457404df4bf8d867a8f73cf237fed78c3d92a5f472e4be05032981",
        EMPTY,
    ),
    # filtered shots and a delay past the period: pairs straddle shots
    "cross_shot": (
        "sample walborn --setting p_pol=plus45 -n 3000 --seed 16"
        " --delay D_p=1.5e6 --window 1e6 --pairs D_s,D_p",
        "594ccd2ee472df72faf5c80663c8b3c184e011623a4900ae38a27f2cbf3f982f",
        EMPTY,
    ),
    # CDF shapes the walborn cases never reach: an entry of exactly 0.5, on the
    # edge of a draw-table cell
    "mz_one_bs": (
        "sample mz_one_bs -n 3000 --seed 21",
        "f58c446237d8b7f7dcc982b3514889f9536f198336682a142452c0ab5cee3713",
        EMPTY,
    ),
    # a leading outcome of probability 0
    "mz_two_bs": (
        "sample mz_two_bs -n 3000 --seed 22",
        "4af20dfd4b4ee2e6863a76bc28765162e22b683117dc8c960f4fd960365491cc",
        EMPTY,
    ),
    # half the shots absorbed, behind CDF entries a rounding step off 0.25 and 0.5
    "absorbed_residual": (
        "sample analyzer_loop --setting mask=block_L -n 3000 --seed 23",
        "ff9de2cd44d2f54cc961a230369b6fec87a5dc9d563a95cdf3fd439857f08cad",
        EMPTY,
    ),
    # a 256-bin screen behind filters
    "screen_behind_filters": (
        "sample one_photon_eraser --setting eraser=plus45 -n 3000 --seed 24 --format csv",
        "000ddb0a7c710da86344c6473a8b759d8b30228ca608eb5c1800bf67739a78fa",
        EMPTY,
    ),
    "run_two_slit": (
        "run two_slit",
        "2648e6ccdb033a6f02b6eece682cd7fcb0e457ae8b49a6259c4e501b4b1d37f0",
        EMPTY,
    ),
    "run_wheeler_in": (
        "run wheeler --setting screen=in",
        "3c18652ecada195288881473c3b0e85ce41fe6b095859d8a617a4c54caeec7c7",
        EMPTY,
    ),
    "run_wheeler_out": (
        "run wheeler --setting screen=out",
        "c29a5f492479ed9882e5c25f16dce6c1ba8974115b6e7ea6f7e362b93f8c504d",
        EMPTY,
    ),
    "run_mz_one_bs": (
        "run mz_one_bs",
        "1cfc18f6e3df11bb56c1e91b54ffa5ef9d0d2c17884d04086d122b9aecfbb934",
        EMPTY,
    ),
    "run_mz_two_bs": (
        "run mz_two_bs",
        "67732625ce0fd7094bc1ef6a429fc78ef4e2a503631bde2bd71ac9030f9c63f8",
        EMPTY,
    ),
    "run_mz_recombine_single_detector": (
        "run mz_recombine_single_detector",
        "06eda931e538ac34d30eb00432006b6059e3f849a3e032ed7a67f121e89c9e80",
        EMPTY,
    ),
    "run_analyzer_loop_open": (
        "run analyzer_loop --setting mask=open",
        "437f45e227a793295bcd227f28e7adacd9b659d3283608cd58f55e3ffda9d58e",
        EMPTY,
    ),
    "run_analyzer_loop_block_L": (
        "run analyzer_loop --setting mask=block_L",
        "768f65fe6d8ac0cc408a35c801f2a27a38081ad234c62bf6b9e94cd7a54dc924",
        EMPTY,
    ),
    "run_analyzer_loop_block_U": (
        "run analyzer_loop --setting mask=block_U",
        "0159e11f70fd1289fb9ad7c2f41a1fdcc44627787335c0c7777868a72faf9e36",
        EMPTY,
    ),
    "run_sg_loop_open": (
        "run sg_loop --setting mask=open",
        "5e76238b1afdaeb614e663045b0661ea2a2f972c9af3a709d221c5db61c684d0",
        EMPTY,
    ),
    "run_sg_loop_keep_top": (
        "run sg_loop --setting mask=keep_top",
        "19067d380648d743129d4a932db2cfdc527927a7712522cd4dba09370fa12dfb",
        EMPTY,
    ),
    "run_sg_loop_keep_mid": (
        "run sg_loop --setting mask=keep_mid",
        "367010f4bf4ceb5466e5a29cdbe359fb9a4849431d91c918c2c557f40de244bb",
        EMPTY,
    ),
    "run_sg_loop_keep_bot": (
        "run sg_loop --setting mask=keep_bot",
        "4a3125fe6c19918c1a1375fa41cbc0842bc2506e2da0418bd8561bd912e10e62",
        EMPTY,
    ),
    "run_one_photon_eraser_plus45": (
        "run one_photon_eraser --setting eraser=plus45",
        "a8c53c572e2d254fbc7e74c93b46199c80be4ae6e1bc1d903705acfe12dc344e",
        EMPTY,
    ),
    "run_one_photon_eraser_minus45": (
        "run one_photon_eraser --setting eraser=minus45",
        "ccc36f778219969d74a7daa0756c41df4442e38c368eafebe6c9f0070b48ec89",
        EMPTY,
    ),
    "run_one_photon_eraser_absent": (
        "run one_photon_eraser --setting eraser=absent",
        "28075e8055a3f28471e63d22190c39faa4992018de7ed5ebe433af6ffd46f57d",
        EMPTY,
    ),
    "run_walborn_plus45": (
        "run walborn --setting p_pol=plus45",
        "0e3d4c475036b0b21ee6eb79703db4f5c8ce77ecff9b98e1cd6166c5463d4ed3",
        EMPTY,
    ),
    "run_walborn_minus45": (
        "run walborn --setting p_pol=minus45",
        "224275712acac495377740224af948fac9eba4bce0619d63e57c112506c958c6",
        EMPTY,
    ),
    "run_walborn_absent": (
        "run walborn --setting p_pol=absent",
        "b26698435ba6247e0804236a528bb436324a3b1f8aeed28aa58334adadc92ab2",
        EMPTY,
    ),
    "run_walborn_delayed_plus45": (
        "run walborn_delayed --setting p_pol=plus45",
        "5404a5e7cb6656ce59501ff29c7519fa47fec7e7945411bff609bab02b5c83cb",
        EMPTY,
    ),
    "run_walborn_delayed_minus45": (
        "run walborn_delayed --setting p_pol=minus45",
        "c10be432df8e98bbe15d71b63b5f6984bbfefa9866a5864cb1b19e2a899d5de0",
        EMPTY,
    ),
    "run_walborn_delayed_absent": (
        "run walborn_delayed --setting p_pol=absent",
        "b8ebff7a23274bb9d68af3bf3be9f5cc4efca413460ea51ffec37d5eee69ee0d",
        EMPTY,
    ),
    "verify": (
        "verify",
        "18576d175c446d16522168fd1ad5d32ed7115ff56331c74ac0d8dc1d52ae6cd6",
        EMPTY,
    ),
    "sweep_mz_two_bs": (
        "sweep mz_two_bs",
        "15ea83212d3d875bcd093f06da4366b14f4de8ba6f4a12def2bb0451697c1c59",
        EMPTY,
    ),
    "sweep_mz_two_bs_1024": (
        "sweep mz_two_bs --steps 1024 --start 1.2345 --stop 7.517685307179586",
        "cac42b5e634928911ba5eb1282fffc15c64a3add9f5aafdc71b22b42efe70713",
        EMPTY,
    ),
    # cells from -1e-07 through 1.49975978266e-32: exponent forms on both
    # sides of the scaled range, and values that round up to 0.5000000375 and 1
    "sweep_mz_two_bs_decades": (
        "sweep mz_two_bs --start=-1e-07 --stop 6.283185307179586 --steps 9",
        "d0cb66293bc1c33cba683027181c66b1a3b287228a3e2e30dbff36a8152992cf",
        EMPTY,
    ),
    "sweep_mz_one_bs": (
        "sweep mz_one_bs",
        "7d6eab743cd8fa4adae4868b0c4ade586e33c89361383bd3e851ec403b921178",
        EMPTY,
    ),
    "sweep_mz_recombine": (
        "sweep mz_recombine_single_detector",
        "4f0ec33e71db3ab0b4b727aa84722ddac77a08cbfc4b733928eb04f1d3abe48f",
        EMPTY,
    ),
    "sweep_gated": (
        "sweep gated.edl --param theta --stop 6.283185307179586 --steps 17",
        "999c70b76a3a7a390b55c9978b61f356c847162ba44df09aa85a87a02c5d1595",
        EMPTY,
    ),
    "sweep_bases": (
        "sweep bases.edl --start=-0.7 --stop 5.5 --steps 33",
        "380f3809c28b9fc8d110073cabec3c51d78ae2b2946054fdba07a40bd3b2442a",
        EMPTY,
    ),
    "sweep_screen": (
        "sweep fringe.edl --steps 16",
        "bc6c029802ed8daaa5637f10007f7f54eae43c12da7837dfb2b527b9e761982e",
        EMPTY,
    ),
    "sweep_choice_wave": (
        "sweep chosen.edl --param theta --setting plate=wave --steps 25",
        "ad76369d36d61c1d53b425fb2bf5b16f01a614ca6f8ee8b1698227e3a77adcf5",
        EMPTY,
    ),
    "sweep_choice_filter": (
        "sweep chosen.edl --param theta --setting plate=filter --steps 25",
        "38953d123c30627d9c70408bdbfbbdd727f1ea5a3cc0c52b360c53f9441387d2",
        EMPTY,
    ),
    # 40 steps of 4096 amplitudes each
    "sweep_chain12": (
        "sweep chain12_param.edl --param theta --start 0.1 --stop 3 --steps 40",
        "388a57f0ce0102102e66e5174d104c3c9e9343ef54232e28d0ba501dcfbe23b2",
        EMPTY,
    ),
    "run_chain12_csv": (
        "run chain12.edl --format csv",
        "4feb461557ca5467063e0fdfca7e880db7404df42f93990a2d9e6229e4664814",
        EMPTY,
    ),
    # 13 axes: a CSV writer that splits the axes in two splits them unevenly
    "run_chain13_csv": (
        "run chain13.edl --format csv",
        "cd09485c64c7d2c07a899aa49f7697b553966ab470b20b017d203bfe383aedca",
        EMPTY,
    ),
    "run_chain12_json": (
        "run chain12.edl --format json",
        "ff61dd95a8653902c13fe65a2edd2593c8dac3d7551460f49d60edf560c8f28b",
        EMPTY,
    ),
    "run_walborn_absent_csv": (
        "run walborn --setting p_pol=absent --format csv",
        "6d11e97a400cd530479dae1baa29f70703c2a154c30c17e59e6081046a2c637c",
        EMPTY,
    ),
    # stdout is the run_walborn_absent pin; stderr is the screen drawing
    "run_walborn_absent_ascii": (
        "run walborn --setting p_pol=absent --ascii",
        "b26698435ba6247e0804236a528bb436324a3b1f8aeed28aa58334adadc92ab2",
        "d11d05a1ff65aa6d209e29a9699dcb99024e6100c93203ffd4fa49d0efaa92ff",
    ),
    # every branch absorbed: no outcomes and totalMass 0
    "run_all_blocked": (
        "run blocked.edl",
        "f41b5d359660414b092e968aaea6e19cb6bfaa0d4d0a84b0dc5b0031e7b8f4d5",
        EMPTY,
    ),
    "run_all_blocked_csv": (
        "run blocked.edl --format csv",
        "f60f1659046fd5d0d3e28334090491b23d33a3572014851952d6f78a9fdc4341",
        EMPTY,
    ),
}


#: a million shots, written through --out; the event logs were recorded from
#: the one-string writer, which built the whole log as one string before
#: writing it, and the pair CSV from the writer that formatted each block of
#: rows with one ``%`` operation
MILLION_ARGV = "sample walborn_delayed -n 1000000 --setting p_pol=absent --seed 0"
MILLION = {
    "jsonl": ("--format jsonl", "188a8da01d74d8a36d467ab81740ec46e06fbccec9e75d8c8e0c2f66c09fe82d"),
    "csv": ("--format csv", "3507998be8e0294f881a3b888a59e662b1fdef64983f039267f99a8563712b84"),
    "pairs": (
        "--pairs D_s,D_p --offset D_p=1e9",
        "63cc173b3cd6afd939be79b758b93295784e35d666a377332005f866106934d2",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_sample_output_pinned(case, capsys, tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    argv, out_sha, err_sha = CASES[case]
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 0
    assert sha256(captured.out) == out_sha
    assert sha256(captured.err) == err_sha


@pytest.mark.parametrize("case", sorted(MILLION))
def test_million_shots_pinned(case, capsys, tmp_path):
    path = tmp_path / "out"
    flags, sha = MILLION[case]
    assert main(f"{MILLION_ARGV} {flags}".split() + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    assert digest.hexdigest() == sha


def test_pattern_csv_pinned():
    intensities = 10.0 ** np.linspace(-40, 20, 64) * 1.2345678901234567
    intensities[::9] = 0.0
    # the x column of a 64-bin screen over (-0.02, 0.02), as a pattern's
    # to_csv wrote it when a screen's bin count could be set
    x = -0.02 + 0.04 / 64 * (np.arange(64) + 0.5)
    text = "x,intensity\n" + measure._csv_rows(np.column_stack([x, intensities]))
    assert sha256(text) == "4a765c11f4ae48678d7feca1c8a390a4fd0150747334f22aa1406380ed7d64fe"
