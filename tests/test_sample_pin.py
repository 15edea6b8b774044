"""Byte pins of ``qesim sample`` output.

Each case runs the CLI in-process with a fixed seed and compares SHA-256
hashes of stdout and stderr with values recorded from the object-per-event
implementation of ``qesim.events``.  Any change to sampling, event order,
pairing, histogramming or number formatting shows up here.
"""

import hashlib

import pytest

from qesim.cli import main

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
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_sample_output_pinned(case, capsys):
    argv, out_sha, err_sha = CASES[case]
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 0
    assert sha256(captured.out) == out_sha
    assert sha256(captured.err) == err_sha
