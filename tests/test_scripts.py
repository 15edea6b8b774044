"""The demo scripts run to completion and print pinned output.

Each script runs as ``__main__`` with no arguments, so it takes its defaults;
the SHA-256 of its stdout was recorded from the sampler that searched the
whole CDF for every shot and ordered rows by a lexsort, before shots were
drawn from a table of CDF cells.  ``walborn_demo.py`` samples and pairs
through ``events.generate_events``.
"""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

STDOUT_SHA = {
    "eraser_demo.py": "c8c15445459ae9c5e3ec3fe1a9325d08a6e27dbd3a73cc7e7ae15f803122ad22",
    "mz_sweep.py": "15ea83212d3d875bcd093f06da4366b14f4de8ba6f4a12def2bb0451697c1c59",
    "walborn_demo.py": "6b70ce3795775e332feb8bf851c43e8cf625507324567cd744ab6d1d8af42e5b",
}


def test_every_script_is_pinned():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(STDOUT_SHA)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA))
def test_script_output_pinned(name, capsys, monkeypatch):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path)])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert exit_.value.code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA[name]
