"""Re-run the mutations that prove the oracles' power.

Each row of ``MUTANTS`` names one deliberate fault: a file under ``src/``, an
exact text in it, the text that replaces it, and the tests that must fail
when it does.  For each row this copies ``src/`` to a temporary directory,
makes the one replacement there (the text must occur exactly once), runs the
named tests against the copy, and prints ``killed`` when they fail or
``survived`` when they pass.  The repository itself is never edited.

    python tests/mutants.py            # every row
    python tests/mutants.py NAME ...   # the named rows

It exits with status 1 if any row survived.  ``tests/test_mutants.py`` checks
on every test run that each row's text is still found exactly once, so a
change that moves the text must update its row.  The file's name does not
match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root, under src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "ranks_keys_after_run",  # keys sort after equal run entries, so ties count as side="right"
        "src/qesim/events.py",
        "    order = np.argsort(np.concatenate([keys, run[start:stop]]), kind=\"stable\")\n"
        "    return start + np.flatnonzero(order < len(keys)) - np.arange(len(keys))\n",
        "    order = np.argsort(np.concatenate([run[start:stop], keys]), kind=\"stable\")\n"
        "    return start + np.flatnonzero(order >= stop - start) - np.arange(len(keys))\n",
        ("tests/test_event_merges.py::test_ranks_match_searchsorted",),
    ),
    Mutant(
        "draw_table_sides_swapped",
        "src/qesim/events.py",
        'for side in ("left", "right"))',
        'for side in ("right", "left"))',
        ("tests/test_event_merges.py::test_draw_table_matches_two_searches",),
    ),
    Mutant(
        "g12_carry_byte_dropped",  # the byte carried from the first digit word to the second
        "src/qesim/measure.py",
        "| ((second ^ below) << 8) | (above >> 56) |",
        "| ((second ^ below) << 8) |",
        ("tests/test_number_oracle.py::test_every_layout",),
    ),
    Mutant(
        "g12_chunk_at_start",  # every chunk of cells written over the first cells of the output
        "src/qesim/measure.py",
        "out[at : at + _CHUNK]",
        "out[: min(_CHUNK, len(v) - at)]",
        ("tests/test_number_oracle.py::test_sweep_rows_match_row_template",
         "tests/test_writer_oracle.py::test_log_writers_match_one_string_writers"),
    ),
)


def mutated(mutant: Mutant, src: Path) -> None:
    """Apply ``mutant`` to the copy of ``src/`` at ``src``."""
    path = src / Path(mutant.file).relative_to("src")
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def killed(mutant: Mutant) -> bool:
    """Whether the named tests fail on a mutated copy of ``src/``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        mutated(mutant, src)
        # the ini option pythonpath would put the repository's src/ first; -o points it at the copy
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"), "-o", f"pythonpath={src}",
                *(str(ROOT / node) for node in mutant.tests)]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        # run in the temporary directory, so that Hypothesis keeps no examples from a mutant
        done = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited with {done.returncode}\n{done.stdout}{done.stderr}")
    return done.returncode == 1


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no mutant named {', '.join(sorted(unknown))}")
    survived = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        verdict = "killed" if killed(mutant) else "survived"
        survived += verdict == "survived"
        print(f"{mutant.name}: {verdict}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
