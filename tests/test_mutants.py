"""Every row of ``tests/mutants.py`` still applies: its text occurs exactly
once in its file, and each test it names exists.  The mutants themselves run
on demand (``python tests/mutants.py``), not here."""

import ast

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_once(mutant):
    assert mutant.file.startswith("src/")
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    for node in mutant.tests:
        path, name = node.split("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        assert name in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
