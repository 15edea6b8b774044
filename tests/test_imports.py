"""Every name an import binds is used in its module or listed in its
``__all__``, each ``src/qesim`` module uses no other module's private
names but those listed in ``PRIVATE_USES``, and importing the CLI does no
work that a command would do."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src/qesim", "tests", "scripts", "perfbench") for p in (ROOT / d).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(bound - used)


def test_scan_finds_unused_names():
    assert unused_imports("import itertools\nimport os.path\nos.sep\n") == ["itertools"]
    assert unused_imports("from a import b as c, d\nc()\n") == ["d"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


#: each ``src/qesim`` module's uses of another qesim module's ``_``-prefixed
#: names, as ``module._name``; a module not listed uses none
PRIVATE_USES = {
    "circuit": {"elements._act", "elements._post_select", "qstate._axis", "qstate._one"},
    "elements": {"qstate._axis", "qstate._normalize_rows", "qstate._weight"},
    "cli": {"measure._csv_rows"},
    "events": {"measure._byte_rows", "measure._g12", "measure._int_words", "measure._lines", "measure._rows"},
    "screen": {"measure._csv_rows", "qstate._axis", "qstate._one"},
}


def qesim_module(node: ast.ImportFrom) -> str | None:
    """The qesim module an import reads from: "" for the package itself,
    None for a module outside it."""
    if node.level:
        return node.module or ""
    if node.module == "qesim" or node.module.startswith("qesim."):
        return node.module[len("qesim."):]
    return None


def private_uses(source: str) -> set[str]:
    """``module._name`` for each private name of another qesim module that
    ``source`` imports by name or reads as an attribute of the module."""
    tree = ast.parse(source)
    modules, uses = {}, set()  # modules: local name -> the qesim module it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := qesim_module(node)) is not None:
            for a in node.names:
                if not module:
                    modules[a.asname or a.name] = a.name
                elif a.name.startswith("_"):
                    uses.add(f"{module}.{a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                uses.add(f"{modules[node.value.id]}.{node.attr}")
    return uses


def test_scan_finds_private_uses():
    source = "from . import a as b, c\nfrom .d import _e, f\nfrom qesim.g import _h\nb._i(c.j, c.__doc__)\n"
    assert private_uses(source) == {"a._i", "d._e", "g._h"}
    assert private_uses("from qesim import k\nk._l\nimport m\nm._n\n") == {"k._l"}


@pytest.mark.parametrize("path", sorted((ROOT / "src/qesim").glob("*.py")), ids=lambda p: p.stem)
def test_private_uses_are_the_listed_ones(path):
    assert private_uses(path.read_text(encoding="utf-8")) == PRIVATE_USES.get(path.stem, set())


#: run in a fresh interpreter: what ``import qesim.cli`` loads and computes
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import qesim.cli
from qesim import cli, measure, scenarios
print(json.dumps({
    "modules": sorted(set(sys.modules) - before),
    "cached": {f.__qualname__: f.cache_info().currsize
               for f in (measure._tables, cli.build_parser, scenarios.document)},
}))
"""


def test_importing_the_cli_fills_no_cache_and_loads_only_numpy():
    # work done at import is paid by every process, whatever it then runs
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    probe = json.loads(proc.stdout)
    assert probe["cached"] == {"_tables": 0, "build_parser": 0, "document": 0}
    tops = {name.split(".")[0] for name in probe["modules"]}
    assert {"numpy", "qesim"} <= tops
    assert tops - {"numpy", "qesim"} <= set(sys.stdlib_module_names)
