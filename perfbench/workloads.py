"""The four benchmark workloads: their CLI commands, generated inputs and output checks.

Each workload is one *iteration*: a fixed list of ``qesim`` command lines run
in-process through ``qesim.cli.main``.  The workload seed changes the values
the commands see (sampling seed, QWP angles, sweep phase offset) but never the
amount of work.  ``check`` validates one iteration's captured outputs and
returns a list of problems (empty when the outputs are correct).

This module imports nothing from ``qesim`` so that the set-up probe can time a
fresh ``import qesim.cli`` on its own.
"""

from __future__ import annotations

import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

NAMES = ("eraser_coincidence", "eraser_export", "dense_chain", "catalog_sweep")

#: Problem sizes.  "full" is what the benchmark measures (every shot count
#: stays >= 1e5); "tiny" is the self-test's quick pass over the same code.
SIZES = {
    "full": {"coincidence_shots": 100_000, "export_shots": 100_000, "chain_dofs": 16, "sweep_steps": 1024},
    "tiny": {"coincidence_shots": 3_000, "export_shots": 3_000, "chain_dofs": 12, "sweep_steps": 16},
}

#: Bins of the default screen geometry; one CSV row each in the --given histogram.
SCREEN_BINS = 256


@dataclass(frozen=True)
class Output:
    """What one command printed and returned."""

    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Plan:
    """One workload, ready to run: commands per iteration, checks, work done."""

    commands: tuple[tuple[str, ...], ...]
    check: Callable[[list[Output]], list[str]]
    items: Callable[[list[Output]], int]


# -- eraser_coincidence -----------------------------------------------------------

_PAIRS_LINE = re.compile(r"^(\d+) pairs, fitted visibility (-?[0-9.]+)\n$")


def _eraser_coincidence(seed: int, size: dict, workdir: str) -> Plan:
    shots = size["coincidence_shots"]
    cmd = (
        "sample", "walborn_delayed", "--setting", "p_pol=absent",
        "--pairs", "D_s,D_p", "--offset", "D_p=1e9", "--given", "+",
        "-n", str(shots), "--seed", str(seed),
    )

    def check(outs: list[Output]) -> list[str]:
        (out,) = outs
        problems = []
        m = _PAIRS_LINE.match(out.stderr)
        if m is None:
            return [f"unexpected stderr {out.stderr[:200]!r}"]
        # p_pol=absent has no filter, so every shot yields one pair
        if int(m.group(1)) != shots:
            problems.append(f"{m.group(1)} pairs, expected {shots}")
        if not float(m.group(2)) > 0.9:
            problems.append(f"fitted visibility {m.group(2)} <= 0.9")
        lines = out.stdout.splitlines()
        if not lines or lines[0] != "x,intensity" or len(lines) != SCREEN_BINS + 1:
            problems.append(f"histogram has {len(lines)} lines, expected header + {SCREEN_BINS}")
        return problems

    return Plan((cmd,), check, lambda outs: shots)


# -- eraser_export ----------------------------------------------------------------

_SHOT = re.compile(r'"shot":(\d+),')


def _eraser_export(seed: int, size: dict, workdir: str) -> Plan:
    shots = size["export_shots"]
    cmd = (
        "sample", "walborn_delayed", "--setting", "p_pol=plus45",
        "--format", "jsonl", "-n", str(shots), "--seed", str(seed),
    )

    def check(outs: list[Output]) -> list[str]:
        (out,) = outs
        text = out.stdout
        surviving = len(set(_SHOT.findall(text)))
        lines = text.count("\n")
        problems = []
        if lines != 2 * surviving:
            problems.append(f"{lines} JSONL lines for {surviving} surviving shots")
        for det in ("D_s", "D_p"):
            n = text.count(f'"det":"{det}"')
            if n != surviving:
                problems.append(f"{n} {det} events for {surviving} surviving shots")
        # the +45 polarizer passes half the shots: allow six binomial sigmas
        if abs(surviving - shots / 2) > 6 * math.sqrt(shots / 4):
            problems.append(f"{surviving} of {shots} shots survived, expected about half")
        return problems

    return Plan((cmd,), check, lambda outs: shots)


# -- dense_chain ------------------------------------------------------------------


def dense_chain_edl(n: int, seed: int) -> str:
    """n two-level dofs, a beam splitter on each, a seed-drawn QWP on each dof
    after the first (conditioned on its predecessor), and one pm45 detector."""
    rng = random.Random(seed)
    lines = ["EXPERIMENT dense_chain", ""]
    lines += [f"DOF q{i} : a b" for i in range(n)]
    lines += ["", "SOURCE 1+0i |" + ", ".join(f"q{i}=a" for i in range(n)) + ">", ""]
    lines += [f"STAGE bs{i} : bs q{i} a b" for i in range(n)]
    lines += [
        f"STAGE qwp{i} : qwp q{i} {rng.uniform(0.0, 180.0):.6f} when q{i - 1}=a"
        for i in range(1, n)
    ]
    lines.append("DETECT D : " + ", ".join(f"q{i} basis=pm45" for i in range(n)))
    return "\n".join(lines) + "\n"


def _dense_chain(seed: int, size: dict, workdir: str) -> Plan:
    n = size["chain_dofs"]
    path = os.path.join(workdir, f"dense_chain_{n}_{seed}.edl")
    with open(path, "w", encoding="utf-8") as f:
        f.write(dense_chain_edl(n, seed))
    outcomes = 2 ** n

    def check(outs: list[Output]) -> list[str]:
        (out,) = outs
        lines = out.stdout.splitlines()
        header = ",".join(f"q{i}" for i in range(n)) + ",p"
        if not lines or lines[0] != header:
            return [f"unexpected CSV header {lines[:1]!r}"]
        rows = lines[1:]
        problems = []
        if len(rows) != outcomes:
            problems.append(f"{len(rows)} outcome rows, expected {outcomes}")
        total = math.fsum(float(r.rsplit(",", 1)[1]) for r in rows)
        if abs(total - 1.0) > 1e-9:
            problems.append(f"probabilities sum to {total!r}")
        return problems

    return Plan((("run", path, "--format", "csv"),), check, lambda outs: outcomes)


# -- catalog_sweep ----------------------------------------------------------------


def _catalog_sweep(seed: int, size: dict, workdir: str) -> Plan:
    steps = size["sweep_steps"]
    start = random.Random(seed).uniform(0.0, 2 * math.pi)
    stop = start + 2 * math.pi
    sweep = (
        "sweep", "mz_two_bs", "--steps", str(steps),
        "--start", repr(start), "--stop", repr(stop),
    )

    def check(outs: list[Output]) -> list[str]:
        verify, swept = outs
        problems = []
        vlines = verify.stdout.splitlines()
        if not vlines or vlines[-1] != "OK: 0 failing check(s)":
            problems.append(f"verify ended {vlines[-1:]!r}")
        if any(not line.startswith("PASS ") for line in vlines[:-1]):
            problems.append("verify printed a non-PASS line")
        lines = swept.stdout.splitlines()
        if not lines or lines[0] != "phi,P(r),P(t)":
            return problems + [f"unexpected sweep header {lines[:1]!r}"]
        rows = lines[1:]
        if len(rows) != steps:
            problems.append(f"{len(rows)} sweep rows, expected {steps}")
        for row in rows:
            phi, p_r, p_t = (float(v) for v in row.split(","))
            # two splitters send P(r) = cos^2(phi/2); 12 printed digits
            if abs(p_r + p_t - 1.0) > 1e-9 or abs(p_r - math.cos(phi / 2) ** 2) > 1e-9:
                problems.append(f"sweep row {row!r} off cos^2(phi/2)")
                break
        return problems

    def items(outs: list[Output]) -> int:
        return steps + outs[0].stdout.count("PASS ")

    return Plan((("verify",), sweep), check, items)


_PLAN_MAKERS = {
    "eraser_coincidence": _eraser_coincidence,
    "eraser_export": _eraser_export,
    "dense_chain": _dense_chain,
    "catalog_sweep": _catalog_sweep,
}


def prepare(name: str, seed: int, workdir: str, size: str = "full") -> Plan:
    """Make the workload's inputs from the seed (files go under ``workdir``)."""
    os.makedirs(workdir, exist_ok=True)
    return _PLAN_MAKERS[name](seed, SIZES[size], workdir)
