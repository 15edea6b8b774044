"""Re-run the byte pins under other CPU kernels, and print which pins move.

The probability and amplitude bytes depend on the kernels that OpenBLAS and
numpy pick for the CPU they run on: OpenBLAS' complex kernels (behind
``contract``'s ``@``, ``np.vecdot`` and ``np.linalg.norm``) and numpy's SIMD
loops for complex multiply and ``abs`` round differently in the last bits.
Both libraries let a process ask for an older kernel through environment
variables, so one machine can show what another CPU would compute.  For each
row of ``SETTINGS`` this runs the pin files in a child process with that
row's variables set (the parent's environment is left as it is), then prints
how many pin tests pass and fail under each setting, and every pin that fails
under some setting with the settings it fails under.

    python tests/kernels.py              # every setting
    python tests/kernels.py NAME ...     # the named settings

A forced kernel must be one this CPU can run: a newer one than the CPU has
crashes the child or is refused, and its row then says so.  The exit status
is 1 if a setting could not run, else 0.  The file's name does not match
``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the test files that pin output bytes or SHA-256 digests of output
PIN_FILES = (
    "tests/test_check_values_pin.py",
    "tests/test_evolve_pin.py",
    "tests/test_sample_pin.py",
    "tests/test_screen_pin.py",
    "tests/test_kim_eraser.py",
    "tests/test_scripts.py",
)

#: name -> (what it stands for, the variables the child process gets)
SETTINGS = {
    "default": ("the kernels this CPU picks", {}),
    "avx2": ("an AVX2 host: OpenBLAS Haswell, numpy up to X86_V3", {
        "OPENBLAS_CORETYPE": "Haswell",
        "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR",
    }),
    "x86_v2": ("OpenBLAS Haswell, numpy's baseline X86_V2 loops only", {
        "OPENBLAS_CORETYPE": "Haswell",
        "NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR",
    }),
    "prescott": ("OpenBLAS Prescott (SSE3), numpy's baseline X86_V2 loops only", {
        "OPENBLAS_CORETYPE": "Prescott",
        "NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR",
    }),
}


def run(variables: dict[str, str]) -> tuple[dict[str, bool] | None, str]:
    """Each pin test's node id -> whether it passed, with ``variables`` set
    in the child; None and the child's output if pytest did not finish."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.xml"
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"), f"--junitxml={report}",
                *(str(ROOT / f) for f in PIN_FILES)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", **variables)
        # run in the temporary directory, so that Hypothesis keeps no examples
        done = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True)
        if done.returncode not in (0, 1) or not report.exists():
            return None, done.stdout + done.stderr
        results = {}
        for case in ET.parse(report).iter("testcase"):
            path = case.get("classname", "").replace(".", "/")
            node = f"{path}.py::{case.get('name')}"
            results[node] = not any(child.tag in ("failure", "error") for child in case)
        return results, ""


def main(names: list[str]) -> int:
    unknown = set(names) - SETTINGS.keys()
    if unknown:
        raise SystemExit(f"no setting named {', '.join(sorted(unknown))}; the settings: {', '.join(SETTINGS)}")
    chosen = [n for n in SETTINGS if not names or n in names]
    failures: dict[str, list[str]] = {}
    status = 0
    print(f"{'setting':<10} {'passed':>6} {'failed':>6}  kernels")
    for name in chosen:
        about, variables = SETTINGS[name]
        results, output = run(variables)
        if results is None:
            status = 1
            print(f"{name:<10} {'-':>6} {'-':>6}  {about}: could not run")
            print("    " + "\n    ".join(output.strip().splitlines()[-5:]))
            continue
        failed = [node for node, ok in results.items() if not ok]
        print(f"{name:<10} {len(results) - len(failed):>6} {len(failed):>6}  {about}", flush=True)
        for node in failed:
            failures.setdefault(node, []).append(name)
    print("\npins that move:" if failures else "\nno pin moves")
    for node, where in sorted(failures.items()):
        print(f"  {node}  ({', '.join(where)})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
