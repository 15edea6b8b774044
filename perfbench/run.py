"""qesim benchmark: four CLI workloads, end-to-end metrics, and a traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Each workload runs ``qesim.cli.main(argv)`` in this process, one iteration at
a time, with no extra threads (closed loop, one client).  Every iteration's
outputs are checked; a failed check counts against ``attempted``.  With
``--trace 0`` the end-to-end metrics are reported, their times scaled to a
reference CPU speed by a calibration load timed next to the work (see
``calibration.py``); with ``--trace 1`` the
package's public functions are wrapped in spans (see ``tracer.py``) and the
per-layer metrics are reported instead.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 7
MIN_TIMED = 3  # timed iterations per run, whatever --seconds says
MIN_TRACED = 2  # traced and untraced iterations each, in a --trace 1 run

UNITS = {"ref_wall_s": "s", "ref_items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metric -> which workloads (in wl.NAMES order: eraser_coincidence,
#: eraser_export, dense_chain, catalog_sweep) must show it: "+" nonzero, "0"
#: zero, "." either.  A "+" that reads zero fails the traced run; the self-test
#: also holds the "0"s.  Layer times not listed here are unconstrained.
EXPECT = {
    "events.generate_s": "++00",
    "events.events": "++00",
    "events.absorbed_fraction": "0+00",  # p_pol=absent has no filter
    "events.peak_bytes_per_shot": "++00",
    "events.coincidences_s": "+000",
    "events.pair_yield": "+000",
    "events.histogram_s": "+000",
    "screen.fit_s": "+00+",  # verify's checks fit visibilities too
    "events.serialize_s": "0+00",
    "events.bytes_out": "0+00",
    "circuit.distribution_s": "++++",
    "circuit.outcomes": "++++",
    "measure.validate_s": "++++",
    "elements.apply_op_s": "++++",
    "elements.apply_op_calls": "++++",
    "elements.apply_op_us.small": "++0+",
    "elements.apply_op_us.large": "00+0",
    "qstate.states_built": "++++",
    "qstate.rebase_s": "++++",
    "qstate.validate_s": "++++",
    "circuit.evolve_s": "++++",
    "scenarios.build_s": "++0+",
    "scenarios.build_calls": "++0+",
    "scenarios.check_s": "000+",
    "edl.compile_s": "00+.",  # zero on catalog_sweep until the catalog is built from EDL
    "edl.compile_calls": "00+.",
    "cli.self_s": "++++",
    "trace.overhead_s": "....",
}
COUNT_UNITS = {
    "events.events": "count", "events.absorbed_fraction": "ratio",
    "events.peak_bytes_per_shot": "B", "events.pair_yield": "ratio",
    "events.bytes_out": "B", "circuit.outcomes": "count",
    "elements.apply_op_calls": "count", "elements.apply_op_us.small": "us",
    "elements.apply_op_us.large": "us", "qstate.states_built": "count",
    "scenarios.build_calls": "count", "edl.compile_calls": "count",
}


def load_qesim():
    """Import the package under test from this checkout's ``src``."""
    if not (SRC / "qesim" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no qesim sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qesim
    from qesim import cli

    if Path(qesim.__file__).resolve().parent != SRC / "qesim":
        raise SystemExit(f"perfbench: imported qesim from {qesim.__file__}, not {SRC}")
    return cli


# -- running and checking iterations ------------------------------------------------


def run_iteration(cli, plan: wl.Plan) -> tuple[float, list[wl.Output]]:
    """Run the plan's commands once; return their summed wall time and outputs."""
    wall = 0.0
    outs = []
    for argv in plan.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except SystemExit as e:  # argparse usage errors
                code = e.code if isinstance(e.code, int) else 2
            except Exception:  # noqa: BLE001 - a crash is a failed invocation
                code = -1
                err.write(traceback.format_exc())
            wall += time.perf_counter() - t0
        outs.append(wl.Output(code, out.getvalue(), err.getvalue()))
    return wall, outs


class Checker:
    """Exit codes every time; content checks on the first output of a seed,
    then byte-identity with it on every repeat."""

    def __init__(self, plan: wl.Plan):
        self.plan = plan
        self.reference: str | None = None

    def __call__(self, outs: list[wl.Output]) -> list[str]:
        problems = [f"{' '.join(c[:2])}: exit code {o.code}: {o.stderr[-300:]}"
                    for c, o in zip(self.plan.commands, outs) if o.code != 0]
        h = hashlib.sha256()
        for o in outs:
            h.update(o.stdout.encode())
            h.update(b"\0")
            h.update(o.stderr.encode())
            h.update(b"\0")
        digest = h.hexdigest()
        if problems:
            return problems
        if self.reference is None:
            problems = self.plan.check(outs)
            if not problems:
                self.reference = digest
        elif digest != self.reference:
            problems = ["output differs from the first output of this seed"]
        return problems


def corrupted(outs: list[wl.Output]) -> list[wl.Output]:
    """Drop the last line of the first command's stdout (self-test only)."""
    first = outs[0]
    body = first.stdout.rstrip("\n")
    return [wl.Output(first.code, body[: body.rfind("\n") + 1], first.stderr)] + outs[1:]


def scaled(measured: float, cal_before: float, cal_after: float) -> float:
    """``measured`` seconds at the reference speed, by the calibration loads around it."""
    return measured * calibration.REFERENCE_S / ((cal_before + cal_after) / 2)


def setup_seconds(name: str, seed: int, workdir: str, size: str) -> tuple[float, float]:
    """Median time of fresh interpreters that import qesim.cli and make the
    inputs: scaled to the reference speed, and as measured."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import qesim.cli, workloads; "
            "workloads.prepare(sys.argv[3], int(sys.argv[4]), sys.argv[5], sys.argv[6])")
    argv = [sys.executable, "-c", code, str(SRC), str(BENCH_DIR), name, str(seed), workdir, size]
    times, ref_times = [], []
    cal = calibration.seconds()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        cal_before, cal = cal, calibration.seconds()
        ref_times.append(scaled(times[-1], cal_before, cal))
    return statistics.median(ref_times), statistics.median(times)


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            corrupt: frozenset = frozenset()) -> tuple[dict, dict]:
    """One benchmark run; returns the result object printed as the last line,
    and the unscaled times of a ``--trace 0`` run for the text summary."""
    cli = load_qesim()
    workdir = str(BENCH_DIR / "_work" / str(os.getpid()))
    try:
        plan = wl.prepare(name, seed, workdir, size)
        setup, raw_setup = (None, None) if trace else setup_seconds(name, seed, workdir, size)
        checker = Checker(plan)
        tracer = tr.Tracer() if trace else None
        attempted = failed = 0
        walls = {True: [], False: []}  # traced?, wall seconds
        ref_walls = []  # scaled to the reference speed; --trace 0 only
        cals = []  # calibration seconds after each iteration; --trace 0 only
        summaries = []
        warmup = None
        items = None
        deadline = None
        i = 0
        while deadline is None or time.perf_counter() < deadline \
                or len(walls[False]) < (MIN_TRACED if trace else MIN_TIMED) \
                or (trace and len(walls[True]) < MIN_TRACED):
            traced = trace and i % 2 == 0  # the warm-up (i = 0) is traced in a trace run
            gc.collect()
            if traced:
                tracer.reset()
                tracer.memory_probe = i == 0
                with tracer.installed():
                    wall, outs = run_iteration(cli, plan)
                summary = tracer.summarize(wall)
            else:
                wall, outs = run_iteration(cli, plan)
            if i in corrupt:
                outs = corrupted(outs)
            problems = checker(outs)
            attempted += 1
            if problems:
                failed += 1
                print(f"perfbench: {name} iteration {i} failed: {'; '.join(problems)}", file=sys.stderr)
            elif items is None:
                items = plan.items(outs)
            if not trace:
                if i == 0:
                    calibration.seconds()  # warms the load up
                cals.append(calibration.seconds())
            if i == 0:
                warmup = summary if trace else None
                deadline = time.perf_counter() + seconds
            else:
                walls[traced].append(wall)
                if traced:
                    summaries.append(summary)
                elif not trace:
                    ref_walls.append(scaled(wall, cals[-2], cals[-1]))
            i += 1

        correct = failed == 0
        if trace:
            metrics = layer_metrics(summaries, warmup, tracer.peak_bytes, walls)
            for problem in unmet(name, metrics, "+"):
                correct = False
                print(f"perfbench: {problem}", file=sys.stderr)
            raw = {}
        else:
            ref_wall_s = statistics.median(ref_walls)
            metrics = {
                "ref_wall_s": ref_wall_s,
                "ref_items_per_s": (items or 0) / ref_wall_s,
                "setup_s": setup,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
            wall_s = statistics.median(walls[False])
            raw = {"wall_s": (wall_s, "s"), "items_per_s": ((items or 0) / wall_s, "1/s"),
                   "unscaled_setup_s": (raw_setup, "s"),
                   "calibration_s": (statistics.median(cals), "s")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(BENCH_DIR / "_work")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, raw


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(summaries: list[dict], warmup: dict, peak_bytes: list[int], walls) -> dict:
    def med(f):
        return median_or_zero([f(s) for s in summaries])

    values = {layer: med(lambda s, l=layer: s["layer_s"][l]) for layer in tr.LAYERS}
    shots = warmup["info"]["shots"] if warmup else 0
    values.update({
        "events.events": med(lambda s: s["info"]["events"]),
        "events.absorbed_fraction": med(
            lambda s: 1 - s["info"]["surviving"] / s["info"]["shots"] if s["info"]["shots"] else 0.0),
        "events.peak_bytes_per_shot": peak_bytes[0] / shots if peak_bytes and shots else 0.0,
        "events.pair_yield": med(
            lambda s: s["info"]["pairs"] / s["info"]["min_events"] if s["info"]["min_events"] else 0.0),
        "events.bytes_out": med(lambda s: s["info"]["bytes"]),
        "circuit.outcomes": med(lambda s: s["info"]["outcomes"]),
        "elements.apply_op_calls": med(lambda s: s["fired"]["elements.apply_op"]),
        "elements.apply_op_us.small": median_or_zero([u for s in summaries for u in s["op_us"]["small"]]),
        "elements.apply_op_us.large": median_or_zero([u for s in summaries for u in s["op_us"]["large"]]),
        "qstate.states_built": med(lambda s: s["fired"]["qstate.StateVector.__post_init__"]),
        "scenarios.build_calls": med(lambda s: s["fired"]["scenarios.build"]),
        "edl.compile_calls": med(lambda s: s["entries"]["edl.compile_s"]),
        "trace.overhead_s": statistics.median(walls[True]) - statistics.median(walls[False]),
    })
    return {k: {"value": float(v), "unit": COUNT_UNITS.get(k, "s")} for k, v in values.items()}


def unmet(name: str, metrics: dict, signs: str) -> list[str]:
    """Per-layer metrics that break the EXPECT table for this workload."""
    col = wl.NAMES.index(name)
    out = []
    for metric, pattern in EXPECT.items():
        want, value = pattern[col], metrics[metric]["value"]
        if want in signs and (value != 0) != (want == "+"):
            out.append(f"{metric} is {value} on {name}, expected {'nonzero' if want == '+' else 'zero'}")
    return out


# -- reporting ------------------------------------------------------------------------


def environment() -> dict:
    """Machine facts recorded with every result."""
    import numpy

    l3 = "unknown"
    with contextlib.suppress(OSError):
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "l3_cache": l3,
        "scope": "only this benchmark's own process and its set-up probe children were "
                 "measured; no system tuning (no CPU pinning, frequency, cache or "
                 "scheduler settings)",
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (checkout has no .git)"


def report(name: str, result: dict, raw: dict) -> None:
    print(json.dumps({"env": environment(), "workload": name}, sort_keys=True))
    for metric, m in sorted(result["metrics"].items()):
        print(f"{name} {metric} {m['value']!r} {m['unit']}")
    for metric, (value, unit) in sorted(raw.items()):
        print(f"{name} {metric} {value!r} {unit} (as measured, not scaled)")
    print(f"{name} error_rate {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']} of {result['attempted']} iterations failed)")
    print(json.dumps(result, sort_keys=True))


# -- self-test ----------------------------------------------------------------------------


def self_test() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if tuple(w["name"] for w in spec["workloads"]) != wl.NAMES:
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for name in wl.NAMES:
            r, _ = measure(name, 1, 0, trace, size="tiny")
            got = {k: m["unit"] for k, m in r["metrics"].items()}
            if got != declared:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(declared))} "
                                f"or their units differ from BENCHMARK.json")
            if not r["correct"] or r["failed"]:
                problems.append(f"{name} trace={trace}: tiny run failed")
            if trace:
                problems += unmet(name, r["metrics"], "+0")
    cli = load_qesim()
    scratch = str(BENCH_DIR / "_work" / "self-test")
    for name in wl.NAMES:
        r, _ = measure(name, 1, 0, False, size="tiny", corrupt=frozenset({0, 2}))
        if r["failed"] != 2 or r["correct"]:
            problems.append(f"{name}: corrupted outputs counted as {r['failed']} failures, expected 2")
        plans = [wl.prepare(name, seed, scratch, "tiny") for seed in (1, 2)]
        outs = [run_iteration(cli, p)[1] for p in plans]
        if plans[0].items(outs[0]) != plans[1].items(outs[1]) or outs[0] == outs[1]:
            problems.append(f"{name}: a second seed must change the outputs but not the work")
    tracer = tr.Tracer()
    with tracer.installed():
        wall, _ = run_iteration(cli, wl.prepare("catalog_sweep", 1, scratch, "tiny"))
    s = tracer.summarize(wall)
    if abs(sum(s["layer_s"].values()) + s["hooks_s"] - wall) > 1e-6 * wall:
        problems.append("layer times do not add up to the traced wall time")
    shutil.rmtree(scratch, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(BENCH_DIR / "_work")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=wl.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", help="tiny pass over every workload and check")
    args = p.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    result, raw = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, result, raw)
    return 0


if __name__ == "__main__":
    sys.exit(main())
