"""Acceptance gate: the nine primary behavioral criteria.

Each test prints exactly one PASS/FAIL line (emitted with capture suspended
so it appears even for passing tests) and asserts the criterion at its stated
tolerance.
"""

import glob
import math
import os
import time
from pathlib import Path

import numpy as np

from qesim import edl, elements as el, events, scenarios
from qesim.circuit import compare_marginals, evolve, joint_distribution
from qesim.qstate import global_phase_deviation, is_unitary
from qesim.screen import fringe_visibility
from test_events_oracle import pair_shots

GOLDEN = sorted(
    glob.glob(os.path.join(os.path.dirname(edl.__file__), "golden", "*.edl"))
)


def _report(capsys, n: int, label: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {n} ({label}): {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _run_checks(name, prefixes):
    worst = 0.0
    for chk in scenarios.build(name).expectations:
        if any(p in chk.name for p in prefixes):
            value, ok = chk.run()
            assert ok, f"{chk.name} measured {value:.3e}"
            worst = max(worst, value)
    return worst


def test_criterion_1_analyzer_loop_identity(capsys):
    t0 = time.perf_counter()
    worst = _run_checks("analyzer_loop", ("identity_on_45", "identity_on_random"))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 0.1
    _report(capsys, 1, "analyzer loop identity", ok,
            f"max deviation {worst:.2e} (tol 1e-10), {elapsed * 1e3:.0f} ms")


def test_criterion_2_stern_gerlach_loop(capsys):
    worst_fid = _run_checks("sg_loop", ("identity_on_random_spins",))
    worst_masked = _run_checks("sg_loop", ("masked_gives_eigenstate",))
    ok = worst_fid <= 1e-10 and worst_masked <= 1e-12
    _report(capsys, 2, "Stern-Gerlach loop", ok,
            f"infidelity {worst_fid:.2e} (tol 1e-10), "
            f"masked deviation {worst_masked:.2e} (tol 1e-12)")


def test_criterion_3_mz_algebra(capsys):
    one = _run_checks("mz_one_bs", ("half_half_all_phi",))
    two = _run_checks("mz_two_bs", ("p_d2_cos2_half_phi", "phi0_single_port"))
    rec = _run_checks("mz_recombine_single_detector", ("phi0_detector_prob_1",))
    ok = one <= 1e-12 and two <= 1e-10 and rec <= 1e-12
    _report(capsys, 3, "Mach-Zehnder algebra", ok,
            f"one-BS dev {one:.2e} (tol 1e-12), cos^2 dev {two:.2e} (tol 1e-10), "
            f"recombiner dev {rec:.2e} (tol 1e-12)")


def test_criterion_4_regrouping_identity(capsys):
    worst = _run_checks("mz_two_bs", ("regrouped_amplitudes",))
    _report(capsys, 4, "detector regrouping identity", worst <= 1e-12,
            f"max amplitude deviation {worst:.2e} (tol 1e-12)")


def test_criterion_5_one_photon_eraser(capsys):
    marked = _run_checks("one_photon_eraser", ("marked_pattern_flat",))
    erased = _run_checks("one_photon_eraser", ("erased_visibility_1",))
    summed = _run_checks("one_photon_eraser", ("fringe_plus_antifringe_flat",))
    ok = marked < 1e-9 and erased < 1e-9 and summed <= 1e-10
    _report(capsys, 5, "one-photon eraser", ok,
            f"marked vis {marked:.2e} (< 1e-9), erased vis deficit {erased:.2e} "
            f"(< 1e-9), fringe sum dev {summed:.2e} (tol 1e-10)")


def test_criterion_6_walborn_state(capsys):
    four = _run_checks("walborn", ("four_term_state",))
    pm = _run_checks("walborn", ("pm_basis_rewrite",))
    cond = _run_checks("walborn", ("conditioned_on_p_x",))
    ok = max(four, pm, cond) <= 1e-10
    _report(capsys, 6, "two-photon eraser state", ok,
            f"four-term {four:.2e}, +/- rewrite {pm:.2e}, "
            f"p=x conditional {cond:.2e} (tol 1e-10 each)")


def test_criterion_7_no_retrocausality(capsys):
    tv = 0.0
    tv = max(tv, compare_marginals(scenarios.build("wheeler").circuit, ["slit"], "screen"))
    for name in ("walborn", "walborn_delayed"):
        tv = max(tv, compare_marginals(scenarios.build(name).circuit, ["D_s"], "p_pol"))

    sc = scenarios.build("walborn_delayed")
    logs = [
        events.generate_events(
            sc.circuit, {"p_pol": "absent"}, shots=3000, seed=13, delays=d
        )
        for d in ({}, {"D_p": 1e9}, {"D_p": 3.7e8})
    ]
    seqs = [
        [(e.shot, e.outcome) for e in log.events if e.detector == "D_s"] for log in logs
    ]
    seq_ok = seqs[0] == seqs[1] == seqs[2]
    ok = tv < 1e-10 and seq_ok
    _report(capsys, 7, "no retrocausality", ok,
            f"max marginal TV {tv:.2e} (< 1e-10), "
            f"D_s sequence delay-invariant: {seq_ok}")


def test_criterion_8_delayed_erasure_sampling(capsys):
    t0 = time.perf_counter()
    shots = 100_000
    sc = scenarios.build("walborn_delayed")
    delays = {s.name: s.time_offset for s in sc.circuit.detectors()}
    log = events.generate_events(
        sc.circuit, {"p_pol": "absent"}, shots=shots, seed=20260824,
    )
    pairs = events.coincidences(log, "D_s", "D_p", offsets=delays)
    vis = {
        out: fringe_visibility(events.conditioned_histogram(pairs, (out,)))
        for out in ("+", "-")
    }
    vis_all = fringe_visibility(events.conditioned_histogram(pairs, None))

    dist = joint_distribution(sc.circuit, {"p_pol": "absent"})
    counts: dict[tuple[str, ...], int] = {}
    outcome = {(e.detector, e.shot): e.outcome for e in log.events}
    for sa, sb in pair_shots(pairs):
        key = outcome["D_s", sa] + outcome["D_p", sb]
        counts[key] = counts.get(key, 0) + 1
    sigma_ok = True
    for k, prob in dist.outcomes.items():
        sigma = max(math.sqrt(shots * prob * (1 - prob)), 1.0)
        if abs(counts.get(k, 0) - shots * prob) > 5 * sigma:
            sigma_ok = False
    elapsed = time.perf_counter() - t0
    ok = (
        vis["+"] > 0.9 and vis["-"] > 0.9 and vis_all < 0.1
        and sigma_ok and elapsed < 10.0
    )
    _report(capsys, 8, "delayed-erasure sampling", ok,
            f"vis(+)={vis['+']:.3f}, vis(-)={vis['-']:.3f} (> 0.9), "
            f"unconditioned {vis_all:.3f} (< 0.1), 5-sigma ok: {sigma_ok}, "
            f"{elapsed:.1f} s")


def test_criterion_9_infrastructure(capsys):
    # parser totality over 1e5 random inputs
    rng = np.random.default_rng(424242)
    pool = np.array(list(
        "EXPERIMNTDOFSURCEAGHIM{}|<>=:;#., \n\tabcxyz0123456789+-ié☃"
    ))
    seed_text = Path(GOLDEN[0]).read_text()
    crashes = 0
    for k in range(100_000):
        if k % 2 == 0:
            n = int(rng.integers(0, 60))
            text = "".join(rng.choice(pool, size=n))
        else:
            # mutate a valid document
            chars = list(seed_text)
            for _ in range(int(rng.integers(1, 6))):
                chars[int(rng.integers(0, len(chars)))] = str(rng.choice(pool))
            text = "".join(chars)
        try:
            res = edl.parse(text)
            if res.ok:
                edl.compile_document(res.document)
        except Exception:
            crashes += 1
    fuzz_ok = crashes == 0

    # golden round trip: compile(format(text)) behaves like compile(text)
    rt_dev = 0.0
    for path in GOLDEN:
        text = Path(path).read_text()
        a = edl.compile_text(text).circuit
        b = edl.compile_text(edl.format_text(text)).circuit
        settings_sets = [{}]
        for cn in a.choice_names():
            alts = a.find_choice(cn).alternatives
            settings_sets = [{**s, cn: alt} for s in settings_sets for alt in alts]
        for s in settings_sets:
            sa, sb = evolve(a, dict(s)), evolve(b, dict(s))
            if not sa.blocked[0]:
                rt_dev = max(
                    rt_dev,
                    global_phase_deviation(sa.amps[0], sb.amps[0]),
                    abs(sa.weights[0] - sb.weights[0]),
                )
    rt_ok = rt_dev <= 1e-12

    # sampling reproducibility: same seed, identical bytes
    sc = scenarios.build("walborn")
    la = events.generate_events(sc.circuit, {"p_pol": "absent"}, 500, seed=6)
    lb = events.generate_events(sc.circuit, {"p_pol": "absent"}, 500, seed=6)
    repro_ok = la.to_jsonl() == lb.to_jsonl()

    # every unitary element constructor yields M^dag M = I at 1e-12
    pol = scenarios.build("one_photon_eraser").circuit.dofs[1]
    arm = scenarios.build("mz_two_bs").circuit.dofs[0]
    spin, path3 = scenarios.build("sg_loop").circuit.dofs
    unitaries = [
        el.beam_splitter(arm, "t", "r"),
        el.phase_shifter(arm, "t", 1.234),
        el.analyzer(pol, arm),
        el.inverse_analyzer(pol, arm),
        el.stern_gerlach(spin, path3),
        el.inverse_stern_gerlach(spin, path3),
        el.quarter_wave_plate(pol, 0.4),
        el.recombiner(arm, "t"),
        el.splitter(arm),
    ]
    unitary_ok = all(is_unitary(op.matrix) for op in unitaries)

    ok = fuzz_ok and rt_ok and repro_ok and unitary_ok
    _report(capsys, 9, "infrastructure", ok,
            f"fuzz crashes {crashes}/100000, round-trip dev {rt_dev:.2e} "
            f"(tol 1e-12), sampling reproducible: {repro_ok}, "
            f"unitarity: {unitary_ok}")
