"""Command-line interface.

Subcommands::

    qesim run TARGET      evaluate detector probabilities for one setting
    qesim verify [NAME]   run every scenario's expected-property checks
    qesim sweep TARGET    sweep a declared PARAM (radians), CSV to stdout
    qesim sample TARGET   sample timestamped events; optional coincidences

TARGET is either a catalog scenario name, which stands for its golden
``.edl`` file, or a path to an ``.edl`` file.
Exit codes: 0 success, 1 failed checks, domain errors (an invalid circuit,
settings or file) or a reader that closed stdout early, 2 usage errors.
The seed (a non-negative integer) defaults to ``$QESIM_SEED``, then 0.
Outputs have fixed bytes for fixed inputs and seed under one CPU's kernels;
under another's, probabilities can move in the last bits (tests/kernels.py).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from itertools import chain, product

import numpy as np

from . import edl, events, scenarios
from .circuit import ContractError, joint_distribution, joint_probs, validate_settings
from .measure import ConditioningError, _csv_rows, marginal
from .qstate import CompositionError, ValidationError
from .screen import BINS, fringe_visibility

USAGE_ERROR = 2
CHECK_ERROR = 1


class CliError(Exception):
    def __init__(self, message: str, code: int = CHECK_ERROR):
        super().__init__(message)
        self.code = code


def _seed(args) -> int:
    """``--seed``, else ``QESIM_SEED``, else 0; a non-negative integer."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        text = os.environ.get("QESIM_SEED", "0")
        try:
            seed, source = int(text), "QESIM_SEED"
        except ValueError:
            raise CliError(f"QESIM_SEED must be an integer, not {text!r}", USAGE_ERROR) from None
    if seed < 0:
        raise CliError(f"{source} must be a non-negative integer, not {seed}", USAGE_ERROR)
    return seed


def _parse_kv(pairs: list[str], what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in pairs:
        if "=" not in item:
            raise CliError(f"bad {what} {item!r} (expected name=value)", USAGE_ERROR)
        k, v = item.split("=", 1)
        if k in out:
            raise CliError(f"{what} {k!r} given twice", USAGE_ERROR)
        out[k] = v
    return out


def _check_detectors(names, flag: str, active: list[str]) -> None:
    for name in names:
        if name not in active:
            raise CliError(
                f"unknown detector {name!r} in {flag}; active detectors: {', '.join(active)}",
                USAGE_ERROR,
            )


def _parse_delays(pairs: list[str], flag: str, active: list[str]) -> dict[str, float]:
    """``DET=NS`` items of ``flag``: finite nanoseconds for active detectors."""
    out: dict[str, float] = {}
    for k, v in _parse_kv(pairs, flag).items():
        try:
            value = float(v)
        except ValueError:
            value = math.nan  # rejected below, with inf and nan
        if not math.isfinite(value):
            raise CliError(f"bad {flag} value {v!r} for {k!r}", USAGE_ERROR)
        out[k] = value
    _check_detectors(out, flag, active)
    return out


def _load_target(target: str) -> edl.Template:
    """Resolve a scenario name or .edl path to its template, compiled once.  A
    scenario name stands for its golden file, parsed once per process and
    compiled by ``scenarios.build``."""
    if target in scenarios.list_names():
        return scenarios.build(target).template
    if not (target.endswith(".edl") or os.path.sep in target):
        raise CliError(
            f"unknown target {target!r}; scenario names: {', '.join(scenarios.list_names())}",
            USAGE_ERROR,
        )
    if not os.path.exists(target):
        raise CliError(f"no such file: {target}", USAGE_ERROR)
    return edl.build_template(edl.load_document(target))


def _emit(pieces, out_path: str | None) -> None:
    """Write the text pieces in order, each as soon as it is made."""
    if out_path is None:
        # a write that a closing reader cuts short returns a short count from the
        # bytes layer, which the text layer drops: write the rest again, which raises
        out = getattr(sys.stdout, "buffer", sys.stdout)  # an io.StringIO has no bytes layer
        try:
            sys.stdout.flush()
            for piece in pieces:
                data = piece if out is sys.stdout else piece.encode(sys.stdout.encoding, sys.stdout.errors)
                while data:
                    data = data[out.write(data):]
            sys.stdout.flush()
        except BrokenPipeError:  # stop quietly; what is left goes to devnull at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(CHECK_ERROR) from None
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as f:
            f.writelines(pieces)


def _ascii_pattern(values) -> str:
    peak = max(values) or 1.0
    lines = []
    for v in values:
        n = int(round(60 * v / peak))
        lines.append("#" * n)
    return "\n".join(lines) + "\n"


# -- run ------------------------------------------------------------------------


def cmd_run(args) -> int:
    circuit = _load_target(args.target).circuit
    settings = _parse_kv(args.setting, "--setting")
    dist = joint_distribution(circuit, settings)
    if args.format == "json":
        doc = {"target": args.target, "settings": settings, **dist.to_json_dict()}
        _emit([json.dumps(doc, indent=2, sort_keys=True) + "\n"], args.out)
    else:
        _emit(events.blocks(dist.to_csv, dist.probs.size), args.out)
    if args.ascii:
        for spec in circuit.detectors(settings):
            if spec.screen_of is not None:
                vals = (
                    marginal(dist, [spec.name]).probs.tolist()
                    if dist.probs.size
                    else [0.0] * BINS
                )
                sys.stderr.write(f"-- {spec.name} --\n" + _ascii_pattern(vals))
    return 0


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    names = args.names or scenarios.list_names()
    for name in names:
        if name not in scenarios.list_names() and (name.endswith(".edl") or os.path.isfile(name)):
            raise CliError(f"verify takes catalog scenario names, not the file {name!r}:"
                           " checks declared in .edl files are not supported yet", USAGE_ERROR)
    failures = 0
    for name in names:
        try:
            sc = scenarios.build(name)
        except scenarios.CatalogError as e:
            raise CliError(str(e), USAGE_ERROR) from None
        for chk in sc.expectations:
            value, ok = chk.run()
            status = "PASS" if ok else "FAIL"
            print(f"{status} {chk.name}: measured {value:.3e} (tol {chk.tol:g})")
            failures += 0 if ok else 1
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s)")
    return 0 if failures == 0 else CHECK_ERROR


# -- sweep ----------------------------------------------------------------------


def cmd_sweep(args) -> int:
    for flag, value in (("--start", args.start), ("--stop", args.stop)):
        if not math.isfinite(value):
            raise CliError(f"{flag} must be finite, not {value!r}", USAGE_ERROR)
    if args.steps < 1:
        raise CliError("--steps must be >= 1", USAGE_ERROR)
    span = args.stop - args.start
    values = [args.start + span * i / max(args.steps - 1, 1) for i in range(args.steps)]
    if not all(map(math.isfinite, values)):
        raise CliError("--start and --stop are too far apart: a step overflows", USAGE_ERROR)
    template = _load_target(args.target)
    declared = [name for name, _ in template.doc.params]
    if args.param not in declared:
        raise CliError(
            f"experiment {template.doc.name!r} declares no PARAM {args.param!r}"
            f" (declared: {', '.join(declared) or 'none'})",
            USAGE_ERROR,
        )
    settings = _parse_kv(args.setting, "--setting")
    # every step in one batched evolution, with the bytes of one compile and
    # joint_distribution per step; an all-blocked step's probabilities are 0
    keys, probs = [], []
    for _axes, labels, p, _masses, blocked in joint_probs(
        template.circuit, len(values), template.rows(args.param, values), settings
    ):
        probs.append(p.reshape(len(p), -1))
        if not keys and not all(blocked):
            keys = list(product(*labels))
    # the outcome columns, sorted, as flat indices into each step's probs
    flat = sorted(range(len(keys)), key=keys.__getitem__)
    header = ",".join([args.param] + ["P(" + "|".join(keys[i]) + ")" for i in flat]) + "\n"
    cells = np.column_stack([values, np.concatenate(probs)[:, flat]])
    _emit(chain([header], events.blocks(lambda lo, hi: _csv_rows(cells[lo:hi]), len(cells))), args.out)
    return 0


# -- sample ---------------------------------------------------------------------


def cmd_sample(args) -> int:
    if args.shots < 0:
        raise CliError("--shots must be >= 0", USAGE_ERROR)
    circuit = _load_target(args.target).circuit
    settings = _parse_kv(args.setting, "--setting")
    seed = _seed(args)
    validate_settings(circuit, settings)
    specs = {s.name: s for s in circuit.detectors(settings)}
    active = list(specs)
    delays = _parse_delays(args.delay, "--delay", active)
    offsets = _parse_delays(args.offset, "--offset", active)
    if args.pairs is None:
        for flag, used in (("--given", args.given is not None), ("--offset", bool(args.offset)),
                           ("--window", args.window is not None)):
            if used:
                raise CliError(f"{flag} needs --pairs", USAGE_ERROR)
    window = events.DEFAULT_WINDOW_NS if args.window is None else args.window
    if not window >= 0:
        raise CliError("--window must be >= 0", USAGE_ERROR)
    if args.pairs is not None:
        if "," not in args.pairs:
            raise CliError("--pairs needs two detector names: A,B", USAGE_ERROR)
        det_a, det_b = (s.strip() for s in args.pairs.split(",", 1))
        _check_detectors((det_a, det_b), "--pairs", active)
        if det_a == det_b:
            raise CliError(f"--pairs needs two different detectors, got {det_a!r} twice", USAGE_ERROR)
        if args.given is not None and specs[det_a].screen_of is None:
            raise CliError(f"--given needs a screen detector as A; {det_a!r} is not a screen", USAGE_ERROR)
        if args.format is not None:
            raise CliError("--format is for the event log; --pairs writes CSV", USAGE_ERROR)
    log = events.generate_events(
        circuit, settings, shots=args.shots, seed=seed, delays=delays
    )

    if args.pairs is None:
        write = log.to_csv if args.format == "csv" else log.to_jsonl
        _emit(events.blocks(write, len(log)), args.out)
        return 0

    pairs = events.coincidences(log, det_a, det_b, window=window, offsets=offsets)
    if args.given is not None:
        given = tuple(args.given.split("|"))
        outcomes = [outcome for det, outcome in log.labels if det == det_b]
        if given not in outcomes:
            raise CliError(
                f"--given {args.given!r} is no outcome of {det_b};"
                f" its outcomes: {', '.join('|'.join(o) for o in outcomes)}",
                USAGE_ERROR,
            )
        pat = events.conditioned_histogram(pairs, given)
        _emit([pat.to_csv()], args.out)
        sys.stderr.write(
            f"{len(pairs)} pairs, fitted visibility {fringe_visibility(pat):.4f}\n"
        )
    else:
        _emit(events.blocks(pairs.to_csv, len(pairs)), args.out)
    return 0


# -- entry point ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qesim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--setting", action="append", default=[], metavar="NAME=ALT")
        sp.add_argument("--out", default=None, metavar="PATH")

    sp = sub.add_parser("run", help="detector probabilities for one setting")
    sp.add_argument("target")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--ascii", action="store_true", help="render screen patterns to stderr")
    common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("verify", help="run scenario expectation checks")
    sp.add_argument("names", nargs="*")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sweep", help="sweep a declared PARAM (radians), CSV output")
    sp.add_argument("target")
    sp.add_argument("--param", default="phi")
    sp.add_argument("--start", type=float, default=0.0)
    sp.add_argument("--stop", type=float, default=6.283185307179586)
    sp.add_argument("--steps", type=int, default=64)
    common(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("sample", help="sample events; optional coincidence pairs")
    sp.add_argument("target")
    sp.add_argument("--format", choices=("jsonl", "csv"), default=None,
                    help="event log format (default jsonl); not with --pairs")
    sp.add_argument("--delay", action="append", default=[], metavar="DET=NS")
    sp.add_argument("--window", type=float, default=None, metavar="NS",
                    help=f"with --pairs (default {events.DEFAULT_WINDOW_NS:g})")
    sp.add_argument("--pairs", default=None, metavar="DET_A,DET_B")
    sp.add_argument("--offset", action="append", default=[], metavar="DET=NS")
    sp.add_argument("--given", default=None, metavar="OUTCOME",
                    help="with --pairs: histogram A outcomes where B matches")
    common(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("-n", "--shots", type=int, default=10000)
    sp.set_defaults(fn=cmd_sample)
    # read -1e-3 as a number, not an option, as newer versions of argparse do
    for sp in sub.choices.values():
        sp._negative_number_matcher = re.compile(r"-\.?\d")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"qesim: {e}", file=sys.stderr)
        return e.code
    except (ValidationError, CompositionError, ConditioningError, ContractError, OSError) as e:
        print(f"qesim: {e}", file=sys.stderr)
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
