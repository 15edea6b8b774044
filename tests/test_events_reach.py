"""Which code of ``qesim.events`` the ``sample`` command reaches.

Every catalog circuit under every setting is sampled through the CLI, as
JSONL and as CSV, and, where two or more detectors are active, paired with
the default window, with a window of two shot periods (the sequential
fall-back) and with ``--given``.  The functions, methods and property
getters of ``qesim.events`` that none of these runs enters must be exactly
``NEVER_ENTERED``: a path that only tests reach, grown back, fails here.
"""

import inspect
import sys
from functools import cached_property

from qesim import events, scenarios
from qesim.circuit import joint_distribution
from qesim.cli import main
from qesim.measure import marginal
from test_edl import all_settings

#: the time-ordered column view and the event objects built from it, which
#: only tests and the benchmark's hooks read
NEVER_ENTERED = frozenset({
    "EventLog.shot", "EventLog.time", "EventLog.label", "EventLog._columns", "EventLog.events",
    "DetectionEvent.__init__", "DetectionEvent.__repr__", "DetectionEvent.__eq__",
    "DetectionEvent.__hash__", "DetectionEvent.__setattr__", "DetectionEvent.__delattr__",
})


def own_code():
    """Name -> code object of each function, method and property getter of
    ``qesim.events``, the methods that ``dataclass`` writes for its classes
    included."""
    code = {}

    def add(name, fn):
        fn = getattr(fn, "__func__", fn)
        if inspect.isfunction(fn) and fn.__module__ == events.__name__:
            code[name] = inspect.unwrap(fn).__code__

    for name, obj in vars(events).items():
        add(name, obj)
        if inspect.isclass(obj) and obj.__module__ == events.__name__:
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, cached_property):
                    member = member.func
                add(f"{name}.{attr}", member)
    return code


def sample_runs():
    """The argument lists of every ``sample`` run."""
    for name in scenarios.list_names():
        circuit = scenarios.build(name).circuit
        for chosen in all_settings(circuit):
            base = ["sample", name, "-n", "50", *(f"--setting={k}={v}" for k, v in chosen.items())]
            yield base
            yield base + ["--format", "csv"]
            specs = circuit.detectors(chosen)
            if len(specs) < 2:
                continue
            a = next((s for s in specs if s.screen_of is not None), specs[0])
            b = next(s for s in specs if s is not a)
            pairs = base + ["--pairs", f"{a.name},{b.name}"]
            yield pairs
            yield pairs + ["--window", repr(2 * events.PERIOD_NS)]
            if a.screen_of is not None:
                outcomes = marginal(joint_distribution(circuit, chosen), b.axis_names()).outcomes
                offsets = [f"--offset={s.name}={s.time_offset!r}" for s in specs]
                yield pairs + offsets + ["--given", "|".join(max(outcomes, key=outcomes.get))]


def test_sample_reaches_all_but_the_column_view(capsys):
    runs = list(sample_runs())
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    assert sum("--given" in argv for argv in runs) == sum("--window" in argv for argv in runs) >= 2
    assert {name for name, code in own_code().items() if code not in entered} == NEVER_ENTERED
