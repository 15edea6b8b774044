"""Every span name that ``perfbench/tracer.py`` lists names a ``qesim``
attribute, but the stale ones of ``STALE``.

The tracer wraps what it finds by walking the package, and looks the names
of ``LAYER_OF``, ``HOOKS``, ``ACCESSORS`` and ``MEMORY_PROBED`` up in that
walk; a listed name that no longer resolves is silently never timed, hooked
or kept out of the layer times.  ``STALE`` lists the names that no longer
resolve and wait for the next benchmark change to drop them, which needs no
edit here; no other name may stop resolving.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PY = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

STALE = frozenset({
    "edl.load_circuit",
    "events.DetectionEvent.to_json_dict",
    "screen.SlitGeometry.bin_label",
    "qstate.StateVector.amplitude",
    "qstate.StateVector.axis",
    "qstate.StateVector.dof",
    "qstate.StateVector.same_space",
})


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(name: str) -> bool:
    """Whether ``module.attr[.attr]`` names an attribute of ``qesim.module``."""
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"qesim.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_span_names_resolve_but_the_stale_ones():
    tracer = load_tracer()
    names = {*tracer.LAYER_OF, *tracer.HOOKS, *tracer.ACCESSORS, tracer.MEMORY_PROBED}
    assert {name for name in names if not resolves(name)} <= STALE


def test_resolves_reads_attribute_chains():
    assert resolves("events.EventLog.to_csv")
    assert not resolves("events.EventLog.no_such_method")
    assert not resolves("screen.no_such_function")
