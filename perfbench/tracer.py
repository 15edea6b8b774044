"""Span tracing of ``qesim`` from outside the package.

``Tracer.installed()`` rebinds, for the duration of a ``with`` block, every
public function of every ``qesim`` module under every name it is bound to
(``joint_distribution`` lives in ``circuit`` but is also bound in ``cli`` and
``events``), every public method of the package's public classes, and each
dataclass ``__post_init__`` (the validation run when ``StateVector`` or
``OutcomeDistribution`` is built).  Each call records a span: name, parent
span, start and end.  Nothing under ``src/`` is edited and nothing is traced
once the block exits.

Spans are grouped into layers.  A layer's time is the time spent in its spans
minus the time spent in nested spans of other layers, so the layer times of
an iteration add up to its wall time, less the time of the result hooks,
which counts as tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import tracemalloc
import types
from collections import Counter

#: Span name -> layer.  Every other span joins its parent's layer, except that
#: a span called straight from ``cli`` goes to ``cli.other_calls_s``.
LAYER_OF = {
    "events.generate_events": "events.generate_s",
    "events.coincidences": "events.coincidences_s",
    "events.conditioned_histogram": "events.histogram_s",
    "screen.fringe_visibility": "screen.fit_s",
    "events.EventLog.to_jsonl": "events.serialize_s",
    "events.EventLog.to_csv": "events.serialize_s",
    "circuit.distribution_from_state": "circuit.distribution_s",
    "circuit.evolve": "circuit.evolve_s",
    "measure.OutcomeDistribution.__post_init__": "measure.validate_s",
    "elements.apply_op": "elements.apply_op_s",
    "qstate.StateVector.__post_init__": "qstate.validate_s",
    "qstate.rebase": "qstate.rebase_s",
    "scenarios.build": "scenarios.build_s",
    "scenarios.Check.run": "scenarios.check_s",
    "edl.load_circuit": "edl.compile_s",
    "edl.compile_text": "edl.compile_s",
    "edl.parse": "edl.compile_s",
    "edl.compile_document": "edl.compile_s",
}
CLI_LAYER = "cli.self_s"
OTHER_LAYER = "cli.other_calls_s"
LAYERS = tuple(sorted(set(LAYER_OF.values()))) + (CLI_LAYER, OTHER_LAYER)
MODULES = ("qstate", "elements", "circuit", "measure", "screen", "scenarios", "edl", "events", "cli")

#: O(1) lookups called per element, per label or per event.  Wrapping them
#: would cost more than the work they do, so they stay part of their caller.
ACCESSORS = frozenset({
    "qstate.Dof.index",
    "qstate.StateVector.dof",
    "qstate.StateVector.axis",
    "qstate.StateVector.tensor_view",
    "qstate.StateVector.amplitude",
    "qstate.StateVector.same_space",
    "measure.OutcomeDistribution.prob",
    "measure.OutcomeDistribution.axis",
    "screen.SlitGeometry.bin_label",
    "circuit.DetectorSpec.measured_dofs",
    "circuit.DetectorSpec.axis_names",
    "elements.ElementOp.acts_on",
    "events.DetectionEvent.to_json_dict",
})

#: The span whose allocations tracemalloc measures on a memory probe.
MEMORY_PROBED = "events.generate_events"


def _generated(args, kwargs, log):
    return {"events": len(log.events), "shots": log.shots,
            "surviving": len({e.shot for e in log.events})}


def _paired(args, kwargs, pairs):
    log, det_a, det_b = args[:3]
    per_det = Counter(e.detector for e in log.events)
    return {"pairs": len(pairs), "min_events": min(per_det[det_a], per_det[det_b])}


#: Span name -> hook(args, kwargs, result) giving counts for that span.
#: Hooks run after the span ends; their time is kept out of every layer.
HOOKS = {
    "events.generate_events": _generated,
    "events.coincidences": _paired,
    "events.EventLog.to_jsonl": lambda a, k, text: {"bytes": len(text.encode())},
    "events.EventLog.to_csv": lambda a, k, text: {"bytes": len(text.encode())},
    "circuit.distribution_from_state": lambda a, k, dist: {"outcomes": len(dist.outcomes)},
    "elements.apply_op": lambda a, k, state: {"dim": state.dim},
}

SMALL_DIM, LARGE_DIM = 64, 4096


class Tracer:
    """Collects spans of one iteration at a time; see the module docstring."""

    def __init__(self):
        self.modules = [importlib.import_module(f"qesim.{m}") for m in MODULES]
        self.spans: list[list] = []  # [name, parent index, t0, t1, hook_s, info]
        self.stack = [-1]
        self.memory_probe = False
        self.peak_bytes: list[int] = []

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = HOOKS.get(name)
        probed = name == MEMORY_PROBED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracing_memory = probed and self.memory_probe
            if tracing_memory:
                tracemalloc.start()
            rec = [name, stack[-1], clock(), 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                if tracing_memory:
                    self.peak_bytes.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if hook is not None:
                rec[5] = hook(args, kwargs, result)
                rec[4] = clock() - rec[3]
            return result

        return traced

    def _targets(self):
        """(owner, attribute, original, span name) for everything to wrap."""
        out = []
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not (getattr(obj, "__module__", None) or "").startswith("qesim."):
                    continue
                if isinstance(obj, types.FunctionType) and not obj.__name__.startswith("_"):
                    home = obj.__module__.rsplit(".", 1)[1]
                    out.append((mod, attr, obj, f"{home}.{obj.__qualname__}"))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    for mattr, raw in vars(obj).items():
                        name = f"{short}.{obj.__name__}.{mattr}"
                        if mattr != "__post_init__" and (mattr.startswith("_") or name in ACCESSORS):
                            continue
                        if isinstance(raw, (types.FunctionType, staticmethod)):
                            out.append((obj, mattr, raw, name))
        return out

    @contextlib.contextmanager
    def installed(self):
        wrappers: dict[int, object] = {}
        saved = []
        for owner, attr, raw, name in self._targets():
            if id(raw) not in wrappers:
                if isinstance(raw, staticmethod):
                    wrappers[id(raw)] = staticmethod(self._wrap(raw.__func__, name))
                else:
                    wrappers[id(raw)] = self._wrap(raw, name)
            saved.append((owner, attr, raw))
            setattr(owner, attr, wrappers[id(raw)])
        try:
            yield self
        finally:
            for owner, attr, raw in saved:
                setattr(owner, attr, raw)

    def reset(self) -> None:
        self.spans.clear()
        del self.stack[1:]

    # -- aggregation -------------------------------------------------------------

    def summarize(self, wall: float) -> dict:
        """Per-layer times, counts and per-call costs of the recorded iteration."""
        layer_s = dict.fromkeys(LAYERS, 0.0)
        layer_s[CLI_LAYER] = wall
        hooks_s = 0.0
        layers: list[str] = []
        entries = Counter()
        fired = Counter()
        info = Counter()
        op_us = {"small": [], "large": []}
        for name, parent, t0, t1, hook_s, extra in self.spans:
            parent_layer = layers[parent] if parent >= 0 else CLI_LAYER
            if name.startswith("cli."):
                layer = CLI_LAYER
            elif name in LAYER_OF:
                layer = LAYER_OF[name]
            elif parent_layer == CLI_LAYER:
                layer = OTHER_LAYER
            else:
                layer = parent_layer
            layers.append(layer)
            fired[name] += 1
            if layer != parent_layer:
                entries[layer] += 1
                layer_s[layer] += t1 - t0
                layer_s[parent_layer] -= t1 - t0
            layer_s[parent_layer] -= hook_s
            hooks_s += hook_s
            if extra:
                info.update({k: v for k, v in extra.items() if k != "dim"})
                if name == "elements.apply_op":
                    if extra["dim"] <= SMALL_DIM:
                        op_us["small"].append((t1 - t0) * 1e6)
                    elif extra["dim"] >= LARGE_DIM:
                        op_us["large"].append((t1 - t0) * 1e6)
        return {"layer_s": layer_s, "entries": entries, "fired": fired, "info": info,
                "op_us": op_us, "hooks_s": hooks_s, "wall": wall}
