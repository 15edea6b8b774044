"""One traced benchmark run of each workload, at the tiny size.

``perfbench/run.py --trace 1`` wraps the package's public functions in spans,
reads counts through hooks on some of them (``elements.apply_op``,
``circuit.distribution_from_state``, and ``events.generate_events``, whose
hook reads ``EventLog.events``), and fails a workload whose ``EXPECT`` row
says a layer must be nonzero there but reads zero.  Each case here is that
run, so a change to the package that the tracer no longer fits fails here
rather than in the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load_run()


@pytest.mark.parametrize("name", run.wl.NAMES)
def test_traced_tiny_run_is_correct(name):
    result, _ = run.measure(name, 1, 0, True, size="tiny")
    assert result["failed"] == 0, result
    assert result["correct"], result
