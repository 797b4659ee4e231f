"""The library names that perfbench's tracer reads.

The traced benchmark reaches the library through module attributes
(`TARGETS`) and counter fields (`COUNTERS`). One that is renamed or moved
does not fail the run: the tracer reports it as absent and drops its
metrics. These tests load `perfbench/tracer.py` by path, change neither it
nor `BENCHMARK.json`, and fail instead.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from gf2mat.counters import counters

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("modname,attr", [
    pytest.param(modname, attr, id=name)
    for modname, attr, name in tracer.TARGETS])
def test_trace_target_is_callable(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))


@pytest.mark.parametrize("field", sorted(tracer.COUNTERS.values()))
def test_counter_field_is_int(field):
    assert isinstance(getattr(counters, field), int)


def test_units_are_the_benchmark_layers():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(tracer.UNITS) == {m["name"] for m in bench["per_layer"]}
