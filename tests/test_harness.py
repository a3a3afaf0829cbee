"""The benchmark under perfbench/ reads the library through fixed names
(``LegOperator``, ``.mat``, ``.n``, ``.m``, ``embed_on_legs``, the
projector functions).  A traced seed-1 batch of each library workload
runs here, with perfbench's own files loaded as they are, so a library
change that would break the benchmark fails the tests."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer_module = _load("tracer")


@pytest.mark.parametrize("workload", ["sampled-large", "symbolic-rank2"])
def test_traced_batch_certifies(tmp_path, workload):
    batch = workloads.build(workload, 1, str(tmp_path))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        unpatched = tracer.unpatched_bindings()
        outcomes = []
        for op in batch.ops:
            workloads.prepare()
            tracer.begin_op()
            outcomes.append(workloads.run(op))
    finally:
        tracer.uninstall()
    assert unpatched == []
    assert outcomes == [None] * len(batch.ops)
    assert tracer.requests > 0
