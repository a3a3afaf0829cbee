"""The benchmark under perfbench/ reads the library through fixed names
(``LegOperator``, ``.mat``, ``.n``, ``.m``, ``embed_on_legs``, the
projector functions).  A traced seed-1 batch of each library workload
runs here, with perfbench's own files loaded as they are, so a library
change that would break the benchmark fails the tests.  The same batches
compare every integer product with the kernel it replaced."""

import importlib.util
import sys
from pathlib import Path

import pytest

from qorbits import tensor
from test_tensor import old_product, ordered_rows

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


@pytest.mark.parametrize("workload", ["sampled-large", "symbolic-rank2"])
def test_batch_products_match_the_dict_kernel(tmp_path, monkeypatch, workload):
    # every integer product of a seed-1 batch, ints at sampled q and packed
    # Laurent numerators at symbolic q, against the kernel it replaced
    real = tensor._product
    calls, differ = [], []

    def compared(adata, bdata, ncols):
        out = real(adata, bdata, ncols)
        calls.append(max(map(len, adata), default=0))
        if ordered_rows(out) != ordered_rows(old_product(adata, bdata)):
            differ.append(len(calls))
        return out
    monkeypatch.setattr(tensor, "_product", compared)
    batch = workloads.build(workload, 1, str(tmp_path))
    outcomes = []
    for op in batch.ops:
        workloads.prepare()
        outcomes.append(workloads.run(op))
    assert outcomes == [None] * len(batch.ops)
    assert differ == []
    assert max(calls) > 1                   # rows of several terms were summed
