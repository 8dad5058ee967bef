"""The benchmark's hooks into the package still resolve.

``perfbench/tracer.py`` wraps the functions named in ``TRACED`` and each
workload's set-up probe cuts the run short at ``Workload.setup_end``.  A
renamed or moved function would only break the benchmark, so these names
are resolved here, without installing any wrapper.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_traced_functions_resolve(monkeypatch):
    tracer, _ = _perfbench(monkeypatch)
    missing = []
    for path in tracer.TRACED:
        owner, attr = tracer._resolve(path)
        if not callable(getattr(owner, attr, None)):
            missing.append(path)
    assert not missing


def test_setup_end_functions_resolve(monkeypatch):
    _, workloads = _perfbench(monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        module_name, attr = workload.setup_end.split(".")
        module = importlib.import_module(f"thermoduct.{module_name}")
        assert callable(getattr(module, attr, None)), (name, workload.setup_end)
