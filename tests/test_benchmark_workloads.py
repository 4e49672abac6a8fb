"""Each benchmark workload runs and passes its own check at the TOY shape.

`perfbench/workloads.py` calls the library the way the benchmark times it,
and its checks read the reports the library returns. A library change that
breaks one of those calls or fields fails here, not first in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_every_workload_runs_and_checks(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.TOY)
        ok, checks = wl.check(1, wl.run(1))
        assert ok, (name, checks)
