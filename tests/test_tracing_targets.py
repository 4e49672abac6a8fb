"""The benchmark tracer patches library names by attribute; each must exist.

`perfbench/tracing.py` wraps the entry points it lists in `_targets()`. A
library change that renames or deletes one of them breaks the traced
benchmark run, so this test resolves every (owner, attribute) pair.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)   # its dataclasses look it up
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert targets
    for layer, _counter, sites in targets:
        assert sites, layer
        for owner, attr in sites:
            assert callable(getattr(owner, attr, None)), (layer, owner, attr)
