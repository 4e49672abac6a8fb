"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest -q perfbench/test_harness.py

Checks that every workload prints every metric BENCHMARK.json names, with
its unit; that a corrupted output is counted as a failed operation; and that
in a traced operation the per-layer self times add up to the operation span.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} == set(NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _corrupt_filter(out):
    return replace(out, bank=replace(out.bank, u=out.bank.u + 0.5))


def _corrupt_y0_ladder(out):
    return replace(out, y0s=out.y0s[::-1])


def _corrupt_worst_case(out):
    return replace(out, y0_zero=1.1 * out.y0_zero)


def _corrupt_adjoint(out):
    out.adjoint.P_vals[0, 0] = float("nan")
    return out


def _corrupt_picard(report):
    cost = report.final_cost
    return replace(report, final_cost=replace(cost, J=cost.J - 10 * cost.se))


@pytest.mark.parametrize("name,corrupt", [
    ("backward", _corrupt_filter), ("backward", _corrupt_y0_ladder),
    ("backward", _corrupt_worst_case), ("backward", _corrupt_adjoint),
    ("picard", _corrupt_picard)])
def test_corrupted_output_counts_as_failed(name, corrupt):
    wl = workloads.WORKLOADS[name](workloads.TOY)

    class Corrupted(type(wl)):
        def run(self, seed):
            return corrupt(super().run(seed))

    bad = Corrupted(workloads.TOY)
    ops = run.run_operations(bad, 5, 0.0, trace=False)
    assert len(ops) == run.MIN_OPS
    assert not any(op["ok"] for op in ops)
    assert all("error" not in op for op in ops)

    good = run.run_operations(wl, 5, 0.0, trace=False)
    assert all(op["ok"] for op in good)


@pytest.mark.parametrize("name", NAMES)
def test_traced_self_times_sum_to_operation_span(name):
    """Self times are computed from span intervals; they add up to the wall
    time measured around the traced call only if every span nests inside
    its parent without overlapping a sibling."""
    wl = workloads.WORKLOADS[name](workloads.TOY)
    rec = tracing.Recorder()
    ops = run.run_operations(wl, 7, 0.0, trace=True, rec=rec)
    roots = [i for i, s in enumerate(rec.spans) if s.parent == -1]
    assert len(roots) == len(ops)
    for root, op in zip(roots, ops):
        own = rec.self_times(root)
        assert len(own) > 10
        assert all(v >= 0.0 for v in own.values())
        assert sum(own.values()) == pytest.approx(op["traced_wall"], rel=0.01)
        for i in own:
            span, parent = rec.spans[i], rec.spans[i].parent
            if i != root:
                assert rec.spans[parent].start <= span.start <= span.end \
                    <= rec.spans[parent].end
        layers = op["layers"]
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert self_sum > 0.5 * op["traced_wall"]
