"""ambifilter benchmark: one workload, end to end or traced layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload backward --seed 1 --seconds 40 --trace 0

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` records why each
was chosen. The library is imported from ``src/`` of the checkout that holds
this file, and nowhere else, so the command fails in a directory without it.

With ``--trace 0`` the operations run unmodified and the end-to-end metrics
are reported:

    setup_s      median of nine set-ups, each the library import and one
                 warm-up operation at toy size: this process's own, and eight
                 in fresh interpreters started between the operations
    solve_s      median wall seconds per operation
    cpu_s        median process CPU seconds (user + sys, all threads) per
                 operation; above solve_s when BLAS threads spin
    peak_rss_mb  peak resident memory of the process, in MiB

With ``--trace 1`` every operation runs twice on the same inputs: first with
span-recording wrappers over each layer's entry points, then without. The
per-layer metrics are medians over the traced operations; ``trace.overhead_s``
is the median traced-minus-untraced wall time. The spans are written to
``perfbench/out/`` when the run ends. A layer that does not run in a
workload reports 0.

Inputs, checks and the stop rule: operation i uses seed ``--seed + i`` and
builds its inputs from it inside the timed region. Outputs are checked
outside it; an exception or a failed check counts the operation as failed.
Operations are
started until the next one would end after ``--seconds``, but at least
``MIN_OPS`` run. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 3
SETUP_REPEATS = 9
# Extra set-ups run after each operation, outside its timing.
SETUPS_PER_GAP = 2
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "model.sample_noise.calls": "count",
    "model.sample_noise.self_s": "s",
    "model.sample_noise.share": "ratio",
    "model.sample_noise.repeat_frac": "ratio",
    "model.simulate_bundle.calls": "count",
    "model.simulate_bundle.self_s": "s",
    "model.simulate_bundle.path_steps": "count",
    "filtering.run_filter_bank.calls": "count",
    "filtering.run_filter_bank.self_s": "s",
    "filtering.run_filter_bank.self_share": "ratio",
    "filtering.run_filter_bank.particle_steps": "count",
    "filtering.resample_frac": "ratio",
    "filtering.ess_min_frac": "ratio",
    "policies.evaluate.calls": "count",
    "policies.evaluate.self_s": "s",
    "policies.evaluate.total_share": "ratio",
    "policies.evaluate.points": "count",
    "policies.evaluate.leaves": "count",
    "features.design.in_policies.calls": "count",
    "features.design.in_policies.self_s": "s",
    "features.design.in_policies.rows": "count",
    "features.predict.in_policies.calls": "count",
    "features.predict.in_policies.self_s": "s",
    "features.predict.in_policies.rows": "count",
    "features.design.in_bsde.calls": "count",
    "features.design.in_bsde.self_s": "s",
    "features.design.in_bsde.rows": "count",
    "features.predict.in_bsde.calls": "count",
    "features.predict.in_bsde.self_s": "s",
    "features.predict.in_bsde.rows": "count",
    "features.fit_ridge.calls": "count",
    "features.fit_ridge.self_s": "s",
    "features.fit_ridge.cpu_s": "s",
    "features.fit_ridge.share": "ratio",
    "features.fit_ridge.rows": "count",
    "bsde.solve_worst_value.self_s": "s",
    "bsde.solve_adjoint.self_s": "s",
    "bsde.weighted_cost_qtilde.self_s": "s",
    "minimax.evaluate_cost.calls": "count",
    "minimax.evaluate_cost.self_s": "s",
    "minimax.picard_solve.self_s": "s",
    "minimax.picard_solve.iterations": "count",
    "minimax.picard_solve.final_sign_agreement": "ratio",
    "oracles.grid_sup_cost.self_s": "s",
    "trace.solve_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

# Which parent a design/predict call ran under; only policy evaluation and
# the backward solvers call them.
SPLIT_BY_PARENT = ("features.design", "features.predict")


def import_library():
    """Import ambifilter from this checkout's src/ or stop with exit code 1."""
    if not (SRC / "ambifilter" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no ambifilter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ambifilter

    if Path(ambifilter.__file__).resolve().parent != SRC / "ambifilter":
        raise SystemExit(f"benchmark: imported ambifilter from {ambifilter.__file__}, "
                         f"not from {SRC}")


def set_up(name: str, seed: int, toy: bool = False):
    """Import, build the workload, warm up once at toy size. Returns the
    workload and the seconds since process start."""
    import_library()
    import workloads

    wl = workloads.WORKLOADS[name](workloads.TOY if toy else workloads.FULL)
    workloads.WORKLOADS[name](workloads.TOY).run(seed)
    return wl, time.perf_counter() - T_START


def child_setup_seconds(name: str, seed: int, toy: bool) -> float:
    """One more set-up in a fresh interpreter, so imports are paid again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"] + (["--toy"] if toy else []),
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> dict:
    import numpy
    import scipy

    maps = Path("/proc/self/maps")
    libs = set()
    if maps.is_file():
        for line in maps.read_text().splitlines():
            path = line.split()[-1]
            low = path.lower()
            if (".so" in low and ".cpython-" not in low
                    and any(k in low for k in ("blas", "lapack", "mkl"))):
                libs.add(path)
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_libraries": sorted(libs),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))},
    }


def layer_metrics(rec, root: int) -> dict[str, float]:
    """Per-layer totals for the operation under span ``root``."""
    own = rec.self_times(root)
    op_wall = rec.spans[root].wall
    acc: dict[str, float] = {k: 0.0 for k in PER_LAYER}
    seen_noise = set()
    banks = resampled = rows = 0
    ess_min = None
    for i in own:
        span = rec.spans[i]
        if i == root:
            acc["trace.solve_s"] = span.wall
            acc["trace.unattributed_s"] = own[i]
            continue
        name = span.name
        if name in SPLIT_BY_PARENT:
            parent = rec.parent_name(i)
            name += ".in_policies" if parent.startswith("policies.") else ".in_bsde"
        for key, value in (("calls", 1), ("self_s", own[i]), ("cpu_s", span.cpu)):
            if f"{name}.{key}" in acc:
                acc[f"{name}.{key}"] += value
        c = span.counts
        if name == "model.sample_noise":
            acc["model.sample_noise.share"] += span.wall / op_wall
            if c["key"] in seen_noise:
                acc["model.sample_noise.repeat_frac"] += 1
            seen_noise.add(c["key"])
        elif name == "filtering.run_filter_bank":
            banks += 1
            resampled += c["resampled_rows"]
            rows += c["rows"]
            ess_min = c["ess_min_frac"] if ess_min is None else min(ess_min, c["ess_min_frac"])
            acc["filtering.run_filter_bank.particle_steps"] += c["particle_steps"]
        elif name == "policies.evaluate":
            acc["policies.evaluate.total_share"] += span.wall / op_wall
            acc["policies.evaluate.points"] += c["points"]
            acc["policies.evaluate.leaves"] += c["leaves"]
        elif name == "features.fit_ridge":
            acc["features.fit_ridge.share"] += span.wall / op_wall
            acc["features.fit_ridge.rows"] += c["rows"]
        elif name == "model.simulate_bundle":
            acc["model.simulate_bundle.path_steps"] += c["path_steps"]
        elif name == "minimax.picard_solve":
            acc["minimax.picard_solve.iterations"] = c["iterations"]
            acc["minimax.picard_solve.final_sign_agreement"] = c["final_sign_agreement"]
        elif name.startswith(SPLIT_BY_PARENT):
            acc[f"{name}.rows"] += c["rows"]
    if acc["model.sample_noise.calls"]:
        acc["model.sample_noise.repeat_frac"] /= acc["model.sample_noise.calls"]
    acc["filtering.run_filter_bank.self_share"] = (
        acc["filtering.run_filter_bank.self_s"] / op_wall)
    if banks:
        acc["filtering.resample_frac"] = resampled / rows
        acc["filtering.ess_min_frac"] = ess_min
    return acc


def run_operations(wl, base_seed: int, seconds: float, trace: bool,
                   rec=None, between=None) -> list[dict]:
    """Run operations until the next would end after ``seconds``; one record
    per operation with its timings, check values and any error. A traced
    operation also records ``traced_wall``, its wall time measured outside
    the recorder. ``between`` is called after each operation; its time does
    not count towards ``seconds``."""
    import tracing

    ops: list[dict] = []
    t_loop = time.perf_counter()
    while True:
        seed = base_seed + len(ops)
        op = {"seed": seed, "ok": False}
        try:
            if trace:
                with tracing.installed(rec):
                    w0 = time.perf_counter()
                    with rec.root(f"op.{wl.name}") as root:
                        wl.run(seed)
                    op["traced_wall"] = time.perf_counter() - w0
                op["layers"] = layer_metrics(rec, root)
            c0 = time.process_time()
            w0 = time.perf_counter()
            out = wl.run(seed)
            op["wall"] = time.perf_counter() - w0
            op["cpu"] = time.process_time() - c0
            op["ok"], op["checks"] = wl.check(seed, out)
        except Exception:
            op["error"] = traceback.format_exc()
            print(f"operation seed={seed} raised:\n{op['error']}", file=sys.stderr)
        ops.append(op)
        elapsed = time.perf_counter() - t_loop
        if between is not None:
            b0 = time.perf_counter()
            between()
            t_loop += time.perf_counter() - b0
        if len(ops) >= MIN_OPS and elapsed * (len(ops) + 1) / len(ops) > seconds:
            return ops


def summarize(ops: list[dict], trace: bool, setup_s: float) -> dict[str, float]:
    timed = [op for op in ops if "wall" in op]
    if not timed:
        raise SystemExit("benchmark: no operation completed")
    if trace:
        traced = [op for op in timed if "layers" in op]
        metrics = {k: statistics.median(op["layers"][k] for op in traced) for k in PER_LAYER
                   if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(
            op["layers"]["trace.solve_s"] - op["wall"] for op in traced)
        return metrics
    return {
        "setup_s": setup_s,
        "solve_s": statistics.median(op["wall"] for op in timed),
        "cpu_s": statistics.median(op["cpu"] for op in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report(args, ops, metrics, units, setup_samples, env) -> None:
    failed = sum(not op["ok"] for op in ops)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(ops)}  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':45s} {failed / len(ops):14.6g} ratio")
    print(f"  setup samples (s): {[round(s, 4) for s in setup_samples]}")
    print(f"  solve samples (s): {[round(op['wall'], 4) for op in ops if 'wall' in op]}")
    for op in ops:
        values = "  ".join(f"{k}={v:.6g}" for k, v in op.get("checks", {}).items())
        print(f"  seed {op['seed']}: {'pass' if op['ok'] else 'FAIL'}  {values}")
    print("environment " + json.dumps(env, sort_keys=True))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("backward", "picard"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    # Toy shapes, for the harness self-test only.
    p.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl, own_setup = set_up(args.workload, args.seed, args.toy)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    import tracing

    # The extra set-ups are spread between the operations, so that their
    # median covers the whole run rather than the few seconds of a slow or
    # fast spell on a shared host.
    setup_samples = [own_setup]
    wanted = 1 if args.trace else SETUP_REPEATS

    def more_setups(n: int):
        for _ in range(min(n, wanted - len(setup_samples))):
            setup_samples.append(child_setup_seconds(args.workload, args.seed, args.toy))

    rec = tracing.Recorder() if args.trace else None
    ops = run_operations(wl, args.seed, args.seconds, bool(args.trace), rec,
                         between=lambda: more_setups(SETUPS_PER_GAP))
    more_setups(wanted)
    metrics = summarize(ops, bool(args.trace), statistics.median(setup_samples))
    units = PER_LAYER if args.trace else END_TO_END
    env = environment()
    report(args, ops, metrics, units, setup_samples, env)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"environment": env, "operations": [
            {k: v for k, v in op.items() if k != "error"} for op in ops],
            "spans": rec.to_json()}))
        print(f"spans written to {path.relative_to(ROOT)}")
    failed = sum(not op["ok"] for op in ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
