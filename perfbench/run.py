"""Benchmark for blockselect: four closed-loop workloads, one process each.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload dcbm_test_n600 --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics and installs no wrappers;
``--trace 1`` wraps the library's public functions from the bench side and
reports the per-layer split instead. Other modes:

    python3 perfbench/run.py --report [--seed 1] [--seconds 20]
        every workload untraced and traced, with all end-to-end metrics,
        the error rate, the layer split and the tracing overhead
    python3 perfbench/run.py --record --workload NAME
        recompute the workload's reference outputs over its whole input pool

Run it from the repository root. BLAS is pinned to one thread before numpy
is imported. The time metrics are scaled for the machine's speed, which
``calibrate.py`` measures between the timed steps. Results and traces are
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS reads these when numpy loads, and nothing imports numpy before
# _import_library runs
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

_T_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# stop starting operations after this long, so a run ends well inside 180 s
_DEADLINE_S = 120.0
_IMPORT_REPEATS = 3
_MIN_BUILDS = 3
# calibration slices between set-up steps, and between operations about
# this share of an operation's nominal time
_SETUP_SLICES = 2
_CAL_SHARE = 0.1

WORKLOAD_NAMES = ("karate_select", "dcbm_test_n600", "sbm_test_n6000", "pabm_detect_n900")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    """Import blockselect from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "blockselect" / "__init__.py").is_file():
        _fail(f"no blockselect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import blockselect

    if Path(blockselect.__file__).resolve().parent != SRC / "blockselect":
        _fail(f"imported blockselect from {blockselect.__file__}, not {SRC}")
    return blockselect


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def import_once() -> float:
    """Seconds to import blockselect in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import blockselect; "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def choose_entries(workload, seed: int, n: int) -> list[int]:
    """Draw ``n`` pool entries with the run's seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return rng.sample(workload.pool, min(n, len(workload.pool)))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 units_of: dict[str, str]) -> dict:
    """Run one workload; ``units_of`` maps each reported metric to its unit."""
    import workloads
    from calibrate import REFERENCE_SLICE_S, Calibrator
    from tracing import Tracer

    wl = workloads.WORKLOADS[name]
    refs = workloads.load_reference(name)
    entries = choose_entries(wl, seed, wl.ops_per_run(seconds))
    OUT_DIR.mkdir(exist_ok=True)
    cal = Calibrator()
    per_op = max(2, round(_CAL_SHARE * wl.nominal_op_s / REFERENCE_SLICE_S))

    def attempt(inp, entry):
        t0 = time.perf_counter()
        try:
            out, diff = wl.run(inp, entry, OUT_DIR), []
        except Exception as exc:  # a failed operation is a result here
            out, diff = None, [f"{type(exc).__name__}: {exc}"]
        return out, diff, time.perf_counter() - t0

    # spans are only recorded once the wrappers are installed
    tracer = Tracer()
    if trace:
        tracer.install()
    try:
        imp_s, imp_scaled = [], []
        for _ in range(_IMPORT_REPEATS):
            t, scale = cal.between(_SETUP_SLICES, import_once)
            imp_s.append(t)
            imp_scaled.append(t * scale)

        def build_all():
            # build each operation's input; rebuild some if needed so the
            # set-up median has at least _MIN_BUILDS samples
            inputs, build_s = [], []
            for i in range(max(len(entries), _MIN_BUILDS)):
                tracer.op = i if i < len(entries) else None
                built, t = timed(wl.build, entries[i % len(entries)])
                build_s.append(t)
                if i < len(entries):
                    inputs.append(built)
                del built
            tracer.op = None
            return inputs, build_s

        (inputs, build_s), build_scale = cal.between(_SETUP_SLICES, build_all)

        op_s, op_scaled, units, failures = [], [], 0, []
        gc.collect()
        run_start, cal_start = len(cal.slices), cal.spent_s
        t_run = time.perf_counter()
        for op_id, (entry, inp) in enumerate(zip(entries, inputs)):
            if op_id and time.perf_counter() - _T_START > _DEADLINE_S:
                break
            tracer.op = op_id
            (out, diff, t), scale = cal.between(per_op, attempt, inp, entry)
            tracer.op = None
            op_s.append(t)
            op_scaled.append(t * scale)
            if out is not None:
                diff = workloads.mismatches(refs[entry], out)
            if diff:
                failures.append(f"entry {entry}: " + "; ".join(diff[:3]))
            else:
                units += wl.units(out)
            gc.collect()
        run_s = time.perf_counter() - t_run - (cal.spent_s - cal_start)
    finally:
        tracer.uninstall()

    attempted = len(op_s)
    # each operation, each import and the build phase are scaled by the
    # slices just before and after them; the run's totals by all of its slices
    factor = cal.factor(run_start)
    # a run cut by the deadline is charged for the operations it skipped,
    # so its run_s stays comparable with a full run's
    run_full_s = run_s * len(entries) / attempted
    if attempted < len(entries):
        print(f"truncated: {attempted} of {len(entries)} operations ran before the "
              f"{_DEADLINE_S:g} s deadline; run_s is extrapolated to all {len(entries)}")
    wall = {
        "op_s_p50": statistics.median(op_s),
        "run_s": run_s,
        "setup_s": statistics.median(imp_s) + statistics.median(build_s),
    }
    if trace:
        traced_op_s = sum(build_s[:attempted]) + sum(op_s)
        metrics = tracer.layer_metrics(list(range(attempted)), traced_op_s)
        metrics["trace.run_s"] = run_full_s * factor
    else:
        metrics = {
            "op_s_p50": statistics.median(op_scaled),
            "run_s": run_full_s * factor,
            "replicates_per_s": units / (sum(op_s) * factor),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(imp_scaled) + statistics.median(build_s) * build_scale,
        }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "entries": entries[:attempted],
        "op_s": op_s,
        "build_s": build_s,
        "import_s": imp_s,
        "wall": wall,
        "truncated": attempted < len(entries),
        "calibration_slice_s": cal.slices,
        "speed_factor": factor,
        "failures": failures,
        "metrics": metrics,
    }
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        stem.with_suffix(".spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "env", "wall")}
                     | {"speed_factor": factor}))
    for failure in failures:
        print(f"failed: {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()
            if k in units_of
        },
    }


def record_reference(name: str) -> None:
    import workloads

    wl = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    outputs = {}
    for entry in wl.pool:
        t0 = time.perf_counter()
        outputs[str(entry)] = wl.run(wl.build(entry), entry, OUT_DIR)
        print(f"{name} entry {entry}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    payload = {"workload": name, "env": environment(), "outputs": outputs}
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    workloads.reference_path(name).write_text(json.dumps(payload) + "\n")


def report(seed: int, seconds: float) -> None:
    """Run every workload untraced and traced; print one table."""
    import tracing

    rows = []
    for name in WORKLOAD_NAMES:
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if proc.returncode != 0:
                _fail(f"{name} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        rows.append((name, *results))

    print(f"seed {seed}, {seconds:g} s per run; env: {json.dumps(environment())}")
    print("\nend-to-end (untraced)")
    for name, plain, _ in rows:
        error_rate = plain["failed"] / plain["attempted"]
        cells = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in plain["metrics"].items()]
        print(f"  {name:18s} ops={plain['attempted']} error_rate={error_rate:g} "
              + "  ".join(cells))
    print("\nlayer self time, share of traced operation time")
    for name, plain, traced in rows:
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        total = m["bench.traced_op_s"]
        shares = [f"{layer}={m[f'{layer}.self_s'] / total:.1%}" for layer in tracing.LAYERS]
        overhead = m["trace.run_s"] - plain["metrics"]["run_s"]["value"]
        print(f"  {name:18s} " + " ".join(shares)
              + f" residual={m['bench.residual_s'] / total:.2%}"
              + f" | traced op {total:.3f} s, tracing overhead {overhead:+.3f} s"
              + f" on run_s {plain['metrics']['run_s']['value']:.3f} s")
    print("\nheadline layer shares of traced operation time")
    for name, _, traced in rows:
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        total = m["bench.traced_op_s"]
        keys = ("cluster.minimize_q_subspace_r1.s", "cluster.minimize_q_subspace_rK.s",
                "cluster.minimize_q1.s", "spectral.ase.s", "blockmodels.sample_graph.s",
                "blockmodels.fit.s", "blockmodels.gen.s")
        print(f"  {name:18s} " + " ".join(f"{k[:-2]}={m[k] / total:.1%}" for k in keys))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()

    _import_library()
    sys.path.insert(0, str(BENCH_DIR))
    if args.report:
        report(args.seed, args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.record:
        record_reference(args.workload)
        return 0
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        _fail(f"no BENCHMARK.json under {ROOT}")
    section = spec["per_layer" if args.trace else "end_to_end"]
    units_of = {m["name"]: m["unit"] for m in section}
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), units_of)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
