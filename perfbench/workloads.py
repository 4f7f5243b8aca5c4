"""The four benchmark workloads.

Each workload has a fixed pool of inputs. Pool entry ``i`` fixes every seed
the operation uses, so its outputs are reproducible and are recorded once in
``reference/<workload>.json``. A run draws its operations from the pool with
the run's ``--seed``; the library only ever sees the built inputs.

An operation is one closed-loop call into the library:

* ``karate_select``: ``blockselect select`` on the karate club, K=2, B=200.
* ``dcbm_test_n600``: ``test_dcbm_vs_pabm`` on a DCBM graph, n=600, K=3, B=100.
* ``sbm_test_n6000``: ``test_sbm_vs_dcbm`` on an SBM graph, n=6000, K=3, B=20.
* ``pabm_detect_n900``: one ``run_experiment`` replicate of a
  ``comm_det_pabm`` study with method ``q3``, n=900, K=3.

Why each workload was chosen is recorded in ``BENCHMARK.json``.

This module imports numpy through blockselect, so the entry script pins the
BLAS thread counts before importing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import blockselect as bs
from blockselect import cli
from blockselect.simharness import ExperimentSpec, GridPoint, Study, run_experiment

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
KARATE = ROOT / "tests" / "data" / "karate.edges"
REFERENCE_DIR = BENCH_DIR / "reference"

# statistics are floating-point losses; everything else must match exactly
STAT_RTOL = 1e-9
_TOLERANT_KEYS = {"statistic", "boot_stats"}


@dataclass(frozen=True)
class Workload:
    name: str
    # seed-commit seconds per operation; fixes the operations per run
    nominal_op_s: float
    # pool entries; entry ``i`` fixes every seed of its operation
    pool: tuple[int, ...]
    build: Callable[[int], Any]
    run: Callable[[Any, int, Path], dict]
    # bootstrap replicates (or detections) one operation completes
    units: Callable[[dict], int]

    def ops_per_run(self, seconds: float) -> int:
        return max(2, round(seconds / self.nominal_op_s))


# ---------------------------------------------------------------------------
# karate_select
# ---------------------------------------------------------------------------

def _build_karate(entry: int) -> Path:
    # the operation reads the file itself, through the CLI; loading it here
    # checks it parses and times what a caller pays to load the input
    with open(KARATE, "r", encoding="utf-8") as fh:
        bs.load_edge_list(fh)
    return KARATE


def _run_karate(path: Path, entry: int, out_dir: Path) -> dict:
    out = out_dir / "select"
    argv = [
        "select", str(path), "--k", "2", "--alpha", "0.05", "--boot", "200",
        "--seed", str(entry), "--out", str(out),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"blockselect select exited with {code}")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    tests = [
        report[key] for key in ("test_sbm_vs_dcbm", "test_dcbm_vs_pabm")
        if report[key] is not None
    ]
    return {
        "selected_model": report["selected_model"],
        "tests": [_test_outputs(t) for t in tests],
    }


def _test_outputs(t) -> dict:
    if isinstance(t, dict):
        return {
            "statistic": t["statistic"],
            "p_value": t["p_value"],
            "rejected": t["rejected"],
            "boot_stats": list(t["boot_stats"]),
        }
    return {
        "statistic": float(t.statistic),
        "p_value": float(t.p_value),
        "rejected": bool(t.rejected),
        "boot_stats": [float(v) for v in t.boot_stats],
    }


# ---------------------------------------------------------------------------
# dcbm_test_n600 and sbm_test_n6000
# ---------------------------------------------------------------------------

def _build_dcbm(entry: int):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "degree target clamped"
        g, _ = bs.gen_dcbm(
            600, 3, [1 / 3] * 3, bs.beta_ratio_omega(3, 0.5), bs.PowerLaw(1, 5),
            target_avg_degree=20, seed=entry,
        )
    return g


def _run_dcbm(g, entry: int, out_dir: Path) -> dict:
    result, _ = bs.test_dcbm_vs_pabm(g, 3, n_boot=100, alpha=0.05, seed=entry)
    return _test_outputs(result)


def _build_sbm(entry: int):
    g, _ = bs.gen_sbm(
        6000, 3, [1 / 3] * 3, bs.beta_ratio_omega(3, 0.2),
        target_avg_degree=20, seed=entry,
    )
    return g


def _run_sbm(g, entry: int, out_dir: Path) -> dict:
    result, _ = bs.test_sbm_vs_dcbm(g, 3, n_boot=20, alpha=0.05, seed=entry)
    return _test_outputs(result)


# ---------------------------------------------------------------------------
# pabm_detect_n900
# ---------------------------------------------------------------------------

def _build_pabm(entry: int) -> ExperimentSpec:
    return ExperimentSpec(
        study=Study.COMM_DET_PABM,
        grid=(GridPoint(n=900, k=3),),
        methods=("q3",),
        n_replicates=1,
        base_seed=entry,
    )


def _run_pabm(spec: ExperimentSpec, entry: int, out_dir: Path) -> dict:
    cell = run_experiment(spec).cells[(0, "q3")]
    if cell.errors:
        raise RuntimeError("; ".join(cell.errors))
    return {"mislabel_rate": [float(v) for v in cell.values]}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="karate_select",
            nominal_op_s=2.8,
            # workflow seeds 1 and 26 select SBM after one test; the others
            # run both tests, so every operation does the same work
            pool=tuple(s for s in range(40) if s not in (1, 26)),
            build=_build_karate,
            run=_run_karate,
            units=lambda out: 200 * len(out["tests"]),
        ),
        Workload(
            name="dcbm_test_n600",
            nominal_op_s=7.0,
            pool=tuple(range(24)),
            build=_build_dcbm,
            run=_run_dcbm,
            units=lambda out: 100,
        ),
        Workload(
            name="sbm_test_n6000",
            nominal_op_s=13.5,
            pool=tuple(range(12)),
            build=_build_sbm,
            run=_run_sbm,
            units=lambda out: 20,
        ),
        Workload(
            name="pabm_detect_n900",
            nominal_op_s=0.85,
            pool=tuple(range(96)),
            build=_build_pabm,
            run=_run_pabm,
            units=lambda out: 1,
        ),
    )
}


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> dict[int, dict]:
    data = json.loads(reference_path(name).read_text(encoding="utf-8"))
    return {int(k): v for k, v in data["outputs"].items()}


def mismatches(ref, out, key: str = "") -> list[str]:
    """Differences between reference and actual outputs: statistics may
    differ by ``STAT_RTOL`` relative, everything else must be equal."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or ref.keys() != out.keys():
            return [f"{key or 'outputs'}: keys differ"]
        found: list[str] = []
        for k in ref:
            found += mismatches(ref[k], out[k], k)
        return found
    if isinstance(ref, list):
        if not isinstance(out, list) or len(ref) != len(out):
            return [f"{key}: length differs"]
        found = []
        for a, b in zip(ref, out):
            found += mismatches(a, b, key)
        return found
    if key in _TOLERANT_KEYS and isinstance(ref, float) and isinstance(out, float):
        if math.isclose(ref, out, rel_tol=STAT_RTOL, abs_tol=0.0):
            return []
        return [f"{key}: {out!r} != reference {ref!r}"]
    if type(ref) is not type(out) or ref != out:
        return [f"{key}: {out!r} != reference {ref!r}"]
    return []
