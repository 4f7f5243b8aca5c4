from __future__ import annotations

import os

# the OpenBLAS kernel the suite's digests were recorded under, which every
# x86-64 CPU with AVX2 runs; OpenBLAS reads it when numpy loads, and nothing
# has loaded numpy when pytest imports this file
os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")

import ctypes
import importlib
import importlib.util
import io
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import blockselect
from blockselect import _pool, cluster
from blockselect.blockmodels import FactoredProb, SbmParams, edge_probs
from blockselect.netcore import Graph, load_edge_list

DATA_DIR = Path(__file__).parent / "data"
PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path, as
    its entry script imports it, for as long as ``monkeypatch`` holds."""
    path = PERFBENCH_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


# hypothesis draws examples from the constants in the source of the local
# modules loaded so far, so a derandomized test draws the same examples in
# every run only if every local module a test loads is loaded before any
# test runs: each module of the package, and the benchmark's modules that
# ``load_perfbench`` loads
for _info in pkgutil.iter_modules(blockselect.__path__):
    importlib.import_module(f"blockselect.{_info.name}")
_never_undone = pytest.MonkeyPatch()
for _name in ("tracing", "workloads"):
    load_perfbench(_never_undone, _name)


@pytest.fixture(autouse=True)
def fresh_pool():
    """End the worker pool around each test: a test's first pooled call
    forks workers that see the module globals its fixtures patched."""
    _pool.shutdown()
    yield
    _pool.shutdown()


@pytest.fixture
def set_workers(monkeypatch):
    """``set_workers(w)`` makes the worker pool use ``w`` processes; one
    runs every unit in this process."""
    def set_count(workers: int) -> None:
        monkeypatch.setattr(_pool, "workers", lambda: workers)

    return set_count


@pytest.fixture
def block_pids(monkeypatch, tmp_path):
    """Record the process id of every descent; call the fixture's value for
    the list, in the order the descents started. A block budget of one
    byte gives every restart block a descent of its own."""
    path = tmp_path / "block_pids.txt"
    original = cluster._descend

    def recording(*args):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(*args)

    monkeypatch.setattr(cluster, "_descend", recording)
    return lambda: [int(v) for v in path.read_text().split()] if path.exists() else []


# the environment the suite's digests were recorded under: another BLAS
# kernel or library version sums in another order and can move their bits
RECORDED_UNDER = "Haswell, numpy 2.4.6, scipy 1.17.1"


def running_environment() -> str:
    """The OpenBLAS kernel of the loaded libraries (``openblas_get_corename``)
    and the numpy and scipy versions of this run, in ``RECORDED_UNDER``'s form."""
    cores = set()
    for (corename,) in _pool.openblas_symbols("get_corename"):
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        cores.add(corename().decode())
    kernel = "/".join(sorted(cores)) or "no OpenBLAS found"
    return f"{kernel}, numpy {np.__version__}, scipy {scipy.__version__}"


def digest_environment() -> str:
    """The message of a digest assert: where its digests were recorded, and
    where this run is."""
    return f"recorded under {RECORDED_UNDER}; running under {running_environment()}"


def solution_bytes(sol) -> tuple:
    """Every field of a ClusterSolution as bytes or exact values."""
    labels = sol.labels
    return ((labels.shape, labels.dtype.str, labels.tobytes()), np.float64(sol.objective).tobytes(),
            sol.n_iters, sol.n_restarts_used, sol.degenerate)


def plant_monotone_failure(monkeypatch, planted: list[np.ndarray]) -> None:
    """Negate, in both refits of ``cluster``, the objective of each restart
    on a point set equal to one of ``planted``: it then rises as the
    descent lowers the loss, and the monotone check fails that restart.
    Fork carries the patch into the pool's worker processes."""
    def negating(refit):
        def negated(rows, labels, *args):
            model, obj, truncated = refit(rows, labels, *args)
            hit = np.array([any(np.array_equal(points, p) for p in planted)
                            for points in rows.points])
            return model, np.where(hit[cluster._owner(args[-1])], -obj, obj), truncated
        return negated

    for name in ("_centroid_refit", "_subspace_refit"):
        monkeypatch.setattr(cluster, name, negating(getattr(cluster, name)))


@pytest.fixture(scope="session")
def karate_path() -> Path:
    return DATA_DIR / "karate.edges"


@pytest.fixture(scope="session")
def karate(karate_path) -> Graph:
    with open(karate_path, "r", encoding="utf-8") as fh:
        g, _ = load_edge_list(fh)
    return g


def graph_from_text(text: str) -> Graph:
    return load_edge_list(io.StringIO(text))[0]


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi helper for fuzz tests."""
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, 1)
    hit = rng.random(i.size) < p
    return Graph(n=n, edges=np.column_stack([i[hit], j[hit]]))


def constant_prob(n: int, p: float) -> FactoredProb:
    """P_ij = p for every pair: a one-block SBM in factored form."""
    labels = np.ones(n, dtype=np.int64)
    return edge_probs(SbmParams(k=1, omega=np.array([[p]]), labels=labels))
