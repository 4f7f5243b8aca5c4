from __future__ import annotations

import importlib.util
import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from blockselect import _pool, cluster
from blockselect.blockmodels import FactoredProb, SbmParams, edge_probs
from blockselect.netcore import Graph, load_edge_list

DATA_DIR = Path(__file__).parent / "data"
PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path, as
    its entry script imports it, for the length of one test."""
    path = PERFBENCH_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


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


def solution_bytes(sol) -> tuple:
    """Every field of a ClusterSolution as bytes or exact values."""
    def arr(a):
        return None if a is None else (a.shape, a.dtype.str, a.tobytes())

    bases = None if sol.bases is None else [arr(b) for b in sol.bases]
    return (arr(sol.labels), np.float64(sol.objective).tobytes(), arr(sol.centroids),
            bases, sol.n_iters, sol.n_restarts_used, sol.degenerate)


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
