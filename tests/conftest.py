from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from blockselect.blockmodels import FactoredProb, SbmParams, edge_probs
from blockselect.netcore import Graph, load_edge_list

DATA_DIR = Path(__file__).parent / "data"


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
