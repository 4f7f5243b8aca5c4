"""Graph representation, edge-list I/O, and basic structural utilities.

Graphs are simple and undirected: no self-loops, each unordered edge stored
once as (i, j) with i < j, node indices dense 0-based integers. Files use
arbitrary string identifiers which are mapped to indices in first-seen
order. Dense n x n matrices are never materialized here; that happens only
in the spectral module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import EdgeListParseError


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph.

    ``edges`` is an (m, 2) integer array with each row (i, j), i < j, sorted
    lexicographically and free of duplicates; the dense and the CSR
    adjacency agree only then. ``from_pairs`` puts any pairs in this form.
    Safe to share across threads.
    """

    n: int
    edges: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = self.edges
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array")
        if not np.issubdtype(e.dtype, np.integer):
            raise ValueError(f"edges must be integers, got dtype {e.dtype}")
        if e.shape[0] > 0:
            i, j = e[:, 0], e[:, 1]
            if e.min() < 0 or e.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(i >= j):
                raise ValueError("edges must satisfy i < j (no self-loops)")
            if not ((i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))).all():
                raise ValueError("edges must be sorted lexicographically and free of duplicates")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unordered pairs, canonicalizing and
        deduplicating. Self-loops are rejected."""
        arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        if arr.shape[0] > 0:
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loop in edge pairs")
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            arr = np.unique(np.column_stack([lo, hi]), axis=0)
        return cls(n=n, edges=arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    __hash__ = None  # ndarray field; identity hashing would be misleading

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """CSR adjacency (float64, symmetric) for O(deg) neighbor access.

        The sorted edges are already the upper triangle U in CSR order, so
        U is built from them with no sort, and the adjacency is U^T + U:
        the sum of two canonical CSR matrices, which comes out canonical.
        """
        m = self.edge_count
        if m == 0:
            return sp.csr_matrix((self.n, self.n), dtype=np.float64)
        # the index dtype scipy picks for the 2m entries of the sum
        index = np.int32 if 2 * m <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(self.n + 1, dtype=index)
        np.cumsum(np.bincount(self.edges[:, 0], minlength=self.n), out=indptr[1:])
        upper = sp.csr_matrix(
            (np.ones(m), self.edges[:, 1].astype(index), indptr), shape=(self.n, self.n)
        )
        return upper.T.tocsr() + upper


def load_edge_list(
    stream: IO[str], comment: str = "#"
) -> tuple[Graph, dict[str, int]]:
    """Parse a whitespace-separated edge list into a Graph.

    Identifiers are arbitrary strings, mapped to 0-based indices in
    first-seen order. Blank lines and lines starting with ``comment`` are
    skipped. Duplicate edges (in either orientation) are merged; self-loops
    are dropped with a counted warning.

    Returns the graph and the identifier -> index mapping.

    Raises ``EdgeListParseError`` for lines that do not contain exactly two
    tokens, and for entirely empty input.
    """
    ids: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    self_loops = 0
    saw_data = False
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith(comment):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected 2 tokens, got {len(tokens)}: {line!r}", lineno
            )
        saw_data = True
        u = ids.setdefault(tokens[0], len(ids))
        v = ids.setdefault(tokens[1], len(ids))
        if u == v:
            self_loops += 1
            continue
        pairs.append((min(u, v), max(u, v)))
    if not saw_data:
        raise EdgeListParseError("empty edge list input")
    if self_loops:
        warnings.warn(f"dropped {self_loops} self-loop(s)", stacklevel=2)
    return Graph.from_pairs(len(ids), pairs), ids


def write_edge_list(
    g: Graph, stream: IO[str], ids: dict[str, int] | None = None
) -> None:
    """Write the canonical edge list, one "u v" line per edge.

    If ``ids`` is given (identifier -> index), original identifiers are
    written back; otherwise indices are written as decimal strings.
    """
    if ids is not None:
        rev = {v: k for k, v in ids.items()}
        names = [rev[i] for i in range(g.n)]
    else:
        names = [str(i) for i in range(g.n)]
    for i, j in g.edges:
        stream.write(f"{names[i]} {names[j]}\n")


def load_labels(stream: IO[str], ids: dict[str, int], n: int) -> np.ndarray:
    """Read a ground-truth label file: one "node_id label" line per node,
    labels 1-based community integers. Returns a length-n int array aligned
    to graph indices. Nodes absent from ``ids`` are ignored; nodes of the
    graph missing from the file, or listed twice, are an error."""
    labels = np.zeros(n, dtype=np.int64)
    # the line of each node's label, 0 while it has none
    line_of = np.zeros(n, dtype=np.int64)
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected 'node_id label', got: {line!r}", lineno
            )
        if tokens[0] not in ids:
            continue
        idx = ids[tokens[0]]
        if line_of[idx]:
            raise EdgeListParseError(
                f"node {tokens[0]!r} listed twice (first on line {line_of[idx]})", lineno
            )
        try:
            lab = int(tokens[1])
        except ValueError as exc:
            raise EdgeListParseError(f"non-integer label {tokens[1]!r}", lineno) from exc
        if lab < 1:
            raise EdgeListParseError(f"labels are 1-based, got {lab}", lineno)
        labels[idx] = lab
        line_of[idx] = lineno
    if not line_of.all():
        missing = int(np.flatnonzero(line_of == 0)[0])
        raise EdgeListParseError(f"no label for node index {missing}")
    return labels


def degrees(g: Graph) -> np.ndarray:
    """Degree of every node as an int64 vector."""
    if g.edge_count == 0:
        return np.zeros(g.n, dtype=np.int64)
    return np.bincount(g.edges.ravel(), minlength=g.n).astype(np.int64)


def density(g: Graph) -> float:
    """2|E| / (n(n-1)). Requires n >= 2."""
    if g.n < 2:
        raise ValueError("density requires at least 2 nodes")
    return 2.0 * g.edge_count / (g.n * (g.n - 1))


def avg_degree(g: Graph) -> float:
    """2|E| / n."""
    if g.n < 1:
        raise ValueError("average degree requires at least 1 node")
    return 2.0 * g.edge_count / g.n


def largest_connected_component(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the largest connected component.

    Ties between equally large components are broken in favor of the one
    containing the smallest node index. Nodes are re-indexed contiguously
    in increasing original order; returns the old -> new index mapping.
    """
    if g.n == 0:
        return g, {}
    n_comp, member = connected_components(g.adjacency, directed=False)
    sizes = np.bincount(member, minlength=n_comp)
    best = np.flatnonzero(sizes == sizes.max())
    if len(best) > 1:
        # component id of the smallest node index among tied components
        first_node = np.array([np.flatnonzero(member == c)[0] for c in best])
        chosen = best[np.argmin(first_node)]
    else:
        chosen = best[0]
    keep = np.flatnonzero(member == chosen)
    mapping = {int(old): new for new, old in enumerate(keep)}
    mask = np.isin(g.edges[:, 0], keep)
    kept_edges = g.edges[mask]
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    new_edges = remap[kept_edges]
    return Graph(n=len(keep), edges=new_edges), mapping
