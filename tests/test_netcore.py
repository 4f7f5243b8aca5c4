from __future__ import annotations

import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from blockselect.errors import EdgeListParseError
from blockselect.netcore import (
    Graph,
    avg_degree,
    degrees,
    density,
    largest_connected_component,
    load_edge_list,
    load_labels,
    write_edge_list,
)

from conftest import graph_from_text, random_graph


# ---------------------------------------------------------------------------
# load_edge_list
# ---------------------------------------------------------------------------

def test_load_maps_ids_in_first_seen_order():
    g, ids = load_edge_list(io.StringIO("a b\nb c"))
    assert g.n == 3
    assert ids == {"a": 0, "b": 1, "c": 2}
    assert [tuple(e) for e in g.edges] == [(0, 1), (1, 2)]


def test_load_drops_self_loops_with_warning():
    with pytest.warns(UserWarning, match="1 self-loop"):
        g, _ = load_edge_list(io.StringIO("0 0\n0 1"))
    assert g.n == 2
    assert [tuple(e) for e in g.edges] == [(0, 1)]


def test_load_dedups_symmetric_duplicates():
    g, _ = load_edge_list(io.StringIO("1 2\n2 1\n1 2"))
    assert g.n == 2
    assert [tuple(e) for e in g.edges] == [(0, 1)]


def test_load_skips_comments_and_blank_lines():
    g, ids = load_edge_list(io.StringIO("# header\n\na b\n  \n# tail\nb c\n"))
    assert g.n == 3 and g.edge_count == 2


def test_load_malformed_line_reports_line_number():
    with pytest.raises(EdgeListParseError, match="line 2"):
        load_edge_list(io.StringIO("a b\na b c\n"))


def test_load_empty_input_is_error():
    with pytest.raises(EdgeListParseError, match="empty"):
        load_edge_list(io.StringIO("# only comments\n\n"))


def test_write_then_load_round_trips():
    g, ids = load_edge_list(io.StringIO("x y\ny z\nz x\nw x"))
    buf = io.StringIO()
    write_edge_list(g, buf, ids)
    g2, ids2 = load_edge_list(io.StringIO(buf.getvalue()))
    assert g2 == g
    # first-seen order of the canonical edge list may renumber, but the
    # identifier set is preserved
    assert set(ids2) == set(ids)


def test_write_without_ids_uses_indices():
    g = graph_from_text("a b\nb c")
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert buf.getvalue() == "0 1\n1 2\n"


# ---------------------------------------------------------------------------
# structural utilities
# ---------------------------------------------------------------------------

def test_degrees_density_triangle():
    g = graph_from_text("0 1\n1 2\n2 0")
    assert degrees(g).tolist() == [2, 2, 2]
    assert density(g) == 1.0
    assert avg_degree(g) == 2.0


def test_density_empty_graph_on_4_nodes():
    g = Graph(n=4, edges=np.empty((0, 2), dtype=np.int64))
    assert density(g) == 0.0
    assert degrees(g).tolist() == [0, 0, 0, 0]


def test_degrees_density_path():
    g = graph_from_text("0 1\n1 2")
    assert degrees(g).tolist() == [1, 2, 1]
    assert density(g) == pytest.approx(2 / 3)


def test_density_needs_two_nodes():
    g = Graph(n=1, edges=np.empty((0, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        density(g)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(n=2, edges=np.array([[0, 2]]))
    with pytest.raises(ValueError):
        Graph(n=2, edges=np.array([[1, 1]]))


@pytest.mark.parametrize("edges", [[[0, 1], [0, 1]], [[1, 2], [0, 3]], [[0, 2], [0, 1]]],
                         ids=["repeated", "rows unsorted", "columns unsorted"])
def test_graph_refuses_unsorted_or_repeated_edges(edges):
    # a repeated edge counts once on the dense adjacency of small graphs
    # and twice on the CSR one
    with pytest.raises(ValueError, match="sorted lexicographically and free of duplicates"):
        Graph(n=4, edges=np.array(edges))
    want = sorted({tuple(e) for e in edges})
    assert [tuple(e) for e in Graph.from_pairs(4, edges).edges.tolist()] == want


@pytest.mark.parametrize("edges", [[[0.0, 1.0], [1.0, 2.0]], [[0.5, 1.0]]],
                         ids=["float", "fractional"])
def test_graph_refuses_edges_that_are_not_integers(edges):
    with pytest.raises(ValueError, match="must be integers"):
        Graph(n=4, edges=np.array(edges))


# ---------------------------------------------------------------------------
# largest connected component
# ---------------------------------------------------------------------------

def test_lcc_picks_largest_and_reindexes():
    g = Graph.from_pairs(5, [(0, 1), (2, 3), (3, 4)])
    sub, mapping = largest_connected_component(g)
    assert sub.n == 3
    assert mapping == {2: 0, 3: 1, 4: 2}
    assert [tuple(e) for e in sub.edges] == [(0, 1), (1, 2)]


def test_lcc_identity_on_connected_graph():
    g = graph_from_text("0 1\n1 2\n2 0")
    sub, mapping = largest_connected_component(g)
    assert sub == g
    assert mapping == {0: 0, 1: 1, 2: 2}


def test_lcc_tie_broken_by_smallest_node():
    g = Graph.from_pairs(4, [(0, 1), (2, 3)])
    sub, mapping = largest_connected_component(g)
    assert sub.n == 2
    assert 0 in mapping and 1 in mapping


def _union_find_max_component(g: Graph) -> int:
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in g.edges:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
    sizes = {}
    for x in range(g.n):
        r = find(x)
        sizes[r] = sizes.get(r, 0) + 1
    return max(sizes.values()) if sizes else 0


def test_lcc_fuzz_connected_and_max_size():
    for seed in range(25):
        n = int(np.random.default_rng(seed).integers(2, 40))
        g = random_graph(n, 0.08, seed)
        sub, mapping = largest_connected_component(g)
        assert sub.n == _union_find_max_component(g)
        # BFS reachability: the reindexed subgraph is connected
        if sub.n > 0:
            seen = {0}
            frontier = [0]
            adj = sub.adjacency
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adj.indices[adj.indptr[u]:adj.indptr[u + 1]]:
                        if v not in seen:
                            seen.add(int(v))
                            nxt.append(int(v))
                frontier = nxt
            assert len(seen) == sub.n


def _upper_first_adjacency(g: Graph) -> sp.csr_matrix:
    """The CSR adjacency built with the upper-triangle entries first, which
    leaves the COO-to-CSR step its index sort."""
    if g.edge_count == 0:
        return sp.csr_matrix((g.n, g.n), dtype=np.float64)
    i, j = g.edges[:, 0], g.edges[:, 1]
    data = np.ones(2 * g.edge_count, dtype=np.float64)
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    return sp.csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(0, 60), p=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
       seed=st.integers(0, 2**16))
def test_adjacency_arrays_equal_the_upper_first_build(n, p, seed):
    g = random_graph(n, p, seed)
    got, want = g.adjacency, _upper_first_adjacency(g)
    assert got.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# label files
# ---------------------------------------------------------------------------

def test_load_labels_aligns_to_indices():
    g, ids = load_edge_list(io.StringIO("a b\nb c"))
    labels = load_labels(io.StringIO("b 2\na 1\nc 1\n"), ids, g.n)
    assert labels.tolist() == [1, 2, 1]


def test_load_labels_missing_node_is_error():
    g, ids = load_edge_list(io.StringIO("a b\nb c"))
    with pytest.raises(EdgeListParseError, match="no label"):
        load_labels(io.StringIO("a 1\nb 2\n"), ids, g.n)


def test_load_labels_rejects_zero_based():
    g, ids = load_edge_list(io.StringIO("a b"))
    with pytest.raises(EdgeListParseError, match="1-based"):
        load_labels(io.StringIO("a 0\nb 1\n"), ids, g.n)


def test_load_labels_rejects_a_node_listed_twice():
    with pytest.raises(EdgeListParseError,
                       match=r"^line 3: node 'a' listed twice \(first on line 1\)$") as info:
        load_labels(io.StringIO("a 1\nb 2\na 2\n"), {"a": 0, "b": 1}, 2)
    assert info.value.line_number == 3
