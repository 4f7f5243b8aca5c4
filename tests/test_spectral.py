from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackError, eigsh

from blockselect import spectral
from blockselect.netcore import Graph
from blockselect.spectral import ase, laplacian_embedding, stacked_ase, top_eigenpairs

from conftest import graph_from_text, random_graph


def k3() -> Graph:
    return graph_from_text("0 1\n1 2\n2 0")


# ---------------------------------------------------------------------------
# top_eigenpairs
# ---------------------------------------------------------------------------

def test_complete_graph_leading_pair():
    a = np.ones((3, 3)) - np.eye(3)
    values, vectors = top_eigenpairs(a, 1)
    assert values[0] == pytest.approx(2.0)
    np.testing.assert_allclose(np.abs(vectors[:, 0]), np.full(3, 1 / np.sqrt(3)),
                               atol=1e-12)
    assert vectors[np.argmax(np.abs(vectors[:, 0])), 0] > 0  # sign convention


def test_complete_graph_full_spectrum_order():
    a = np.ones((3, 3)) - np.eye(3)
    values, _ = top_eigenpairs(a, 3)
    assert values[0] == pytest.approx(2.0)
    np.testing.assert_allclose(sorted(values[1:]), [-1.0, -1.0], atol=1e-12)
    assert np.all(np.diff(np.abs(values)) <= 1e-12)  # magnitude non-increasing


def test_full_decomposition_reconstructs_matrix():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6))
    m = (m + m.T) / 2
    values, vectors = top_eigenpairs(m, 6)
    np.testing.assert_allclose(vectors @ np.diag(values) @ vectors.T, m, atol=1e-8)


def test_rejects_d_out_of_range_and_asymmetry():
    a = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(ValueError):
        top_eigenpairs(a, 4)
    with pytest.raises(ValueError):
        top_eigenpairs(a, 0)
    bad = a.copy()
    bad[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        top_eigenpairs(bad, 1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [[(0, 1), (1, 0)], [(2, 2)], [(0, 3)]])
def test_rejects_entries_that_are_not_finite(value, where):
    # a NaN pair passed the symmetry test and gave eigenvalues [1, 1]; an
    # infinite one gave NaN eigenvalues, or numpy's "invalid value" warning
    m = np.eye(4)
    for i, j in where:
        m[i, j] = value
    named = ", ".join(f"\\({i}, {j}\\) = {value}" for i, j in where)
    with pytest.raises(ValueError, match=f"^matrix entries must be finite: {named}$"):
        top_eigenpairs(m, 2)


def test_rejection_names_four_entries_and_counts_the_rest():
    with pytest.raises(ValueError, match=r"\(0, 3\) = nan and 12 more$"):
        top_eigenpairs(np.full((4, 4), np.nan), 1)


def _fix_signs_by_column(vectors):
    """The sign convention one column at a time: the first entry of
    largest |value| made nonnegative."""
    v = vectors.copy()
    for col in range(v.shape[1]):
        pivot = int(np.argmax(np.abs(v[:, col])))
        if v[pivot, col] < 0:
            v[:, col] = -v[:, col]
    return v


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), d=st.integers(1, 12), seed=st.integers(0, 2**16),
       ties=st.booleans())
def test_sign_fix_and_order_match_the_column_loop(n, d, seed, ties):
    rng = np.random.default_rng(seed)
    # ties: entries from a few values, so several entries share the largest
    # magnitude and several eigenvalues share one
    draw = (lambda shape: rng.integers(-2, 3, shape) / 2.0) if ties else rng.standard_normal
    vectors, values = draw((n, n)), draw(n)
    d = min(d, n)
    got_values, got_vectors = spectral._order_by_magnitude(values, vectors, d)
    order = np.argsort(-np.abs(values), kind="stable")[:d]
    assert got_values.tobytes() == values[order].tobytes()
    assert got_vectors.tobytes() == vectors[:, order].tobytes()
    assert spectral._fix_signs(vectors).tobytes() == _fix_signs_by_column(vectors).tobytes()
    stack = np.stack([vectors, -vectors, draw((n, n))])
    fixed = spectral._fix_signs(stack)
    for got, one in zip(fixed, stack):
        assert got.tobytes() == _fix_signs_by_column(one).tobytes()


# ---------------------------------------------------------------------------
# adjacency embedding
# ---------------------------------------------------------------------------

def test_disjoint_k2s_block_spectrum():
    g = Graph.from_pairs(4, [(0, 1), (2, 3)])
    emb = ase(g, 2)
    np.testing.assert_allclose(np.abs(emb.eigenvalues), [1.0, 1.0], atol=1e-12)
    # each eigenvector lives on one component: every row has exactly one
    # nonzero coordinate, of magnitude 1/sqrt(2)
    nonzero = np.abs(emb.rows) > 1e-9
    assert nonzero.sum(axis=1).tolist() == [1, 1, 1, 1]
    np.testing.assert_allclose(
        np.abs(emb.rows[nonzero]), np.full(4, 1 / np.sqrt(2)), atol=1e-12
    )


def test_er_leading_eigenvalue_matches_np():
    # dense Erdos-Renyi: leading eigenvalue concentrates near n*p
    g = random_graph(200, 0.5, seed=42)
    emb = ase(g, 1)
    assert abs(emb.eigenvalues[0] - 100.0) <= 15.0


def test_empty_graph_embedding_is_zero():
    g = Graph(n=5, edges=np.empty((0, 2), dtype=np.int64))
    emb = ase(g, 1)
    assert emb.eigenvalues[0] == 0.0
    np.testing.assert_allclose(emb.rows, 0.0, atol=1e-15)


def test_scaled_rows_are_sqrt_eigenvalue_multiples():
    g = random_graph(40, 0.3, seed=1)
    raw = ase(g, 3, scaled=False)
    scl = ase(g, 3, scaled=True)
    np.testing.assert_allclose(
        scl.rows, raw.rows * np.sqrt(np.abs(raw.eigenvalues))[None, :], atol=1e-14
    )


def test_d_out_of_range():
    g = k3()
    with pytest.raises(ValueError):
        ase(g, 4)


def _stack_cases(n: int, seed: int) -> list[Graph]:
    """Graphs of n nodes: none with no edges, one with isolated nodes, and
    random graphs sparse and dense."""
    isolated = random_graph(n, 0.3, seed)
    isolated = Graph(n=n, edges=isolated.edges[isolated.edges[:, 1] < n - n // 3])
    return [Graph(n=n, edges=np.empty((0, 2), dtype=np.int64)), isolated,
            random_graph(n, 0.05, seed + 1), random_graph(n, 0.5, seed + 2)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 34, 181, 512])
def test_stacked_ase_matches_ase_bit_for_bit(n):
    graphs = _stack_cases(n, n)
    if n == 512:
        graphs = graphs[1:3]  # one stacked eigh of 512 x 512 matrices costs 40 ms each
    for d in range(1, min(4, n) + 1):
        rows = stacked_ase(graphs, d)
        assert rows.shape == (len(graphs), n, d)
        for g, got in zip(graphs, rows):
            assert got.tobytes() == ase(g, d).rows.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), d=st.integers(1, 4), size=st.integers(1, 5),
       p=st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0]), seed=st.integers(0, 2**16))
def test_stacked_ase_matches_ase_on_drawn_stacks(n, d, size, p, seed):
    graphs = [random_graph(n, p, seed + i) for i in range(size)]
    d = min(d, n)
    for g, got in zip(graphs, stacked_ase(graphs, d)):
        assert got.tobytes() == ase(g, d).rows.tobytes()


@pytest.mark.parametrize("n", [513, 600])
def test_stacked_ase_above_the_dense_cutoff_is_ase_graph_by_graph(monkeypatch, n):
    graphs = _stack_cases(n, n)
    # Lanczos for the graphs with edges, and the dense path past n // 8
    for d in (1, 3, n // 8 + 1):
        want = [ase(g, d).rows for g in graphs]
        rows = stacked_ase(graphs, d)
        assert rows.shape == (len(graphs), n, d)
        for got, w in zip(rows, want):
            assert got.tobytes() == w.tobytes()
    # each graph reaches ``ase``, where the benchmark's tracer sees it
    seen = []
    monkeypatch.setattr(spectral, "ase", lambda g, d, _ase=ase: seen.append(g) or _ase(g, d))
    stacked_ase(graphs, 3)
    assert [id(g) for g in seen] == [id(g) for g in graphs]


def test_stacked_ase_refuses_mixed_sizes_no_graphs_and_a_bad_dimension():
    for n in (5, 513):
        with pytest.raises(ValueError, match="graphs must share one size"):
            stacked_ase([random_graph(n, 0.05, 0), random_graph(n + 1, 0.05, 0)], 2)
        for d in (0, n + 1):
            with pytest.raises(ValueError, match="d must be in"):
                stacked_ase([random_graph(n, 0.05, 0)], d)
    with pytest.raises(ValueError, match="d must be in"):
        stacked_ase([k3()], 4)
    with pytest.raises(ValueError, match="d must be in"):
        stacked_ase([], 1)


# ---------------------------------------------------------------------------
# laplacian embedding
# ---------------------------------------------------------------------------

def test_k3_laplacian_leading_pair():
    emb = laplacian_embedding(k3(), 1)
    assert emb.eigenvalues[0] == pytest.approx(1.0)
    np.testing.assert_allclose(np.abs(emb.rows[:, 0]), np.full(3, 1 / np.sqrt(3)),
                               atol=1e-12)


def test_star_laplacian_top2_by_magnitude():
    # star on 4 nodes: L eigenvalues are {1, 0, 0, -1}
    g = graph_from_text("0 1\n0 2\n0 3")
    emb = laplacian_embedding(g, 2)
    assert sorted(np.round(emb.eigenvalues, 10).tolist()) == [-1.0, 1.0]


def test_regularized_rows_have_unit_norm():
    g = random_graph(30, 0.15, seed=7)
    emb = laplacian_embedding(g, 3, regularize=True)
    norms = np.linalg.norm(emb.rows, axis=1)
    nz = norms > 0
    np.testing.assert_allclose(norms[nz], 1.0, atol=1e-12)


@pytest.mark.parametrize("regularize", [False, True])
def test_laplacian_embedding_matches_dense_eigh_of_its_published_form(regularize):
    # sc_l's form is D^{-1/2} A D^{-1/2} (Rohe, Chatterjee & Yu 2011); rsc_l's
    # is D_tau^{-1/2} A D_tau^{-1/2}, D_tau = D + tau I with tau the average
    # degree, rows then normalized (Qin & Rohe 2013). Node 12 is isolated.
    pairs = np.argwhere(np.triu(random_graph(12, 0.35, seed=4).adjacency.toarray()))
    g = Graph.from_pairs(13, pairs.tolist())
    a = g.adjacency.toarray()
    deg = a.sum(axis=1)
    if regularize:
        deg = deg + deg.mean()
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros(13), where=deg > 0)
    values, vectors = np.linalg.eigh(inv_sqrt[:, None] * a * inv_sqrt)
    top = np.argsort(-np.abs(values), kind="stable")[:2]
    want = vectors[:, top]
    if regularize:
        norms = np.linalg.norm(want, axis=1)
        want = np.divide(want, norms[:, None], out=np.zeros_like(want),
                         where=norms[:, None] > 1e-12)
    emb = laplacian_embedding(g, 2, regularize=regularize)
    np.testing.assert_allclose(emb.eigenvalues, values[top], atol=1e-12)
    # equal Gram matrices: the rows agree up to an orthogonal map of R^2
    np.testing.assert_allclose(emb.rows @ emb.rows.T, want @ want.T, atol=1e-10)
    np.testing.assert_array_equal(emb.rows[12], 0.0)


def test_isolated_nodes_give_zero_rows():
    g = Graph.from_pairs(5, [(0, 1), (1, 2), (2, 0)])  # nodes 3, 4 isolated
    emb = laplacian_embedding(g, 2, regularize=True)
    np.testing.assert_allclose(emb.rows[3:], 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# invariants (both dense and ARPACK paths)
# ---------------------------------------------------------------------------

def _check_eigen_contract(g: Graph, d: int):
    emb = ase(g, d, scaled=False)
    a = g.adjacency.toarray()
    scale = max(1.0, np.abs(emb.eigenvalues).max())
    for j in range(d):
        residual = np.linalg.norm(a @ emb.rows[:, j] - emb.eigenvalues[j] * emb.rows[:, j])
        assert residual <= 1e-6 * scale
    gram = emb.rows.T @ emb.rows
    assert np.linalg.norm(gram - np.eye(d)) <= 1e-8
    assert np.all(np.diff(np.abs(emb.eigenvalues)) <= 1e-9)


def test_eigen_contract_dense_path():
    for seed in range(5):
        _check_eigen_contract(random_graph(50, 0.2, seed), d=4)


def test_eigen_contract_sparse_path():
    # n > 512 with small d goes through ARPACK
    g = random_graph(700, 0.02, seed=0)
    _check_eigen_contract(g, d=3)


def test_sparse_path_agrees_with_dense_oracle():
    g = random_graph(600, 0.03, seed=5)
    emb = ase(g, 3, scaled=False)
    w = np.linalg.eigvalsh(g.adjacency.toarray())
    top = w[np.argsort(-np.abs(w), kind="stable")[:3]]
    np.testing.assert_allclose(emb.eigenvalues, top, atol=1e-8)


def test_determinism_bit_identical():
    g = random_graph(80, 0.2, seed=9)
    e1, e2 = ase(g, 4), ase(g, 4)
    assert np.array_equal(e1.rows, e2.rows)
    assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
    g_big = random_graph(600, 0.02, seed=9)
    e3, e4 = ase(g_big, 3), ase(g_big, 3)
    assert np.array_equal(e3.rows, e4.rows)


def test_permutation_equivariance():
    rng = np.random.default_rng(11)
    g = random_graph(40, 0.25, seed=13)
    perm = rng.permutation(g.n)
    g2 = Graph.from_pairs(g.n, [(perm[i], perm[j]) for i, j in g.edges])
    e1 = ase(g, 3)
    e2 = ase(g2, 3)
    np.testing.assert_allclose(e1.eigenvalues, e2.eigenvalues, atol=1e-9)
    # rows of the relabeled graph at perm[i] match rows of the original at i
    # up to per-column sign
    diff = np.min(
        [
            np.abs(e2.rows[perm] - e1.rows * signs).max()
            for signs in (np.array(s) for s in
                          [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1),
                           (1, -1, -1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)])
        ]
    )
    assert diff <= 1e-8


# ---------------------------------------------------------------------------
# the ARPACK operator
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(513, 900), p=st.sampled_from([0.005, 0.01, 0.03]),
       d=st.integers(1, 6), laplacian=st.booleans(), seed=st.integers(0, 2**16))
def test_lanczos_operator_gives_the_eigenpairs_of_the_matrix(n, p, d, laplacian, seed):
    matrix = random_graph(n, p, seed).adjacency
    if laplacian:
        deg = np.asarray(matrix.sum(axis=1)).ravel()
        inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
        matrix = (sp.diags(inv_sqrt) @ matrix @ sp.diags(inv_sqrt)).tocsr()
    v0 = spectral._arpack_start_vector(n)
    want_values, want_vectors = eigsh(matrix, k=d, which="LM", v0=v0)
    values, vectors = eigsh(spectral._SparseProduct(matrix), k=d, which="LM", v0=v0)
    assert values.tobytes() == want_values.tobytes()
    assert vectors.tobytes() == want_vectors.tobytes()


def test_lanczos_failure_falls_back_to_dense(monkeypatch):
    g = random_graph(600, 0.02, seed=3)
    calls = []

    def failing_eigsh(*args, **kwargs):
        calls.append(None)
        raise ArpackError(-9999)

    monkeypatch.setattr(spectral, "eigsh", failing_eigsh)
    emb = ase(g, 3)
    assert len(calls) == 1
    values, vectors = top_eigenpairs(g.adjacency.toarray(), 3)
    np.testing.assert_array_equal(emb.eigenvalues, values)
    np.testing.assert_array_equal(emb.rows, vectors * np.sqrt(np.abs(values)))


@pytest.mark.parametrize("n, d, p", [
    (34, 2, 0.15),    # dense path by size
    (200, 9, 0.05),
    (512, 3, 0.02),   # the size cutoff itself
    (6, 2, 0.0),      # no edges
    (600, 3, 0.0),    # no edges past the size cutoff
    (530, 80, 0.02),  # past the cutoff, but d > n // 8
    (600, 3, 0.02),   # Lanczos
])
def test_ase_from_edges_matches_csr_embedding(n, d, p):
    g = random_graph(n, p, seed=n + d)
    values, vectors = spectral._embed(g.adjacency, d)
    raw = ase(Graph(n=g.n, edges=g.edges), d, scaled=False)
    assert raw.rows.tobytes() == vectors.tobytes()
    assert raw.eigenvalues.tobytes() == values.tobytes()
    scl = ase(Graph(n=g.n, edges=g.edges), d)
    assert scl.rows.tobytes() == (vectors * np.sqrt(np.abs(values))[None, :]).tobytes()
