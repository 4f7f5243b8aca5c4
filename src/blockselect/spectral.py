"""Eigendecomposition and spectral embeddings of graphs.

An embedding is what an eigendecomposition gives: the d eigenpairs of
largest eigenvalue magnitude, as an n x d array of rows and the
eigenvalues. The adjacency spectral embedding scales each column by
sqrt(|eigenvalue|) (the usual adjacency-embedding convention; pass
``scaled=False`` for the bare orthonormal eigenvector rows). The Laplacian
variant embeds D^{-1/2} A D^{-1/2}, or its regularized form, with the
convention 0/0 = 0 for isolated nodes and returns unscaled eigenvector
rows. The clustering losses read only the rows.

Small or dense problems use a full dense symmetric eigendecomposition;
large sparse ones go through ARPACK's implicitly restarted Lanczos with a
fixed starting vector, so identical inputs always produce bit-identical
embeddings.

The dense path needs numpy alone: scipy loads at the first Lanczos solve
or Laplacian embedding. Each solve runs under a BLAS pin of its own
(``_pool.one_blas_thread``), entered after that import, since the import
loads scipy's own OpenBLAS.

``stacked_ase`` embeds a group of graphs of one size, such as the
replicates of a bootstrap, with each graph's ``ase`` rows bit for bit: one
stacked ``eigh`` up to 512 nodes (``_DENSE_CUTOFF``, where ``ase`` is
always dense), ``ase`` graph by graph above.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _pool
from .errors import NumericalError
from .netcore import Graph, degrees

if TYPE_CHECKING:
    import scipy.sparse as sp

# Dense path whenever n <= this or d is a large fraction of n; ARPACK needs
# k well below n and is only worthwhile on genuinely sparse problems.
_DENSE_CUTOFF = 512
_DENSE_FALLBACK_MAX_N = 8192

_SYM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Embedding:
    """The n x d rows of estimated latent positions and the d retained
    eigenvalues.

    ``rows[i]`` is the i-th latent position; the clustering losses take
    ``rows`` itself. ``eigenvalues`` are sorted by decreasing magnitude.
    Columns follow the sign convention that the entry of largest absolute
    value in each underlying eigenvector is nonnegative.
    """

    rows: np.ndarray
    eigenvalues: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-|entry| coordinate of each
    column is nonnegative (first occurrence wins on ties); ``vectors`` may
    be a stack of matrices."""
    pivot = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    flip = np.take_along_axis(vectors, pivot, axis=-2) < 0
    return np.negative(vectors, out=vectors.copy(), where=flip)


def _order_by_magnitude(values: np.ndarray, vectors: np.ndarray, d: int):
    """The d eigenpairs of largest |eigenvalue|, of one decomposition or of
    a stack of them."""
    # stable sort keeps the solver's original order among magnitude ties
    order = np.argsort(-np.abs(values), axis=-1, kind="stable")[..., :d]
    return (np.take_along_axis(values, order, axis=-1),
            np.take_along_axis(vectors, order[..., None, :], axis=-1))


def top_eigenpairs(matrix: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d eigenpairs of a dense symmetric matrix with largest |eigenvalue|.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted by
    decreasing magnitude and sign-fixed eigenvectors as columns.

    Raises ``ValueError`` if d > n, an entry is not finite, or the matrix
    is not symmetric within 1e-10 (relative to its largest entry).
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    n = m.shape[0]
    if not 1 <= d <= n:
        raise ValueError(f"d must be in [1, {n}], got {d}")
    finite = np.isfinite(m)
    if not finite.all():
        # named before any arithmetic: NaN passes the symmetry test below
        bad = np.argwhere(~finite)
        named = ", ".join(f"({i}, {j}) = {m[i, j]}" for i, j in bad[:4])
        more = f" and {len(bad) - 4} more" if len(bad) > 4 else ""
        raise ValueError(f"matrix entries must be finite: {named}{more}")
    scale = max(1.0, float(np.max(np.abs(m)))) if n else 1.0
    if np.max(np.abs(m - m.T), initial=0.0) > _SYM_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance 1e-10")
    return _dense_eigenpairs(m, d)


def _dense_eigenpairs(matrix: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``top_eigenpairs`` of a checked matrix, or of a stack of them, from
    one ``eigh``: each matrix of a stack gets its own result bit for bit."""
    values, vectors = np.linalg.eigh(matrix)
    values, vectors = _order_by_magnitude(values, vectors, d)
    return values, _fix_signs(vectors)


def _arpack_start_vector(n: int) -> np.ndarray:
    # fixed pseudo-random direction: deterministic and almost surely not
    # orthogonal to any target eigenvector
    v0 = np.random.default_rng(0x5EED_1A9C).standard_normal(n)
    return v0 / np.linalg.norm(v0)


@functools.cache
def _sparse_linalg():
    """``scipy.sparse.linalg``, imported at the first Lanczos solve. The
    import loads scipy's own OpenBLAS, so the BLAS pin looks the loaded
    libraries up again."""
    import scipy.sparse.linalg

    _pool.openblas_symbols.cache_clear()
    return scipy.sparse.linalg


def eigsh(*args, **kwargs):
    """``scipy.sparse.linalg.eigsh``: the one Lanczos solver call."""
    return _sparse_linalg().eigsh(*args, **kwargs)


@functools.cache
def _sparse_product() -> type:
    """The ``_SparseProduct`` class, built at the first Lanczos solve, since
    it subclasses scipy's ``LinearOperator``."""

    class _SparseProduct(_sparse_linalg().LinearOperator):
        """A sparse matrix as the operator ARPACK multiplies by. Its
        ``matvec`` is the bare product: ``LinearOperator.matvec`` checks
        and reshapes its argument on each of the hundreds of calls one
        embedding makes, and the product it computes is the same."""

        def __init__(self, matrix: sp.spmatrix):
            super().__init__(matrix.dtype, matrix.shape)
            self.matrix = matrix

        def matvec(self, x: np.ndarray) -> np.ndarray:
            return self.matrix @ x

        _matvec = matvec

    return _SparseProduct


def _top_eigenpairs_sparse(matrix: sp.spmatrix, d: int):
    linalg = _sparse_linalg()
    try:
        # scipy's OpenBLAS may have loaded inside an outer pin, which
        # cannot have found it
        with _pool.one_blas_thread():
            values, vectors = eigsh(
                _sparse_product()(matrix), k=d, which="LM",
                v0=_arpack_start_vector(matrix.shape[0]),
            )
    except linalg.ArpackError as exc:
        n = matrix.shape[0]
        if n <= _DENSE_FALLBACK_MAX_N:
            return top_eigenpairs(matrix.toarray(), d)
        raise NumericalError(f"Lanczos failed for n={n}, d={d}: {exc}") from exc
    values, vectors = _order_by_magnitude(values, vectors, d)
    return values, _fix_signs(vectors)


def _lanczos_ok(n: int, d: int, nnz: int) -> bool:
    return n > _DENSE_CUTOFF and d <= n // 8 and nnz > 0


def _embed(matrix_sparse: sp.spmatrix, d: int) -> tuple[np.ndarray, np.ndarray]:
    if _lanczos_ok(matrix_sparse.shape[0], d, matrix_sparse.nnz):
        return _top_eigenpairs_sparse(matrix_sparse, d)
    return top_eigenpairs(matrix_sparse.toarray(), d)


def ase(g: Graph, d: int, scaled: bool = True) -> Embedding:
    """Adjacency spectral embedding of the graph into R^d.

    Columns are the eigenvectors of A for the d largest-magnitude
    eigenvalues; with ``scaled`` (the default) each column is multiplied by
    sqrt(|eigenvalue|), so the rows are latent positions in the usual
    adjacency-embedding scale. ``scaled=False`` returns the orthonormal
    eigenvector rows themselves.
    """
    if not 1 <= d <= g.n:
        raise ValueError(f"embedding dimension d must be in [1, {g.n}], got {d}")
    if _lanczos_ok(g.n, d, 2 * g.edge_count):
        values, vectors = _top_eigenpairs_sparse(g.adjacency, d)
    else:
        values, vectors = top_eigenpairs(_dense_adjacencies([g])[0], d)
    if scaled:
        vectors = _scale(values, vectors)
    return Embedding(rows=vectors, eigenvalues=values)


def _dense_adjacencies(graphs: Sequence[Graph]) -> np.ndarray:
    """The dense 0/1 adjacency matrices of one or more graphs of one size,
    as one stack, straight from the edges: each the same matrix as its CSR
    adjacency's toarray(), without building the CSR."""
    n = graphs[0].n
    dense = np.zeros((len(graphs), n, n))
    which = np.repeat(np.arange(len(graphs)), [g.edge_count for g in graphs])
    edges = np.concatenate([g.edges for g in graphs])
    i, j = edges[:, 0], edges[:, 1]
    dense[which, i, j] = 1.0
    dense[which, j, i] = 1.0
    return dense


def _scale(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Eigenvector columns times sqrt(|eigenvalue|), of one decomposition
    or of a stack."""
    return vectors * np.sqrt(np.abs(values))[..., None, :]


def stacked_ase(graphs: Sequence[Graph], d: int) -> np.ndarray:
    """The ``ase(g, d).rows`` of every graph, bit for bit, as one
    (len(graphs), n, d) array.

    The graphs share one size n. Up to 512 nodes (``_DENSE_CUTOFF``) one
    stacked ``eigh`` embeds them all, through the same ordering, sign fix
    and scaling as ``ase``; its stack takes 16 n^2 bytes per graph, so
    callers keep a group small. Larger graphs are embedded by ``ase``, one
    at a time. An error, say a ``LinAlgError`` from one matrix, stops the
    whole call.
    """
    n = graphs[0].n if graphs else 0
    if any(g.n != n for g in graphs):
        raise ValueError("graphs must share one size")
    if not 1 <= d <= n:
        raise ValueError(f"embedding dimension d must be in [1, {n}], got {d}")
    if n > _DENSE_CUTOFF:
        return np.stack([ase(g, d).rows for g in graphs])
    return _scale(*_dense_eigenpairs(_dense_adjacencies(graphs), d))


def laplacian_embedding(g: Graph, d: int, regularize: bool = False) -> Embedding:
    """Spectral embedding of L = D^{-1/2} A D^{-1/2} (Rohe, Chatterjee & Yu
    2011).

    Isolated nodes contribute zero rows/columns to L (0/0 = 0 convention).
    ``regularize`` gives the regularized form of Qin & Rohe (2013): L_tau =
    D_tau^{-1/2} A D_tau^{-1/2} with D_tau = D + tau I and tau the average
    degree, and each nonzero row of the eigenvector matrix rescaled to unit
    Euclidean norm; zero rows stay zero.
    """
    import scipy.sparse as sp

    if not 1 <= d <= g.n:
        raise ValueError(f"embedding dimension d must be in [1, {g.n}], got {d}")
    deg = degrees(g).astype(np.float64)
    if regularize:
        deg += deg.mean()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    scaling = sp.diags(inv_sqrt)
    lap = scaling @ g.adjacency @ scaling
    values, vectors = _embed(lap.tocsr(), d)
    if regularize:
        vectors = vectors.copy()
        norms = np.linalg.norm(vectors, axis=1)
        keep = norms > 1e-12
        vectors[keep] /= norms[keep, None]
        vectors[~keep] = 0.0
    return Embedding(rows=vectors, eigenvalues=values)

