"""Clustering objectives over spectral embeddings and their minimizers.

Three losses, one per blockmodel: squared distances to community centroids
(k-means geometry), squared residuals to the best rank-1 subspace per
community, and squared residuals to the best rank-K subspace per community.
The rank-r losses are minimized by a greedy alternation (the k-plane
algorithm of Bradley & Mangasarian 2000): refit each community's subspace
as the top eigenvectors of its d x d scatter matrix, reassign every point
to the community whose subspace is closest, repeat until the labels stop
changing. The centroid loss is minimized by Lloyd's algorithm.

All minimizers are restarted from multiple seeded initializations; the best
objective wins, ties broken by restart index. Seeding is per restart, but
the descent advances a block of restarts together: one round is a few
stacked matmuls and one batched ``eigh`` over every (restart, community)
pair, and a restart drops out of the block when its labels stop changing.
A point's residual to a community is ||x||^2 - sum_b (b.x)^2 over the
community's kept eigenvectors b, all from one (restarts * communities *
rank, d) x (d, n) product; costs are laid out (restart, community, node),
so the assignment compares contiguous rows.
The blocks run in parallel on the package's worker pool (``_pool``).
Objectives are checked non-increasing at every iteration of every restart
(between empty-cluster repairs); a violation raises ``NumericalError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import _pool
from ._seeds import derive_seed
from .errors import NumericalError
from .netcore import Graph
from .spectral import Embedding, EmbeddingSource, ase, laplacian_embedding, top_eigenpairs

_MAX_ROUNDS = 100
_MONOTONE_RTOL = 1e-10
# restarts descend together in blocks whose per-round working arrays take
# about this many bytes, so batching does not raise peak memory
_BLOCK_BYTES = 1 << 20
# restarts whose descent objective is within this share of the rows' total
# energy of the lowest are scored with the exact loss
_SCORE_MARGIN = 1e-8


@dataclass(frozen=True, eq=False)
class ClusterSolution:
    """Labels plus per-cluster geometry for one minimized objective.

    ``centroids`` is set for the centroid loss; ``bases`` (one orthonormal
    d x r_k matrix per cluster, possibly rank-truncated) for the subspace
    losses. ``degenerate`` flags iteration-cap hits and clusters smaller
    than the requested rank.
    """

    labels: np.ndarray = field(repr=False)
    objective: float
    centroids: np.ndarray | None = field(default=None, repr=False)
    bases: list[np.ndarray] | None = field(default=None, repr=False)
    n_iters: int = 0
    n_restarts_used: int = 1
    degenerate: bool = False


# ---------------------------------------------------------------------------
# objective values
# ---------------------------------------------------------------------------

def q1_value(labels: np.ndarray, emb: Embedding) -> float:
    """Sum of squared distances from each row to its community mean."""
    labels = np.asarray(labels, dtype=np.int64)
    total = 0.0
    for k in np.unique(labels):
        pts = emb.rows[labels == k]
        centroid = pts.mean(axis=0)
        total += float(((pts - centroid) ** 2).sum())
    return total


def q_subspace_value(labels: np.ndarray, emb: Embedding, r: int) -> float:
    """Sum of squared residuals to each community's best rank-r subspace.

    Equals sum_k ||M_k||_F^2 - ||V_k^T M_k||_F^2 where M_k stacks the
    community's rows as columns and V_k holds its top left singular
    vectors; computed as the trailing singular-value energy, which is the
    same quantity without cancellation.
    """
    if r < 1:
        raise ValueError("rank r must be >= 1")
    labels = np.asarray(labels, dtype=np.int64)
    total = 0.0
    for k in np.unique(labels):
        pts = emb.rows[labels == k]
        svals = np.linalg.svd(pts, compute_uv=False)
        total += float((svals[min(r, svals.size):] ** 2).sum())
    return total


# ---------------------------------------------------------------------------
# batched greedy descent shared by all minimizers
# ---------------------------------------------------------------------------

# per-restart state is a tuple of arrays whose leading axis is the restart
Model = tuple[np.ndarray, ...]


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    """(m, k, n) float indicator of ``labels`` (m, n) with values in [1, k]."""
    return (labels[:, None, :] == np.arange(1, k + 1)[:, None]).astype(np.float64)


def _repair_empty(labels: np.ndarray, point_cost: np.ndarray, k: int) -> bool:
    """Move the worst-fitting point from a cluster of size >= 2 into each
    empty cluster. Returns True if any repair happened."""
    repaired = False
    counts = np.bincount(labels, minlength=k + 1)
    for empty in range(1, k + 1):
        if counts[empty] > 0:
            continue
        movable = counts[labels] >= 2
        if not movable.any():  # unreachable when n >= k
            raise NumericalError("cannot repair empty cluster")
        cost = np.where(movable, point_cost, -np.inf)
        victim = int(np.argmax(cost))
        counts[labels[victim]] -= 1
        labels[victim] = empty
        counts[empty] += 1
        repaired = True
    return repaired


def _assign(cost: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels of least cost (ties to the lowest community) for each restart
    of an (m, n, k) cost stack, with empty communities repaired; also
    returns which restarts needed a repair."""
    m, n, _ = cost.shape
    # a running strict-< comparison over the k communities; the cost
    # functions lay each community's (m, n) slice out contiguously
    least = cost[:, :, 0].copy()
    labels = np.ones((m, n), dtype=np.int64)
    lower = np.empty((m, n), dtype=bool)
    for j in range(1, k):
        np.less(cost[:, :, j], least, out=lower)
        if j < k - 1:
            np.minimum(cost[:, :, j], least, out=least)
        np.putmask(labels, lower, j + 1)
    offset = (k + 1) * np.arange(m)[:, None]
    present = np.bincount((labels + offset).ravel(), minlength=m * (k + 1)) > 0
    repaired = np.zeros(m, dtype=bool)
    points = np.arange(n)
    for i in np.flatnonzero(~present.reshape(m, k + 1)[:, 1:].all(axis=1)):
        repaired[i] = _repair_empty(labels[i], cost[i, points, labels[i] - 1], k)
    return labels, repaired


class _Descent(NamedTuple):
    """Final state of a block of restarts, one row per restart."""

    labels: np.ndarray
    model: Model
    objective: np.ndarray
    rounds: np.ndarray
    converged: np.ndarray
    truncated: np.ndarray


def _descend(
    labels: np.ndarray,
    model: Model,
    prev_obj: np.ndarray,
    cost: Callable[[Model], np.ndarray],
    refit: Callable[[np.ndarray], tuple[Model, np.ndarray, np.ndarray]],
    k: int,
) -> _Descent:
    """Alternate assignment and refit for a block of restarts.

    ``labels`` (m, n) and ``model`` are each restart's start, ``prev_obj``
    the objective of that start. ``cost(model)`` gives the (m, n, k) cost
    of every point in every community; ``refit(labels)`` gives the model,
    the objective and a truncation flag per restart. Each restart stops
    when its labels repeat or after ``_MAX_ROUNDS`` rounds; only restarts
    still running are advanced.
    """
    m = labels.shape[0]
    out = _Descent(
        labels.copy(), tuple(a.copy() for a in model), np.empty(m),
        np.zeros(m, dtype=np.int64), np.zeros(m, dtype=bool), np.zeros(m, dtype=bool),
    )
    active = np.arange(m)
    while active.size:
        new_labels, repaired = _assign(cost(model), k)
        model, obj, truncated = refit(new_labels)
        limit = prev_obj + _MONOTONE_RTOL * np.maximum(1.0, np.abs(prev_obj))
        bad = np.flatnonzero(~repaired & (obj > limit))
        if bad.size:
            i = bad[0]
            raise NumericalError(
                "objective increased within an iteration: "
                f"{float(prev_obj[i])!r} -> {float(obj[i])!r}"
            )
        out.rounds[active] += 1
        same = (new_labels == labels).all(axis=1)
        done = same | (out.rounds[active] >= _MAX_ROUNDS)
        labels, prev_obj = new_labels, obj
        if not done.any():
            continue
        finished = active[done]
        out.labels[finished] = new_labels[done]
        for kept, a in zip(out.model, model):
            kept[finished] = a[done]
        out.objective[finished] = obj[done]
        out.converged[finished] = same[done]
        out.truncated[finished] = truncated[done]
        running = ~done
        active = active[running]
        labels, prev_obj = new_labels[running], obj[running]
        model = tuple(a[running] for a in model)
    return out


def _blocks(n_restarts: int, n: int, k: int, d: int) -> list[range]:
    """Split the restarts into near-equal blocks within ``_BLOCK_BYTES``."""
    per_restart = 8 * n * (3 * k + d + 2)
    cap = max(1, _BLOCK_BYTES // per_restart)
    n_blocks = -(-n_restarts // cap)
    size = -(-n_restarts // n_blocks)
    return [range(s, min(s + size, n_restarts)) for s in range(0, n_restarts, size)]


class _Best(NamedTuple):
    labels: np.ndarray
    objective: float
    model: Model
    n_iters: int
    degenerate: bool


def _block_best(job, block: range) -> _Best:
    """Descend one block of restarts and keep the one of lowest exact loss,
    ties to the lowest restart index; only restarts that can hold it are
    scored.

    ``job = (start, cost, refit, exact, k, margin, scored)``; see
    ``_best_restart``. ``scored`` maps a labeling's bytes to its exact
    loss and is shared by the blocks that run in one process.
    """
    start, cost, refit, exact, k, margin, scored = job
    run = _descend(*start(block), cost, refit, k)
    best: _Best | None = None
    for i in np.flatnonzero(run.objective <= run.objective.min() + margin):
        key = run.labels[i].tobytes()
        if key not in scored:
            scored[key] = exact(run.labels[i])
        if best is None or scored[key] < best.objective:
            best = _Best(
                labels=run.labels[i].copy(),
                objective=scored[key],
                model=tuple(a[i] for a in run.model),
                n_iters=int(run.rounds[i]),
                degenerate=bool(run.truncated[i] or not run.converged[i]),
            )
    assert best is not None
    return best


def _best_restart(
    n_restarts: int,
    rows: np.ndarray,
    k: int,
    start: Callable[[range], tuple[np.ndarray, Model, np.ndarray]],
    cost: Callable[[Model], np.ndarray],
    refit: Callable[[np.ndarray], tuple[Model, np.ndarray, np.ndarray]],
    exact: Callable[[np.ndarray], float],
) -> _Best:
    """Descend all restarts, block by block, and keep the one of lowest
    exact loss ``exact(labels)``, ties to the lowest restart index.

    ``start(block)`` gives the block's start labels, model and objective.
    The descent objective is accurate to about 1e-14 of the rows' total
    energy, so only restarts within ``_SCORE_MARGIN`` of that energy of a
    block's lowest can hold the lowest exact loss; only those are scored,
    each distinct labeling once per process.

    A block depends only on its restarts' seeds, so the blocks run on the
    worker pool (``_pool``), and their bests merge in block order with the
    same strict comparison: the solution, and the error of the lowest
    block that fails, are those of the serial run at every worker count.
    """
    n, d = rows.shape
    margin = _SCORE_MARGIN * float((rows**2).sum())
    # a forked worker scores into its own copy of the cache
    job = (start, cost, refit, exact, k, margin, {})
    best: _Best | None = None
    with _pool.ordered_results(job, _block_best, _blocks(n_restarts, n, k, d)) as blocks:
        for block_best in blocks:
            if best is None or block_best.objective < best.objective:
                best = block_best
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# centroid loss minimization (Lloyd + k-means++ restarts)
# ---------------------------------------------------------------------------

def _kmeanspp_init(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = rows.shape[0]
    centroids = np.empty((k, rows.shape[1]))
    centroids[0] = rows[rng.integers(n)]
    d2 = ((rows - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = rows[idx]
        d2 = np.minimum(d2, ((rows - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _centroid_cost(rows_t: np.ndarray, row_sq: np.ndarray, model: Model) -> np.ndarray:
    """(m, n, k) squared distances of every row to every centroid, laid out
    (m, k, n) in memory; ``rows_t`` is the (d, n) transpose of the rows."""
    (centroids,) = model
    m, k, d = centroids.shape
    # one (m*k, d) x (d, n) product
    cross = (centroids.reshape(m * k, d) @ rows_t).reshape(m, k, -1)
    d2 = row_sq - 2.0 * cross + (centroids**2).sum(axis=2)[:, :, None]
    return np.maximum(d2, 0.0, out=d2).transpose(0, 2, 1)


def _centroid_refit(rows: np.ndarray, labels: np.ndarray, k: int):
    """Community means of every restart as one one-hot matmul, with the
    centroid loss and an all-False truncation flag."""
    m = labels.shape[0]
    onehot = _one_hot(labels, k)
    centroids = (onehot @ rows) / onehot.sum(axis=2)[:, :, None]
    resid = rows - centroids[np.arange(m)[:, None], labels - 1]
    return (centroids,), (resid**2).sum(axis=(1, 2)), np.zeros(m, dtype=bool)


def minimize_q1(
    emb: Embedding, k: int, n_restarts: int = 10, seed: int = 0
) -> ClusterSolution:
    """Minimize the centroid loss with Lloyd's algorithm, k-means++
    seeding, and ``n_restarts`` independent starts."""
    rows = emb.rows
    n = rows.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if n_restarts < 1:
        raise ValueError("need at least one restart")
    row_sq = (rows**2).sum(axis=1)
    rows_t = np.ascontiguousarray(rows.T)

    def start(block: range):
        centroids = np.stack([
            _kmeanspp_init(rows, k, np.random.default_rng(
                derive_seed(seed, "q1-restart", restart)))
            for restart in block
        ])
        m = len(block)
        return np.zeros((m, n), dtype=np.int64), (centroids,), np.full(m, np.inf)

    best = _best_restart(
        n_restarts, rows, k, start,
        lambda model: _centroid_cost(rows_t, row_sq, model),
        lambda labels: _centroid_refit(rows, labels, k),
        lambda labels: q1_value(labels, emb),
    )
    return ClusterSolution(
        labels=best.labels,
        objective=best.objective,
        centroids=best.model[0].copy(),
        n_iters=best.n_iters,
        n_restarts_used=n_restarts,
        degenerate=best.degenerate,
    )


# ---------------------------------------------------------------------------
# subspace loss minimization (greedy projection / reassignment)
# ---------------------------------------------------------------------------

def _subspace_cost(row_sq: np.ndarray, rows_t: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(m, n, k) squared residuals ||x||^2 - sum_b (b.x)^2 of every row to
    every community's subspace, laid out (m, k, n) in memory, from the
    (m, k, r, d) basis rows (zero rows past a community's rank) and the
    (d, n) transpose of the rows."""
    m, k, r, d = basis.shape
    # one (m*k*r, d) x (d, n) product
    coef = (basis.reshape(m * k * r, d) @ rows_t).reshape(m, k, r, -1)
    np.square(coef, out=coef)
    resid = np.subtract(row_sq, coef[:, :, 0] if r == 1 else coef.sum(axis=2))
    return np.maximum(resid, 0.0, out=resid).transpose(0, 2, 1)


def _subspace_refit(outer: np.ndarray, labels: np.ndarray, k: int, r: int):
    """Each community's top min(r, n_k, d) scatter eigenvectors, for every
    restart at once: one one-hot matmul gives the (m, k, d, d) scatter
    matrices and one batched ``eigh`` their eigenpairs. Returns the model
    (the (m, k, min(r, d), d) eigenvectors as rows, largest first and zero
    past the community's rank, and the ranks), the trailing-eigenvalue
    objective and the truncation flag."""
    m, n = labels.shape
    d = outer.shape[1]
    full_rank = min(r, d)
    onehot = _one_hot(labels, k)
    counts = onehot.sum(axis=2)
    scatter = (onehot.reshape(m * k, n) @ outer.reshape(n, d * d)).reshape(m, k, d, d)
    evals, evecs = np.linalg.eigh(scatter)
    rank = np.minimum(counts, full_rank).astype(np.int64)
    top = evecs[..., ::-1][..., :full_rank].transpose(0, 1, 3, 2)
    basis = top * (np.arange(full_rank) < rank[:, :, None])[..., None]
    obj = np.where(np.arange(d) >= d - rank[:, :, None], 0.0, evals).sum(axis=(1, 2))
    return (basis, rank), obj, (counts < full_rank).any(axis=1)


def _seed_labels(
    rows: np.ndarray, rows_t: np.ndarray, row_sq: np.ndarray, k: int, r: int,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Random initial assignments seeded by candidate subspaces, one per
    generator in ``rngs``.

    Draws k disjoint random point subsets, spans each, and assigns every
    point to its nearest candidate span. Uniform random labels make all
    initial clusters span nearly the same space, which strands the greedy
    descent in poor basins; subset spans give genuinely distinct starts.
    """
    n, d = rows.shape
    size = max(1, min(r, n // k))
    picks = np.stack([rng.permutation(n)[: k * size] for rng in rngs])
    pts = rows[picks].reshape(len(rngs), k, size, d)
    # the columns of each subset's Q factor are an orthonormal basis of its span
    q, _ = np.linalg.qr(pts.transpose(0, 1, 3, 2))
    return _assign(_subspace_cost(row_sq, rows_t, q.transpose(0, 1, 3, 2)), k)[0]


def minimize_q_subspace(
    emb: Embedding,
    k: int,
    r: int,
    n_restarts: int = 20,
    seed: int = 0,
) -> ClusterSolution:
    """Greedy minimization of the rank-r subspace loss.

    Alternates refitting each community's rank-r basis with reassigning
    every point to the community of smallest projection residual (ties to
    the lowest community index). Every restart starts from random
    assignments seeded by candidate subspaces.
    """
    rows = emb.rows
    n = rows.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if r < 1:
        raise ValueError("rank r must be >= 1")
    if n_restarts < 1:
        raise ValueError("need at least one restart")
    row_sq = (rows**2).sum(axis=1)
    rows_t = np.ascontiguousarray(rows.T)
    outer = rows[:, :, None] * rows[:, None, :]

    def start(block: range):
        rngs = [np.random.default_rng(derive_seed(seed, "qsub-restart", restart))
                for restart in block]
        labels = _seed_labels(rows, rows_t, row_sq, k, r, rngs)
        model, obj, _ = _subspace_refit(outer, labels, k, r)
        return labels, model, obj

    best = _best_restart(
        n_restarts, rows, k, start,
        lambda model: _subspace_cost(row_sq, rows_t, model[0]),
        lambda labels: _subspace_refit(outer, labels, k, r),
        lambda labels: q_subspace_value(labels, emb, r),
    )
    basis, rank = best.model
    # degenerate: rank-deficient clusters at the solution or an
    # iteration-cap exit
    return ClusterSolution(
        labels=best.labels,
        objective=best.objective,
        bases=[basis[j, : rank[j]].T.copy() for j in range(k)],
        n_iters=best.n_iters,
        n_restarts_used=n_restarts,
        degenerate=best.degenerate,
    )


# ---------------------------------------------------------------------------
# spectral-clustering baselines; like ``detect``, each runs BLAS on one
# thread throughout
# ---------------------------------------------------------------------------

@_pool.one_blas_thread()
def sc_l(g: Graph, k: int, n_restarts: int = 10, seed: int = 0) -> ClusterSolution:
    """K-means on the normalized-Laplacian embedding."""
    emb = laplacian_embedding(g, k, regularize=False)
    return minimize_q1(emb, k, n_restarts=n_restarts, seed=seed)


@_pool.one_blas_thread()
def rsc_l(g: Graph, k: int, n_restarts: int = 10, seed: int = 0) -> ClusterSolution:
    """K-means on the row-normalized Laplacian embedding."""
    emb = laplacian_embedding(g, k, regularize=True)
    return minimize_q1(emb, k, n_restarts=n_restarts, seed=seed)


@_pool.one_blas_thread()
def osc(g: Graph, k: int, n_restarts: int = 10, seed: int = 0) -> ClusterSolution:
    """Orthogonal subspace clustering baseline: spectral decomposition of
    U U^T built from the K^2-dimensional adjacency embedding (orthonormal
    eigenvector rows), then K-means on its top-K eigenvector rows."""
    emb = ase(g, k * k, scaled=False)
    gram = emb.rows @ emb.rows.T
    values, vectors = top_eigenpairs(gram, k)
    gram_emb = Embedding(
        rows=vectors, eigenvalues=values, source=EmbeddingSource.ADJACENCY, d=k
    )
    return minimize_q1(gram_emb, k, n_restarts=n_restarts, seed=seed)


# ---------------------------------------------------------------------------
# label alignment
# ---------------------------------------------------------------------------

def mislabel_rate(est_labels: np.ndarray, true_labels: np.ndarray, k: int) -> float:
    """Minimum fraction of disagreeing nodes over all bijections of the
    community labels, from an exact assignment on the confusion matrix."""
    est = np.asarray(est_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if est.shape != true.shape:
        raise ValueError("label vectors must have equal length")
    for name, vec in (("est", est), ("true", true)):
        if vec.min() < 1 or vec.max() > k:
            raise ValueError(f"{name} labels must lie in [1, {k}]")
    # scipy.optimize takes about a quarter of the package's import time
    # and only this function needs it
    from scipy.optimize import linear_sum_assignment

    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (est - 1, true - 1), 1)
    rows_idx, cols_idx = linear_sum_assignment(confusion, maximize=True)
    return 1.0 - int(confusion[rows_idx, cols_idx].sum()) / est.size
