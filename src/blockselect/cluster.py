"""Clustering objectives over spectral embeddings and their minimizers.

Every loss and minimizer takes the (n, d) array of embedded points, such
as ``ase(g, d).rows``. Three losses, one per blockmodel: squared distances
to community centroids (k-means geometry), squared residuals to the best
rank-1 subspace per community, and squared residuals to the best rank-K
subspace per community.
The rank-r losses are minimized by a greedy alternation (the k-plane
algorithm of Bradley & Mangasarian 2000): refit each community's subspace
as the top eigenvectors of its d x d scatter matrix, reassign every point
to the community whose subspace is closest, repeat until the labels stop
changing. The centroid loss is minimized by Lloyd's algorithm.

All minimizers are restarted from multiple seeded initializations; the best
objective wins, ties broken by restart index. Each restart draws from its
own generator, the stream of ``np.random.default_rng`` at its derived seed;
the PCG64 states of every restart of a minimization are hashed in one
vectorized pass (``_seeds.pcg64_words``), which costs far less than a
``SeedSequence`` per restart. A block of restarts is seeded and descended
together: one round is a few stacked matmuls and one batched ``eigh`` over
every (restart, community) pair, and a restart drops out of the block when
its labels stop changing.
A point's residual to a community is ||x||^2 - sum_b (b.x)^2 over the
community's kept eigenvectors b, all from one (restarts * communities *
rank, d) x (d, n) product per block; costs are laid out (restart,
community, node), so the assignment compares contiguous rows.
Each loss is a small object of its arithmetic: ``_Centroid(k)`` and
``_Subspace(k, r)`` give a descent's derived rows, its restarts' starts,
every point's cost in every community, the refit and the exact value. A
solution is its labels and exact loss, with the descent's round count and
flags; the centroids and bases a descent refits are its working state, and
no solution keeps them. One minimizer, ``minimize_stack(points, loss,
n_restarts, seeds)``, takes a stack of point sets of one shape, such as
the replicates of a bootstrap chunk, and packs the small blocks of many
sets into one descent: each block keeps its own BLAS products, and the
rest of a round runs once for the whole descent. A set's solution, or
its error, is that of the set minimized alone; ``minimize_q1`` and
``minimize_q_subspace`` are the one-set case. It owns the restarts'
generators, each descent's ``Layout`` and ``_Rows`` and each set's
``ClusterSolution``. A restart block keeps its restart of least descent
objective, and only that restart is scored with the exact loss; a set's
blocks are merged by that exact loss. The descents run in parallel on the
package's worker pool (``_pool``), which pickles each one's pack, with
the points, the restarts' seeds and the loss, to a worker.
Objectives are checked non-increasing at every iteration of every restart
(between empty-cluster repairs); a violation raises ``NumericalError``.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from . import _pool
from ._seeds import _Words, derive_seed, pcg64_words
from .blockmodels import _integer_labels
from .errors import InfeasibleModelError, NumericalError
from .netcore import Graph
from .spectral import ase, laplacian_embedding, top_eigenpairs

_MAX_ROUNDS = 100
_MONOTONE_RTOL = 1e-10
# restarts descend together in blocks whose per-round working arrays take
# about this many bytes, so batching does not raise peak memory
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class ClusterSolution:
    """The labels of one minimized loss and its exact ``objective``.

    ``n_iters`` counts the rounds of the restart kept; ``n_restarts_used``
    the restarts made; ``degenerate`` flags iteration-cap hits and clusters
    smaller than the requested rank.
    """

    labels: np.ndarray = field(repr=False)
    objective: float
    n_iters: int = 0
    n_restarts_used: int = 1
    degenerate: bool = False


# ---------------------------------------------------------------------------
# objective values
# ---------------------------------------------------------------------------

def q1_value(labels: np.ndarray, rows: np.ndarray) -> float:
    """Sum of squared distances from each of the (n, d) ``rows`` to its
    community mean."""
    labels = np.asarray(labels, dtype=np.int64)
    total = 0.0
    for k in np.unique(labels):
        pts = rows[labels == k]
        centroid = pts.mean(axis=0)
        total += float(((pts - centroid) ** 2).sum())
    return total


def q_subspace_value(labels: np.ndarray, rows: np.ndarray, r: int) -> float:
    """Sum of squared residuals of the (n, d) ``rows`` to each community's
    best rank-r subspace.

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
        pts = rows[labels == k]
        svals = np.linalg.svd(pts, compute_uv=False)
        total += float((svals[min(r, svals.size):] ** 2).sum())
    return total


# ---------------------------------------------------------------------------
# batched greedy descent shared by all minimizers
# ---------------------------------------------------------------------------

# the (point set, restarts) blocks of one descent, in row order
Pack = list[tuple[int, range]]


# where a descent's running restarts lie: the (point set, rows) of each
# restart block with restarts still running, in row order
Layout = list[tuple[int, slice]]


class _Rows(NamedTuple):
    """The arrays the kernels read of one descent's (s, n, d) ``points``,
    which its ``Layout`` numbers from 0: their (s, d, n) transposes, (s, n)
    squared norms and, for the subspace losses, (s, n, d, d) outer products."""

    points: np.ndarray
    transposed: np.ndarray
    sq_norms: np.ndarray
    outer: np.ndarray | None = None


def _rows(points: np.ndarray, outer: bool = False) -> _Rows:
    """The ``_Rows`` of the (s, n, d) ``points``, with their outer products
    if ``outer``."""
    return _Rows(points, np.ascontiguousarray(points.transpose(0, 2, 1)), (points**2).sum(axis=2),
                 points[:, :, :, None] * points[:, :, None, :] if outer else None)


def _layout(blocks: Iterable[tuple[int, int]]) -> Layout:
    """The layout of restart blocks in row order, from each block's (point
    set, running restarts); a block with none is left out."""
    layout, stop = [], 0
    for s, size in blocks:
        if size:
            layout.append((s, slice(stop, stop + size)))
            stop += size
    return layout


def _owner(layout: Layout) -> np.ndarray:
    """The point set of each running restart."""
    return np.repeat([s for s, _ in layout], [rows.stop - rows.start for _, rows in layout])


def _blockwise(product: Callable[[int, slice], np.ndarray], layout: Layout) -> np.ndarray:
    """``product(s, rows)`` of each block, stacked in row order. Each BLAS
    product covers one block's running restarts, as when the block
    descends alone: OpenBLAS may round a product over many blocks' rows
    differently from the same rows taken a block at a time."""
    parts = [product(s, rows) for s, rows in layout]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _per_restart(values: np.ndarray, layout: Layout) -> np.ndarray:
    """``values[s]`` of each running restart's point set s, along a new
    leading axis; one broadcastable entry when they share one set (the
    sets of a descent never decrease in row order)."""
    first, last = layout[0][0], layout[-1][0]
    return values[first][None] if first == last else values[_owner(layout)]


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
    present = (labels[:, None, :] == np.arange(1, k + 1)[:, None]).any(axis=2)
    repaired = np.zeros(m, dtype=bool)
    if present.all():
        return labels, repaired
    points = np.arange(n)
    for i in np.flatnonzero(~present.all(axis=1)):
        repaired[i] = _repair_empty(labels[i], cost[i, points, labels[i] - 1], k)
    return labels, repaired


class _Descent(NamedTuple):
    """Final labels, objective and round count of the restarts of one
    descent, one row per restart; ``degenerate`` flags a truncated refit or
    an iteration-cap exit."""

    labels: np.ndarray
    objective: np.ndarray
    rounds: np.ndarray
    degenerate: np.ndarray


def _descend(
    loss: _Centroid | _Subspace, rows: _Rows, rngs: list[np.random.Generator], layout: Layout
) -> _Descent:
    """Alternate assignment (``loss.cost``) and refit (``loss.refit``) for
    the restarts of one descent, one per generator, from ``loss.start``.

    ``layout`` says where each block's restarts lie; the kernels get the
    layout of the restarts still running. Each restart stops when its
    labels repeat or after ``_MAX_ROUNDS`` rounds; only restarts still
    running are advanced.
    """
    labels, model, prev_obj = loss.start(rows, rngs, layout)
    m = labels.shape[0]
    out = _Descent(np.empty_like(labels), np.empty(m), np.zeros(m, dtype=np.int64),
                   np.zeros(m, dtype=bool))
    # every restart still running has done the same number of rounds
    active = np.arange(m)
    rounds = 0
    while True:
        new_labels, repaired = _assign(loss.cost(rows, model, layout), loss.k)
        model, obj, truncated = loss.refit(rows, new_labels, layout)
        limit = prev_obj + _MONOTONE_RTOL * np.maximum(1.0, np.abs(prev_obj))
        bad = np.flatnonzero(~repaired & (obj > limit))
        if bad.size:
            i = bad[0]
            raise NumericalError(
                "objective increased within an iteration: "
                f"{float(prev_obj[i])!r} -> {float(obj[i])!r}"
            )
        rounds += 1
        same = (new_labels == labels).all(axis=1)
        done = same | (rounds >= _MAX_ROUNDS)
        labels, prev_obj = new_labels, obj
        if not done.any():
            continue
        finished = active[done]
        out.labels[finished] = new_labels[done]
        out.objective[finished] = obj[done]
        out.rounds[finished] = rounds
        out.degenerate[finished] = truncated[done] | ~same[done]
        if done.all():
            return out
        running = ~done
        active = active[running]
        # the restarts each block has left, counted in one pass
        left = np.add.reduceat(running, [b.start for _, b in layout], dtype=np.intp)
        layout = _layout(zip([s for s, _ in layout], left.tolist()))
        labels, prev_obj = new_labels[running], obj[running]
        model = model[running]


def _packs(sets: Sequence[int], n_restarts: int, n: int, k: int, d: int) -> list[Pack]:
    """The descents of a minimization over the point sets ``sets``: each
    set's restarts split into near-equal blocks within ``_BLOCK_BYTES``,
    and consecutive blocks, of any sets, packed into one descent while
    their per-round arrays fit in ``_BLOCK_BYTES`` together.

    Two blocks of one set never fit together, nor does a block of a set
    that needs more than one block with any other; so only sets whose
    restarts fit in one block at most half the budget share descents.
    """
    cap = max(1, _BLOCK_BYTES // (8 * n * (3 * k + d + 2)))
    n_blocks = -(-n_restarts // cap)
    size = -(-n_restarts // n_blocks)
    blocks = [range(s, min(s + size, n_restarts)) for s in range(0, n_restarts, size)]
    packs: list[Pack] = []
    room = 0
    for i in sets:
        for block in blocks:
            if len(block) > room:
                packs.append([])
                room = cap
            packs[-1].append((i, block))
            room -= len(block)
    return packs


def _descent_bests(points: np.ndarray, words: np.ndarray, loss: _Centroid | _Subspace,
                   pack: Pack) -> list[ClusterSolution]:
    """Each block's restart of least descent objective, the first of equal
    ones, from one descent of the pack over its sets' ``loss.derive``;
    only that restart is scored with the exact loss. A pack holds each set
    at most once, and the layout numbers the sets by their place in it."""
    layout = _layout((place, len(restarts)) for place, (_, restarts) in enumerate(pack))
    rngs = [np.random.Generator(np.random.PCG64(_Words(words[i, restart])))
            for i, restarts in pack for restart in restarts]
    run = _descend(loss, loss.derive(points[[i for i, _ in pack]]), rngs, layout)
    bests = []
    for (i, _), (_, block) in zip(pack, layout):
        j = block.start + int(np.argmin(run.objective[block]))
        bests.append(ClusterSolution(
            labels=run.labels[j].copy(),
            objective=loss.value(run.labels[j], points[i]),
            n_iters=int(run.rounds[j]),
            n_restarts_used=words.shape[1],
            degenerate=bool(run.degenerate[j]),
        ))
    return bests


def _pack_bests(points: np.ndarray, words: np.ndarray, loss: _Centroid | _Subspace,
                pack: Pack) -> list:
    """Each block's best restart, or the error that stopped it: the pool
    unit of ``minimize_stack``, over the stack of (n, d) ``points``, the
    PCG64 state words of every (set, restart) and the ``loss``. A pack that
    fails descends each block again alone, so that an error stops only its
    own set; if none fails alone, the packing is at fault."""
    try:
        return _descent_bests(points, words, loss, pack)
    except Exception as exc:
        if len(pack) == 1:
            return [_pool.returned(exc)]
        bests = [best for block in pack for best in _pack_bests(points, words, loss, [block])]
        if not any(isinstance(best, Exception) for best in bests):
            raise NumericalError(
                "a packed descent failed, but no block of it fails alone") from exc
        return bests


def minimize_stack(
    points: np.ndarray, loss: _Centroid | _Subspace, n_restarts: int, seeds: Sequence[int]
) -> list[ClusterSolution | Exception]:
    """Minimize ``loss`` on every (n, d) point set of the stack ``points``,
    set i restarted from ``seeds[i]``: check the loss's ``k`` and rank and
    ``n_restarts``, descend the restarts of every set whose rows are
    finite, and keep in each restart block the restart of least descent
    objective, scored with the exact loss ``loss.value``. Returns each
    set's solution, or the error that stopped it; ``minimize_q1`` and
    ``minimize_q_subspace`` are the one-set case.

    Everything but the loss's arithmetic (``_Centroid``, ``_Subspace``) is
    done here and in ``_pack_bests``. Each restart draws from its own
    generator, seeded by its set's seed, ``loss.tag`` and its restart
    index: the PCG64 state words of every (set, restart) are hashed once
    per call (``pcg64_words``), and each descent builds its restarts'
    generators from their rows, so a block descended again alone draws the
    same streams. A block reads its results through its slice of the
    descent's ``Layout``. Each descent derives the ``_Rows`` of its own
    sets (``loss.derive``), so they exist for one descent's sets at a time.
    The descent objective is accurate to about 1e-14 of the rows' total
    energy: within a block the restart of least descent objective wins,
    and only it is scored exactly. A solution keeps that restart's labels,
    rounds and flags, not the centroids or bases the descent refit.

    A block depends only on its set and its restarts' seeds, and gets the
    same bits whichever blocks share its descent, so the descents
    (``_packs``) run on the worker pool (``_pool``), a block's error
    returned through ``_pool.returned``. The pick within a block compares
    descent objectives, the merge of a set's blocks, in block order, exact
    losses; each keeps the first of equal values, so ties go to the lowest
    restart index. Within a block, two restarts whose exact losses tie
    within rounding are ordered by their descent objectives. Each set's
    solution, or the error of its lowest block that fails, is that of a
    serial run of the set alone at every worker count.
    """
    n_sets, n, d = points.shape
    if isinstance(loss, _Subspace) and loss.r < 1:
        raise ValueError("rank r must be >= 1")
    _require_k(n, loss.k)
    if n_restarts < 1:
        raise ValueError("need at least one restart")
    outcomes: list = [None if np.isfinite(rows).all() else ValueError("rows must be finite")
                      for rows in points]
    # every restart's PCG64 state, hashed in one pass: (set, restart, 4 words)
    words = pcg64_words(np.array(
        [[derive_seed(seed, loss.tag, restart) for restart in range(n_restarts)]
         for seed in seeds], dtype=np.uint64).reshape(n_sets, n_restarts))
    packs = _packs([i for i in range(n_sets) if outcomes[i] is None], n_restarts, n, loss.k, d)
    with _pool.ordered_results(functools.partial(_pack_bests, points, words, loss),
                               packs) as results:
        for (i, _), best in zip(itertools.chain(*packs), itertools.chain.from_iterable(results)):
            kept = outcomes[i]
            if kept is None or (
                not isinstance(kept, Exception)
                and (isinstance(best, Exception) or best.objective < kept.objective)
            ):
                outcomes[i] = best
    return outcomes


def _solved(outcomes: list):
    """The solution of a one-set minimization, or its error raised."""
    (solution,) = outcomes
    if isinstance(solution, Exception):
        _pool.raise_returned(solution)
    return solution


# ---------------------------------------------------------------------------
# centroid loss minimization (Lloyd + k-means++ restarts)
# ---------------------------------------------------------------------------

def _kmeanspp_init(
    rows: _Rows, k: int, rngs: list[np.random.Generator], layout: Layout
) -> np.ndarray:
    """(m, k, d) k-means++ centroids, one set per generator in ``rngs``, of
    the points of each restart's point set (``layout``), all advanced
    together over (m, n) squared distances.

    Each generator makes the draws of a one-generator pass in its order:
    ``integers(n)`` for the first centroid, then one ``random()`` per
    further centroid, turned into a row by the inverse-CDF step that
    ``Generator.choice(n, p=d2 / total)`` takes, or ``integers(n)`` when
    the distances total 0.
    """
    points = rows.points
    n, d = points.shape[1:]
    m = len(rngs)
    own = _per_restart(points, layout)
    owner = _owner(layout)
    centroids = np.empty((m, k, d))
    centroids[:, 0] = points[owner, [rng.integers(n) for rng in rngs]]
    d2 = ((own - centroids[:, :1]) ** 2).sum(axis=2)
    idx = np.empty(m, dtype=np.int64)
    u = np.empty(m)
    for j in range(1, k):
        total = d2.sum(axis=1)
        spread = total > 0.0
        for i, (rng, draw) in enumerate(zip(rngs, spread.tolist())):
            if draw:
                u[i] = rng.random()
            else:
                idx[i] = rng.integers(n)
        # cdf is nondecreasing, so counting its entries <= u is
        # searchsorted(u, side="right")
        cdf = (d2[spread] / total[spread, None]).cumsum(axis=1)
        cdf = cdf / cdf[:, -1:]
        idx[spread] = (cdf <= u[spread, None]).sum(axis=1)
        centroids[:, j] = points[owner, idx]
        d2 = np.minimum(d2, ((own - centroids[:, j : j + 1]) ** 2).sum(axis=2))
    return centroids


def _centroid_cost(rows: _Rows, centroids: np.ndarray, layout: Layout) -> np.ndarray:
    """(m, n, k) squared distances of every point to every one of the
    (m, k, d) centroids, laid out (m, k, n) in memory."""
    m, k, d = centroids.shape
    # one (m*k, d) x (d, n) product per block
    cross = _blockwise(lambda s, b: centroids[b].reshape(-1, d) @ rows.transposed[s], layout)
    cross = cross.reshape(m, k, -1)
    row_sq = _per_restart(rows.sq_norms, layout)[:, None]
    d2 = row_sq - 2.0 * cross + (centroids**2).sum(axis=2)[:, :, None]
    return np.maximum(d2, 0.0, out=d2).transpose(0, 2, 1)


def _centroid_refit(rows: _Rows, labels: np.ndarray, k: int, layout: Layout):
    """Community means of every restart as one one-hot matmul per block,
    with the centroid loss and an all-False truncation flag."""
    m = labels.shape[0]
    onehot = _one_hot(labels, k)
    sums = _blockwise(lambda s, b: onehot[b] @ rows.points[s], layout)
    centroids = sums / onehot.sum(axis=2)[:, :, None]
    resid = _per_restart(rows.points, layout) - centroids[np.arange(m)[:, None], labels - 1]
    return centroids, (resid**2).sum(axis=(1, 2)), np.zeros(m, dtype=bool)


class _Centroid(NamedTuple):
    """The centroid loss with ``k`` communities: k-means++ starts, Lloyd
    rounds and ``q1_value``. A loss is the arithmetic ``minimize_stack``
    drives: ``derive`` gives the ``_Rows`` of a descent's point sets;
    ``start`` the start labels, model (one array whose leading axis is the
    restart: centroids or subspace bases) and objective of one restart per
    generator; ``cost`` the (m, n, k) cost of every point in every
    community; ``refit`` the model, objective and truncation flag of each
    restart, ``layout`` saying where the restarts lie; ``value`` the exact
    loss of one set's (n, d) points; and ``tag`` seeds the generators. The
    methods look the kernels up by module name when they run, and the loss
    pickles by value."""

    k: int
    tag = "q1-restart"

    def derive(self, points: np.ndarray) -> _Rows:
        return _rows(points)

    def start(self, rows: _Rows, rngs: list[np.random.Generator], layout: Layout):
        """All-zero start labels, k-means++ centroids and an infinite
        objective for each restart."""
        m, n = len(rngs), rows.points.shape[1]
        centroids = _kmeanspp_init(rows, self.k, rngs, layout)
        return np.zeros((m, n), dtype=np.int64), centroids, np.full(m, np.inf)

    def cost(self, rows: _Rows, model: np.ndarray, layout: Layout) -> np.ndarray:
        return _centroid_cost(rows, model, layout)

    def refit(self, rows: _Rows, labels: np.ndarray, layout: Layout):
        return _centroid_refit(rows, labels, self.k, layout)

    def value(self, labels: np.ndarray, points: np.ndarray) -> float:
        return q1_value(labels, points)


def minimize_q1(rows: np.ndarray, k: int, n_restarts: int, seed: int = 0) -> ClusterSolution:
    """Minimize the centroid loss of the (n, d) ``rows`` with Lloyd's
    algorithm, k-means++ seeding, and ``n_restarts`` independent starts."""
    return _solved(minimize_stack(rows[None], _Centroid(k), n_restarts, [seed]))


# ---------------------------------------------------------------------------
# subspace loss minimization (greedy projection / reassignment)
# ---------------------------------------------------------------------------

def _subspace_cost(rows: _Rows, basis: np.ndarray, layout: Layout) -> np.ndarray:
    """(m, n, k) squared residuals ||x||^2 - sum_b (b.x)^2 of every point
    to every community's subspace, laid out (m, k, n) in memory, from the
    (m, k, r, d) basis rows (zero rows past a community's rank)."""
    m, k, r, d = basis.shape
    # one (m*k*r, d) x (d, n) product per block
    coef = _blockwise(lambda s, b: basis[b].reshape(-1, d) @ rows.transposed[s], layout)
    coef = coef.reshape(m, k, r, -1)
    np.square(coef, out=coef)
    resid = np.subtract(_per_restart(rows.sq_norms, layout)[:, None],
                        coef[:, :, 0] if r == 1 else coef.sum(axis=2))
    return np.maximum(resid, 0.0, out=resid).transpose(0, 2, 1)


def _subspace_refit(rows: _Rows, labels: np.ndarray, k: int, r: int, layout: Layout):
    """Each community's top min(r, n_k, d) scatter eigenvectors, for every
    restart at once: one one-hot matmul per block gives the (m, k, d, d)
    scatter matrices from each point set's (n, d, d) outer products, and one
    batched ``eigh`` their eigenpairs. Returns the model (the (m, k,
    min(r, d), d) eigenvectors as rows, largest first and zero past the
    community's rank), the trailing-eigenvalue objective and the truncation
    flag."""
    m, n = labels.shape
    d = rows.outer.shape[-1]
    full_rank = min(r, d)
    onehot = _one_hot(labels, k)
    counts = onehot.sum(axis=2)
    scatter = _blockwise(
        lambda s, b: onehot[b].reshape(-1, n) @ rows.outer[s].reshape(n, d * d), layout
    ).reshape(m, k, d, d)
    evals, evecs = np.linalg.eigh(scatter)
    top = evecs[..., ::-1][..., :full_rank].transpose(0, 1, 3, 2)
    if counts.min() >= full_rank:
        # no community below full rank: nothing to mask
        evals[..., d - full_rank :] = 0.0
        return top, evals.sum(axis=(1, 2)), np.zeros(m, dtype=bool)
    rank = np.minimum(counts, full_rank).astype(np.int64)
    basis = top * (np.arange(full_rank) < rank[:, :, None])[..., None]
    obj = np.where(np.arange(d) >= d - rank[:, :, None], 0.0, evals).sum(axis=(1, 2))
    return basis, obj, (counts < full_rank).any(axis=1)


def _seed_labels(
    rows: _Rows, k: int, r: int, rngs: list[np.random.Generator], layout: Layout
) -> np.ndarray:
    """Random initial assignments seeded by candidate subspaces, one per
    generator in ``rngs``, of the points of each restart's point set
    (``layout``).

    Draws k disjoint random point subsets, spans each, and assigns every
    point to its nearest candidate span. Uniform random labels make all
    initial clusters span nearly the same space, which strands the greedy
    descent in poor basins; subset spans give genuinely distinct starts.
    """
    n, d = rows.points.shape[1:]
    size = max(1, min(r, n // k))
    picks = np.stack([rng.permutation(n)[: k * size] for rng in rngs])
    pts = rows.points[_owner(layout)[:, None], picks].reshape(len(rngs), k, size, d)
    # the columns of each subset's Q factor are an orthonormal basis of its span
    q, _ = np.linalg.qr(pts.transpose(0, 1, 3, 2))
    return _assign(_subspace_cost(rows, q.transpose(0, 1, 3, 2), layout), k)[0]


class _Subspace(NamedTuple):
    """The rank-``r`` subspace loss with ``k`` communities, as
    ``minimize_stack`` drives it: candidate-subspace starts, greedy
    projection rounds and ``q_subspace_value``. The methods are those of
    ``_Centroid``."""

    k: int
    r: int
    tag = "qsub-restart"

    def derive(self, points: np.ndarray) -> _Rows:
        return _rows(points, outer=True)

    def start(self, rows: _Rows, rngs: list[np.random.Generator], layout: Layout):
        """Candidate-subspace start labels (``_seed_labels``) for each
        restart, with their refit model and objective."""
        labels = _seed_labels(rows, self.k, self.r, rngs, layout)
        model, obj, _ = self.refit(rows, labels, layout)
        return labels, model, obj

    def cost(self, rows: _Rows, model: np.ndarray, layout: Layout) -> np.ndarray:
        return _subspace_cost(rows, model, layout)

    def refit(self, rows: _Rows, labels: np.ndarray, layout: Layout):
        return _subspace_refit(rows, labels, self.k, self.r, layout)

    def value(self, labels: np.ndarray, points: np.ndarray) -> float:
        return q_subspace_value(labels, points, self.r)


def minimize_q_subspace(
    rows: np.ndarray,
    k: int,
    r: int,
    n_restarts: int,
    seed: int = 0,
) -> ClusterSolution:
    """Greedy minimization of the rank-r subspace loss of the (n, d) ``rows``.

    Alternates refitting each community's rank-r basis with reassigning
    every point to the community of smallest projection residual (ties to
    the lowest community index). Every restart starts from random
    assignments seeded by candidate subspaces.
    """
    return _solved(minimize_stack(rows[None], _Subspace(k, r), n_restarts, [seed]))


def _require_k(n: int, k: int) -> None:
    """``k`` communities of ``n`` points need 1 <= k <= n."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")


def _require_pabm_embedding(n: int, k: int) -> None:
    """The K^2-dimensional embedding of the PABM loss and of ``osc`` needs K^2 <= n."""
    if k * k > n:
        raise InfeasibleModelError(f"K^2 = {k * k} exceeds n = {n}")


# ---------------------------------------------------------------------------
# spectral-clustering baselines; like ``detect``, each runs BLAS on one
# thread throughout
# ---------------------------------------------------------------------------

@_pool.one_blas_thread()
def sc_l(g: Graph, k: int, n_restarts: int = 10, seed: int = 0) -> ClusterSolution:
    """K-means on the normalized-Laplacian embedding."""
    rows = laplacian_embedding(g, k, regularize=False).rows
    return minimize_q1(rows, k, n_restarts=n_restarts, seed=seed)


@_pool.one_blas_thread()
def rsc_l(g: Graph, k: int, n_restarts: int = 10, seed: int = 0) -> ClusterSolution:
    """Regularized spectral clustering (Qin & Rohe 2013): K-means on the
    row-normalized embedding of the Laplacian regularized by the average
    degree."""
    rows = laplacian_embedding(g, k, regularize=True).rows
    return minimize_q1(rows, k, n_restarts=n_restarts, seed=seed)


@_pool.one_blas_thread()
def osc(g: Graph, k: int, n_restarts: int = 10, seed: int = 0) -> ClusterSolution:
    """Orthogonal spectral clustering (Koo, Tang & Trosset 2023): with U the
    n x K^2 orthonormal eigenvector rows of the adjacency matrix, spectral
    clustering on the affinity B = |U U^T|, taken entry-wise. B is
    normalized as D^{-1/2} B D^{-1/2}, with 0/0 = 0 for the zero rows of
    isolated nodes (the paper's factor n cancels here), and K-means runs on
    its top-K eigenvector rows. B is n x n and its eigendecomposition is
    dense: O(n^2) memory and O(n^3) time, which suits simulation sizes but
    not large graphs."""
    _require_pabm_embedding(g.n, k)
    rows = ase(g, k * k, scaled=False).rows
    affinity = np.abs(rows @ rows.T)
    deg = affinity.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    affinity *= inv_sqrt[:, None]
    affinity *= inv_sqrt
    _, vectors = top_eigenpairs(affinity, k)
    return minimize_q1(vectors, k, n_restarts=n_restarts, seed=seed)


# ---------------------------------------------------------------------------
# label alignment
# ---------------------------------------------------------------------------

def mislabel_rate(est_labels: np.ndarray, true_labels: np.ndarray, k: int) -> float:
    """Minimum fraction of disagreeing nodes over all bijections of the
    community labels, from an exact assignment on the confusion matrix.

    The assignment is scipy's sparse LAPJVsp matching
    (``min_weight_full_bipartite_matching``) on the confusion counts plus
    one: every entry is then stored, so a full matching exists, and each
    matching's total shifts by exactly k. The counts are integers, so the
    maximum is exact.
    """
    est = _integer_labels(est_labels, "est labels")
    true = _integer_labels(true_labels, "true labels")
    if est.shape != true.shape:
        raise ValueError("label vectors must have equal length")
    if est.size == 0:
        raise ValueError("label vectors are empty")
    for name, vec in (("est", est), ("true", true)):
        if vec.min() < 1 or vec.max() > k:
            raise ValueError(f"{name} labels must lie in [1, {k}]")
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (est - 1, true - 1), 1)
    rows_idx, cols_idx = min_weight_full_bipartite_matching(
        sp.csr_array(confusion + 1), maximize=True
    )
    return 1.0 - int(confusion[rows_idx, cols_idx].sum()) / est.size
