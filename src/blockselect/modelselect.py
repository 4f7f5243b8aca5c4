"""Parametric-bootstrap model selection across the blockmodel hierarchy.

``detect`` embeds a graph and minimizes one model's loss. Two sequential
tests share one pipeline: detect under the null model, use the minimized
loss as the observed statistic, refit the null model's probability matrix
from the estimated labels, and compare against the statistic recomputed
on bootstrap graphs drawn from that fit. The p-value is the fraction of
replicate statistics at least as large as the observed one.

Each model has one loss (``_loss``): the SBM the centroid loss
``cluster._Centroid``, the DCBM and the PABM the rank-1 and rank-K
subspace losses ``cluster._Subspace``. It is the statistic of the test
whose null is that model.

The replicates run in contiguous chunks on the worker pool (``_pool``). A
chunk draws its replicates in order, with ``sample_graph(..., cache=True)``
against the fit's cached triangle of pair probabilities, in groups whose
dense adjacency matrices and eigenvectors, 16 n^2 bytes a graph, fit in
``cluster._BLOCK_BYTES``. It embeds each group with one
``spectral.stacked_ase`` call, into the scaled K-dimensional embedding of
the SBM and DCBM nulls, and if that call raises, embeds the group's graphs
one at a time, so each replicate keeps its own error. The chunk then
minimizes all its replicates under the null's loss in one call
(``cluster.minimize_stack``), which packs the restart blocks of many
replicates into one descent while their per-round arrays fit in
``cluster._BLOCK_BYTES``; a block over half that budget, as at n = 600 with
K = 3 or larger, descends alone. Each fast path gives the bits of the path
it bypasses, so the statistics, failures and errors are those of a serial
loop that draws, embeds and minimizes one replicate at a time, at every
worker count.

The workflow gate: if the centroid-loss test keeps the SBM, stop there;
otherwise run the rank-1 subspace test; if that keeps the DCBM, stop;
otherwise re-embed into K^2 dimensions and cluster with the rank-K loss.
"""

from __future__ import annotations

import enum
import functools
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _pool
from ._seeds import derive_seed
from .blockmodels import FactoredProb, fit_dcbm, fit_sbm, sample_graph
from .cluster import (
    _BLOCK_BYTES,
    ClusterSolution,
    _Centroid,
    _Subspace,
    _require_k,
    _require_pabm_embedding,
    minimize_q1,
    minimize_q_subspace,
    minimize_stack,
)
from .errors import DegenerateModelError, NumericalError
from .netcore import Graph
from .spectral import ase, stacked_ase


class ModelKind(enum.Enum):
    SBM = "SBM"
    DCBM = "DCBM"
    PABM = "PABM"


# restarts per minimization when the caller passes none: the rank-K loss
# landscape has many more local minima than the other two
DEFAULT_RESTARTS = {ModelKind.SBM: 10, ModelKind.DCBM: 20, ModelKind.PABM: 100}


def detect(
    g: Graph,
    k: int,
    model: ModelKind,
    restarts: int | None = None,
    seed: int = 0,
) -> ClusterSolution:
    """Community detection under one model: minimize its loss over its
    adjacency embedding.

    SBM: centroid loss on the scaled K-dimensional embedding. DCBM: rank-1
    subspace loss on the same embedding. PABM: rank-K subspace loss on the
    unscaled K^2-dimensional embedding, which needs K^2 <= n; every model
    needs 1 <= K <= n, checked before embedding. ``restarts`` defaults to
    ``DEFAULT_RESTARTS[model]``. The restart blocks run on the worker pool
    (``_pool``), and BLAS runs on one thread throughout.
    """
    _require_k(g.n, k)
    n_restarts = DEFAULT_RESTARTS[model] if restarts is None else restarts
    with _pool.one_blas_thread():
        rows = _embedding(g, k, model)
        if model is ModelKind.SBM:
            return minimize_q1(rows, k, n_restarts=n_restarts, seed=seed)
        return minimize_q_subspace(rows, k, r=_loss(model, k).r, n_restarts=n_restarts, seed=seed)


def _embedding(g: Graph, k: int, model: ModelKind) -> np.ndarray:
    """The points ``detect`` minimizes ``model``'s loss over: the scaled
    K-dimensional embedding, or for the PABM the unscaled K^2-dimensional
    one, since rank-K subspace structure lives in the orthonormal
    eigenvector rows."""
    if model is ModelKind.PABM:
        _require_pabm_embedding(g.n, k)
        return ase(g, k * k, scaled=False).rows
    return ase(g, k).rows


def _embeddings(graphs: list[Graph], k: int) -> list:
    """Each replicate graph's points under an SBM or DCBM null, its scaled
    K-dimensional embedding, or the error that stopped it.

    The group is embedded by one ``stacked_ase`` call, which gives each
    graph's ``ase`` rows bit for bit. If that call raises, every graph is
    embedded alone, so each keeps its own outcome.
    """
    try:
        return list(stacked_ase(graphs, k))
    except Exception:
        pass
    found: list = []
    for g in graphs:
        try:
            found.append(ase(g, k).rows)
        except Exception as exc:
            found.append(exc)
    return found


def _loss(model: ModelKind, k: int) -> _Centroid | _Subspace:
    """The loss of ``model`` with ``k`` communities: the centroid loss of
    the SBM, the rank-1 subspace loss of the DCBM and the rank-K one of the
    PABM."""
    if model is ModelKind.SBM:
        return _Centroid(k)
    return _Subspace(k, 1 if model is ModelKind.DCBM else k)


@dataclass(frozen=True, eq=False)
class TestResult:
    """Observed statistic, bootstrap replicates, and the decision.

    The p-value and the decision are properties of ``statistic``,
    ``boot_stats`` and ``alpha``, so they cannot disagree with them.
    ``failures`` lists each failed bootstrap attempt as (replicate index,
    exception class name), in the order the attempts ran; every failed
    attempt was resampled.
    """

    statistic: float
    boot_stats: np.ndarray = field(repr=False)
    alpha: float
    null_model: ModelKind
    alt_model: ModelKind
    seed: int
    failures: tuple[tuple[int, str], ...] = ()

    @property
    def p_value(self) -> float:
        return bootstrap_p_value(self.statistic, self.boot_stats)

    @property
    def rejected(self) -> bool:
        return self.p_value < self.alpha

    @property
    def n_replicates(self) -> int:
        return int(self.boot_stats.size)

    @property
    def attempts(self) -> int:
        return self.n_replicates + len(self.failures)


def bootstrap_p_value(statistic: float, boot_stats: np.ndarray) -> float:
    """Fraction of replicate statistics >= the observed one (ties count)."""
    boot = np.asarray(boot_stats, dtype=np.float64)
    if boot.size == 0:
        raise ValueError("need at least one bootstrap replicate")
    return int((boot >= statistic).sum()) / boot.size


def make_test_result(
    statistic: float,
    boot_stats,
    alpha: float,
    null_model: ModelKind,
    alt_model: ModelKind,
    seed: int,
    failures: Sequence[tuple[int, str]] = (),
) -> TestResult:
    """The ``TestResult`` of a finite ``statistic``, at least one
    replicate, all finite, and an ``alpha`` in (0, 1): a NaN statistic or
    replicate would read as p = 0, and an alpha outside (0, 1) would fix
    the decision whatever the data."""
    boot = np.asarray(boot_stats, dtype=np.float64)
    if boot.size == 0:
        raise ValueError("need at least one bootstrap replicate")
    if not math.isfinite(statistic):
        raise ValueError(f"the observed statistic must be finite, got {statistic}")
    bad = np.flatnonzero(~np.isfinite(boot))
    if bad.size:
        raise ValueError(f"bootstrap statistics must be finite, got {boot[bad[0]]} "
                         f"at replicate {bad[0]} ({bad.size} of {boot.size} not finite)")
    return TestResult(float(statistic), boot, _require_alpha(alpha), null_model, alt_model,
                      seed, tuple(failures))


def _require_alpha(alpha: float) -> float:
    """``alpha`` as a float, if it lies in (0, 1); NaN does not."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return float(alpha)


_REPLICATE_ERRORS = (NumericalError, DegenerateModelError, np.linalg.LinAlgError)

# chunks per worker: enough that one slow chunk does not leave the other
# workers idle at the end, few enough that start-up and pickling stay small
_CHUNKS_PER_WORKER = 4


class _Chunk(NamedTuple):
    """What one contiguous range of replicates produced. ``error``, an
    error that is not retried, stopped the chunk; it is returned through
    ``_pool.returned``, so it keeps a worker's traceback text."""

    stats: np.ndarray
    failures: list[tuple[int, str]]
    attempts: int
    error: Exception | None = None


class _Statistic(NamedTuple):
    """A replicate statistic in two steps: ``embed(graphs)`` turns a group
    of replicate graphs into each one's points, or the error that stopped
    it, and ``minimize(points, fit_seeds)`` takes the points of many
    replicates at once and gives each one's statistic, or the error that
    stopped it. Both pickle: the pool ships the statistic to a worker with
    each chunk."""

    embed: Callable[[list[Graph]], list]
    minimize: Callable[[list, list[int]], list]


def _replicate_chunk(p_hat: FactoredProb, n_boot: int, seed: int, statistic: _Statistic,
                     bounds: tuple[int, int]) -> _Chunk:
    """Replicates ``lo .. hi-1`` (``bounds = (lo, hi)``) of a bootstrap of
    ``n_boot`` replicates, in order, each failed attempt redrawn from the
    next derived seed.

    The first attempts of all the chunk's replicates are drawn and embedded
    in order, in groups, and minimized in one call; their outcomes are then
    read as the serial loop meets them, and each retry is drawn, embedded
    and minimized alone. So the statistics, failures, attempts and error
    are the serial loop's, which stops at the first error that is not retried, and before an
    attempt that would exceed the 3 * R budget even if every replicate
    before ``lo`` took one attempt: the serial order could not have made it
    either, so the run is certain to be exhausted.
    """
    lo, hi = bounds

    def outcomes(attempts: list[tuple[int, int]]) -> list:
        """The statistic of each (replicate, attempt), or its error."""
        rep_seeds = [derive_seed(seed, "boot", r, attempt) for r, attempt in attempts]
        found: list = [None] * len(attempts)  # points, then statistics
        # a group's dense adjacency matrices and eigenvectors, 16 n^2 bytes
        # a graph, fit in the descents' byte budget
        size = max(1, _BLOCK_BYTES // (16 * max(p_hat.n ** 2, 1)))
        for start in range(0, len(attempts), size):
            graphs = {}
            for i in range(start, min(start + size, len(attempts))):
                try:
                    graphs[i] = sample_graph(p_hat, derive_seed(rep_seeds[i], "graph"),
                                             cache=True)
                except Exception as exc:
                    found[i] = exc
            if graphs:
                for i, out in zip(graphs, statistic.embed(list(graphs.values()))):
                    found[i] = out
        embedded = [i for i, out in enumerate(found) if not isinstance(out, Exception)]
        if embedded:
            fit_seeds = [derive_seed(rep_seeds[i], "fit") for i in embedded]
            for i, out in zip(embedded, statistic.minimize([found[i] for i in embedded],
                                                           fit_seeds)):
                found[i] = out
        return found

    first = outcomes([(r, 0) for r in range(lo, hi)])
    stats = np.empty(hi - lo)
    failures: list[tuple[int, str]] = []
    attempts = 0
    for r in range(lo, hi):
        attempt = 0
        while True:
            if lo + attempts >= 3 * n_boot:
                # count the refused attempt: with one or more attempts per
                # earlier replicate, the caller's total then exceeds 3 * R
                return _Chunk(stats, failures, attempts + 1)
            out = first[r - lo] if attempt == 0 else outcomes([(r, attempt)])[0]
            attempt += 1
            attempts += 1
            if isinstance(out, _REPLICATE_ERRORS):
                failures.append((r, type(out).__name__))
            elif isinstance(out, Exception):  # re-raised by the caller, in replicate order
                return _Chunk(stats, failures, attempts, _pool.returned(out))
            else:
                stats[r - lo] = out
                break
    return _Chunk(stats, failures, attempts)


class _Bootstrap(NamedTuple):
    """Replicate statistics, and the failed attempts as (replicate index,
    exception class name) in replicate-then-attempt order."""

    stats: np.ndarray
    failures: list[tuple[int, str]]
    # the replicate count, which the benchmark's tracer reads as an array's
    size = property(lambda self: self.stats.size)


def _bootstrap_statistics(
    p_hat: FactoredProb, n_boot: int, seed: int, statistic: _Statistic
) -> _Bootstrap:
    """Replicate statistics under the fitted null, and the failed attempts.

    Failed replicates (eigensolver breakdown, degenerate clustering) are
    resampled from a fresh derived seed; more than 3 * R total attempts is
    an error, since silently dropping replicates would bias the p-value.

    Replicate r's attempts depend only on ``(p_hat, seed, r)``, so the
    replicates run in contiguous chunks on the worker pool (``_pool``) and
    merge in replicate order. The statistics, the failures and any error
    raised are those of the serial run, at every worker count; an error
    from a worker has the worker's traceback as its cause.
    """
    parts = []
    failures: list[tuple[int, str]] = []
    attempts = 0
    n_chunks = min(n_boot, _CHUNKS_PER_WORKER * _pool.workers())
    bounds = [n_boot * i // n_chunks for i in range(n_chunks + 1)]
    run_chunk = functools.partial(_replicate_chunk, p_hat, n_boot, seed, statistic)
    with _pool.ordered_results(run_chunk, list(zip(bounds, bounds[1:]))) as chunks:
        for chunk in chunks:
            failures += chunk.failures
            attempts += chunk.attempts
            if attempts > 3 * n_boot:
                raise NumericalError(
                    f"bootstrap exhausted {3 * n_boot} attempts for {n_boot} replicates"
                )
            if chunk.error is not None:
                _pool.raise_returned(chunk.error)
            parts.append(chunk.stats)
    return _Bootstrap(np.concatenate(parts), failures)


def _null_minimize(loss: _Centroid | _Subspace, n_restarts: int, points: list[np.ndarray],
                   fit_seeds: list[int]) -> list:
    """Each replicate's minimized ``loss``, or the error that stopped it,
    from one stacked minimization."""
    solutions = minimize_stack(np.stack(points), loss, n_restarts, fit_seeds)
    return [sol if isinstance(sol, Exception) else sol.objective for sol in solutions]


def _null_statistic(k: int, model: ModelKind, restarts: int | None) -> _Statistic:
    """The test statistic under the null ``model``, an SBM or a DCBM: its
    minimized loss, as ``detect`` gives it. The replicates' points are
    minimized as one stack, in which small restart blocks of many
    replicates share descents."""
    n_restarts = DEFAULT_RESTARTS[model] if restarts is None else restarts
    return _Statistic(functools.partial(_embeddings, k=k),
                      functools.partial(_null_minimize, _loss(model, k), n_restarts))


def _run_test(
    null: ModelKind,
    alt: ModelKind,
    fit,
    g: Graph,
    k: int,
    n_boot: int,
    alpha: float,
    restarts: int | None,
    seed: int,
) -> tuple[TestResult, ClusterSolution]:
    """Bootstrap test of ``null`` against ``alt``: the statistic is the
    null model's minimized loss (``detect``), and replicates are drawn from
    ``fit(g, labels)`` at the observed labels."""
    if n_boot < 1:
        raise ValueError("need at least one bootstrap replicate")
    _require_alpha(alpha)
    sol = detect(g, k, null, restarts, seed=derive_seed(seed, "observed"))
    p_hat = fit(g, sol.labels)
    boot, failures = _bootstrap_statistics(p_hat, n_boot, seed, _null_statistic(k, null, restarts))
    return make_test_result(sol.objective, boot, alpha, null, alt, seed, failures), sol


def test_sbm_vs_dcbm(
    g: Graph,
    k: int,
    n_boot: int = 200,
    alpha: float = 0.05,
    restarts: int | None = None,
    seed: int = 0,
) -> tuple[TestResult, ClusterSolution]:
    """Null: SBM; alternative: DCBM. Statistic: minimized centroid loss on
    the K-dimensional adjacency embedding. The null fit is the block-wise
    edge-frequency plug-in at the estimated labels."""
    return _run_test(
        ModelKind.SBM, ModelKind.DCBM, fit_sbm, g, k, n_boot, alpha, restarts, seed
    )


def test_dcbm_vs_pabm(
    g: Graph,
    k: int,
    n_boot: int = 200,
    alpha: float = 0.05,
    restarts: int | None = None,
    seed: int = 0,
) -> tuple[TestResult, ClusterSolution]:
    """Null: DCBM; alternative: PABM. Statistic: minimized rank-1 subspace
    loss on the K-dimensional adjacency embedding. The null fit is the
    degree-ratio plug-in; a zero-degree community aborts the test."""
    return _run_test(
        ModelKind.DCBM, ModelKind.PABM, fit_dcbm, g, k, n_boot, alpha, restarts, seed
    )


@dataclass(frozen=True, eq=False)
class WorkflowResult:
    """Outcome of the sequential selection workflow."""

    selected_model: ModelKind
    labels: np.ndarray = field(repr=False)
    test_sbm_dcbm: TestResult
    test_dcbm_pabm: TestResult | None
    embedding_dims: dict[str, int | None]
    timing: dict[str, float] = field(repr=False)
    k: int = 0
    seed: int = 0

    @property
    def n(self) -> int:
        return int(self.labels.size)


def validate_workflow_result(result: WorkflowResult) -> None:
    """Decision-consistency invariants; raises AssertionError, naming the
    invariant that failed, on violation. The checks are explicit raises,
    so they also run under ``python -O``."""
    def require(holds: bool, invariant: str) -> None:
        if not holds:
            raise AssertionError(f"inconsistent workflow result: {invariant}")

    t1, t2 = result.test_sbm_dcbm, result.test_dcbm_pabm
    picked = result.selected_model
    require(t1.rejected == (picked is not ModelKind.SBM),
            f"{picked.name} picked with SBM-vs-DCBM rejected={t1.rejected}")
    require((t2 is None) == (picked is ModelKind.SBM),
            f"{picked.name} picked {'without' if t2 is None else 'with'} a DCBM-vs-PABM test")
    if t2 is not None:
        require(t2.rejected == (picked is ModelKind.PABM),
                f"{picked.name} picked with DCBM-vs-PABM rejected={t2.rejected}")
    require(result.labels.min() >= 1 and result.labels.max() <= result.k,
            f"labels outside [1, {result.k}]")


def run_workflow(
    g: Graph,
    k: int,
    alpha: float = 0.05,
    n_boot: int = 200,
    restarts: int | None = None,
    seed: int = 0,
) -> WorkflowResult:
    """Sequential community detection and model selection.

    ``restarts`` defaults to ``DEFAULT_RESTARTS`` of the model each
    minimization is under; passing an integer uses it for every
    minimization. Requires 1 <= K <= n, and K^2 <= n so the final embedding
    is well-defined; both are checked before the tests run.
    """
    _require_k(g.n, k)
    _require_pabm_embedding(g.n, k)
    timing: dict[str, float] = {}
    test2: TestResult | None = None

    t0 = time.perf_counter()
    test1, sol = test_sbm_vs_dcbm(
        g, k, n_boot=n_boot, alpha=alpha, restarts=restarts,
        seed=derive_seed(seed, "test1"),
    )
    timing["test_sbm_dcbm"] = time.perf_counter() - t0

    if test1.rejected:
        t0 = time.perf_counter()
        test2, sol = test_dcbm_vs_pabm(
            g, k, n_boot=n_boot, alpha=alpha, restarts=restarts,
            seed=derive_seed(seed, "test2"),
        )
        timing["test_dcbm_pabm"] = time.perf_counter() - t0

        if test2.rejected:
            t0 = time.perf_counter()
            sol = detect(g, k, ModelKind.PABM, restarts, seed=derive_seed(seed, "q3"))
            timing["final_pabm"] = time.perf_counter() - t0

    # the null of the first test that keeps it, or the PABM if both reject
    selected = (ModelKind.SBM if test2 is None
                else ModelKind.PABM if test2.rejected else ModelKind.DCBM)
    result = WorkflowResult(
        selected_model=selected,
        labels=sol.labels,
        test_sbm_dcbm=test1,
        test_dcbm_pabm=test2,
        embedding_dims={"test1": k, "test2": None if test2 is None else k,
                        "final": k * k if selected is ModelKind.PABM else k},
        timing=timing,
        k=k,
        seed=seed,
    )
    validate_workflow_result(result)
    return result


def _test_dict(t: TestResult | None) -> dict | None:
    if t is None:
        return None
    return {
        "null_model": t.null_model.value,
        "alt_model": t.alt_model.value,
        "statistic": t.statistic,
        "p_value": t.p_value,
        "alpha": t.alpha,
        "rejected": t.rejected,
        "n_replicates": t.n_replicates,
        "attempts": t.attempts,
        "failed_attempts": [
            {"replicate": r, "error": name} for r, name in t.failures
        ],
        "seed": t.seed,
        "boot_stats": [float(v) for v in t.boot_stats],
    }


def workflow_report(result: WorkflowResult) -> dict:
    """Deterministic JSON-ready report: everything needed to rerun and
    verify the decision. Timings are intentionally excluded; they live in
    ``result.timing`` and are written separately by the CLI."""
    return {
        "selected_model": result.selected_model.value,
        "n": result.n,
        "k": result.k,
        "seed": result.seed,
        "embedding_dims": result.embedding_dims,
        "test_sbm_vs_dcbm": _test_dict(result.test_sbm_dcbm),
        "test_dcbm_vs_pabm": _test_dict(result.test_dcbm_pabm),
    }
