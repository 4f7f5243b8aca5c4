"""Parametric-bootstrap model selection across the blockmodel hierarchy.

Two sequential tests share one pipeline: embed, minimize the null model's
loss, use the minimized loss as the observed statistic, refit the null
model's probability matrix from the estimated labels, and compare against
the statistic recomputed on bootstrap graphs drawn from that fit. The
p-value is the fraction of replicate statistics at least as large as the
observed one.

The workflow gate: if the centroid-loss test keeps the SBM, stop there;
otherwise run the rank-1 subspace test; if that keeps the DCBM, stop;
otherwise re-embed into K^2 dimensions and cluster with the rank-K loss.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._seeds import derive_seed
from .blockmodels import EdgeProb, fit_dcbm, fit_sbm, sample_graph
from .cluster import ClusterSolution, minimize_q1, minimize_q_subspace
from .errors import DegenerateModelError, InfeasibleModelError, NumericalError
from .netcore import Graph
from .spectral import ase


class ModelKind(enum.Enum):
    SBM = "SBM"
    DCBM = "DCBM"
    PABM = "PABM"


@dataclass(frozen=True, eq=False)
class TestResult:
    """Observed statistic, bootstrap replicates, and the decision.

    ``failures`` lists each failed bootstrap attempt as (replicate index,
    exception class name), in the order the attempts ran; every failed
    attempt was resampled.
    """

    statistic: float
    boot_stats: np.ndarray = field(repr=False)
    p_value: float
    alpha: float
    rejected: bool
    null_model: ModelKind
    alt_model: ModelKind
    seed: int
    failures: tuple[tuple[int, str], ...] = ()

    @property
    def n_replicates(self) -> int:
        return int(self.boot_stats.size)

    @property
    def attempts(self) -> int:
        return self.n_replicates + len(self.failures)


def bootstrap_p_value(
    statistic: float, boot_stats: np.ndarray, corrected: bool = False
) -> float:
    """Fraction of replicate statistics >= the observed one (ties count).

    ``corrected`` switches to the finite-sample form (1 + count)/(1 + R)
    for sensitivity analysis; the default matches the plain proportion.
    """
    boot = np.asarray(boot_stats, dtype=np.float64)
    if boot.size == 0:
        raise ValueError("need at least one bootstrap replicate")
    count = int((boot >= statistic).sum())
    if corrected:
        return (1 + count) / (1 + boot.size)
    return count / boot.size


def make_test_result(
    statistic: float,
    boot_stats,
    alpha: float,
    null_model: ModelKind,
    alt_model: ModelKind,
    seed: int,
    corrected: bool = False,
    failures: Sequence[tuple[int, str]] = (),
) -> TestResult:
    boot = np.asarray(boot_stats, dtype=np.float64)
    p = bootstrap_p_value(statistic, boot, corrected=corrected)
    return TestResult(
        statistic=float(statistic),
        boot_stats=boot,
        p_value=p,
        alpha=float(alpha),
        rejected=p < alpha,
        null_model=null_model,
        alt_model=alt_model,
        seed=seed,
        failures=tuple(failures),
    )


_REPLICATE_ERRORS = (NumericalError, DegenerateModelError, np.linalg.LinAlgError)


def _bootstrap_statistics(
    p_hat: EdgeProb,
    n_boot: int,
    seed: int,
    stat_fn,
    failures: list[tuple[int, str]] | None = None,
) -> np.ndarray:
    """Replicate statistics under the fitted null.

    Failed replicates (eigensolver breakdown, degenerate clustering) are
    resampled from a fresh derived seed; more than 3 * R total attempts is
    an error, since silently dropping replicates would bias the p-value.
    Each failed attempt is appended to ``failures`` as (replicate index,
    exception class name).
    """
    stats = np.empty(n_boot)
    attempts = 0
    for r in range(n_boot):
        attempt = 0
        while True:
            if attempts >= 3 * n_boot:
                raise NumericalError(
                    f"bootstrap exhausted {attempts} attempts for {n_boot} replicates"
                )
            attempts += 1
            rep_seed = derive_seed(seed, "boot", r, attempt)
            attempt += 1
            try:
                g_rep = sample_graph(p_hat, derive_seed(rep_seed, "graph"))
                stats[r] = stat_fn(g_rep, derive_seed(rep_seed, "fit"))
                break
            except _REPLICATE_ERRORS as exc:
                if failures is not None:
                    failures.append((r, type(exc).__name__))
    return stats


def test_sbm_vs_dcbm(
    g: Graph,
    k: int,
    n_boot: int = 200,
    alpha: float = 0.05,
    restarts: int = 10,
    seed: int = 0,
) -> tuple[TestResult, ClusterSolution]:
    """Null: SBM; alternative: DCBM. Statistic: minimized centroid loss on
    the K-dimensional adjacency embedding. The null fit is the block-wise
    edge-frequency plug-in at the estimated labels."""
    if n_boot < 1:
        raise ValueError("need at least one bootstrap replicate")
    emb = ase(g, k)
    sol = minimize_q1(emb, k, n_restarts=restarts, seed=derive_seed(seed, "observed"))
    p_hat = fit_sbm(g, sol.labels)

    def stat_fn(g_rep: Graph, fit_seed: int) -> float:
        rep_emb = ase(g_rep, k)
        return minimize_q1(rep_emb, k, n_restarts=restarts, seed=fit_seed).objective

    failures: list[tuple[int, str]] = []
    boot = _bootstrap_statistics(p_hat, n_boot, seed, stat_fn, failures)
    result = make_test_result(
        sol.objective, boot, alpha, ModelKind.SBM, ModelKind.DCBM, seed,
        failures=failures,
    )
    return result, sol


def test_dcbm_vs_pabm(
    g: Graph,
    k: int,
    n_boot: int = 200,
    alpha: float = 0.05,
    restarts: int = 20,
    seed: int = 0,
) -> tuple[TestResult, ClusterSolution]:
    """Null: DCBM; alternative: PABM. Statistic: minimized rank-1 subspace
    loss on the K-dimensional adjacency embedding. The null fit is the
    degree-ratio plug-in; a zero-degree community aborts the test."""
    if n_boot < 1:
        raise ValueError("need at least one bootstrap replicate")
    emb = ase(g, k)
    sol = minimize_q_subspace(
        emb, k, r=1, n_restarts=restarts, seed=derive_seed(seed, "observed")
    )
    p_hat = fit_dcbm(g, sol.labels)

    def stat_fn(g_rep: Graph, fit_seed: int) -> float:
        rep_emb = ase(g_rep, k)
        return minimize_q_subspace(
            rep_emb, k, r=1, n_restarts=restarts, seed=fit_seed
        ).objective

    failures: list[tuple[int, str]] = []
    boot = _bootstrap_statistics(p_hat, n_boot, seed, stat_fn, failures)
    result = make_test_result(
        sol.objective, boot, alpha, ModelKind.DCBM, ModelKind.PABM, seed,
        failures=failures,
    )
    return result, sol


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
    """Decision-consistency invariants; raises AssertionError on violation."""
    t1, t2 = result.test_sbm_dcbm, result.test_dcbm_pabm
    if result.selected_model is ModelKind.SBM:
        assert not t1.rejected and t2 is None
    elif result.selected_model is ModelKind.DCBM:
        assert t1.rejected and t2 is not None and not t2.rejected
    else:
        assert t1.rejected and t2 is not None and t2.rejected
    assert result.labels.min() >= 1 and result.labels.max() <= result.k
    for t in (t1, t2):
        if t is None:
            continue
        count = int((t.boot_stats >= t.statistic).sum())
        assert t.p_value == count / t.boot_stats.size
        assert t.rejected == (t.p_value < t.alpha)


def run_workflow(
    g: Graph,
    k: int,
    alpha: float = 0.05,
    n_boot: int = 200,
    restarts: int | None = None,
    seed: int = 0,
) -> WorkflowResult:
    """Sequential community detection and model selection.

    ``restarts`` defaults to 10 for the centroid loss, 20 for the rank-1
    loss, and 100 for the final rank-K loss (whose landscape has many more
    local minima); passing an integer uses it for every minimization.
    Requires K^2 <= n so the final embedding is well-defined.
    """
    if k * k > g.n:
        raise InfeasibleModelError(f"K^2 = {k * k} exceeds n = {g.n}")
    q1_restarts = restarts if restarts is not None else 10
    q2_restarts = restarts if restarts is not None else 20
    q3_restarts = restarts if restarts is not None else 100
    timing: dict[str, float] = {}

    t0 = time.perf_counter()
    test1, sol1 = test_sbm_vs_dcbm(
        g, k, n_boot=n_boot, alpha=alpha, restarts=q1_restarts,
        seed=derive_seed(seed, "test1"),
    )
    timing["test_sbm_dcbm"] = time.perf_counter() - t0
    dims: dict[str, int | None] = {"test1": k, "test2": None, "final": k}

    if not test1.rejected:
        result = WorkflowResult(
            selected_model=ModelKind.SBM,
            labels=sol1.labels,
            test_sbm_dcbm=test1,
            test_dcbm_pabm=None,
            embedding_dims=dims,
            timing=timing,
            k=k,
            seed=seed,
        )
        validate_workflow_result(result)
        return result

    t0 = time.perf_counter()
    test2, sol2 = test_dcbm_vs_pabm(
        g, k, n_boot=n_boot, alpha=alpha, restarts=q2_restarts,
        seed=derive_seed(seed, "test2"),
    )
    timing["test_dcbm_pabm"] = time.perf_counter() - t0
    dims["test2"] = k

    if not test2.rejected:
        result = WorkflowResult(
            selected_model=ModelKind.DCBM,
            labels=sol2.labels,
            test_sbm_dcbm=test1,
            test_dcbm_pabm=test2,
            embedding_dims=dims,
            timing=timing,
            k=k,
            seed=seed,
        )
        validate_workflow_result(result)
        return result

    t0 = time.perf_counter()
    emb = ase(g, k * k, scaled=False)
    sol3 = minimize_q_subspace(
        emb, k, r=k, n_restarts=q3_restarts, seed=derive_seed(seed, "q3")
    )
    timing["final_pabm"] = time.perf_counter() - t0
    dims["final"] = k * k
    result = WorkflowResult(
        selected_model=ModelKind.PABM,
        labels=sol3.labels,
        test_sbm_dcbm=test1,
        test_dcbm_pabm=test2,
        embedding_dims=dims,
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
