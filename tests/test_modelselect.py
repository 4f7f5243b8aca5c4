from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import blockselect
import blockselect.modelselect as ms
from blockselect import _pool, cluster, spectral
from blockselect._seeds import derive_seed
from blockselect.blockmodels import (
    Beta,
    FactoredProb,
    PowerLaw,
    SbmParams,
    beta_ratio_omega,
    edge_probs,
    gen_dcbm,
    gen_pabm,
    gen_sbm,
    sample_graph,
)
from blockselect.cluster import minimize_q1, minimize_q_subspace
from blockselect.errors import DegenerateModelError, InfeasibleModelError, NumericalError
from blockselect.modelselect import (
    ModelKind,
    WorkflowResult,
    bootstrap_p_value,
    detect,
    make_test_result,
    run_workflow,
    validate_workflow_result,
    workflow_report,
)
from blockselect.modelselect import test_dcbm_vs_pabm as run_test_dcbm_vs_pabm
from blockselect.modelselect import test_sbm_vs_dcbm as run_test_sbm_vs_dcbm
from blockselect.netcore import Graph, degrees
from blockselect.spectral import ase

from conftest import constant_prob, plant_monotone_failure, random_graph, solution_bytes


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def _direct_minimize(g, k, model, n_restarts, seed):
    """The embed-and-minimize call ``detect`` stands for, written out."""
    if model is ModelKind.SBM:
        return minimize_q1(ase(g, k).rows, k, n_restarts=n_restarts, seed=seed)
    if model is ModelKind.DCBM:
        return minimize_q_subspace(ase(g, k).rows, k, r=1, n_restarts=n_restarts, seed=seed)
    rows = ase(g, k * k, scaled=False).rows
    return minimize_q_subspace(rows, k, r=k, n_restarts=n_restarts, seed=seed)


@pytest.mark.parametrize("model, default_restarts", [
    (ModelKind.SBM, 10), (ModelKind.DCBM, 20), (ModelKind.PABM, 100),
])
@pytest.mark.parametrize("restarts", [None, 3])
def test_detect_matches_direct_minimizer(model, default_restarts, restarts):
    g, _ = gen_pabm(60, 2, density_scale=0.2, seed=5)
    got = detect(g, 2, model, restarts, seed=17)
    n_restarts = default_restarts if restarts is None else restarts
    want = _direct_minimize(g, 2, model, n_restarts, seed=17)
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.objective == want.objective
    assert got.n_iters == want.n_iters
    assert got.n_restarts_used == want.n_restarts_used == n_restarts


def test_detect_pabm_needs_k_squared_nodes():
    g = random_graph(8, 0.5, seed=0)
    with pytest.raises(InfeasibleModelError, match="K\\^2 = 9 exceeds n = 8"):
        detect(g, 3, ModelKind.PABM)
    assert detect(g, 3, ModelKind.DCBM, restarts=2).labels.shape == (8,)


def _is_bijection(pairs: set) -> bool:
    return len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=st.sampled_from([ModelKind.SBM, ModelKind.DCBM]), seed=st.integers(0, 2**16),
       n_isolated=st.integers(0, 4))
def test_detect_is_equivariant_under_node_relabelling(set_workers, model, seed, n_isolated):
    # the restarts seed from node indices, so a relabelled graph starts
    # them elsewhere: the property holds where both node orders reach the
    # same optimum. About one planted graph in 50 to 100 at this signal
    # reaches another local optimum, so the examples are a fixed draw.
    set_workers(1)
    rng = np.random.default_rng(seed)
    omega = beta_ratio_omega(3, 0.2)
    if model is ModelKind.SBM:
        g, _ = gen_sbm(240, 3, [1 / 3] * 3, omega, target_avg_degree=20, seed=seed)
    else:
        g, _ = gen_dcbm(240, 3, [1 / 3] * 3, omega, PowerLaw(1, 5), target_avg_degree=20,
                        seed=seed)
        # zero rows lie on every community's line and go to community 1
        isolated = rng.choice(g.n, size=n_isolated, replace=False)
        g = Graph(n=g.n, edges=g.edges[~np.isin(g.edges, isolated).any(axis=1)])
    perm = rng.permutation(g.n)
    relabelled = Graph.from_pairs(g.n, perm[g.edges])
    sol = detect(g, 3, model, seed=seed)
    moved = detect(relabelled, 3, model, seed=seed)
    linked = degrees(g) > 0
    assert _is_bijection(set(zip(sol.labels[linked], moved.labels[perm][linked])))
    assert moved.objective == pytest.approx(sol.objective, rel=1e-9)


def test_detect_is_identical_at_every_worker_count(monkeypatch, set_workers, block_pids):
    # a tiny block budget runs one restart per block: six blocks per call
    g, _ = gen_pabm(120, 2, density_scale=0.2, seed=5)
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 1)
    runs = {}
    for workers in (1, 2, 3):
        set_workers(workers)
        runs[workers] = [solution_bytes(detect(g, 2, model, 6, seed=17)) for model in ModelKind]
    assert runs[1] == runs[2] == runs[3]
    pids = block_pids()
    assert len(pids) == 3 * 3 * 6
    assert set(pids[:18]) == {os.getpid()} and os.getpid() not in pids[18:]


def _replicate_pid(g_rep, fit_seed):
    detect(g_rep, 2, ModelKind.DCBM, 4, seed=fit_seed)
    return float(os.getpid())


def test_detect_in_a_bootstrap_replicate_stays_in_that_replicate_process(
    monkeypatch, set_workers, block_pids,
):
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 1)
    set_workers(2)
    replicate_pids = set(ms._bootstrap_statistics(
        constant_prob(40, 0.3), 6, 0, per_replicate(_replicate_pid)).stats)
    assert os.getpid() not in replicate_pids
    # a nested pool would run the blocks in grandchild processes
    pids = block_pids()
    assert len(pids) >= 6 * 4 and set(pids) <= replicate_pids


def test_detect_and_bootstrap_run_blas_on_one_thread_and_restore_the_count(
    monkeypatch, set_workers,
):
    before = _blas_threads()
    if not before:
        pytest.skip("no OpenBLAS library loaded")
    seen = []

    def recording_q1(*args, _original=ms.minimize_q1, **kwargs):
        seen.append(_blas_threads())
        if kwargs["seed"] == 1:
            raise NumericalError("planted")
        return _original(*args, **kwargs)

    def statistic(g_rep, fit_seed):
        seen.append(_blas_threads())
        return detect(g_rep, 2, ModelKind.SBM, 2, seed=fit_seed).objective

    monkeypatch.setattr(ms, "minimize_q1", recording_q1)
    # the spectral-clustering baselines end in the same minimizer
    monkeypatch.setattr(cluster, "minimize_q1", recording_q1)
    set_workers(1)
    g = random_graph(30, 0.3, seed=0)
    _set_blas_threads([2] * len(before))
    try:
        detect(g, 2, ModelKind.SBM, 2, seed=0)
        with pytest.raises(NumericalError, match="planted"):
            detect(g, 2, ModelKind.SBM, 2, seed=1)
        ms._bootstrap_statistics(constant_prob(30, 0.3), 3, 2, per_replicate(statistic))
        for baseline in (cluster.sc_l, cluster.rsc_l, cluster.osc):
            baseline(g, 2, n_restarts=2, seed=0)
        with pytest.raises(NumericalError, match="planted"):
            cluster.osc(g, 2, n_restarts=2, seed=1)
        after = _blas_threads()
    finally:
        _set_blas_threads(before)
    assert len(seen) == 2 + 2 * 3 + 4 and all(c == [1] * len(before) for c in seen)
    assert after == [2] * len(before)


# ---------------------------------------------------------------------------
# p-values
# ---------------------------------------------------------------------------

def test_p_value_direct_count():
    assert bootstrap_p_value(5.0, np.array([1.0, 2.0, 6.0, 7.0])) == 0.5


def test_p_value_all_replicates_larger():
    res = make_test_result(
        0.1, np.array([0.5, 0.9, 2.0]), 0.05, ModelKind.SBM, ModelKind.DCBM, 0
    )
    assert res.p_value == 1.0 and not res.rejected


def test_p_value_ties_count_as_geq():
    assert bootstrap_p_value(2.0, np.array([2.0, 1.0])) == 0.5


def test_p_value_needs_replicates():
    with pytest.raises(ValueError):
        bootstrap_p_value(1.0, np.array([]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_p_value_is_invariant_under_reordering(data):
    # a few repeated values force ties with the statistic
    values = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(-1e3, 1e3, allow_nan=False)
    boot = np.array(data.draw(st.lists(values, min_size=1, max_size=60)))
    stat = data.draw(values | st.sampled_from(list(boot)))
    order = np.array(data.draw(st.permutations(range(boot.size))))
    assert bootstrap_p_value(stat, boot[order]) == bootstrap_p_value(stat, boot)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05])
@pytest.mark.parametrize("run", [run_test_sbm_vs_dcbm, run_test_dcbm_vs_pabm])
def test_alpha_outside_unit_interval_rejected(run, alpha):
    g = random_graph(12, 0.5, 0)
    with pytest.raises(ValueError, match="alpha"):
        run(g, 2, n_boot=1, alpha=alpha, restarts=1)
    with pytest.raises(ValueError, match="alpha"):
        run_workflow(g, 2, alpha=alpha, n_boot=1, restarts=1)


@pytest.mark.parametrize("statistic, boot, alpha, message", [
    (np.nan, [1.0, 2.0], 0.05, "observed statistic must be finite, got nan"),
    (np.inf, [1.0, 2.0], 0.05, "observed statistic must be finite, got inf"),
    (1.0, [np.nan, np.nan], 0.05, r"got nan at replicate 0 \(2 of 2 not finite\)"),
    (1.0, [1.0, -np.inf, 3.0], 0.05, r"got -inf at replicate 1 \(1 of 3 not finite\)"),
    (1.0, [1.0, 2.0], 1.5, r"alpha must lie in \(0, 1\), got 1.5"),
    (1.0, [1.0, 2.0], np.nan, r"alpha must lie in \(0, 1\), got nan"),
    (1.0, [1.0, 2.0], 0.0, "alpha must lie in"),
    (1.0, [1.0, 2.0], 1.0, "alpha must lie in"),
    (1.0, [], 0.05, "at least one bootstrap replicate"),
])
def test_result_refuses_what_no_decision_can_be_read_from(statistic, boot, alpha, message):
    # a NaN statistic or NaN replicates read as p = 0 and rejected; alpha =
    # 1.5 rejected at p = 0.5, and a NaN alpha never rejected
    with pytest.raises(ValueError, match=message):
        make_test_result(statistic, boot, alpha, ModelKind.SBM, ModelKind.DCBM, 0)


def test_result_formula_exactness_fuzz():
    rng = np.random.default_rng(0)
    for trial in range(200):
        r = int(rng.integers(1, 40))
        boot = rng.exponential(1.0, r)
        stat = float(rng.exponential(1.0))
        alpha = float(rng.uniform(0.01, 0.2))
        res = make_test_result(stat, boot, alpha, ModelKind.SBM, ModelKind.DCBM, trial)
        count = int((res.boot_stats >= res.statistic).sum())
        assert res.p_value == count / r  # bit-exact
        assert res.rejected == (res.p_value < alpha)


def test_rejection_monotone_in_alpha():
    boot = np.arange(1.0, 21.0)
    res_lo = make_test_result(18.5, boot, 0.05, ModelKind.SBM, ModelKind.DCBM, 0)
    res_hi = make_test_result(18.5, boot, 0.2, ModelKind.SBM, ModelKind.DCBM, 0)
    assert not res_lo.rejected and res_hi.rejected


# ---------------------------------------------------------------------------
# bootstrap machinery
# ---------------------------------------------------------------------------

def _tiny_phat(n=12, p=0.4) -> FactoredProb:
    return constant_prob(n, p)


def _blas_threads() -> list[int]:
    """The thread count of every loaded OpenBLAS library."""
    return [get() for get, _ in _pool._openblas_thread_counts()]


def _set_blas_threads(counts: list[int]) -> None:
    for (_, set_), count in zip(_pool._openblas_thread_counts(), counts):
        set_(count)


@pytest.fixture
def one_worker(set_workers):
    """Run the bootstrap in this process, so call counts are seen here."""
    set_workers(1)


def test_bootstrap_resamples_failed_replicates(one_worker):
    first_attempts = {_fit_seed(0, r, 0) for r in range(5)}
    calls = []

    def flaky(g_rep, fit_seed):
        calls.append(fit_seed)
        if fit_seed in first_attempts:
            raise NumericalError("transient")
        return float(len(calls))

    stats, failures = ms._bootstrap_statistics(_tiny_phat(), 5, 0, per_replicate(flaky))
    assert stats.shape == (5,)
    # every replicate needed exactly one retry; a failed batch is computed
    # again one replicate at a time, so a seed may be called twice
    assert len(set(calls)) == 10
    assert failures == [(r, "NumericalError") for r in range(5)]


def test_bootstrap_failures_are_recorded_in_result_and_report(monkeypatch, one_worker):
    g, _ = gen_sbm(60, 2, [0.5, 0.5], beta_ratio_omega(2, 0.2),
                   target_avg_degree=10, seed=0)
    clean = run_workflow(g, 2, n_boot=6, restarts=3, seed=1)
    # the first attempts of replicates 1 and 3 fail, and are resampled from
    # fresh seeds
    test1 = derive_seed(1, "test1")
    _fail_minimizers(monkeypatch, {
        _fit_seed(test1, 1, 0): NumericalError("transient"),
        _fit_seed(test1, 3, 0): DegenerateModelError("empty community"),
    })
    result = run_workflow(g, 2, n_boot=6, restarts=3, seed=1)
    test = result.test_sbm_dcbm
    assert test.failures == ((1, "NumericalError"), (3, "DegenerateModelError"))
    assert test.n_replicates == 6 and test.attempts == 8
    assert clean.test_sbm_dcbm.failures == () and clean.test_sbm_dcbm.attempts == 6
    keep = [0, 2, 4, 5]  # replicates whose first attempt succeeded
    np.testing.assert_array_equal(
        test.boot_stats[keep], clean.test_sbm_dcbm.boot_stats[keep]
    )
    report = workflow_report(result)["test_sbm_vs_dcbm"]
    assert report["attempts"] == 8
    assert report["failed_attempts"] == [
        {"replicate": 1, "error": "NumericalError"},
        {"replicate": 3, "error": "DegenerateModelError"},
    ]


def _always_fails(g_rep, fit_seed):
    raise NumericalError("broken")


def test_bootstrap_exhaustion_raises():
    with pytest.raises(NumericalError, match="exhausted"):
        ms._bootstrap_statistics(_tiny_phat(), 4, 0, per_replicate(_always_fails))


# ---------------------------------------------------------------------------
# bootstrap replicates in worker processes
# ---------------------------------------------------------------------------

def _same_graphs(graphs):
    return list(graphs)


def _each_replicate(stat_fn, graphs, fit_seeds):
    return [stat_fn(g_rep, fit_seed) for g_rep, fit_seed in zip(graphs, fit_seeds)]


def per_replicate(stat_fn) -> ms._Statistic:
    """A bootstrap statistic that ``stat_fn(g_rep, fit_seed)`` computes one
    replicate at a time; an error stops the batch, as in the real
    statistic. The pool pickles the statistic, so on more than one worker
    ``stat_fn`` is a module-level function or a partial of one."""
    return ms._Statistic(_same_graphs, functools.partial(_each_replicate, stat_fn))


def serial_bootstrap_statistics(p_hat, n_boot, seed, stat_fn):
    """The one-process replicate loop the worker pool replaced: the
    reference for statistics, failures and the error raised."""
    stats = np.empty(n_boot)
    failures = []
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
            except ms._REPLICATE_ERRORS as exc:
                failures.append((r, type(exc).__name__))
    return stats, failures


def _fit_seed(boot_seed, r, attempt):
    return derive_seed(derive_seed(boot_seed, "boot", r, attempt), "fit")


def _failing(r, attempts):
    return {(r, a): NumericalError for a in attempts}


_B = 20  # budget 3B = 60 attempts; 2 and 3 workers make chunks of 1 to 3
_SCENARIOS = {
    "clean": {},
    "retried": {(0, 0): NumericalError, (5, 0): DegenerateModelError,
                (5, 1): NumericalError, (19, 0): np.linalg.LinAlgError},
    # replicate 19's 41st attempt is the 60th in all
    "budget_met": _failing(19, range(40)),
    "budget_exceeded": _failing(19, range(41)),
    "budget_exceeded_early": _failing(0, range(41)),
    "not_retried": {(3, 0): NumericalError, (7, 1): InfeasibleModelError("at 7"),
                    (12, 0): InfeasibleModelError("at 12")},
    # replicate 0 takes 42 attempts and replicate 1 one, replicate 2 raises
    # at the 44th; at 3 workers replicate 2 starts the second chunk
    "not_retried_after_long_retry": {**_failing(0, range(41)),
                                     (2, 0): InfeasibleModelError("at 2")},
    "exhausted_before_not_retried": {**_failing(2, range(3 * _B)),
                                     (10, 0): InfeasibleModelError("at 10")},
    "not_retried_at_last_attempt": {**_failing(19, range(40)),
                                    (19, 40): InfeasibleModelError("at 19")},
    "not_retried_past_budget": {**_failing(19, range(41)),
                                (19, 41): InfeasibleModelError("at 19")},
    # the same two edges when an earlier chunk took the extra attempts
    "not_retried_at_last_attempt_late": {**_failing(0, range(10)), **_failing(19, range(30)),
                                         (19, 30): InfeasibleModelError("at 19")},
    "not_retried_past_budget_late": {**_failing(0, range(10)), **_failing(19, range(31)),
                                     (19, 31): InfeasibleModelError("at 19")},
}


def _planned_statistic(plan, boot_seed):
    """A statistic that raises ``plan[(r, attempt)]`` and otherwise returns
    a value that differs per replicate; replicate 0 is slow, so its chunk
    finishes last."""
    by_seed = {_fit_seed(boot_seed, r, a): exc for (r, a), exc in plan.items()}
    slow = {_fit_seed(boot_seed, 0, a) for a in range(3 * _B)}
    return functools.partial(_planned_value, by_seed, slow)


def _planned_value(by_seed, slow, g_rep, fit_seed):
    if fit_seed in slow:
        time.sleep(0.002)
    exc = by_seed.get(fit_seed)
    if exc is not None:
        raise exc("planted") if isinstance(exc, type) else exc
    return g_rep.edge_count + fit_seed / 2.0**63


def _outcome(run):
    try:
        stats, failures = run()
    except Exception as exc:
        return type(exc), str(exc)
    return stats.tobytes(), failures


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_bootstrap_matches_serial_reference(set_workers, scenario, workers):
    stat_fn = _planned_statistic(_SCENARIOS[scenario], boot_seed=5)
    want = _outcome(lambda: serial_bootstrap_statistics(_tiny_phat(), _B, 5, stat_fn))
    set_workers(workers)
    got = _outcome(lambda: ms._bootstrap_statistics(_tiny_phat(), _B, 5, per_replicate(stat_fn)))
    assert got == want


def _planted(exc) -> Exception:
    return exc("planted") if isinstance(exc, type) else exc


# a two-block null the size of the karate club
_KARATE_SIZE_NULL = edge_probs(SbmParams(
    k=2, omega=np.array([[0.3, 0.05], [0.05, 0.3]]), labels=np.repeat([1, 2], 17)))


@functools.cache
def _serial_null_outcome(scenario: str, model: ModelKind) -> tuple:
    """The serial loop's outcome of a bootstrap of ``model``'s minimized
    loss, one ``detect`` per attempt, with the scenario's planted errors."""
    plan = {_fit_seed(5, r, a): _planted(exc) for (r, a), exc in _SCENARIOS[scenario].items()}

    def stat_fn(g_rep, fit_seed):
        if fit_seed in plan:
            raise plan[fit_seed]
        return detect(g_rep, 2, model, seed=fit_seed).objective

    return _outcome(lambda: serial_bootstrap_statistics(_KARATE_SIZE_NULL, _B, 5, stat_fn))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_packed_chunks_match_serial_reference(monkeypatch, set_workers, scenario, workers):
    # the real statistic: a chunk minimizes its replicates' points in one
    # call, whose restart blocks share descents, and the plan fails fit
    # seeds inside that call
    _fail_minimizers(monkeypatch, {
        _fit_seed(5, r, a): _planted(exc) for (r, a), exc in _SCENARIOS[scenario].items()})
    set_workers(workers)
    for model in (ModelKind.SBM, ModelKind.DCBM):
        got = _outcome(lambda: ms._bootstrap_statistics(
            _KARATE_SIZE_NULL, _B, 5, ms._null_statistic(2, model, None)))
        assert got == _serial_null_outcome(scenario, model)


def _fail_eigh(monkeypatch, planted: set[bytes], n: int) -> list[int]:
    """Make ``eigh`` raise ``LinAlgError`` on any input that holds one of
    the ``planted`` n x n matrices, alone or in a stack; fork carries the
    patch into the worker processes. Returns the list of the dimensions of
    the n x n inputs it sees in this process."""
    seen = []

    def eigh(a, *args, _original=np.linalg.eigh, **kwargs):
        a = np.asarray(a)
        if a.shape[-1] == n:
            seen.append(a.ndim)
        if any(m.tobytes() in planted for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("planted")
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return seen


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_linalg_error_in_a_stack_is_charged_to_its_replicate(monkeypatch, set_workers, workers):
    # the graphs of replicate 3's first two attempts and replicate 12's first
    planted = [sample_graph(_KARATE_SIZE_NULL, derive_seed(derive_seed(5, "boot", r, a), "graph"))
               for r, a in [(3, 0), (3, 1), (12, 0)]]
    seen = _fail_eigh(monkeypatch, {spectral._dense_adjacencies([g]).tobytes() for g in planted},
                      _KARATE_SIZE_NULL.n)
    set_workers(workers)
    for model in (ModelKind.SBM, ModelKind.DCBM):
        want = _outcome(lambda: serial_bootstrap_statistics(
            _KARATE_SIZE_NULL, _B, 5, lambda g, fit_seed: detect(g, 2, model, seed=fit_seed).objective))
        assert want[1] == [(3, "LinAlgError"), (3, "LinAlgError"), (12, "LinAlgError")]
        seen.clear()
        got = _outcome(lambda: ms._bootstrap_statistics(
            _KARATE_SIZE_NULL, _B, 5, ms._null_statistic(2, model, None)))
        assert got == want
        if workers == 1:
            # four chunks of five replicates, each drawn in one group; the
            # stacks of replicates 3 and 12 fail, so their chunks compute
            # each of their five replicates alone, a stack of one, and each
            # retry, two of replicate 3 and one of replicate 12, is a stack
            # of one too
            assert seen == [3] * 17


def _first_attempt_rows(r: int) -> np.ndarray:
    """The ``ase`` rows of replicate r's first attempt on the karate-size
    null at bootstrap seed 5."""
    seed = derive_seed(derive_seed(5, "boot", r, 0), "graph")
    return ase(sample_graph(_KARATE_SIZE_NULL, seed), 2).rows


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_monotone_failure_in_a_packed_descent_is_charged_to_its_replicate(
    monkeypatch, set_workers, workers,
):
    # the first attempt of one replicate in each chunk fails the monotone
    # check inside the descent that its chunk's replicates share
    planted = [1, 6, 11, 16]
    plant_monotone_failure(monkeypatch, [_first_attempt_rows(r) for r in planted])
    set_workers(workers)
    for model in (ModelKind.SBM, ModelKind.DCBM):
        want = _outcome(lambda: serial_bootstrap_statistics(
            _KARATE_SIZE_NULL, _B, 5, lambda g, fit_seed: detect(g, 2, model, seed=fit_seed).objective))
        assert want[1] == [(r, "NumericalError") for r in planted]
        got = _outcome(lambda: ms._bootstrap_statistics(
            _KARATE_SIZE_NULL, _B, 5, ms._null_statistic(2, model, None)))
        assert got == want


def _stacked_ase_alone_only(graphs, d):
    """``stacked_ase``, failing on a stack of two or more graphs."""
    if len(graphs) > 1:
        raise RuntimeError("planted batching fault")
    return spectral.stacked_ase(graphs, d)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fault", ["packed_descent", "stacked_embedding"])
def test_a_batch_that_fails_only_when_batched_raises(monkeypatch, set_workers, fault, workers):
    # every replicate succeeds alone, so only the batching can be at fault
    if fault == "packed_descent":
        original = cluster._descend

        def fails_packed(loss, rows, rngs, layout):
            if len(layout) > 1:
                raise RuntimeError("planted batching fault")
            return original(loss, rows, rngs, layout)

        monkeypatch.setattr(cluster, "_descend", fails_packed)
    else:
        monkeypatch.setattr(ms, "stacked_ase", _stacked_ase_alone_only)
    set_workers(workers)
    for model in (ModelKind.SBM, ModelKind.DCBM):
        with pytest.raises(NumericalError, match="^a batch of replicates failed, but no "
                                                 "replicate fails alone$") as info:
            ms._bootstrap_statistics(_KARATE_SIZE_NULL, _B, 5, ms._null_statistic(2, model, None))
        if workers == 1:
            assert str(info.value.__cause__) == "planted batching fault"


# a two-block null of 200 nodes, where a replicate group holds one graph
_ONE_GRAPH_GROUPS_NULL = edge_probs(SbmParams(
    k=2, omega=np.array([[0.1, 0.02], [0.02, 0.1]]), labels=np.repeat([1, 2], 100)))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_linalg_error_in_a_group_of_one_is_charged_to_its_replicate(
    monkeypatch, set_workers, workers,
):
    null, n_boot = _ONE_GRAPH_GROUPS_NULL, 6
    assert cluster._BLOCK_BYTES // (16 * null.n**2) == 1
    planted = [sample_graph(null, derive_seed(derive_seed(5, "boot", r, a), "graph"))
               for r, a in [(1, 0), (1, 1), (4, 0)]]
    _fail_eigh(monkeypatch, {spectral._dense_adjacencies([g]).tobytes() for g in planted},
               null.n)
    set_workers(workers)
    want = _outcome(lambda: serial_bootstrap_statistics(
        null, n_boot, 5, lambda g, fit_seed: detect(g, 2, ModelKind.SBM, seed=fit_seed).objective))
    assert want[1] == [(1, "LinAlgError"), (1, "LinAlgError"), (4, "LinAlgError")]
    got = _outcome(lambda: ms._bootstrap_statistics(
        null, n_boot, 5, ms._null_statistic(2, ModelKind.SBM, None)))
    assert got == want


@pytest.mark.parametrize("n", [182, 300, 512])
def test_a_replicate_group_of_one_graph_is_one_stacked_ase_call(monkeypatch, n):
    g = random_graph(n, 0.05, n)
    want = ase(g, 3).rows
    stacks, bypassed = [], []

    def counted(graphs, d, _original=spectral.stacked_ase):
        stacks.append(len(graphs))
        return _original(graphs, d)

    def bypass(*args, **kwargs):
        bypassed.append(args)
        raise AssertionError("embedded outside the stack")

    monkeypatch.setattr(ms, "stacked_ase", counted)
    for module, name in [(ms, "ase"), (spectral, "ase"), (spectral, "top_eigenpairs")]:
        monkeypatch.setattr(module, name, bypass)
    (got,) = ms._null_statistic(3, ModelKind.SBM, None).embed([g])
    assert stacks == [1] and bypassed == []
    assert got.tobytes() == want.tobytes()


# the barrier ``_paired_pid`` waits at; the workers inherit it through fork
_PAIR_BARRIER = None


def _paired_pid(g_rep, fit_seed):
    _PAIR_BARRIER.wait()
    return float(os.getpid())


def _worker_pid(g_rep, fit_seed):
    return float(os.getpid())


def _worker_blas_threads(g_rep, fit_seed):
    return float(max(_blas_threads(), default=1))


def test_bootstrap_workers_are_forked_processes_with_one_blas_thread(monkeypatch, set_workers):
    # each replicate waits for one running at the same time, which only
    # the other worker can be running
    monkeypatch.setitem(globals(), "_PAIR_BARRIER",
                        multiprocessing.get_context("fork").Barrier(2, timeout=60))
    set_workers(2)
    pids = set(ms._bootstrap_statistics(_tiny_phat(), 8, 0, per_replicate(_paired_pid)).stats)
    assert len(pids) == 2 and os.getpid() not in pids
    assert set(ms._bootstrap_statistics(
        _tiny_phat(), 8, 0, per_replicate(_worker_blas_threads)).stats) == {1.0}
    # forking a process that runs other threads is unsafe: with no pool
    # warm yet, stay in-process
    _pool.shutdown()
    box = {}
    thread = threading.Thread(target=lambda: box.update(
        pids=set(ms._bootstrap_statistics(_tiny_phat(), 8, 0, per_replicate(_worker_pid)).stats)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and box["pids"] == {os.getpid()}
    set_workers(1)
    assert set(ms._bootstrap_statistics(
        _tiny_phat(), 8, 0, per_replicate(_worker_pid)).stats) == {os.getpid()}


def _fail_minimizers(monkeypatch, plan):
    """Make the packed null minimizer raise ``plan[fit seed]`` of the first
    planned replicate it is given; fork carries the patch into the worker
    processes."""
    def flaky(points, *args, _original=ms.minimize_stack):
        for seed in args[-1]:
            if seed in plan:
                raise plan[seed]
        return _original(points, *args)

    monkeypatch.setattr(ms, "minimize_stack", flaky)


def _test_fields(t):
    return (t.statistic, t.boot_stats.tobytes(), t.p_value, t.failures, t.attempts)


def test_bootstrap_tests_and_workflow_are_identical_at_every_worker_count(
    monkeypatch, set_workers,
):
    g, _ = gen_pabm(120, 2, density_scale=0.2, seed=1)
    test1, test2 = derive_seed(3, "test1"), derive_seed(3, "test2")
    _fail_minimizers(monkeypatch, {
        _fit_seed(test1, 0, 0): NumericalError("transient"),
        _fit_seed(test1, 9, 0): DegenerateModelError("empty community"),
        _fit_seed(test1, 9, 1): np.linalg.LinAlgError("no convergence"),
        _fit_seed(test2, 4, 0): NumericalError("transient"),
        _fit_seed(test2, 11, 0): DegenerateModelError("empty community"),
    })
    runs = {}
    for workers in (1, 2, 3):
        set_workers(workers)
        t1, _ = run_test_sbm_vs_dcbm(g, 2, n_boot=12, restarts=3, seed=test1)
        t2, _ = run_test_dcbm_vs_pabm(g, 2, n_boot=12, restarts=3, seed=test2)
        report = json.dumps(workflow_report(run_workflow(g, 2, n_boot=12, restarts=3, seed=3)))
        runs[workers] = (_test_fields(t1), _test_fields(t2), report)
    assert runs[1] == runs[2] == runs[3]
    assert runs[1][0][3] == ((0, "NumericalError"), (9, "DegenerateModelError"),
                             (9, "LinAlgError"))
    assert runs[1][1][3] == ((4, "NumericalError"), (11, "DegenerateModelError"))
    assert json.loads(runs[1][2])["selected_model"] == "PABM"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_bootstrap_errors_are_identical_at_every_worker_count(monkeypatch, set_workers, workers):
    g, _ = gen_pabm(120, 2, density_scale=0.2, seed=1)
    set_workers(workers)
    plan = {_fit_seed(0, 3, a): NumericalError("stuck") for a in range(30)}
    _fail_minimizers(monkeypatch, plan)
    with pytest.raises(NumericalError, match="^bootstrap exhausted 30 attempts for 10 replicates$"):
        run_test_sbm_vs_dcbm(g, 2, n_boot=10, restarts=3, seed=0)
    plan.clear()
    plan[_fit_seed(0, 8, 0)] = InfeasibleModelError("late")
    plan[_fit_seed(0, 6, 0)] = InfeasibleModelError("first")
    # the workers fork again, with the new plan
    _pool.shutdown()
    with pytest.raises(InfeasibleModelError, match="^first$") as info:
        run_test_dcbm_vs_pabm(g, 2, n_boot=10, restarts=3, seed=0)
    if workers > 1:  # the worker's traceback text is the cause
        assert "in flaky" in str(info.value.__cause__)


def test_observed_side_degenerate_fit_aborts(monkeypatch):
    g, _ = gen_sbm(60, 2, [0.5, 0.5], beta_ratio_omega(2, 0.2),
                   target_avg_degree=10, seed=0)

    def dead_fit(graph, labels):
        raise DegenerateModelError("community 2 has zero total degree")

    monkeypatch.setattr(ms, "fit_dcbm", dead_fit)
    with pytest.raises(DegenerateModelError, match="zero total degree"):
        run_test_dcbm_vs_pabm(g, 2, n_boot=3, seed=0)


def test_zero_boot_is_error():
    g, _ = gen_sbm(40, 2, [0.5, 0.5], beta_ratio_omega(2, 0.2),
                   target_avg_degree=8, seed=0)
    with pytest.raises(ValueError):
        run_test_sbm_vs_dcbm(g, 2, n_boot=0, seed=0)


# ---------------------------------------------------------------------------
# the two tests on planted truth
# ---------------------------------------------------------------------------

def test_sbm_truth_is_usually_kept():
    g, _ = gen_sbm(300, 2, [0.5, 0.5], beta_ratio_omega(2, 0.2),
                   target_avg_degree=20, seed=1)
    result, sol = run_test_sbm_vs_dcbm(g, 2, n_boot=40, restarts=5, seed=0)
    assert result.null_model is ModelKind.SBM
    assert not result.rejected
    assert result.statistic == pytest.approx(sol.objective)


def test_dcbm_truth_rejects_sbm():
    g, _ = gen_dcbm(300, 2, [0.5, 0.5], beta_ratio_omega(2, 0.2), Beta(1, 5),
                    target_avg_degree=20, seed=2)
    result, _ = run_test_sbm_vs_dcbm(g, 2, n_boot=40, restarts=5, seed=0)
    assert result.rejected and result.p_value <= 0.05


def test_dcbm_truth_keeps_dcbm():
    g, _ = gen_dcbm(300, 2, [0.5, 0.5], beta_ratio_omega(2, 0.5), PowerLaw(1, 5),
                    target_avg_degree=20, seed=3)
    result, _ = run_test_dcbm_vs_pabm(g, 2, n_boot=40, restarts=8, seed=0)
    assert result.null_model is ModelKind.DCBM
    assert not result.rejected


def test_pabm_truth_rejects_dcbm():
    g, _ = gen_pabm(300, 2, density_scale=0.1, seed=4)
    result, _ = run_test_dcbm_vs_pabm(g, 2, n_boot=40, restarts=8, seed=0)
    assert result.rejected


# ---------------------------------------------------------------------------
# workflow
# ---------------------------------------------------------------------------

def test_workflow_requires_k_squared_nodes():
    g, _ = gen_sbm(20, 2, [0.5, 0.5], beta_ratio_omega(2, 0.2),
                   target_avg_degree=6, seed=0)
    with pytest.raises(InfeasibleModelError):
        run_workflow(g, 5, n_boot=5, seed=0)


def test_workflow_on_sbm_truth_selects_sbm_and_is_deterministic():
    g, params = gen_sbm(250, 2, [0.5, 0.5], beta_ratio_omega(2, 0.2),
                        target_avg_degree=25, seed=5)
    r1 = run_workflow(g, 2, n_boot=30, restarts=5, seed=7)
    r2 = run_workflow(g, 2, n_boot=30, restarts=5, seed=7)
    assert r1.selected_model is ModelKind.SBM
    assert r1.test_dcbm_pabm is None
    np.testing.assert_array_equal(r1.labels, r2.labels)
    np.testing.assert_array_equal(
        r1.test_sbm_dcbm.boot_stats, r2.test_sbm_dcbm.boot_stats
    )
    assert r1.test_sbm_dcbm.p_value == r2.test_sbm_dcbm.p_value
    validate_workflow_result(r1)
    assert workflow_report(r1) == workflow_report(r2)


def test_workflow_on_pabm_truth_selects_pabm():
    g, params = gen_pabm(300, 2, density_scale=0.15, seed=6)
    result = run_workflow(g, 2, n_boot=30, restarts=5, seed=8)
    assert result.selected_model is ModelKind.PABM
    assert result.test_sbm_dcbm.rejected and result.test_dcbm_pabm.rejected
    assert result.embedding_dims["final"] == 4
    validate_workflow_result(result)


def consistent_workflow(picked: ModelKind) -> WorkflowResult:
    """A hand-made workflow result that picks ``picked`` and keeps every
    decision invariant: p-values 1/4 (kept) or 0 (rejected) at alpha 0.05."""
    def test(null, alt, rejected):
        return make_test_result(9.0 if rejected else 3.5, [1.0, 2.0, 3.0, 4.0], 0.05,
                                null, alt, seed=0)

    t1 = test(ModelKind.SBM, ModelKind.DCBM, picked is not ModelKind.SBM)
    t2 = None if picked is ModelKind.SBM else test(
        ModelKind.DCBM, ModelKind.PABM, picked is ModelKind.PABM)
    return WorkflowResult(picked, np.array([1, 2, 2, 1]), t1, t2, {}, {}, k=2)


_TAMPERED_WORKFLOWS = {
    "sbm pick with a second test": (
        lambda r: dataclasses.replace(r, test_dcbm_pabm=r.test_sbm_dcbm),
        "SBM picked with a DCBM-vs-PABM test"),
    "dcbm pick with the sbm test kept": (
        lambda r: dataclasses.replace(r, selected_model=ModelKind.DCBM),
        "DCBM picked with SBM-vs-DCBM rejected=False"),
    "label above k": (
        lambda r: dataclasses.replace(r, labels=np.array([1, 3, 2, 1])),
        "labels outside [1, 2]"),
    "label zero": (
        lambda r: dataclasses.replace(r, labels=np.array([0, 1, 2, 1])),
        "labels outside [1, 2]"),
}


@pytest.mark.parametrize("picked", list(ModelKind))
def test_validate_workflow_result_accepts_consistent_results(picked):
    validate_workflow_result(consistent_workflow(picked))


@pytest.mark.parametrize("case", _TAMPERED_WORKFLOWS)
def test_validate_workflow_result_names_the_broken_invariant(case):
    tamper, message = _TAMPERED_WORKFLOWS[case]
    with pytest.raises(AssertionError, match=f"^inconsistent workflow result: {re.escape(message)}"):
        validate_workflow_result(tamper(consistent_workflow(ModelKind.SBM)))


def test_validate_workflow_result_raises_under_python_dash_o():
    # -O strips assert statements; the checks must not be ones
    code = (
        "import numpy as np\n"
        "from blockselect.modelselect import ModelKind, WorkflowResult, make_test_result, "
        "validate_workflow_result\n"
        "t = make_test_result(3.5, [1.0, 2.0, 3.0, 4.0], 0.05, ModelKind.SBM, ModelKind.DCBM, 0)\n"
        "r = WorkflowResult(ModelKind.SBM, np.array([1, 2]), t, t, {}, {}, k=2)\n"
        "try:\n"
        "    validate_workflow_result(r)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
        "print('optimized:', __debug__ is False)\n"
    )
    src = str(Path(blockselect.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.splitlines() == [
        "raised: inconsistent workflow result: SBM picked with a DCBM-vs-PABM test",
        "optimized: True",
    ]


def test_workflow_report_is_json_ready():
    import json

    g, _ = gen_sbm(200, 2, [0.5, 0.5], beta_ratio_omega(2, 0.2),
                   target_avg_degree=20, seed=9)
    result = run_workflow(g, 2, n_boot=20, restarts=5, seed=0)
    report = workflow_report(result)
    text = json.dumps(report, sort_keys=True)
    back = json.loads(text)
    assert back["selected_model"] == result.selected_model.value
    assert back["test_sbm_vs_dcbm"]["n_replicates"] == 20
    assert len(back["test_sbm_vs_dcbm"]["boot_stats"]) == 20


def test_workflow_gate_consistency_fuzz():
    # synthetic test results drive the gate invariants
    rng = np.random.default_rng(11)
    for trial in range(200):
        boot = rng.exponential(1.0, 20)
        stat = float(rng.exponential(1.0))
        res = make_test_result(stat, boot, 0.05, ModelKind.SBM, ModelKind.DCBM, trial)
        count = int((boot >= stat).sum())
        assert res.p_value * 20 == count
        assert res.rejected == (res.p_value < 0.05)
