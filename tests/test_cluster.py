from __future__ import annotations

import hashlib
import itertools
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from blockselect import _pool, cluster
from blockselect._seeds import derive_seed
from blockselect.cluster import (
    ClusterSolution,
    _MAX_ROUNDS,
    _MONOTONE_RTOL,
    _kmeanspp_init,
    _repair_empty,
    minimize_q1,
    minimize_q_subspace,
    mislabel_rate,
    osc,
    q1_value,
    q_subspace_value,
    rsc_l,
    sc_l,
)
from blockselect.blockmodels import Beta, beta_ratio_omega, gen_dcbm, gen_pabm, gen_sbm
from blockselect.errors import NumericalError
from blockselect.spectral import ase

from conftest import random_graph, solution_bytes


def make_emb(rows) -> np.ndarray:
    """The (n, d) float array of points the losses take."""
    return np.asarray(rows, dtype=np.float64)


def one_block(m: int) -> cluster.Layout:
    """The layout of ``m`` restarts of one point set in one block."""
    return cluster._layout([(0, m)])


def random_orthogonal(d: int, seed: int) -> np.ndarray:
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# objective values
# ---------------------------------------------------------------------------

def test_q1_zero_at_centroids():
    emb = make_emb([[1, 0], [1, 0], [0, 1], [0, 1]])
    assert q1_value(np.array([1, 1, 2, 2]), emb) == 0.0


def test_q1_hand_value():
    emb = make_emb([[1, 0], [0, 1]])
    assert q1_value(np.array([1, 1]), emb) == pytest.approx(1.0)


def test_q1_single_cluster_equals_scaled_variance():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((8, 2))
    expected = 8 * rows.var(axis=0, ddof=0).sum()
    emb = make_emb(rows)
    assert q1_value(np.ones(8, dtype=int), emb) == pytest.approx(expected, rel=1e-12)


def test_q_subspace_zero_for_collinear_cluster():
    rows = np.outer([1.0, 2.0, -0.5, 3.0], [0.6, 0.8])
    assert q_subspace_value(np.ones(4, dtype=int), make_emb(rows), 1) <= 1e-24


def test_q_subspace_zero_when_rank_covers_dimension():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((10, 3))
    labels = rng.integers(1, 3, 10)
    assert q_subspace_value(labels, make_emb(rows), 3) <= 1e-20


def test_q_subspace_rank1_equals_trailing_gram_eigenvalues():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((6, 3))
    gram_eigs = np.linalg.eigvalsh(rows.T @ rows)  # ascending
    expected = gram_eigs[0] + gram_eigs[1]
    got = q_subspace_value(np.ones(6, dtype=int), make_emb(rows), 1)
    assert got == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# minimizers
# ---------------------------------------------------------------------------

def test_minimize_q1_separates_point_clouds():
    rows = np.concatenate([np.zeros((5, 2)), np.full((5, 2), 10.0)])
    sol = minimize_q1(make_emb(rows), 2, n_restarts=3, seed=0)
    assert sol.objective == 0.0
    assert mislabel_rate(sol.labels, np.repeat([1, 2], 5), 2) == 0.0
    assert sol.objective == q1_value(sol.labels, make_emb(rows))


def test_minimize_q1_k_bounds():
    emb = make_emb(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        minimize_q1(emb, 4, n_restarts=1)
    with pytest.raises(ValueError):
        minimize_q1(emb, 0, n_restarts=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_minimizers_reject_rows_that_are_not_finite(bad):
    rows = np.random.default_rng(5).standard_normal((10, 2))
    rows[3, 0] = bad
    with pytest.raises(ValueError, match="^rows must be finite$"):
        minimize_q1(rows, 2, n_restarts=3)
    with pytest.raises(ValueError, match="^rows must be finite$"):
        minimize_q_subspace(rows, 2, r=1, n_restarts=3)


def test_rank_below_one_is_refused():
    emb = make_emb(np.random.default_rng(5).standard_normal((10, 2)))
    for refused in (
        lambda: minimize_q_subspace(emb, 2, r=0, n_restarts=3),
        lambda: cluster.minimize_stack(emb[None], cluster._Subspace(2, 0), 3, [0]),
        lambda: q_subspace_value(np.repeat([1, 2], 5), emb, 0),
    ):
        with pytest.raises(ValueError, match="^rank r must be >= 1$"):
            refused()


def test_minimize_q1_identical_points_repairs_empty_clusters():
    emb = make_emb(np.ones((6, 2)))
    sol = minimize_q1(emb, 2, n_restarts=2, seed=0)
    assert set(np.unique(sol.labels)) == {1, 2}
    assert sol.objective == 0.0


def _brute_force_q1(rows: np.ndarray, k: int) -> float:
    n = rows.shape[0]
    best = np.inf
    emb = make_emb(rows)
    for assignment in itertools.product(range(1, k + 1), repeat=n):
        best = min(best, q1_value(np.array(assignment), emb))
    return best


def test_minimize_q1_matches_brute_force_often():
    hits, total = 0, 12
    for seed in range(total):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((7, 2))
        emb = make_emb(rows)
        sol = minimize_q1(emb, 2, n_restarts=10, seed=seed)
        oracle = _brute_force_q1(rows, 2)
        assert sol.objective >= oracle - 1e-10  # never below the global min
        if sol.objective <= oracle + 1e-9:
            hits += 1
    assert hits >= int(0.9 * total)


def test_minimize_q_subspace_orthogonal_lines():
    t = np.array([1.0, 2.0, 3.0, -1.0])
    rows = np.concatenate([np.outer(t, [1, 0]), np.outer(t, [0, 1])])
    sol = minimize_q_subspace(make_emb(rows), 2, r=1, n_restarts=5, seed=0)
    assert sol.objective <= 1e-20
    assert mislabel_rate(sol.labels, np.repeat([1, 2], 4), 2) == 0.0


def test_minimize_q_subspace_flags_rank_truncation():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((4, 3))
    sol = minimize_q_subspace(make_emb(rows), 2, r=3, n_restarts=2, seed=0)
    assert sol.degenerate  # clusters of size 2 < r = 3
    assert sol.objective <= 1e-18  # rank truncated to cluster size


def test_minimize_q_subspace_objective_consistent():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((20, 3))
    emb = make_emb(rows)
    sol = minimize_q_subspace(emb, 3, r=1, n_restarts=5, seed=1)
    recomputed = q_subspace_value(sol.labels, emb, 1)
    assert sol.objective == pytest.approx(recomputed, rel=1e-10)


# ---------------------------------------------------------------------------
# serial reference minimizers: one restart at a time, one SVD per cluster
# ---------------------------------------------------------------------------

def _serial_check_monotone(prev: float, new: float) -> None:
    if new > prev + _MONOTONE_RTOL * max(1.0, abs(prev)):
        raise NumericalError(
            f"objective increased within an iteration: {prev!r} -> {new!r}"
        )


def _serial_sq_dists(rows, centroids):
    d2 = (
        (rows**2).sum(axis=1)[:, None]
        - 2.0 * rows @ centroids.T
        + (centroids**2).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _serial_kmeanspp_init(rows, k, rng):
    """k-means++ seeding with one generator, each further centroid drawn by
    ``Generator.choice``."""
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


def _least(solutions: list[ClusterSolution]) -> ClusterSolution:
    """The solution of least exact loss, the first of equal ones."""
    return min(solutions, key=lambda sol: sol.objective)


def serial_restarts_q1(rows, k, n_restarts=10, seed=0) -> list[ClusterSolution]:
    """Every restart's solution of a serial ``minimize_q1``."""
    n = rows.shape[0]
    solutions = []
    for restart in range(n_restarts):
        rng = np.random.default_rng(derive_seed(seed, "q1-restart", restart))
        centroids = _serial_kmeanspp_init(rows, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        prev_obj = np.inf
        degenerate = False
        for rounds in range(1, _MAX_ROUNDS + 1):
            d2 = _serial_sq_dists(rows, centroids)
            new_labels = np.argmin(d2, axis=1) + 1
            repaired = _repair_empty(new_labels, d2[np.arange(n), new_labels - 1], k)
            for j in range(1, k + 1):
                centroids[j - 1] = rows[new_labels == j].mean(axis=0)
            obj = float(((rows - centroids[new_labels - 1]) ** 2).sum())
            if not repaired:
                _serial_check_monotone(prev_obj, obj)
            prev_obj = obj
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
        else:
            degenerate = True
            rounds = _MAX_ROUNDS
        solutions.append(ClusterSolution(
            labels=labels, objective=q1_value(labels, rows), n_iters=rounds,
            n_restarts_used=n_restarts, degenerate=degenerate,
        ))
    return solutions


def serial_minimize_q1(rows, k, n_restarts=10, seed=0):
    return _least(serial_restarts_q1(rows, k, n_restarts, seed))


def _serial_fit_bases(rows, labels, k, r):
    bases, objective, truncated = [], 0.0, False
    d = rows.shape[1]
    for j in range(1, k + 1):
        pts = rows[labels == j]
        if pts.shape[0] == 0:
            bases.append(np.zeros((d, 0)))
            truncated = True
            continue
        _, svals, vt = np.linalg.svd(pts, full_matrices=False)
        rank = min(r, svals.size)
        if rank < r and d > pts.shape[0]:
            truncated = True
        bases.append(vt[:rank].T)
        objective += float((svals[rank:] ** 2).sum())
    return bases, objective, truncated


def _serial_residuals(rows, bases):
    row_sq = (rows**2).sum(axis=1)
    res = np.empty((rows.shape[0], len(bases)))
    for j, basis in enumerate(bases):
        if basis.shape[1] == 0:
            res[:, j] = row_sq
        else:
            res[:, j] = row_sq - ((rows @ basis) ** 2).sum(axis=1)
    return np.maximum(res, 0.0)


def _serial_seed_labels(rows, k, r, rng):
    n, d = rows.shape
    size = max(1, min(r, n // k))
    idx = rng.permutation(n)
    bases = []
    for j in range(k):
        pts = rows[idx[j * size:(j + 1) * size]]
        q, _ = np.linalg.qr(pts.T)
        bases.append(q[:, : min(pts.shape[0], d)])
    res = _serial_residuals(rows, bases)
    labels = (np.argmin(res, axis=1) + 1).astype(np.int64)
    _repair_empty(labels, res[np.arange(n), labels - 1], k)
    return labels


def serial_restarts_q_subspace(rows, k, r, n_restarts=20, seed=0) -> list[ClusterSolution]:
    """Every restart's solution of a serial ``minimize_q_subspace``."""
    n = rows.shape[0]
    solutions = []
    for restart in range(n_restarts):
        rng = np.random.default_rng(derive_seed(seed, "qsub-restart", restart))
        labels = _serial_seed_labels(rows, k, r, rng)
        bases, prev_obj, truncated = _serial_fit_bases(rows, labels, k, r)
        rounds, converged = 0, False
        while rounds < _MAX_ROUNDS:
            rounds += 1
            res = _serial_residuals(rows, bases)
            new_labels = (np.argmin(res, axis=1) + 1).astype(np.int64)
            repaired = _repair_empty(new_labels, res[np.arange(n), new_labels - 1], k)
            bases, obj, truncated = _serial_fit_bases(rows, new_labels, k, r)
            if not repaired:
                _serial_check_monotone(prev_obj, obj)
            prev_obj = obj
            if np.array_equal(new_labels, labels):
                converged = True
                break
            labels = new_labels
        solutions.append(ClusterSolution(
            labels=labels, objective=q_subspace_value(labels, rows, r), n_iters=rounds,
            n_restarts_used=n_restarts, degenerate=truncated or not converged,
        ))
    return solutions


def serial_minimize_q_subspace(rows, k, r, n_restarts=20, seed=0):
    return _least(serial_restarts_q_subspace(rows, k, r, n_restarts, seed))


def _assert_same_solution(got: ClusterSolution, want: ClusterSolution) -> None:
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.n_iters == want.n_iters
    assert got.degenerate == want.degenerate
    assert got.objective == pytest.approx(want.objective, rel=1e-10, abs=1e-10)


# the descent objective is accurate to this share of the rows' total energy
_DESCENT_RTOL = 1e-14


def _is_same_solution(got: ClusterSolution, want: ClusterSolution) -> bool:
    try:
        _assert_same_solution(got, want)
    except AssertionError:
        return False
    return True


def _assert_one_restarts_solution(got: ClusterSolution, restarts: list[ClusterSolution],
                                  rows: np.ndarray) -> None:
    """``got`` is the solution of one of the serial ``restarts`` whose exact
    loss lies within twice the descent's rounding of the least; when no
    other labeling's loss lies that close, it has the serial pick's labels.
    Restarts that reach one labeling may stop at other rounds, and their
    descent objectives may differ in the last bits."""
    least = _least(restarts)
    tol = 2 * _DESCENT_RTOL * float((rows**2).sum())
    close = [sol for sol in restarts if sol.objective <= least.objective + tol]
    assert any(_is_same_solution(got, sol) for sol in close)
    if all(np.array_equal(sol.labels, least.labels) for sol in close):
        np.testing.assert_array_equal(got.labels, least.labels)


@st.composite
def _embeddings(draw):
    k = draw(st.sampled_from([2, 3]))
    d, r = draw(st.sampled_from([(k, 1), (k * k, k)]))
    # small n gives clusters smaller than r; larger n gives many rounds
    n = draw(st.integers(k, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.standard_normal((k, d)) * draw(st.sampled_from([0.0, 1.0, 4.0]))
    rows = centers[rng.integers(0, k, n)] + rng.standard_normal((n, d))
    return make_emb(rows), k, r


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_embeddings(), n_restarts=st.integers(1, 12), seed=st.integers(0, 1000))
def test_batched_minimizers_match_serial_reference(case, n_restarts, seed):
    # the batched pick compares descent objectives, the serial one exact
    # losses: they may differ only between losses equal within rounding
    emb, k, r = case
    _assert_one_restarts_solution(
        minimize_q_subspace(emb, k, r=r, n_restarts=n_restarts, seed=seed),
        serial_restarts_q_subspace(emb, k, r, n_restarts=n_restarts, seed=seed), emb,
    )
    _assert_one_restarts_solution(
        minimize_q1(emb, k, n_restarts=n_restarts, seed=seed),
        serial_restarts_q1(emb, k, n_restarts=n_restarts, seed=seed), emb,
    )


def test_batched_minimizers_match_serial_reference_across_blocks(monkeypatch):
    # a tiny block budget runs one restart per block, so the best restart
    # is carried across blocks
    rng = np.random.default_rng(11)
    emb = make_emb(rng.standard_normal((60, 4)))
    want_q1 = minimize_q1(emb, 2, n_restarts=7, seed=3)
    want_sub = minimize_q_subspace(emb, 2, r=2, n_restarts=7, seed=3)
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 1)
    _assert_same_solution(minimize_q1(emb, 2, n_restarts=7, seed=3), want_q1)
    _assert_same_solution(minimize_q_subspace(emb, 2, r=2, n_restarts=7, seed=3), want_sub)
    _assert_same_solution(want_sub, serial_minimize_q_subspace(emb, 2, 2, n_restarts=7, seed=3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 5), d=st.integers(1, 4), spread=st.integers(0, 3),
       m=st.integers(1, 6))
def test_batched_kmeanspp_matches_choice_per_generator(data, k, d, spread, m):
    # points from a few integers repeat, so distance rows hold zero-mass
    # entries; spread 0 makes every point the same, and every total 0
    n = data.draw(st.integers(k, 15))
    values = data.draw(st.lists(st.integers(0, spread), min_size=n * d, max_size=n * d))
    rows = np.array(values, dtype=np.float64).reshape(n, d)
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=m, max_size=m))
    rngs = [np.random.default_rng(s) for s in seeds]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kmeanspp_init(cluster._rows(rows[None]), k, rngs, one_block(m))
    for s, rng, centroids in zip(seeds, rngs, got):
        serial_rng = np.random.default_rng(s)
        assert centroids.tobytes() == _serial_kmeanspp_init(rows, k, serial_rng).tobytes()
        # each generator made exactly the serial pass's draws
        assert rng.bit_generator.state == serial_rng.bit_generator.state


@pytest.mark.parametrize("cap", [1, 2])
@pytest.mark.parametrize("minimizer", ["q1", "r1", "rK"])
def test_iteration_cap_exit_matches_serial_reference(monkeypatch, cap, minimizer):
    # the serial references read this module's _MAX_ROUNDS
    monkeypatch.setattr(cluster, "_MAX_ROUNDS", cap)
    monkeypatch.setitem(globals(), "_MAX_ROUNDS", cap)
    rng = np.random.default_rng(21)
    k = 3
    capped = 0
    for seed in range(4):
        if minimizer == "q1":
            emb = make_emb(rng.standard_normal((50, k)))
            got = minimize_q1(emb, k, n_restarts=6, seed=seed)
            want = serial_minimize_q1(emb, k, n_restarts=6, seed=seed)
        else:
            r, d = (1, k) if minimizer == "r1" else (k, k * k)
            emb = make_emb(rng.standard_normal((50, d)))
            got = minimize_q_subspace(emb, k, r=r, n_restarts=6, seed=seed)
            want = serial_minimize_q_subspace(emb, k, r, n_restarts=6, seed=seed)
        _assert_same_solution(got, want)
        assert got.n_iters <= cap
        capped += got.degenerate
    assert capped > 0


@pytest.mark.parametrize("refit", ["_centroid_refit", "_subspace_refit"])
def test_monotone_guard_fires_on_objective_increase(monkeypatch, refit):
    original = getattr(cluster, refit)
    calls = []

    def inflating_refit(*args):
        model, obj, truncated = original(*args)
        calls.append(None)
        return model, obj + 1e6 * len(calls), truncated

    monkeypatch.setattr(cluster, refit, inflating_refit)
    rng = np.random.default_rng(12)
    emb = make_emb(rng.standard_normal((30, 2)))
    with pytest.raises(NumericalError, match="objective increased within an iteration"):
        if refit == "_centroid_refit":
            minimize_q1(emb, 2, n_restarts=3, seed=0)
        else:
            minimize_q_subspace(emb, 2, r=1, n_restarts=3, seed=0)


def reference_assign(cost: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``_assign`` written with ``np.argmin`` and a scatter of the labels
    present."""
    labels = np.argmin(cost, axis=2) + 1
    m, n = labels.shape
    present = np.zeros((m, k + 1), dtype=bool)
    present[np.arange(m)[:, None], labels] = True
    repaired = np.zeros(m, dtype=bool)
    for i in np.flatnonzero(~present[:, 1:].all(axis=1)):
        repaired[i] = _repair_empty(labels[i], cost[i, np.arange(n), labels[i] - 1], k)
    return labels, repaired


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), m=st.integers(1, 4), k=st.integers(1, 5), spread=st.integers(0, 4),
       by_community=st.booleans())
def test_assign_matches_argmin_reference(data, m, k, spread, by_community):
    # costs from a few integers force ties and empty communities; the cost
    # functions give an (m, n, k) view of an (m, k, n) array, and any other
    # layout, such as a transposed (n, m, k) one, gives the same labels
    n = data.draw(st.integers(k, 12))
    values = data.draw(st.lists(st.integers(0, spread), min_size=n * m * k,
                                max_size=n * m * k))
    values = np.array(values, dtype=np.float64)
    if by_community:
        cost = values.reshape(m, k, n).transpose(0, 2, 1)
    else:
        cost = values.reshape(n, m, k).transpose(1, 0, 2)
    labels, repaired = cluster._assign(cost, k)
    want_labels, want_repaired = reference_assign(cost, k)
    np.testing.assert_array_equal(labels, want_labels)
    np.testing.assert_array_equal(repaired, want_repaired)


def reference_subspace_cost(row_sq: np.ndarray, outer: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """The projector form of ``_subspace_cost``: (m, n, k) residuals
    ||x||^2 - <x x^T, P> from the (m, k, d, d) projectors P and the (n, d, d)
    row outer products."""
    m, k, d, _ = proj.shape
    n = outer.shape[0]
    sq_proj = (outer.reshape(n, d * d) @ proj.reshape(m * k, d * d).T).reshape(n, m, k)
    return np.maximum(row_sq[:, None, None] - sq_proj, 0.0).transpose(1, 0, 2)


# a cost within this share of a row's energy of the reference cost is the
# same cost up to rounding
_COST_RTOL = 1e-12


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_embeddings(), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       zero_row=st.booleans())
def test_subspace_and_centroid_costs_match_reference(case, m, seed, zero_row):
    emb, k, r = case
    rows = emb.copy()
    if zero_row:
        rows[0] = 0.0
    n, d = rows.shape
    rng = np.random.default_rng(seed)
    row_sq = (rows**2).sum(axis=1)
    outer = rows[:, :, None] * rows[:, None, :]
    derived = cluster._rows(rows[None], outer=True)
    tol = _COST_RTOL * row_sq[None, :, None]
    labels = rng.integers(1, k + 1, (m, n))
    # refit bases (zero rows past each community's rank) and the seeding's
    # QR factors of random point subsets
    basis, _, _ = cluster._subspace_refit(derived, labels, k, r, one_block(m))
    counts = (labels[:, None, :] == np.arange(1, k + 1)[:, None]).sum(axis=2)
    rank = np.minimum(counts, min(r, d))
    assert basis.shape == (m, k, min(r, d), d)
    assert not basis[np.arange(min(r, d)) >= rank[:, :, None]].any()
    size = max(1, min(r, n // k))
    pts = rows[np.stack([rng.permutation(n)[: k * size] for _ in range(m)])]
    q, _ = np.linalg.qr(pts.reshape(m, k, size, d).transpose(0, 1, 3, 2))
    for rows_of_basis in (basis, q.transpose(0, 1, 3, 2)):
        proj = rows_of_basis.transpose(0, 1, 3, 2) @ rows_of_basis
        want = reference_subspace_cost(row_sq, outer, proj)
        got = cluster._subspace_cost(derived, rows_of_basis, one_block(m))
        assert got.shape == want.shape == (m, n, k)
        assert np.all(np.abs(got - want) <= tol)
        got_labels, got_repaired = cluster._assign(got, k)
        want_labels, want_repaired = cluster._assign(want, k)
        # labels agree wherever no two reference costs of a point lie
        # within the tolerance of each other
        ordered = np.sort(want, axis=2)
        clear = (np.diff(ordered, axis=2) > 2 * tol).all(axis=2)
        plain = ~got_repaired & ~want_repaired
        assert np.array_equal(got_labels[plain][clear[plain]], want_labels[plain][clear[plain]])
    centroids = rows[rng.integers(0, n, (m, k))]
    got = cluster._centroid_cost(derived, centroids, one_block(m))
    want = np.stack([_serial_sq_dists(rows, c) for c in centroids])
    scale = row_sq[None, :, None] + (centroids**2).sum(axis=2)[:, None, :]
    assert np.all(np.abs(got - want) <= _COST_RTOL * scale)


def _digest_embeddings() -> tuple[np.ndarray, np.ndarray]:
    """Two fixed embeddings with a zero row: noisy lines through the origin
    (d=3), and two noisy 3-planes in d=9 with a two-point third cluster,
    smaller than the rank-3 fit."""
    rng = np.random.default_rng(31)
    dirs = rng.standard_normal((3, 3))
    lines = rng.uniform(0.2, 1.0, (90, 1)) * dirs[np.arange(90) % 3]
    lines += 0.05 * rng.standard_normal(lines.shape)
    lines[0] = 0.0
    frames = np.linalg.qr(rng.standard_normal((3, 9, 3)))[0]
    planes = np.concatenate([rng.standard_normal((size, 3)) @ frame.T
                             for size, frame in zip((30, 30, 2), frames)])
    planes += 0.05 * rng.standard_normal(planes.shape)
    planes[-1] = 0.0
    return make_emb(lines), make_emb(planes)


# sha256 of ``repr(solution_bytes(...))`` for the runs below. In ("r1",
# "lines", 0) the zero row fits every community, so the community it lands
# in, and the last bits of the exact loss, follow the descent's rounding
_SOLUTION_DIGESTS = {
    ("q1", "lines", 0): "f23e0fc07a338b313c9f42f77571865083e2f9c05a289fdaad667674efda94c7",
    ("q1", "lines", 1): "bc73826abb2754df72679d60985cd52196c4d643ec622caad85d9ca9511673c9",
    ("q1", "planes", 0): "4ba528b0f30c89cba3a7fb753ad0e3e332e191d953a698dd03b9b69f0315dd9c",
    ("q1", "planes", 1): "3c6aab3f7f68729c63aa3e45c0c10970b056f5f01679de34d42991f25c258f96",
    ("r1", "lines", 0): "104bbb080aaefba234644c9653b4249540c231c4a1f70365faf4c5d5c295af25",
    ("r1", "lines", 1): "4ebf56eed26d6b72e7e7ce26b59e85d9e9d317a7c8b58ee848fb787e34bf837b",
    ("rK", "planes", 0): "1c29f70665438d55c94ef6e1d5d11c32e54fa57036dc21372286837891d5f3f2",
    ("rK", "planes", 1): "27054549af1bc8fd413bab334ed8b0fbfbedd93f2de0b002ef4e155e08e2dc11",
}


@pytest.mark.parametrize("loss, name, seed", sorted(_SOLUTION_DIGESTS))
def test_minimizers_keep_the_recorded_solution_bytes(loss, name, seed):
    emb = dict(zip(("lines", "planes"), _digest_embeddings()))[name]
    if loss == "q1":
        sol = minimize_q1(emb, 3, n_restarts=10, seed=seed)
    else:
        sol = minimize_q_subspace(emb, 3, r=1 if loss == "r1" else 3, n_restarts=20, seed=seed)
    digest = hashlib.sha256(repr(solution_bytes(sol)).encode()).hexdigest()
    assert digest == _SOLUTION_DIGESTS[loss, name, seed]


# sha256 of ``repr(solution_bytes(...))`` of each baseline at k = 2, seed 0
_BASELINE_DIGESTS = {
    "osc": "71e3ad6a5c7e2a0d1c2583aaa5f1178b6d48b4bc4a697ac645f96ceb46a45e1f",
    "sc_l": "02fd3ca09d82c071593e4b4bb3acc20bab3606d17290f0022586cefafe14c327",
    "rsc_l": "63cdd2d7d4df72eb0f5559020620d339fe3c01444b4136c2005c1b2cd08fad9b",
}


@pytest.mark.parametrize("name", sorted(_BASELINE_DIGESTS))
def test_baselines_keep_the_recorded_solution_bytes(name):
    if name == "osc":
        g = gen_pabm(120, 2, seed=0)[0]
    else:
        g = gen_dcbm(120, 2, [0.5, 0.5], beta_ratio_omega(2, 0.3), Beta(1, 5),
                     target_avg_degree=10, seed=0)[0]
    sol = {"osc": osc, "sc_l": sc_l, "rsc_l": rsc_l}[name](g, 2, seed=0)
    digest = hashlib.sha256(repr(solution_bytes(sol)).encode()).hexdigest()
    assert digest == _BASELINE_DIGESTS[name]


# ---------------------------------------------------------------------------
# restart blocks on the worker pool
# ---------------------------------------------------------------------------

def test_restart_blocks_are_identical_at_every_worker_count(monkeypatch, set_workers, block_pids):
    # a tiny block budget runs one restart per block: nine blocks per call
    rng = np.random.default_rng(21)
    emb = make_emb(rng.standard_normal((80, 4)))
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 1)
    runs = {}
    for workers in (1, 2, 3):
        set_workers(workers)
        runs[workers] = [solution_bytes(sol) for sol in (
            minimize_q1(emb, 3, n_restarts=9, seed=2),
            minimize_q_subspace(emb, 3, r=1, n_restarts=9, seed=2),
            minimize_q_subspace(emb, 3, r=3, n_restarts=9, seed=2),
        )]
    assert runs[1] == runs[2] == runs[3]
    pids = block_pids()
    assert len(pids) == 3 * 3 * 9
    # one worker runs every block here; more run them all in child processes
    assert set(pids[:27]) == {os.getpid()} and os.getpid() not in pids[27:]


@pytest.mark.parametrize("one_per_block, workers", [(False, 1), (True, 1), (True, 2)])
def test_restart_ties_go_to_the_lowest_restart(monkeypatch, set_workers, one_per_block, workers):
    # every restart reaches objective 0.0 exactly, each with its own label
    # permutation: with all restarts in one block the pick within the block
    # decides, with one restart per block the merge of the blocks does
    points = make_emb(np.repeat([[10, 0], [0, 10], [-10, -10]], 5, axis=0))
    lines = make_emb(np.repeat(np.eye(3), 6, axis=0) * np.tile(np.arange(1., 7.), 3)[:, None])
    if one_per_block:
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", 1)
    set_workers(workers)
    for seed in range(5):
        for solve in (
            lambda n: minimize_q1(points, 3, n_restarts=n, seed=seed),
            lambda n: minimize_q_subspace(lines, 3, r=1, n_restarts=n, seed=seed),
        ):
            many, first = solve(12), solve(1)
            assert many.objective == first.objective == 0.0
            np.testing.assert_array_equal(many.labels, first.labels)


def _three_clouds() -> np.ndarray:
    """60 points of three noisy clouds in d = 3."""
    rng = np.random.default_rng(23)
    centers = 4.0 * rng.standard_normal((3, 3))
    return make_emb(centers[np.arange(60) % 3] + rng.standard_normal((60, 3)))


@pytest.mark.parametrize("budget, calls", [(1, 12), (None, 1)])
@pytest.mark.parametrize("loss", ["q1", "r1"])
def test_each_restart_block_scores_one_restart(monkeypatch, set_workers, budget, calls, loss):
    # one restart per block scores every restart; one block of all twelve
    # scores only its pick
    emb = _three_clouds()
    set_workers(1)
    if budget is not None:
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", budget)
    scored = []

    def counting(value):
        def count(labels, *args):
            scored.append(labels.copy())
            return value(labels, *args)
        return count

    monkeypatch.setattr(cluster, "q1_value", counting(q1_value))
    monkeypatch.setattr(cluster, "q_subspace_value", counting(q_subspace_value))
    if loss == "q1":
        sol = minimize_q1(emb, 3, n_restarts=12, seed=5)
    else:
        sol = minimize_q_subspace(emb, 3, r=1, n_restarts=12, seed=5)
    assert len(scored) == calls
    assert any(np.array_equal(labels, sol.labels) for labels in scored)


@pytest.mark.parametrize("planted, want", [
    ([5.0, 1.0, 3.0, 1.0, 2.0, 4.0], 1),  # the first of tied least restarts
    ([5.0, 3.0, 2.0, 4.0, 0.5, 1.0], 4),  # a lower later restart
    (None, None),  # the restart of greatest exact loss, planted least
])
@pytest.mark.parametrize("loss", ["q1", "r1"])
def test_a_block_keeps_its_restart_of_least_descent_objective(
    monkeypatch, set_workers, planted, want, loss,
):
    # all six restarts share one block; the descent's objectives are
    # replaced by planted ones, and only the pick is scored exactly
    emb = _three_clouds()
    set_workers(1)
    loss = cluster._Centroid(3) if loss == "q1" else cluster._Subspace(3, 1)

    def solve():
        (solution,) = cluster.minimize_stack(emb[None], loss, 6, [7])
        return solution

    original = cluster._descend
    runs = []

    def recording(*args):
        runs.append(original(*args))
        return runs[-1]

    monkeypatch.setattr(cluster, "_descend", recording)
    solve()
    (run,) = runs
    exact = np.array([loss.value(labels, emb) for labels in run.labels])
    if planted is None:
        # restarts of lower exact loss but higher descent objective lose,
        # however little higher
        want = int(np.argmax(exact))
        assert exact.min() < exact[want]
        planted = np.where(np.arange(6) == want, 0.0, 1e-12)

    def planting(*args):
        return original(*args)._replace(objective=np.array(planted))

    monkeypatch.setattr(cluster, "_descend", planting)
    sol = solve()
    np.testing.assert_array_equal(sol.labels, run.labels[want])
    assert sol.n_iters == run.rounds[want]
    assert sol.objective == exact[want]


# ---------------------------------------------------------------------------
# point sets packed into shared descents
# ---------------------------------------------------------------------------

def _blocks(sets, size: int, n_restarts: int) -> list[tuple[int, range]]:
    """Each set's restarts in blocks of ``size``, in order."""
    return [(i, range(lo, min(lo + size, n_restarts)))
            for i in sets for lo in range(0, n_restarts, size)]


@pytest.mark.parametrize("n_sets, n_restarts, n, k, d, want", [
    # karate: a descent holds 38 SBM replicates of 10 restarts ...
    (40, 10, 34, 2, 2, [_blocks(range(38), 10, 10), _blocks(range(38, 40), 10, 10)]),
    # ... or 19 DCBM replicates of 20
    (20, 20, 34, 2, 2, [_blocks(range(19), 20, 20), _blocks([19], 20, 20)]),
    # n = 600, K = 3: a DCBM set takes 2 blocks of 10, each its own descent
    (2, 20, 600, 3, 3, [[block] for block in _blocks(range(2), 10, 20)]),
    # n = 6000, K = 3: one restart per block
    (1, 10, 6000, 3, 3, [[block] for block in _blocks([0], 1, 10)]),
    # PABM detection at n = 900, K = 3: 15 blocks of at most 7 restarts
    (1, 100, 900, 3, 9, [[block] for block in _blocks([0], 7, 100)]),
])
def test_packs_match_the_documented_figures(n_sets, n_restarts, n, k, d, want):
    assert cluster._packs(range(n_sets), n_restarts, n, k, d) == want


@st.composite
def _point_sets(draw):
    k = draw(st.sampled_from([2, 3]))
    d, r = draw(st.sampled_from([(k, 1), (k * k, k)]))
    n_sets = draw(st.integers(2, 4))
    n = draw(st.integers(max(k * k, 12), 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.standard_normal((n_sets, k, d)) * draw(st.sampled_from([0.0, 1.0, 4.0]))
    members = rng.integers(0, k, (n_sets, n))
    points = centers[np.arange(n_sets)[:, None], members] + rng.standard_normal((n_sets, n, d))
    return points, k, r


def _negating(refit, planted: np.ndarray):
    """``refit`` with the objective of each restart on the point set
    ``planted`` negated: it then rises as the descent lowers the loss, and
    the monotone check fails that restart."""
    def negated(rows, labels, *args):
        model, obj, truncated = refit(rows, labels, *args)
        hit = np.array([np.array_equal(points, planted) for points in rows.points])
        return model, np.where(hit[cluster._owner(args[-1])], -obj, obj), truncated
    return negated


def _outcome(solution) -> tuple:
    if isinstance(solution, Exception):
        return type(solution), str(solution)
    return solution_bytes(solution)


def _alone(solve) -> tuple:
    try:
        return _outcome(solve())
    except (NumericalError, ValueError) as exc:
        return _outcome(exc)


# the block budget in restarts of one set: one restart per block, then
# one, two or every set per descent
_SETS_PER_DESCENT = [0, 1, 2, None]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_point_sets(), n_restarts=st.integers(1, 8),
       seeds=st.lists(st.integers(0, 2**31), min_size=4, max_size=4), victim=st.integers(0, 3),
       per_descent=st.sampled_from(_SETS_PER_DESCENT),
       fault=st.sampled_from([None, "monotone", "not finite", "inf beside 0"]))
# a refused set between the sets of one descent
@example(case=(np.random.default_rng(0).standard_normal((3, 40, 2)), 2, 1), n_restarts=3,
         seeds=[1, 2, 3, 4], victim=1, per_descent=None, fault="inf beside 0")
def test_packed_point_sets_match_each_set_alone(case, n_restarts, seeds, victim, per_descent,
                                                fault):
    points, k, r = case
    n_sets, n, d = points.shape
    seeds, victim = seeds[:n_sets], victim % n_sets
    set_bytes = n_restarts * 8 * n * (3 * k + d + 2)
    budget = 1 if per_descent == 0 else set_bytes * (per_descent or n_sets)
    if fault == "not finite":
        points[victim, 0, 0] = np.nan
    elif fault == "inf beside 0":
        # inf * 0 warns where an outer product of that row is taken
        points[victim, 0, :2] = [np.inf, 0.0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "_BLOCK_BYTES", budget)
        want_packs = {0: n_sets * n_restarts, 1: n_sets, 2: -(-n_sets // 2), None: 1}
        assert len(cluster._packs(range(n_sets), n_restarts, n, k, d)) == want_packs[per_descent]
        if fault == "monotone":
            planted = points[victim]
            mp.setattr(cluster, "_centroid_refit", _negating(cluster._centroid_refit, planted))
            mp.setattr(cluster, "_subspace_refit", _negating(cluster._subspace_refit, planted))
        # the pool's workers fork with this example's patches in place
        _pool.shutdown()
        for stack, alone in (
            (lambda: cluster.minimize_stack(points, cluster._Centroid(k), n_restarts, seeds),
             lambda i: minimize_q1(points[i], k, n_restarts, seed=seeds[i])),
            (lambda: cluster.minimize_stack(points, cluster._Subspace(k, r), n_restarts, seeds),
             lambda i: minimize_q_subspace(points[i], k, r, n_restarts, seed=seeds[i])),
        ):
            want = [_alone(lambda: alone(i)) for i in range(n_sets)]
            assert [_outcome(sol) for sol in stack()] == want
            failed = [i for i, outcome in enumerate(want) if isinstance(outcome[0], type)]
            if fault in ("not finite", "inf beside 0"):
                assert failed == [victim] and want[victim][1] == "rows must be finite"
            else:
                # a plant fires only where a restart's labels change after
                # its first refit
                assert failed in ([], [victim]) if fault else failed == []
                assert all(want[i][0] is NumericalError for i in failed)


def test_packed_monotone_error_fails_its_set_alone(monkeypatch):
    # three noise sets of one block each share one descent; the middle
    # one's objective is negated, so its first decrease is an increase
    rng = np.random.default_rng(31)
    points = rng.standard_normal((3, 40, 2))
    seeds = [5, 6, 7]
    planted = points[1]
    monkeypatch.setattr(cluster, "_centroid_refit", _negating(cluster._centroid_refit, planted))
    monkeypatch.setattr(cluster, "_subspace_refit", _negating(cluster._subspace_refit, planted))
    assert len(cluster._packs(range(3), 6, 40, 2, 2)) == 1
    for stack, alone in (
        (lambda: cluster.minimize_stack(points, cluster._Centroid(2), 6, seeds),
         lambda i: minimize_q1(points[i], 2, 6, seed=seeds[i])),
        (lambda: cluster.minimize_stack(points, cluster._Subspace(2, 1), 6, seeds),
         lambda i: minimize_q_subspace(points[i], 2, 1, 6, seed=seeds[i])),
    ):
        got = [_outcome(sol) for sol in stack()]
        assert got == [_alone(lambda: alone(i)) for i in range(3)]
        assert [type(outcome[0]) for outcome in got] == [tuple, type, tuple]
        assert got[1][0] is NumericalError
        assert got[1][1].startswith("objective increased within an iteration: ")


def test_a_packed_descent_keeps_each_restart_on_its_own_set(monkeypatch, set_workers):
    # the restarts of three sets share one descent and stop at different
    # rounds; as the layout shrinks each must keep reading its own set's
    # rows, or the descent fails and every block is descended again alone
    set_workers(1)
    points = np.random.default_rng(0).standard_normal((3, 34, 2))
    seeds = [3, 4, 5]
    original = cluster._descend
    runs = []

    def recording(*args):
        runs.append(original(*args))
        return runs[-1]

    monkeypatch.setattr(cluster, "_descend", recording)
    for stack, alone in (
        (lambda: cluster.minimize_stack(points, cluster._Centroid(2), 5, seeds),
         lambda i: minimize_q1(points[i], 2, 5, seed=seeds[i])),
        (lambda: cluster.minimize_stack(points, cluster._Subspace(2, 1), 5, seeds),
         lambda i: minimize_q_subspace(points[i], 2, 1, 5, seed=seeds[i])),
    ):
        runs.clear()
        got = [solution_bytes(sol) for sol in stack()]
        assert len(runs) == 1 and len(set(runs[0].rounds.tolist())) > 1
        assert got == [solution_bytes(alone(i)) for i in range(3)]


def test_a_packed_descent_that_fails_only_when_packed_raises(monkeypatch):
    # a descent that fails whenever it holds more than one block: every
    # block succeeds alone, so only the packing can be at fault
    original = cluster._descend

    def fails_packed(loss, rows, rngs, layout):
        if len(layout) > 1:
            raise RuntimeError("planted packing fault")
        return original(loss, rows, rngs, layout)

    monkeypatch.setattr(cluster, "_descend", fails_packed)
    points = np.random.default_rng(0).standard_normal((3, 34, 2))
    assert len(cluster._packs(range(3), 10, 34, 2, 2)) == 1
    for stack in (lambda: cluster.minimize_stack(points, cluster._Centroid(2), 10, [3, 4, 5]),
                  lambda: cluster.minimize_stack(points, cluster._Subspace(2, 1), 10, [3, 4, 5])):
        with pytest.raises(NumericalError, match="^a packed descent failed, but no block "
                                                 "of it fails alone$") as info:
            stack()
        assert str(info.value.__cause__) == "planted packing fault"


def test_stack_derives_arrays_for_one_descent_at_a_time(set_workers):
    # sets too large to share a descent: the rows' outer products and
    # transposes exist for the sets of one descent at a time, so the
    # stack's traced peak stays near that of one set alone
    set_workers(1)
    points = np.random.default_rng(41).standard_normal((8, 3000, 3))
    tracemalloc.start()
    try:
        minimize_q_subspace(points[0], 3, r=1, n_restarts=2, seed=0)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cluster.minimize_stack(points, cluster._Subspace(3, 1), 2, list(range(8)))
        many = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cluster._packs(range(8), 2, 3000, 3, 3)) == 8
    assert many < 2 * one


def _first_round_labels(rows: np.ndarray, k: int, r: int, seed: int, restart: int):
    """The start labels and objective of one restart of
    ``minimize_q_subspace``, and its labels after the first assignment."""
    derived = cluster._rows(rows[None], outer=True)
    rng = np.random.default_rng(derive_seed(seed, "qsub-restart", restart))
    start = cluster._seed_labels(derived, k, r, [rng], one_block(1))
    model, obj, _ = cluster._subspace_refit(derived, start, k, r, one_block(1))
    first, _ = cluster._assign(cluster._subspace_cost(derived, model, one_block(1)), k)
    return start[0], float(obj[0]), first[0]


def test_monotone_guard_error_comes_from_the_lowest_failing_block(monkeypatch, set_workers):
    # restarts 3 and 5 of seven, one per block, see their first-round
    # objective inflated; the serial run stops at restart 3
    rng = np.random.default_rng(22)
    emb = make_emb(rng.standard_normal((60, 3)))
    k, r, seed = 2, 1, 4
    traps = {}
    for restart in (3, 5):
        start, obj, first = _first_round_labels(emb, k, r, seed, restart)
        assert not np.array_equal(start, first)
        traps[restart] = (first, obj)
    trap_labels = np.stack([first for first, _ in traps.values()])
    original = cluster._subspace_refit

    def trapped_refit(rows, labels, k, r, layout):
        model, obj, truncated = original(rows, labels, k, r, layout)
        hit = (labels[:, None, :] == trap_labels[None]).all(axis=2).any(axis=1)
        return model, obj + 1e6 * hit, truncated

    monkeypatch.setattr(cluster, "_subspace_refit", trapped_refit)
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 1)
    first, prev = traps[3]
    derived = cluster._rows(emb[None], outer=True)
    inflated = float(original(derived, first[None], k, r, one_block(1))[1][0]) + 1e6
    want = f"objective increased within an iteration: {prev!r} -> {inflated!r}"
    for workers in (1, 2, 3):
        set_workers(workers)
        with pytest.raises(NumericalError, match=f"^{re.escape(want)}$"):
            minimize_q_subspace(emb, k, r=r, n_restarts=7, seed=seed)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_restart_block_error_from_a_worker_has_its_traceback_as_cause(
    monkeypatch, set_workers, workers,
):
    # one restart per block, so three blocks descend on the pool; every
    # refit raises the objective, so every block fails its monotone check
    original = cluster._subspace_refit
    calls = []

    def inflating_refit(*args):
        model, obj, truncated = original(*args)
        calls.append(None)
        return model, obj + 1e6 * len(calls), truncated

    monkeypatch.setattr(cluster, "_subspace_refit", inflating_refit)
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 1)
    set_workers(workers)
    emb = make_emb(np.random.default_rng(12).standard_normal((30, 2)))
    with pytest.raises(NumericalError, match="objective increased within an iteration") as info:
        minimize_q_subspace(emb, 2, r=1, n_restarts=3, seed=0)
    if workers == 1:
        assert info.value.__cause__ is None
    else:
        assert isinstance(info.value.__cause__, _pool.WorkerTraceback)
        assert "in _descend" in str(info.value.__cause__)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_rank_dominance_and_norm_bound():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(6, 25))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        rows = rng.standard_normal((n, d))
        labels = np.concatenate([np.arange(1, k + 1),
                                 rng.integers(1, k + 1, n - k)])
        emb = make_emb(rows)
        q_rk = q_subspace_value(labels, emb, k)
        q_r1 = q_subspace_value(labels, emb, 1)
        assert q_rk <= q_r1
        assert q_r1 <= (rows**2).sum()


def test_rotation_invariance_of_objectives():
    rng = np.random.default_rng(6)
    for trial in range(15):
        n, d, k = 18, 3, 2
        rows = rng.standard_normal((n, d))
        labels = np.concatenate([[1, 2], rng.integers(1, k + 1, n - 2)])
        w = random_orthogonal(d, trial)
        emb, emb_rot = make_emb(rows), make_emb(rows @ w)
        assert q1_value(labels, emb) == pytest.approx(
            q1_value(labels, emb_rot), abs=1e-8
        )
        for r in (1, 2):
            assert q_subspace_value(labels, emb, r) == pytest.approx(
                q_subspace_value(labels, emb_rot, r), abs=1e-8
            )


def test_scale_equivariance_of_objectives():
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((15, 3))
    labels = np.concatenate([[1, 2], rng.integers(1, 3, 13)])
    emb = make_emb(rows)
    for c in (0.5, 3.0):
        scaled = make_emb(c * rows)
        assert q1_value(labels, scaled) == pytest.approx(
            c**2 * q1_value(labels, emb), rel=1e-10
        )
        assert q_subspace_value(labels, scaled, 1) == pytest.approx(
            c**2 * q_subspace_value(labels, emb, 1), rel=1e-9
        )


def test_minimizers_run_clean_on_fuzzed_instances():
    # the monotone-objective guard raises NumericalError on a violation;
    # test_monotone_guard_fires_on_objective_increase shows that it fires
    rng = np.random.default_rng(8)
    for trial in range(60):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, min(n, 5)))
        rows = rng.standard_normal((n, d))
        emb = make_emb(rows)
        minimize_q1(emb, k, n_restarts=3, seed=trial)
        minimize_q_subspace(emb, k, r=1, n_restarts=3, seed=trial)


# ---------------------------------------------------------------------------
# label alignment
# ---------------------------------------------------------------------------

def test_mislabel_permutation_invariance():
    assert mislabel_rate(np.array([2, 2, 1, 1]), np.array([1, 1, 2, 2]), 2) == 0.0


def test_mislabel_identical():
    labels = np.array([1, 2, 3, 1])
    assert mislabel_rate(labels, labels, 3) == 0.0


def test_mislabel_hand_value():
    assert mislabel_rate(
        np.array([1, 1, 1, 2]), np.array([1, 1, 2, 2]), 2
    ) == pytest.approx(0.25)


def test_mislabel_validates_range():
    with pytest.raises(ValueError):
        mislabel_rate(np.array([1, 3]), np.array([1, 2]), 2)


def test_mislabel_refuses_empty_vectors():
    empty = np.array([], dtype=int)
    with pytest.raises(ValueError, match="^label vectors are empty$"):
        mislabel_rate(empty, empty, 2)


def test_mislabel_rejects_fractional_labels():
    with pytest.raises(ValueError, match="^est labels must be integers$"):
        mislabel_rate(np.array([1.5, 2.0]), np.array([1, 2]), 2)
    with pytest.raises(ValueError, match="^true labels must be integers$"):
        mislabel_rate(np.array([1, 2]), np.array([1.0, np.nan]), 2)
    # whole-valued floats are labels
    assert mislabel_rate(np.array([2.0, 1.0]), np.array([1, 2]), 2) == 0.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 6))
def test_mislabel_symmetry_and_bijection_invariance(data, k):
    n = data.draw(st.integers(1, 40))
    labels = st.lists(st.integers(1, k), min_size=n, max_size=n)
    a, b = np.array(data.draw(labels)), np.array(data.draw(labels))
    perm = np.array(data.draw(st.permutations(range(1, k + 1))))
    rate = mislabel_rate(a, b, k)
    assert rate == mislabel_rate(b, a, k)
    assert rate == mislabel_rate(perm[a - 1], b, k)


def _confusion(est: np.ndarray, true: np.ndarray, k: int) -> np.ndarray:
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (est - 1, true - 1), 1)
    return confusion


@st.composite
def _label_pairs(draw, max_k: int, max_n: int):
    """(est, true, k), each vector drawn from its own subset of 1..k, so
    the confusion matrix can have zero rows and columns."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(1, max_n))
    vectors = []
    for _ in range(2):
        used = draw(st.lists(st.integers(1, k), min_size=1, max_size=k, unique=True))
        vectors.append(np.array(draw(st.lists(st.sampled_from(used), min_size=n, max_size=n))))
    return vectors[0], vectors[1], k


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_label_pairs(max_k=6, max_n=40))
def test_mislabel_matches_enumeration_of_bijections(case):
    est, true, k = case
    confusion = _confusion(est, true, k)
    best = max(
        sum(int(confusion[sigma[b], b]) for b in range(k))
        for sigma in itertools.permutations(range(k))
    )
    assert mislabel_rate(est, true, k) == 1.0 - best / est.size


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_label_pairs(max_k=30, max_n=300))
def test_mislabel_matches_scipy_optimize_assignment(case):
    # the package itself never loads scipy.optimize
    from scipy.optimize import linear_sum_assignment

    est, true, k = case
    confusion = _confusion(est, true, k)
    rows_idx, cols_idx = linear_sum_assignment(confusion, maximize=True)
    best = int(confusion[rows_idx, cols_idx].sum())
    assert mislabel_rate(est, true, k) == 1.0 - best / est.size


def test_mislabel_hungarian_matches_enumeration():
    # the assignment on the confusion matrix against explicit enumeration
    rng = np.random.default_rng(10)
    k, n = 9, 40
    est = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
    true = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
    got = mislabel_rate(est, true, k)
    confusion = np.zeros((k, k), dtype=int)
    np.add.at(confusion, (est - 1, true - 1), 1)
    best = max(
        sum(confusion[sigma[b], b] for b in range(k))
        for sigma in itertools.permutations(range(k))
    )
    assert got == pytest.approx(1 - best / n)


# ---------------------------------------------------------------------------
# baselines (desk-scale smoke)
# ---------------------------------------------------------------------------

def test_sc_l_recovers_well_separated_sbm():
    g, params = gen_sbm(
        300, 2, [0.5, 0.5], np.array([[1.0, 0.05], [0.05, 1.0]]),
        target_avg_degree=25, seed=0,
    )
    sol = sc_l(g, 2, seed=0)
    assert mislabel_rate(sol.labels, params.labels, 2) <= 0.02


def test_rsc_l_rows_come_from_normalized_embedding():
    # recovery at fixed seeds on a sparse DCBM; without the degree
    # regularization tau, rsc_l mislabelled 0.47-0.49 of the nodes at seeds
    # 0, 2 and 3
    for seed in range(4):
        g, params = gen_dcbm(
            600, 2, [0.5, 0.5], beta_ratio_omega(2, 0.2), Beta(1, 5),
            target_avg_degree=10, seed=seed,
        )
        sol = rsc_l(g, 2, seed=0)
        assert mislabel_rate(sol.labels, params.labels, 2) <= 0.10, seed


def test_osc_runs_on_pabm():
    # recovery at fixed seeds; the Gram-matrix form this replaced
    # mislabelled 0.13-0.46 of the nodes at n = 600 and up to 0.45 at n = 900
    for n, k, bound in ((600, 2, 0.01), (900, 3, 0.02)):
        for seed in range(4):
            g, params = gen_pabm(n, k, seed=seed)
            sol = osc(g, k, seed=0)
            assert mislabel_rate(sol.labels, params.labels, k) <= bound, (n, seed)


def test_q1_on_ase_recovers_planted_sbm():
    g, params = gen_sbm(
        400, 2, [0.5, 0.5], np.array([[1.0, 0.1], [0.1, 1.0]]),
        target_avg_degree=25, seed=5,
    )
    sol = minimize_q1(ase(g, 2).rows, 2, n_restarts=10, seed=0)
    assert mislabel_rate(sol.labels, params.labels, 2) <= 0.02


def test_sc_l_at_reference_sbm_config():
    g, params = gen_sbm(
        1000, 3, [0.25, 0.25, 0.5],
        np.array([[4.0, 2.0, 1.0], [2.0, 4.0, 1.0], [1.0, 1.0, 4.0]]),
        target_density=0.05, seed=77,
    )
    sol = sc_l(g, 3, seed=0)
    assert mislabel_rate(sol.labels, params.labels, 3) <= 0.05
