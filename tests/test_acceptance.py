"""Acceptance suite: quantitative desk-scale reproductions and property
checks, one test per criterion, each printing a PASS/FAIL line.

The statistical criteria (1-8) run the full pipelines at reduced but fixed
replication (seeds frozen below) and take several minutes combined; run
``pytest tests/test_acceptance.py -s`` to watch the per-criterion lines.
"""

from __future__ import annotations

import time

import numpy as np

import blockselect as bs
import blockselect.modelselect as ms
from blockselect.cli import main as cli_main
from blockselect.cluster import q1_value, q_subspace_value
from blockselect.modelselect import (
    ModelKind,
    WorkflowResult,
    make_test_result,
    validate_workflow_result,
)
from blockselect.simharness import ExperimentSpec, GridPoint, Study, run_experiment

TABLE_OMEGA = ((4.0, 2.0, 1.0), (2.0, 4.0, 1.0), (1.0, 1.0, 4.0))
FRACTIONS = (0.25, 0.25, 0.5)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def make_emb(rows) -> np.ndarray:
    """The (n, d) float array of points the losses take."""
    return np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# criteria 1-3: community-detection error rates
# ---------------------------------------------------------------------------

def test_criterion_1_sbm_mislabel_rates():
    start = time.monotonic()
    spec = ExperimentSpec(
        study=Study.COMM_DET_SBM,
        grid=(
            GridPoint(n=1000, k=3, omega=TABLE_OMEGA, fractions=FRACTIONS, density=0.05),
            GridPoint(n=2000, k=3, omega=TABLE_OMEGA, fractions=FRACTIONS, density=0.05),
        ),
        methods=("q1",),
        n_replicates=20,
        base_seed=101,
    )
    report = run_experiment(spec)
    m1000 = report.cells[(0, "q1")].mean
    m2000 = report.cells[(1, "q1")].mean
    elapsed = time.monotonic() - start
    ok = m1000 <= 0.04 and m2000 <= 0.01 and elapsed < 300
    _report(
        "criterion 1", ok,
        f"centroid-loss mislabel n=1000: {m1000:.4f} (<=0.04), "
        f"n=2000: {m2000:.4f} (<=0.01), runtime {elapsed:.0f}s (<300s)",
    )
    assert ok


def test_criterion_2_dcbm_mislabel_rate():
    spec = ExperimentSpec(
        study=Study.COMM_DET_DCBM,
        grid=(
            GridPoint(n=2000, k=3, omega=TABLE_OMEGA, fractions=FRACTIONS,
                      density=0.05, theta_law=bs.Beta(1, 5)),
        ),
        methods=("q2",),
        n_replicates=20,
        base_seed=202,
    )
    report = run_experiment(spec)
    mean = report.cells[(0, "q2")].mean
    ok = 0.0 <= mean <= 0.07
    _report("criterion 2", ok, f"rank-1-loss mislabel n=2000: {mean:.4f} (in [0, 0.07])")
    assert ok


def test_criterion_3_pabm_mislabel_rates():
    spec = ExperimentSpec(
        study=Study.COMM_DET_PABM,
        grid=(GridPoint(n=1500, k=2), GridPoint(n=900, k=3)),
        methods=("q3",),
        n_replicates=20,
        base_seed=303,
    )
    report = run_experiment(spec)
    m_k2 = report.cells[(0, "q3")].mean
    m_k3 = report.cells[(1, "q3")].mean
    ok = m_k2 <= 0.01 and m_k3 <= 0.06
    _report(
        "criterion 3", ok,
        f"rank-K-loss mislabel n=1500/K=2: {m_k2:.4f} (<=0.01), "
        f"n=900/K=3: {m_k3:.4f} (<=0.06)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criteria 4-7: test size and power
# ---------------------------------------------------------------------------

def _rejection_rate(study: Study, point: GridPoint, base_seed: int) -> float:
    spec = ExperimentSpec(
        study=study,
        grid=(point,),
        methods=(),
        n_replicates=50,
        n_boot=100,
        alpha=0.05,
        base_seed=base_seed,
    )
    report = run_experiment(spec)
    cell = report.cells[(0, "test")]
    assert not cell.failed(spec.n_replicates), cell.errors
    return cell.mean


def test_criterion_4_sbm_test_size():
    rate = _rejection_rate(
        Study.TEST_SBM_VS_DCBM,
        GridPoint(n=600, k=3, beta=0.2, avg_degree=20, true_model="sbm"),
        base_seed=404,
    )
    ok = rate <= 0.10
    _report("criterion 4", ok, f"size of SBM test under SBM truth: {rate:.2f} (<=0.10)")
    assert ok


def test_invariant_null_calibration_at_densest_grid():
    # empirical size stays within alpha + 0.05 at the densest reference
    # setting of the SBM-truth grid (average degree 40)
    rate = _rejection_rate(
        Study.TEST_SBM_VS_DCBM,
        GridPoint(n=600, k=3, beta=0.2, avg_degree=40, true_model="sbm"),
        base_seed=440,
    )
    ok = rate <= 0.10
    _report("invariant: null calibration", ok,
            f"size at densest SBM-truth setting: {rate:.2f} (<=0.10)")
    assert ok


def test_criterion_5_sbm_test_power():
    rate = _rejection_rate(
        Study.TEST_SBM_VS_DCBM,
        GridPoint(n=600, k=3, beta=0.2, avg_degree=40, true_model="dcbm",
                  theta_law=bs.PowerLaw(1, 5)),
        base_seed=505,
    )
    ok = rate >= 0.90
    _report("criterion 5", ok, f"power of SBM test under DCBM truth: {rate:.2f} (>=0.90)")
    assert ok


def test_criterion_6_dcbm_test_size():
    rate = _rejection_rate(
        Study.TEST_DCBM_VS_PABM,
        GridPoint(n=600, k=3, beta=0.5, avg_degree=20, true_model="dcbm",
                  theta_law=bs.PowerLaw(1, 5)),
        base_seed=606,
    )
    ok = rate <= 0.10
    _report("criterion 6", ok, f"size of DCBM test under DCBM truth: {rate:.2f} (<=0.10)")
    assert ok


def test_criterion_7_dcbm_test_power():
    rate = _rejection_rate(
        Study.TEST_DCBM_VS_PABM,
        GridPoint(n=900, k=2, density=0.05, true_model="pabm"),
        base_seed=707,
    )
    ok = rate >= 0.90
    _report("criterion 7", ok, f"power of DCBM test under PABM truth: {rate:.2f} (>=0.90)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: karate club workflow
# ---------------------------------------------------------------------------

def test_criterion_8_karate_selects_dcbm(karate):
    picks = []
    for seed in range(10):
        result = bs.run_workflow(karate, 2, alpha=0.05, n_boot=200, seed=seed)
        picks.append(result.selected_model)
    rate = sum(p is ModelKind.DCBM for p in picks) / len(picks)
    ok = rate >= 0.8
    _report(
        "criterion 8", ok,
        f"karate workflow selected DCBM in {rate:.0%} of 10 runs (>=80%); "
        f"picks: {[p.value for p in picks]}",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: brute-force oracle equality
# ---------------------------------------------------------------------------

def _all_assignments(n: int) -> np.ndarray:
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
    return bits.astype(bool)


def _oracle_q1_two_clusters(rows: np.ndarray) -> float:
    # enumeration with the sum-of-squares decomposition:
    # Q1 = total_sq - sum_k |S_k|^2 / n_k
    n = rows.shape[0]
    masks = _all_assignments(n)
    total_sq = (rows**2).sum()
    s1 = masks @ rows
    s0 = rows.sum(axis=0) - s1
    n1 = masks.sum(axis=1).astype(float)
    n0 = n - n1
    with np.errstate(divide="ignore", invalid="ignore"):
        red1 = np.where(n1 > 0, (s1**2).sum(axis=1) / np.maximum(n1, 1), 0.0)
        red0 = np.where(n0 > 0, (s0**2).sum(axis=1) / np.maximum(n0, 1), 0.0)
    return float((total_sq - red1 - red0).min())


def _lambda_max_2x2(a, b, c):
    half = (a + c) / 2.0
    return half + np.sqrt(((a - c) / 2.0) ** 2 + b**2)


def _oracle_q2_two_clusters(rows: np.ndarray) -> float:
    # rank-1 residual energy = ||M||_F^2 - lambda_max(M M^T) per cluster,
    # with the 2x2 eigenvalue in closed form
    n = rows.shape[0]
    masks = _all_assignments(n)
    outer = np.einsum("ni,nj->nij", rows, rows)
    g1 = np.einsum("mn,nij->mij", masks, outer)
    g0 = outer.sum(axis=0)[None] - g1
    val = np.zeros(masks.shape[0])
    for g in (g1, g0):
        a, b, c = g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
        val += (a + c) - _lambda_max_2x2(a, b, c)
    return float(np.maximum(val, 0.0).min())


def test_criterion_9_brute_force_oracles():
    rng = np.random.default_rng(909)
    q1_hits = 0
    for trial in range(100):
        n = int(rng.integers(5, 10))
        rows = rng.standard_normal((n, 2))
        emb = make_emb(rows)
        sol = bs.minimize_q1(emb, 2, n_restarts=10, seed=trial)
        oracle = _oracle_q1_two_clusters(rows)
        assert sol.objective >= oracle - 1e-10
        if sol.objective <= oracle + 1e-9 * max(1.0, oracle):
            q1_hits += 1
    q2_hits = 0
    for trial in range(100):
        n = int(rng.integers(5, 11))
        rows = rng.standard_normal((n, 2))
        emb = make_emb(rows)
        sol = bs.minimize_q_subspace(emb, 2, r=1, n_restarts=20, seed=trial)
        oracle = _oracle_q2_two_clusters(rows)
        assert sol.objective >= oracle - 1e-10
        if sol.objective <= oracle + 1e-9 * max(1.0, oracle):
            q2_hits += 1
    ok = q1_hits >= 95 and q2_hits >= 90
    _report(
        "criterion 9", ok,
        f"global-minimum hits: centroid loss {q1_hits}/100 (>=95), "
        f"rank-1 loss {q2_hits}/100 (>=90); never below oracle",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: iteration monotonicity
# ---------------------------------------------------------------------------

def test_criterion_10_objective_monotonicity_fuzz():
    # the minimizers assert non-increase internally (between empty-cluster
    # repairs) and raise NumericalError on violation
    rng = np.random.default_rng(1010)
    for trial in range(1000):
        n = int(rng.integers(5, 26))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, min(n, 5)))
        scale = 10.0 ** rng.integers(-2, 3)
        rows = scale * rng.standard_normal((n, d))
        if rng.random() < 0.2:
            rows[: n // 2] = rows[0]  # duplicate points stress repairs
        emb = make_emb(rows)
        if trial % 2 == 0:
            bs.minimize_q1(emb, k, n_restarts=2, seed=trial)
        else:
            bs.minimize_q_subspace(emb, k, r=min(2, d), n_restarts=2, seed=trial)
    _report("criterion 10", True, "no monotonicity violation in 1000 fuzzed runs")


# ---------------------------------------------------------------------------
# criterion 11: blockmodel nesting identities
# ---------------------------------------------------------------------------

def test_criterion_11_nesting_identities():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(2 * k, 30))
        labels = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
        omega = rng.uniform(0.05, 1.0, (k, k))
        omega = (omega + omega.T) / 2
        theta = rng.uniform(0.1, 1.0, n)
        for b in range(1, k + 1):
            theta[labels == b] /= theta[labels == b].max()
        sbm = bs.prob_matrix(bs.SbmParams(k=k, omega=omega, labels=labels)).p
        dcbm1 = bs.prob_matrix(
            bs.DcbmParams(k=k, omega=omega, theta=np.ones(n), labels=labels)
        ).p
        dcbm = bs.prob_matrix(
            bs.DcbmParams(k=k, omega=omega, theta=theta, labels=labels)
        ).p
        lam = theta[:, None] * np.sqrt(omega[labels - 1, :])
        pabm = bs.prob_matrix(bs.PabmParams(k=k, lam=lam, labels=labels)).p
        worst = max(worst, np.abs(sbm - dcbm1).max(), np.abs(dcbm - pabm).max())
    ok = worst <= 1e-12
    _report("criterion 11", ok, f"nesting identity max deviation {worst:.2e} (<=1e-12)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 12: spectral and objective invariants
# ---------------------------------------------------------------------------

def test_criterion_12_spectral_and_objective_invariants():
    from conftest import random_graph

    rng = np.random.default_rng(1212)
    worst_residual = 0.0
    worst_ortho = 0.0
    for trial in range(50):
        n = int(rng.integers(10, 80)) if trial < 45 else int(rng.integers(520, 650))
        g = random_graph(n, float(rng.uniform(0.05, 0.4)) if n < 500 else 0.02,
                         seed=trial)
        d = int(rng.integers(1, 5))
        emb = bs.ase(g, d, scaled=False)
        a = g.adjacency.toarray()
        scale = max(1.0, np.abs(emb.eigenvalues).max())
        res = np.linalg.norm(a @ emb.rows - emb.rows * emb.eigenvalues[None, :],
                             axis=0).max()
        worst_residual = max(worst_residual, res / scale)
        worst_ortho = max(
            worst_ortho,
            np.linalg.norm(emb.rows.T @ emb.rows - np.eye(d)),
        )
    rot_dev = 0.0
    scale_dev = 0.0
    for trial in range(50):
        n, d = int(rng.integers(8, 30)), int(rng.integers(2, 5))
        k = 2
        rows = rng.standard_normal((n, d))
        labels = np.concatenate([[1, 2], rng.integers(1, 3, n - 2)])
        emb = make_emb(rows)
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        w = q * np.sign(np.diag(r))
        emb_rot = make_emb(rows @ w)
        rot_dev = max(
            rot_dev,
            abs(q1_value(labels, emb) - q1_value(labels, emb_rot)),
            abs(q_subspace_value(labels, emb, 1) - q_subspace_value(labels, emb_rot, 1)),
        )
        c = float(rng.uniform(0.5, 3.0))
        scaled = make_emb(c * rows)
        scale_dev = max(
            scale_dev,
            abs(q1_value(labels, scaled) - c**2 * q1_value(labels, emb))
            / max(1.0, q1_value(labels, scaled)),
        )
    ok = (
        worst_residual <= 1e-6
        and worst_ortho <= 1e-8
        and rot_dev <= 1e-8
        and scale_dev <= 1e-10
    )
    _report(
        "criterion 12", ok,
        f"eigen residual {worst_residual:.2e} (<=1e-6), orthonormality "
        f"{worst_ortho:.2e} (<=1e-8), rotation invariance {rot_dev:.2e} "
        f"(<=1e-8), scale equivariance {scale_dev:.2e} (<=1e-10)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 13: CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_13_select_byte_identical(tmp_path, karate_path):
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main([
            "select", str(karate_path), "--k", "2",
            "--boot", "200", "--seed", "17", "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    same_report = (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    same_labels = (outs[0] / "labels.csv").read_bytes() == (outs[1] / "labels.csv").read_bytes()
    ok = same_report and same_labels
    _report("criterion 13", ok, "two full select runs byte-identical "
            f"(report: {same_report}, labels: {same_labels})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 14: p-value exactness and workflow decision consistency
# ---------------------------------------------------------------------------

def test_criterion_14_p_value_and_decision_invariants():
    rng = np.random.default_rng(1414)
    checked = 0
    for trial in range(200):
        r = int(rng.integers(1, 60))
        boot = rng.exponential(1.0, r)
        if rng.random() < 0.2:
            boot[rng.integers(r)] = 1.0  # force ties against the statistic
        stat = 1.0 if rng.random() < 0.3 else float(rng.exponential(1.0))
        alpha = float(rng.uniform(0.01, 0.25))
        res = make_test_result(stat, boot, alpha, ModelKind.SBM, ModelKind.DCBM, trial)
        count = int((res.boot_stats >= res.statistic).sum())
        assert res.p_value == count / r
        assert res.rejected == (res.p_value < alpha)
        checked += 1

    def synthetic(p_reject: bool, seed: int, null, alt) -> ms.TestResult:
        boot = np.linspace(0.1, 1.0, 20)
        stat = 2.0 if p_reject else 0.0
        return make_test_result(stat, boot, 0.05, null, alt, seed)

    labels = np.array([1, 2, 1, 2])
    combos = [
        (ModelKind.SBM, synthetic(False, 0, ModelKind.SBM, ModelKind.DCBM), None),
        (ModelKind.DCBM, synthetic(True, 1, ModelKind.SBM, ModelKind.DCBM),
         synthetic(False, 2, ModelKind.DCBM, ModelKind.PABM)),
        (ModelKind.PABM, synthetic(True, 3, ModelKind.SBM, ModelKind.DCBM),
         synthetic(True, 4, ModelKind.DCBM, ModelKind.PABM)),
    ]
    for selected, t1, t2 in combos:
        result = WorkflowResult(
            selected_model=selected, labels=labels, test_sbm_dcbm=t1,
            test_dcbm_pabm=t2, embedding_dims={"test1": 2, "test2": None, "final": 2},
            timing={}, k=2, seed=0,
        )
        validate_workflow_result(result)
    _report("criterion 14", True,
            f"p-value formula exact on {checked} fuzzed vectors; "
            "decision-consistency invariants hold on all three gate outcomes")
