from __future__ import annotations

import dataclasses
import io

import numpy as np
import pytest

from blockselect.errors import ConfigError
from blockselect.simharness import (
    CellResult,
    ExperimentSpec,
    GridPoint,
    Study,
    TableLayout,
    emit_table,
    load_experiment_config,
    replicate_seed,
    report_provenance,
    run_experiment,
    run_single_replicate,
    table_layout,
)

TINY_SBM_SPEC = ExperimentSpec(
    study=Study.COMM_DET_SBM,
    grid=(GridPoint(n=120, k=2, beta=0.15, avg_degree=15),),
    methods=("q1", "sc_l"),
    n_replicates=3,
    base_seed=11,
)


def test_run_experiment_deterministic():
    r1 = run_experiment(TINY_SBM_SPEC)
    r2 = run_experiment(TINY_SBM_SPEC)
    for key, cell in r1.cells.items():
        assert cell.values == r2.cells[key].values
        assert cell.seeds == r2.cells[key].seeds


def test_replicates_reproducible_in_isolation():
    report = run_experiment(TINY_SBM_SPEC)
    cell = report.cells[(0, "q1")]
    for rep_idx, value in enumerate(cell.values):
        again = run_single_replicate(TINY_SBM_SPEC, 0, rep_idx, "q1")
        assert again == value
    assert cell.seeds == [
        replicate_seed(TINY_SBM_SPEC, 0, rep_idx, "q1") for rep_idx in range(3)
    ]


def test_aggregation_matches_independent_pass():
    report = run_experiment(TINY_SBM_SPEC)
    for cell in report.cells.values():
        vals = np.asarray(cell.values)
        assert cell.mean == pytest.approx(vals.mean(), abs=1e-12)
        expected_se = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
        assert cell.se == pytest.approx(expected_se, abs=1e-12)


def test_cell_failure_policy():
    cell = CellResult(values=[0.1, float("nan"), 0.2], errors=["replicate 1: boom"])
    assert cell.n_failed == 1
    assert cell.mean == pytest.approx(0.15)
    assert cell.failed(n_replicates=3)  # 1/3 > 10%
    assert not cell.failed(n_replicates=100)


def test_test_study_runs_rejection_metric():
    spec = ExperimentSpec(
        study=Study.TEST_SBM_VS_DCBM,
        grid=(GridPoint(n=100, k=2, beta=0.2, avg_degree=12, true_model="sbm"),),
        methods=(),
        n_replicates=2,
        n_boot=5,
        restarts=3,
        base_seed=0,
    )
    report = run_experiment(spec)
    cell = report.cells[(0, "test")]
    assert cell.metric == "rejection"
    assert all(v in (0.0, 1.0) for v in cell.values)


def test_q3_replicate_with_k_squared_above_n_records_infeasible():
    spec = ExperimentSpec(
        study=Study.COMM_DET_PABM,
        grid=(GridPoint(n=6, k=3),),
        methods=("q3",),
        n_replicates=1,
    )
    cell = run_experiment(spec).cells[(0, "q3")]
    assert cell.errors == ["replicate 0: K^2 = 9 exceeds n = 6"]


def test_spec_validation_errors():
    with pytest.raises(ConfigError, match="true_model"):
        ExperimentSpec(
            study=Study.TEST_SBM_VS_DCBM,
            grid=(GridPoint(n=50, k=2, beta=0.2, avg_degree=8),),
            methods=(),
        ).validate()
    with pytest.raises(ConfigError, match="divisible"):
        ExperimentSpec(
            study=Study.COMM_DET_PABM,
            grid=(GridPoint(n=50, k=3),),
            methods=("q3",),
        ).validate()
    with pytest.raises(ConfigError, match="invalid methods"):
        ExperimentSpec(
            study=Study.COMM_DET_SBM,
            grid=(GridPoint(n=50, k=2, beta=0.2, density=0.1),),
            methods=("nope",),
        ).validate()


def test_the_drawn_model_decides_validation_and_layout():
    # a detection study draws from its own model, whatever true_model says;
    # a test study draws from true_model
    pabm_truth = (GridPoint(n=41, k=2, beta=0.2, density=0.1, true_model="pabm"),)
    sbm_study = ExperimentSpec(study=Study.COMM_DET_SBM, grid=pabm_truth, methods=("q1",))
    sbm_study.validate()
    assert table_layout(sbm_study) is TableLayout.MISLABEL
    test_study = ExperimentSpec(study=Study.TEST_DCBM_VS_PABM, grid=pabm_truth, methods=())
    with pytest.raises(ConfigError, match="divisible"):
        test_study.validate()
    assert table_layout(test_study) is TableLayout.PABM_REJECTION


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_emit_table_structure():
    spec = ExperimentSpec(
        study=Study.COMM_DET_SBM,
        grid=(
            GridPoint(n=100, k=2, beta=0.2, density=0.05),
            GridPoint(n=200, k=2, beta=0.2, density=0.05),
        ),
        methods=("q1", "sc_l"),
        n_replicates=2,
    )
    cells = {
        (0, "q1"): CellResult(values=[0.0, 0.02]),
        (0, "sc_l"): CellResult(values=[0.01, 0.01]),
        # grid point 1 left without results -> NA cells
    }
    from blockselect.simharness import ExperimentReport

    report = ExperimentReport(spec=spec, cells=cells)
    csv_text, table_text = emit_table(report)
    lines = csv_text.splitlines()
    assert lines[0] == "n,K,delta,Q1,SC-L"
    assert lines[1].startswith("100,2,0.05,")
    assert lines[2] == "200,2,0.05,NA,NA"
    assert "SC-L" in table_text.splitlines()[0]


def test_emit_table_marks_failed_cells():
    spec = ExperimentSpec(
        study=Study.COMM_DET_SBM,
        grid=(GridPoint(n=100, k=2, beta=0.2, density=0.05),),
        methods=("q1",),
        n_replicates=2,
    )
    from blockselect.simharness import ExperimentReport

    cell = CellResult(values=[0.5, float("nan")], errors=["replicate 1: boom"])
    report = ExperimentReport(spec=spec, cells={(0, "q1"): cell})
    csv_text, _ = emit_table(report)
    assert "!" in csv_text.splitlines()[1]


def test_provenance_round_trips_to_json():
    import json

    report = run_experiment(TINY_SBM_SPEC)
    payload = report_provenance(report)
    back = json.loads(json.dumps(payload))
    assert back["base_seed"] == 11
    assert back["cells"]["0:q1"]["seeds"] == report.cells[(0, "q1")].seeds


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

GOOD_CONFIG = """
[experiment]
study = comm_det_dcbm
replicates = 4
alpha = 0.05
bootstrap = 25
restarts = 6
base_seed = 99
methods = q2, rsc_l

[grid.1]
n = 300
k = 3
omega = 4,2,1; 2,4,1; 1,1,4
fractions = 0.25, 0.25, 0.5
density = 0.05
theta_law = beta:1,5

[grid.2]
n = 200
k = 2
beta = 0.5
avg_degree = 20
theta_law = powerlaw:1,5
"""


def test_config_without_optional_keys_keeps_the_spec_defaults():
    text = "[experiment]\nstudy = comm_det_sbm\nmethods = q1\n[grid.1]\nn = 40\nk = 2\n"
    spec = load_experiment_config(io.StringIO(text))
    for f in dataclasses.fields(ExperimentSpec):
        if f.default is not dataclasses.MISSING:
            assert getattr(spec, f.name) == f.default, f.name


def test_config_parses_fields():
    spec = load_experiment_config(io.StringIO(GOOD_CONFIG))
    assert spec.study is Study.COMM_DET_DCBM
    assert spec.n_replicates == 4 and spec.n_boot == 25 and spec.restarts == 6
    assert spec.methods == ("q2", "rsc_l")
    assert len(spec.grid) == 2
    p1, p2 = spec.grid
    assert p1.omega == ((4, 2, 1), (2, 4, 1), (1, 1, 4))
    assert p1.fractions == (0.25, 0.25, 0.5)
    assert p1.theta_law.a == 1 and p1.theta_law.b == 5
    assert p2.beta == 0.5 and p2.avg_degree == 20
    assert p2.theta_law.alpha == 5


@pytest.mark.parametrize("mutation, message", [
    ("study = comm_det_dcbm", None),  # sanity: untouched parses
    ("study = bogus", "study must be one of"),
])
def test_config_bad_study(mutation, message):
    text = GOOD_CONFIG.replace("study = comm_det_dcbm", mutation, 1)
    if message is None:
        load_experiment_config(io.StringIO(text))
    else:
        with pytest.raises(ConfigError, match=message):
            load_experiment_config(io.StringIO(text))


@pytest.mark.parametrize("alpha", ["1.5", "0", "1", "-0.1"])
def test_config_rejects_alpha_outside_unit_interval(alpha):
    text = GOOD_CONFIG.replace("alpha = 0.05", f"alpha = {alpha}")
    with pytest.raises(ConfigError, match=r"alpha must lie in \(0, 1\)"):
        load_experiment_config(io.StringIO(text))


def test_config_reports_field_context():
    text = GOOD_CONFIG.replace("n = 300", "n = many")
    with pytest.raises(ConfigError, match=r"\[grid.1\] n"):
        load_experiment_config(io.StringIO(text))


def test_config_rejects_stray_sections():
    text = GOOD_CONFIG + "\n[grid.extra]\nn = 10\nk = 2\n"
    with pytest.raises(ConfigError, match="unknown section"):
        load_experiment_config(io.StringIO(text))


def test_config_requires_grid():
    with pytest.raises(ConfigError, match="no \\[grid"):
        load_experiment_config(io.StringIO("[experiment]\nstudy = comm_det_sbm\nmethods = q1\n"))
