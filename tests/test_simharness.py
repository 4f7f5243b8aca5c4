from __future__ import annotations

import dataclasses
import io
import re

import numpy as np
import pytest

from blockselect.blockmodels import PowerLaw
from blockselect.errors import ConfigError
from blockselect.simharness import (
    CellResult,
    ExperimentReport,
    ExperimentSpec,
    GridPoint,
    Study,
    emit_table,
    load_experiment_config,
    replicate_seed,
    report_provenance,
    run_experiment,
    run_single_replicate,
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


@pytest.mark.parametrize("method", ["q3", "osc"])
def test_k_squared_above_n_is_refused_at_load(method):
    # every replicate would record the same error, so the config is refused
    spec = ExperimentSpec(
        study=Study.COMM_DET_PABM,
        grid=(GridPoint(n=40, k=2), GridPoint(n=6, k=3)),
        methods=("q1", method),
        n_replicates=1,
    )
    with pytest.raises(ConfigError, match=re.escape("grid point 2: K^2 = 9 exceeds n = 6")):
        run_experiment(spec)
    # the methods that embed into K dimensions run there
    dataclasses.replace(spec, methods=("q1", "q2", "sc_l", "rsc_l")).validate()


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
    assert _header(sbm_study) == "n,K,delta,Q1"
    test_study = ExperimentSpec(study=Study.TEST_DCBM_VS_PABM, grid=pabm_truth, methods=())
    with pytest.raises(ConfigError, match="divisible"):
        test_study.validate()
    assert _header(test_study) == "n,K,delta,rejection"
    sbm_truth = (dataclasses.replace(pabm_truth[0], true_model="sbm"),)
    assert _header(dataclasses.replace(test_study, grid=sbm_truth)) == (
        "n,K,beta,avg.degree,rejection"
    )


def _header(spec: ExperimentSpec) -> str:
    """The header ``emit_table`` writes for a study with no results yet."""
    csv_text, _ = emit_table(ExperimentReport(spec=spec, cells={}))
    return csv_text.splitlines()[0]


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


def test_provenance_lists_every_field_of_the_spec():
    spec = dataclasses.replace(TINY_SBM_SPEC, grid=(
        GridPoint(n=60, k=2, omega=((1.0, 0.2), (0.2, 1.0)), fractions=(0.4, 0.6),
                  avg_degree=8, theta_law=PowerLaw(1.0, 3.0), true_model="dcbm"),
    ))
    payload = report_provenance(ExperimentReport(spec=spec, cells={}))
    assert payload.keys() == {f.name for f in dataclasses.fields(ExperimentSpec)} | {"cells"}
    for entry in payload["grid"]:
        assert entry.keys() == {f.name for f in dataclasses.fields(GridPoint)}
    assert payload["study"] == "comm_det_sbm"
    assert payload["grid"][0]["theta_law"] == "PowerLaw(xmin=1.0, alpha=3.0)"


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
    text = ("[experiment]\nstudy = comm_det_sbm\nmethods = q1\n"
            "[grid.1]\nn = 40\nk = 2\nbeta = 0.2\navg_degree = 8\n")
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
    with pytest.raises(ConfigError, match="grid point 1: n = 'many'"):
        load_experiment_config(io.StringIO(text))


@pytest.mark.parametrize("study, grid, unread", [
    ("test_dcbm_vs_pabm", "true_model = pabm\navg_degree = 10\ntheta_law = powerlaw:1,3",
     "the pabm generator reads no avg_degree, theta_law"),
    ("test_sbm_vs_dcbm", "true_model = sbm\nbeta = 0.3\navg_degree = 10\ntheta_law = beta:2,2",
     "the sbm generator reads no theta_law"),
    # a detection study draws from its own model, whatever true_model says
    ("comm_det_pabm", "true_model = sbm\nbeta = 0.2\nomega = 1,0;0,1",
     "the pabm generator reads no beta, omega"),
    ("comm_det_sbm", "beta = 0.2\ndensity = 0.1\ntheta_law = beta:2,2",
     "the sbm generator reads no theta_law"),
], ids=["pabm_truth", "sbm_truth", "pabm_study", "sbm_study"])
def test_config_refuses_a_key_the_drawn_model_never_reads(study, grid, unread):
    methods = "methods = q1\n" if study.startswith("comm_det_") else ""
    text = f"[experiment]\nstudy = {study}\n{methods}[grid.1]\nn = 60\nk = 2\n{grid}\n"
    with pytest.raises(ConfigError, match=f"^grid point 1: {unread}$"):
        load_experiment_config(io.StringIO(text))


@pytest.mark.parametrize("study, truth", [
    ("comm_det_sbm", ""), ("comm_det_dcbm", ""),
    ("test_sbm_vs_dcbm", "true_model = dcbm\n"),
])
def test_config_refuses_beta_beside_omega(study, truth):
    # omega sets the block matrix, so a beta beside it would be dropped
    methods = "methods = q1\n" if study.startswith("comm_det_") else ""
    model = study.split("_")[-1] if study.startswith("comm_det_") else "dcbm"
    text = (f"[experiment]\nstudy = {study}\n{methods}[grid.1]\nn = 60\nk = 2\n{truth}"
            "omega = 1,0.5;0.5,1\nbeta = 0.2\ndensity = 0.1\n")
    want = f"grid point 1: the {model} generator reads no beta when omega is set"
    with pytest.raises(ConfigError, match=f"^{want}$"):
        load_experiment_config(io.StringIO(text))


@pytest.mark.parametrize("law, message", [
    ("beta:-1,2", "Beta needs a, b > 0"),
    ("powerlaw:1,1", "PowerLaw needs xmin > 0 and alpha > 1"),
    ("constant:0", "Constant needs value > 0"),
])
def test_config_refuses_a_degree_law_no_draw_can_use(law, message):
    text = GOOD_CONFIG.replace("theta_law = powerlaw:1,5", f"theta_law = {law}")
    want = f"grid point 2: theta_law = '{law}': {message}"
    with pytest.raises(ConfigError, match=re.escape(want)):
        load_experiment_config(io.StringIO(text))


def test_config_rejects_stray_sections():
    # a grid section is read only as part of the unbroken run grid.1, grid.2, ...
    for section in ("grid.extra", "grid.4", "grid.0", "grid.01"):
        text = GOOD_CONFIG + f"\n[{section}]\nn = 10\nk = 2\n"
        with pytest.raises(ConfigError, match=re.escape(f"unknown section(s): ['{section}']")):
            load_experiment_config(io.StringIO(text))


@pytest.mark.parametrize("section, extra, unknown", [
    ("[experiment]", "base_sed = 7\nbootstarp = 5", "[experiment]: unknown key(s) ['base_sed', 'bootstarp']"),
    ("[grid.1]", "fractoins = 0.2, 0.8, 0.0", "[grid.1]: unknown key(s) ['fractoins']"),
    ("[grid.2]", "seed = 3", "[grid.2]: unknown key(s) ['seed']"),
    # keys read by the other kind of section
    ("[experiment]", "n = 10", "[experiment]: unknown key(s) ['n']"),
    ("[grid.2]", "alpha = 0.1", "[grid.2]: unknown key(s) ['alpha']"),
])
def test_config_rejects_keys_no_setting_reads(section, extra, unknown):
    text = GOOD_CONFIG.replace(section, f"{section}\n{extra}", 1)
    with pytest.raises(ConfigError, match=re.escape(unknown)):
        load_experiment_config(io.StringIO(text))


def test_config_rejects_default_section_keys():
    # [DEFAULT] keys would flow into [experiment] and every [grid.N] alike
    text = "[DEFAULT]\navg_degree = 20\n" + GOOD_CONFIG
    with pytest.raises(ConfigError, match=re.escape("[DEFAULT]: unknown key(s) ['avg_degree']")):
        load_experiment_config(io.StringIO(text))


def test_config_rejects_a_repeated_method():
    text = GOOD_CONFIG.replace("methods = q2, rsc_l", "methods = q2, rsc_l, q2")
    with pytest.raises(ConfigError, match=re.escape("methods listed more than once: ['q2']")):
        load_experiment_config(io.StringIO(text))
    with pytest.raises(ConfigError, match="listed more than once"):
        dataclasses.replace(TINY_SBM_SPEC, methods=("q1", "sc_l", "q1")).validate()


def test_config_requires_grid():
    with pytest.raises(ConfigError, match="no \\[grid"):
        load_experiment_config(io.StringIO("[experiment]\nstudy = comm_det_sbm\nmethods = q1\n"))


@pytest.mark.parametrize("methods", ["q9, q9", "q1"])
def test_config_rejects_methods_in_a_test_study(methods):
    # a test study runs one test per replicate, so a methods key would be
    # dropped whatever it held
    text = ("[experiment]\nstudy = test_sbm_vs_dcbm\nbootstrap = 5\n"
            f"methods = {methods}\n"
            "[grid.1]\nn = 40\nk = 2\nbeta = 0.2\navg_degree = 8\ntrue_model = sbm\n")
    with pytest.raises(ConfigError, match="test_sbm_vs_dcbm runs no methods"):
        load_experiment_config(io.StringIO(text))
    load_experiment_config(io.StringIO(text.replace(f"methods = {methods}\n", "")))
    spec = ExperimentSpec(
        study=Study.TEST_DCBM_VS_PABM,
        grid=(GridPoint(n=40, k=2, beta=0.2, avg_degree=8, true_model="dcbm"),),
        methods=("q2",),
    )
    with pytest.raises(ConfigError, match=re.escape("runs no methods, got ['q2']")):
        spec.validate()
