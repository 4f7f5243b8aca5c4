from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import blockselect
from blockselect.blockmodels import Beta
from blockselect.cli import build_parser, main
from blockselect.errors import ConfigError
from blockselect.simharness import load_experiment_config

TWO_CLIQUES = "0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n"


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def test_select_karate_writes_report(tmp_path, capsys, karate_path):
    out = tmp_path / "out"
    code = main([
        "select", str(karate_path), "--k", "2", "--boot", "60",
        "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("SBM ")
    assert "model:" in summary
    report = json.loads((out / "report.json").read_text())
    assert report["selected_model"] in ("SBM", "DCBM", "PABM")
    assert report["config"]["k"] == 2
    assert report["labels_file"] == "labels.csv"
    labels_lines = (out / "labels.csv").read_text().splitlines()
    assert labels_lines[1] == "node,label"
    assert len(labels_lines) == 2 + 34
    assert (out / "timings.json").exists()


def test_select_deterministic_reports(tmp_path, karate_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "--threads", "1", "select", str(karate_path), "--k", "2",
            "--boot", "40", "--seed", "3", "--out", str(out),
        ]) == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "labels.csv").read_bytes() == (outs[1] / "labels.csv").read_bytes()


def test_select_missing_file_no_partial_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["select", str(tmp_path / "nope.edges"), "--k", "2",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_select_infeasible_k(tmp_path, karate_path):
    # K^2 = 49 > 34 nodes
    code = main(["select", str(karate_path), "--k", "7",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", ["1.5", "0", "1"])
def test_select_alpha_outside_unit_interval_is_usage_error(tmp_path, capsys, karate_path, alpha):
    out = tmp_path / "out"
    code = main(["select", str(karate_path), "--k", "2", "--boot", "5",
                 "--alpha", alpha, "--out", str(out)])
    assert code == 2
    assert "alpha must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_cluster_two_cliques_objective_zero(tmp_path, capsys):
    edges = write(tmp_path / "g.edges", TWO_CLIQUES)
    out = tmp_path / "out"
    code = main(["cluster", str(edges), "--k", "2", "--model", "sbm",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "cluster.json").read_text())
    assert meta["objective"] <= 1e-12
    printed = capsys.readouterr().out
    assert "objective" in printed


def test_cluster_labels_csv_quotes_ids_with_commas_and_quotes(tmp_path):
    edges = write(tmp_path / "g.edges", 'a,b c\nc d\nd a,b\ne f\nf g"h\n')
    out = tmp_path / "out"
    code = main(["cluster", str(edges), "--k", "2", "--model", "sbm",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    with open(out / "labels.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[0] == ["node", "label"]
    assert all(len(row) == 2 for row in rows)
    assert [row[0] for row in rows[1:]] == ["a,b", "c", "d", "e", "f", 'g"h']


def test_cluster_truth_listing_a_node_twice_exits_2(tmp_path, capsys):
    edges = write(tmp_path / "g.edges", TWO_CLIQUES)
    truth = write(tmp_path / "truth.labels", "0 1\n1 1\n2 1\n3 2\n4 2\n5 2\n0 2\n")
    code = main(["cluster", str(edges), "--k", "2", "--model", "sbm",
                 "--truth", str(truth), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "line 7: node '0' listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("truth_text, message", [
    ("0 1\n1 1\n2 1\n3 5\n4 5\n5 5\n", "error: true labels must lie in [1, 2]"),
    (None, "No such file or directory"),
], ids=["label out of range", "missing file"])
def test_cluster_refuses_a_bad_truth_file_before_detecting(tmp_path, capsys, truth_text, message):
    edges = write(tmp_path / "g.edges", TWO_CLIQUES)
    truth = tmp_path / "truth.labels"
    if truth_text is not None:
        write(truth, truth_text)
    out = tmp_path / "out"
    code = main(["cluster", str(edges), "--k", "2", "--model", "dcbm",
                 "--truth", str(truth), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


def test_cluster_k_zero_usage_error(tmp_path):
    edges = write(tmp_path / "g.edges", TWO_CLIQUES)
    code = main(["cluster", str(edges), "--k", "0", "--model", "sbm",
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_cluster_with_truth_prints_mislabel(tmp_path, capsys):
    edges = write(tmp_path / "g.edges", TWO_CLIQUES)
    truth = write(
        tmp_path / "truth.labels", "0 1\n1 1\n2 1\n3 2\n4 2\n5 2\n"
    )
    code = main(["cluster", str(edges), "--k", "2", "--model", "sbm",
                 "--truth", str(truth), "--out", str(tmp_path / "out")])
    assert code == 0
    out_text = capsys.readouterr().out
    assert "mislabel rate: 0.0000" in out_text
    meta = json.loads((tmp_path / "out" / "cluster.json").read_text())
    assert meta["mislabel_rate"] == 0.0


def test_cluster_pabm_requires_k_squared(tmp_path):
    edges = write(tmp_path / "g.edges", TWO_CLIQUES)  # n = 6 < 9 = 3^2
    code = main(["cluster", str(edges), "--k", "3", "--model", "pabm",
                 "--out", str(tmp_path / "out")])
    assert code == 3


@pytest.mark.parametrize("command", [
    ["select"], ["cluster", "--model", "sbm"], ["cluster", "--model", "dcbm"],
    ["cluster", "--model", "pabm"],
])
def test_zero_restarts_is_usage_error(tmp_path, capsys, karate_path, command):
    out = tmp_path / "out"
    code = main([command[0], str(karate_path), "--k", "2", "--restarts", "0",
                 *command[1:], "--out", str(out)])
    assert code == 2
    assert "need at least one restart" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_deterministic_bytes(tmp_path):
    args = ["generate", "sbm", "--n", "80", "--k", "2", "--beta", "0.2",
            "--density", "0.1", "--seed", "12"]
    for name in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / name)]) == 0
    for fname in ("edges.txt", "params.txt", "labels.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


# flags, and the sha256 of edges.txt + params.txt + labels.csv recorded
# before `generate` sampled through the simulation harness's generator
_GENERATE_GOLDEN = {
    "sbm_omega_fractions": (
        ["sbm", "--n", "60", "--k", "3", "--omega", "4,2,1;2,4,2;1,2,4",
         "--fractions", "0.25,0.25,0.5", "--density", "0.1", "--seed", "3"],
        "70f4b1125437da839d6135a3dc26fe65a010f45e879ef6eb0a2e125d070f407f",
    ),
    "sbm_beta": (
        ["sbm", "--n", "80", "--k", "2", "--beta", "0.2", "--avg-degree", "10", "--seed", "12"],
        "477be16214640301ea16078bec240ec6ad8c28e340a6c627c9d8bb3bdc3c9735",
    ),
    "dcbm_default_law": (
        ["dcbm", "--n", "80", "--k", "2", "--beta", "0.5", "--density", "0.1", "--seed", "1"],
        "9a8caf82dbf502f9201005a864e2b9180ae75847c836c54340da9d1cd6ac0eb9",
    ),
    "dcbm_theta_law": (
        ["dcbm", "--n", "90", "--k", "3", "--omega", "3,1,1;1,3,1;1,1,3",
         "--avg-degree", "8", "--theta-law", "powerlaw:1,3", "--seed", "2"],
        "c9c98c9dcddb89b3ff603948d41d10986002ff2b321a9d97deb97adf119ef07e",
    ),
    "pabm_natural": (
        ["pabm", "--n", "60", "--k", "2", "--seed", "1"],
        "5e35fe61157214a74e74d474cf7abfecd49221b9cd74f569d333bb0dce68441a",
    ),
    "pabm_density": (
        ["pabm", "--n", "90", "--k", "3", "--density", "0.08", "--seed", "4"],
        "286f4aad1b05eec3a5c564203b162ab6928860c98b11d90f827ba10a411ca89c",
    ),
}


@pytest.mark.filterwarnings("ignore:degree target clamped")
@pytest.mark.parametrize("case", list(_GENERATE_GOLDEN))
def test_generate_golden_bytes(tmp_path, case):
    flags, expected = _GENERATE_GOLDEN[case]
    out = tmp_path / "out"
    assert main(["generate", *flags, "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for fname in ("edges.txt", "params.txt", "labels.csv"):
        digest.update((out / fname).read_bytes())
    assert digest.hexdigest() == expected


def test_generate_identity_omega_two_er_blocks(tmp_path):
    out = tmp_path / "out"
    assert main(["generate", "sbm", "--n", "60", "--k", "2",
                 "--omega", "1,0;0,1", "--density", "0.2",
                 "--seed", "5", "--out", str(out)]) == 0
    labels = {}
    for line in (out / "labels.csv").read_text().splitlines()[2:]:
        node, lab = line.split(",")
        labels[node] = lab
    for line in (out / "edges.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        u, v = line.split()
        assert labels[u] == labels[v]  # no cross-block edges


@pytest.mark.parametrize("low, code", [("-5e-13", 0), ("-2e-12", 2)])
def test_generate_omega_tolerance(tmp_path, low, code):
    # entries down to -1e-12 are read as 0; below that the matrix is an error
    out = tmp_path / "out"
    assert main(["generate", "sbm", "--n", "40", "--k", "2",
                 "--omega", f"1,0.5;0.5,{low}", "--density", "0.1",
                 "--out", str(out)]) == code


def test_generate_ragged_omega_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", "sbm", "--n", "40", "--k", "2", "--omega", "1,0.5;0.5",
                 "--density", "0.1", "--out", str(out)]) == 2
    assert "omega = '1,0.5;0.5': rows of unequal length [2, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, flags, message", [
    ("pabm", ["--density", "-0.1"], "density target must be nonnegative"),
    ("sbm", ["--density", "0.1"], "needs omega or beta"),
    ("sbm", ["--omega", "1,nan;nan,1", "--density", "0.2"], "base omega entries must be finite"),
    # the length is checked before the sizes: block 3 would get no node
    ("sbm", ["--beta", "0.2", "--fractions", "0.5,0.5,0", "--density", "0.1"],
     "block_fractions length must equal k"),
    ("dcbm", ["--beta", "0.3", "--density", "0.2", "--theta-law", "beta:inf,1"],
     "theta_law = 'beta:inf,1': Beta needs a, b > 0 and finite, got a = inf, b = 1.0"),
    ("dcbm", ["--beta", "0.3", "--density", "0.2", "--theta-law", "powerlaw:1,1.0001"],
     "theta_law = 'powerlaw:1,1.0001': PowerLaw's largest draw overflows: "
     "xmin = 1.0, alpha = 1.0001"),
])
def test_generate_setting_rejected_before_drawing_is_usage_error(
    tmp_path, capsys, model, flags, message
):
    out = tmp_path / "out"
    assert main(["generate", model, "--n", "40", "--k", "2", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("model, flags, unread", [
    ("pabm", ["--avg-degree", "10", "--fractions", "0.3,0.7", "--beta", "0.2"],
     "beta, fractions, avg_degree"),
    ("pabm", ["--omega", "1,0.5;0.5,1"], "omega"),
    ("sbm", ["--beta", "0.2", "--density", "0.1", "--theta-law", "beta:1,5"], "theta_law"),
])
def test_generate_refuses_a_flag_the_model_never_reads_exit_2(
    tmp_path, capsys, model, flags, unread
):
    out = tmp_path / "out"
    assert main(["generate", model, "--n", "60", "--k", "2", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: the {model} generator reads no {unread}\n"
    assert not out.exists()


@pytest.mark.parametrize("model", ["sbm", "dcbm"])
def test_generate_refuses_beta_beside_omega_exit_2(tmp_path, capsys, model):
    out = tmp_path / "out"
    assert main(["generate", model, "--n", "60", "--k", "2", "--omega", "1,0.5;0.5,1",
                 "--beta", "0.2", "--density", "0.1", "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: the {model} generator reads no beta when omega is set\n")
    assert not out.exists()


def test_generate_infeasible_density(tmp_path):
    code = main(["generate", "sbm", "--n", "30", "--k", "2", "--beta", "0.1",
                 "--density", "0.95", "--out", str(tmp_path / "out")])
    assert code == 3


@pytest.mark.parametrize("density", ["1.5", "inf"])
def test_generate_pabm_density_above_one_exit_3_before_drawing(tmp_path, capsys, density):
    out = tmp_path / "out"
    with mock.patch.object(Beta, "sample", side_effect=AssertionError("drew lambda")):
        code = main(["generate", "pabm", "--n", "40", "--k", "2", "--density", density,
                     "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "error: density target exceeds 1\n"
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-2"])
@pytest.mark.parametrize("model, extra", [
    ("sbm", ["--beta", "0.5", "--density", "0.1"]),
    ("dcbm", ["--beta", "0.5", "--density", "0.1"]),
    ("pabm", []),
])
def test_generate_k_below_one_is_usage_error(tmp_path, capsys, model, extra, k):
    out = tmp_path / "out"
    code = main(["generate", model, "--n", "10", "--k", k, *extra, "--out", str(out)])
    assert code == 2
    assert f"--k must be >= 1, got {k}" in capsys.readouterr().err
    assert not out.exists()


def test_generate_dcbm_and_pabm_smoke(tmp_path):
    assert main(["generate", "dcbm", "--n", "60", "--k", "2", "--beta", "0.5",
                 "--avg-degree", "8", "--theta-law", "beta:2,2",
                 "--seed", "1", "--out", str(tmp_path / "d")]) == 0
    assert main(["generate", "pabm", "--n", "60", "--k", "2",
                 "--seed", "1", "--out", str(tmp_path / "p")]) == 0
    assert (tmp_path / "p" / "params.txt").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_CONFIG = """
[experiment]
study = comm_det_sbm
replicates = 2
base_seed = 4
methods = q1

[grid.1]
n = 90
k = 2
beta = 0.2
avg_degree = 12
"""


def test_simulate_writes_tables(tmp_path, capsys):
    cfg = write(tmp_path / "exp.cfg", SIM_CONFIG)
    out = tmp_path / "sim"
    assert main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 0
    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == "n,K,delta,Q1"
    assert table[1].startswith("90,2,")
    assert (out / "table.txt").exists()
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["base_seed"] == 4
    assert capsys.readouterr().out.strip()


def test_simulate_table_shows_the_configured_methods(tmp_path):
    cfg = write(tmp_path / "exp.cfg", SIM_CONFIG.replace("methods = q1", "methods = q2, rsc_l"))
    out = tmp_path / "sim"
    assert main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 0
    header, row = (out / "table.csv").read_text().splitlines()
    assert header == "n,K,delta,Q2,RSC-L"
    cells = row.split(",")[3:]
    assert len(cells) == 2 and "NA" not in cells and all("+/-" in c for c in cells)


def test_simulate_rejects_a_repeated_method_exit_2(tmp_path, capsys):
    cfg = write(tmp_path / "exp.cfg", SIM_CONFIG.replace("methods = q1", "methods = q1, q1"))
    out = tmp_path / "sim"
    assert main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "methods listed more than once: ['q1']" in capsys.readouterr().err
    assert not (out / "table.csv").exists()


def test_simulate_refuses_a_k_squared_embedding_above_n_exit_2(tmp_path, capsys):
    # q3 and osc embed into K^2 = 9 > n dimensions: every replicate would fail
    text = SIM_CONFIG.replace("comm_det_sbm", "comm_det_pabm").replace(
        "methods = q1", "methods = q3, osc").replace(
        "n = 90\nk = 2\nbeta = 0.2\navg_degree = 12", "n = 6\nk = 3")
    cfg = write(tmp_path / "exp.cfg", text)
    out = tmp_path / "sim"
    assert main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "grid point 1: K^2 = 9 exceeds n = 6" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("study", ["test_sbm_vs_dcbm", "test_dcbm_vs_pabm"])
def test_simulate_test_study_with_methods_exit_2(tmp_path, capsys, study):
    text = STUDY_TRUTH_CONFIG.format(study=study, method="q9, q9", truth="true_model = sbm")
    cfg = write(tmp_path / "exp.cfg", text)
    out = tmp_path / "sim"
    assert main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert f"{study} runs no methods, got ['q9', 'q9']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, typo, message", [
    ("[grid.1]", "fractoins = 0.2, 0.8", "[grid.1]: unknown key(s) ['fractoins']"),
    ("[experiment]", "base_sed = 7\nbootstarp = 5",
     "[experiment]: unknown key(s) ['base_sed', 'bootstarp']"),
])
def test_simulate_rejects_unknown_keys_exit_2(tmp_path, capsys, section, typo, message):
    cfg = write(tmp_path / "exp.cfg", SIM_CONFIG.replace(section, f"{section}\n{typo}"))
    out = tmp_path / "sim"
    assert main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "table.csv").exists()


STUDY_TRUTH_CONFIG = """
[experiment]
study = {study}
replicates = 1
bootstrap = 2
restarts = 2
methods = {method}

[grid.1]
n = 24
k = 2
beta = 0.3
avg_degree = 8
{truth}
"""

_STUDY_METHOD = {"comm_det_sbm": "q1", "comm_det_dcbm": "q2", "comm_det_pabm": "q3"}


@pytest.mark.parametrize("truth", [None, "sbm", "dcbm", "pabm"])
@pytest.mark.parametrize("study", [
    "comm_det_sbm", "comm_det_dcbm", "comm_det_pabm",
    "test_sbm_vs_dcbm", "test_dcbm_vs_pabm",
])
def test_simulate_every_accepted_study_and_truth(tmp_path, study, truth):
    text = STUDY_TRUTH_CONFIG.format(
        study=study, method=_STUDY_METHOD.get(study, ""),
        truth="" if truth is None else f"true_model = {truth}",
    )
    drawn = study.removeprefix("comm_det_") if study.startswith("comm_det_") else truth
    if drawn == "pabm":
        # the PABM generator reads no beta or average degree
        with pytest.raises(ConfigError, match="the pabm generator reads no beta, avg_degree$"):
            load_experiment_config(io.StringIO(text))
        text = text.replace("beta = 0.3\navg_degree = 8\n", "")
    cfg = write(tmp_path / "exp.cfg", text)
    out = tmp_path / "sim"
    try:
        load_experiment_config(io.StringIO(text))
    except ConfigError:
        # a test study needs a planted truth; nothing else is refused
        assert study.startswith("test_") and truth is None
        assert main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 2
        return
    assert main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 0
    header = (out / "table.csv").read_text().splitlines()[0].split(",")
    if study.startswith("test_"):
        columns = ["delta"] if truth == "pabm" else ["beta", "avg.degree"]
        assert header == ["n", "K", *columns, "rejection"]
    else:
        assert header[:3] == ["n", "K", "delta"]
        assert header[3] == _STUDY_METHOD[study].upper()
    assert (out / "table.txt").exists() and (out / "provenance.json").exists()


def test_simulate_bad_config_exit_2(tmp_path):
    cfg = write(tmp_path / "exp.cfg", SIM_CONFIG.replace("study = comm_det_sbm",
                                                         "study = nope"))
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "sim")]) == 2


@pytest.mark.parametrize("grid, message", [
    # omega of the wrong shape for k
    pytest.param("k = 3\nomega = 1,0.5;0.5,1", "base omega must be 3x3",
                 id="k = 3\nomega = 1,0.5;0.5,1"),
    # ragged rows
    pytest.param("k = 2\nomega = 1,0.5;0.5", "rows of unequal length [2, 1]",
                 id="k = 2\nomega = 1,0.5;0.5"),
    # fractions of the wrong length
    pytest.param("k = 2\nbeta = 0.2\nfractions = 0.2,0.3,0.5",
                 "block_fractions length must equal k",
                 id="k = 2\nbeta = 0.2\nfractions = 0.2,0.3,0.5"),
])
def test_simulate_grid_point_the_generator_rejects_exit_2(tmp_path, capsys, grid, message):
    text = SIM_CONFIG.replace("k = 2\nbeta = 0.2", grid)
    cfg = write(tmp_path / "exp.cfg", text)
    out = tmp_path / "sim"
    assert main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "grid point 1: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("study, grid, message", [
    ("comm_det_sbm", "beta = 0.3", "grid point 1: specify exactly one of target_density"),
    ("comm_det_dcbm", "beta = 0.3\ndensity = 0.1\navg_degree = 5",
     "grid point 1: specify exactly one of target_density"),
    ("comm_det_dcbm", "beta = 0.3\navg_degree = 50", "grid point 1: density target exceeds 1"),
    ("comm_det_sbm", "beta = 0.1\ndensity = 0.9",
     "grid point 1: density target needs omega entry 1.671 > 1"),
    ("comm_det_sbm", "beta = 0.3\ndensity = -0.1",
     "grid point 1: density target must be nonnegative"),
    ("comm_det_pabm", "density = -0.1", "grid point 1: density target must be nonnegative"),
    ("comm_det_pabm", "density = 1.5", "grid point 1: density target exceeds 1"),
    ("comm_det_pabm", "density = inf", "grid point 1: density target exceeds 1"),
    # PowerLaw(1, 1.0001) would draw inf for most u in every replicate
    ("comm_det_dcbm", "beta = 0.3\ndensity = 0.2\ntheta_law = powerlaw:1,1.0001",
     "grid point 1: theta_law = 'powerlaw:1,1.0001': PowerLaw's largest draw overflows"),
    # an infinite theta would divide to NaN in every replicate
    ("comm_det_dcbm", "beta = 0.3\ndensity = 0.2\ntheta_law = constant:inf",
     "grid point 1: theta_law = 'constant:inf': Constant needs value > 0 and finite"),
    # the message names the point once
    ("comm_det_sbm", "density = 0.1", "grid point 1: needs omega or beta"),
    # a test study's table has one header: PABM truth sets a density
    # column, SBM and DCBM truth beta and average degree
    ("test_sbm_vs_dcbm",
     "beta = 0.3\navg_degree = 10\ntrue_model = sbm\n"
     "[grid.2]\nn = 60\nk = 2\ndensity = 0.1\ntrue_model = pabm",
     "grid point 2: pabm truth cannot share a table with grid point 1's sbm truth"),
    ("test_dcbm_vs_pabm",
     "density = 0.1\ntrue_model = pabm\n"
     "[grid.2]\nn = 60\nk = 2\nbeta = 0.3\navg_degree = 10\ntrue_model = dcbm",
     "grid point 2: dcbm truth cannot share a table with grid point 1's pabm truth"),
])
def test_simulate_setting_the_generator_rejects_before_drawing_exit_2(
    tmp_path, capsys, study, grid, message
):
    # each replicate would record the same error: the generator's code up
    # to its first random draw runs at load
    text = SIM_CONFIG.replace("comm_det_sbm", study).replace(
        "n = 90\nk = 2\nbeta = 0.2\navg_degree = 12", f"n = 40\nk = 2\n{grid}"
    )
    cfg = write(tmp_path / "exp.cfg", text)
    out = tmp_path / "sim"
    assert main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("study", ["test_sbm_vs_dcbm", "test_dcbm_vs_pabm"])
def test_simulate_test_study_without_bootstrap_exit_2(tmp_path, capsys, study):
    text = STUDY_TRUTH_CONFIG.format(study=study, method="", truth="true_model = sbm")
    cfg = write(tmp_path / "exp.cfg", text.replace("bootstrap = 2", "bootstrap = 0"))
    out = tmp_path / "sim"
    assert main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "n_boot must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# one small config per study, and the sha256 of table.csv + provenance.json
# + table.txt without its first line (which names the config path), recorded
# before the provenance and the table layout were derived from the spec
_SIMULATE_GOLDEN = {
    "comm_det_sbm": (
        "[experiment]\nstudy = comm_det_sbm\nreplicates = 2\nbase_seed = 4\n"
        "methods = q1, sc_l\n"
        "[grid.1]\nn = 60\nk = 2\nbeta = 0.2\navg_degree = 12\n"
        "[grid.2]\nn = 60\nk = 3\nomega = 4,2,1;2,4,2;1,2,4\n"
        "fractions = 0.25,0.25,0.5\ndensity = 0.2\n",
        "0a85eb68cb43f4843bc312afdea672dbaad2fa3f23f83105c8efb6039efed0a0",
    ),
    "comm_det_dcbm": (
        # re-recorded when rsc_l took its degree regularization tau; only
        # the RSC-L column and the *:rsc_l cells changed
        "[experiment]\nstudy = comm_det_dcbm\nreplicates = 2\nrestarts = 3\n"
        "methods = q2, rsc_l\n"
        "[grid.1]\nn = 64\nk = 2\nbeta = 0.3\ndensity = 0.1\ntheta_law = beta:2,2\n"
        "[grid.2]\nn = 64\nk = 2\nbeta = 0.3\navg_degree = 6\ntheta_law = powerlaw:1,3\n",
        "22da2e6db00af07df1eba208dd14fe3492ec0a92e431eea700911526692ccbcc",
    ),
    "comm_det_pabm": (
        # a point with K^2 > n, which q3 cannot embed, is refused at load
        # (test_simulate_refuses_a_k_squared_embedding_above_n_exit_2)
        "[experiment]\nstudy = comm_det_pabm\nreplicates = 2\nbase_seed = 7\nmethods = q3\n"
        "[grid.1]\nn = 60\nk = 2\ndensity = 0.2\n",
        "2ce0217b17cc702facc3f8304bb9c19c4d20fb065183b044cf5aff6aa55779e4",
    ),
    "test_sbm_vs_dcbm": (
        "[experiment]\nstudy = test_sbm_vs_dcbm\nreplicates = 2\nbootstrap = 3\n"
        "restarts = 2\nalpha = 0.1\n"
        "[grid.1]\nn = 60\nk = 2\nbeta = 0.3\navg_degree = 10\ntheta_law = beta:2,2\n"
        "true_model = dcbm\n"
        "[grid.2]\nn = 60\nk = 2\nbeta = 0.3\nfractions = 0.4,0.6\ndensity = 0.15\n"
        "true_model = sbm\n",
        "9641995a5910cbf621f8561a03ea02df1df9a199e37ed11e54373046b446aca5",
    ),
    "test_dcbm_vs_pabm": (
        "[experiment]\nstudy = test_dcbm_vs_pabm\nreplicates = 2\nbootstrap = 3\n"
        "restarts = 2\n"
        "[grid.1]\nn = 60\nk = 2\ntrue_model = pabm\n",
        "0161ca7ff124c03029f7cd719bd092280f6f1e123edf9bf8cee6b9c60add62dd",
    ),
}


@pytest.mark.parametrize("case", list(_SIMULATE_GOLDEN))
def test_simulate_golden_bytes(tmp_path, case):
    text, expected = _SIMULATE_GOLDEN[case]
    cfg = write(tmp_path / "exp.cfg", text)
    out = tmp_path / "sim"
    assert main(["simulate", str(cfg), "--out", str(out), "--quiet"]) == 0
    digest = hashlib.sha256()
    digest.update((out / "table.csv").read_bytes())
    digest.update((out / "provenance.json").read_bytes())
    digest.update((out / "table.txt").read_bytes().split(b"\n", 1)[1])
    assert digest.hexdigest() == expected


def test_exit_code_mapping():
    import numpy as np

    from blockselect.cli import _exit_code_for
    from blockselect.errors import (
        ConfigError,
        DegenerateModelError,
        EdgeListParseError,
        InfeasibleModelError,
        NumericalError,
    )

    assert _exit_code_for(EdgeListParseError("bad", 3)) == 2
    assert _exit_code_for(ConfigError("bad")) == 2
    assert _exit_code_for(FileNotFoundError("x")) == 2
    assert _exit_code_for(InfeasibleModelError("x")) == 3
    assert _exit_code_for(DegenerateModelError("x")) == 3
    assert _exit_code_for(NumericalError("x")) == 4
    assert _exit_code_for(np.linalg.LinAlgError("x")) == 4
    assert _exit_code_for(KeyboardInterrupt()) is None


def test_cluster_pabm_on_generated_network(tmp_path, capsys):
    gen_out = tmp_path / "gen"
    assert main(["generate", "pabm", "--n", "600", "--k", "2",
                 "--seed", "2", "--out", str(gen_out)]) == 0
    truth = tmp_path / "truth.labels"
    lines = (gen_out / "labels.csv").read_text().splitlines()
    truth.write_text(
        "\n".join(line.replace(",", " ") for line in lines[2:]) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(["cluster", str(gen_out / "edges.txt"), "--k", "2",
                 "--model", "pabm", "--truth", str(truth),
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "cluster.json").read_text())
    assert meta["mislabel_rate"] <= 0.05


# sha256 of the files the serial implementation wrote for the run below
# with ``--threads 1``, before restart blocks ran on the worker pool
_PABM_CLUSTER_DIGESTS = {
    "cluster.json": "a3adfc6eeb9809145fbb529df0d55dd9d02f485507ea704fe98708f7704ef76a",
    "labels.csv": "50a3fd0e8bf28f527732e51e82a71e6b7a766ed515189f7a06a0dbc3ae85cea7",
}


def test_cluster_pabm_outputs_are_identical_at_every_worker_count(
    tmp_path, monkeypatch, set_workers,
):
    # the config in both files names the edge list by its relative path
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "pabm", "--n", "300", "--k", "3",
                 "--seed", "5", "--out", "gen"]) == 0
    argv = ["cluster", "gen/edges.txt", "--k", "3", "--model", "pabm", "--seed", "0"]
    set_workers(2)
    assert main([*argv, "--out", "pool"]) == 0
    # one CPU in the affinity mask, as under ``taskset -c 0``: every
    # restart block runs in the main process
    code = ("import os, sys; from blockselect.cli import main; "
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "sys.exit(main(sys.argv[1:]))")
    src = str(Path(blockselect.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", "one_cpu"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, check=True, timeout=120,
    )
    for out in ("pool", "one_cpu"):
        for name, digest in _PABM_CLUSTER_DIGESTS.items():
            assert hashlib.sha256((tmp_path / out / name).read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the thread policy
# ---------------------------------------------------------------------------

def test_threads_flag_is_accepted_hidden_and_changes_no_output(tmp_path, karate_path):
    argv = ["select", str(karate_path), "--k", "2", "--boot", "20", "--seed", "3"]
    outs = []
    for flag in ([], ["--threads", "1"], ["--threads", "3"]):
        out = tmp_path / f"out{len(outs)}"
        assert main([*flag, *argv, "--out", str(out)]) == 0
        outs.append(out)
    for name in ("report.json", "labels.csv"):
        assert len({(out / name).read_bytes() for out in outs}) == 1
    assert "--threads" not in build_parser().format_help()


def test_cli_runs_blas_on_one_thread_whatever_the_environment(tmp_path):
    # the thread counts left after a run, outside every pin, are the ones
    # OpenBLAS read from the environment when numpy loaded
    code = ("import sys; from blockselect import _pool; from blockselect.cli import main; "
            "main(sys.argv[1:]); print([get() for get, _ in _pool._openblas_thread_counts()])")
    argv = ["generate", "sbm", "--n", "40", "--k", "2", "--beta", "0.5",
            "--avg-degree", "6", "--out", str(tmp_path / "gen")]
    src = str(Path(blockselect.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="4"),
        capture_output=True, text=True, check=True, timeout=120,
    )
    counts = json.loads(out.stdout.splitlines()[-1])
    if not counts:
        pytest.skip("no OpenBLAS library loaded")
    assert counts == [1] * len(counts)


def test_importing_cli_leaves_numpy_unloaded():
    # main() sets the BLAS thread variables; they only take effect if
    # nothing has loaded numpy by then
    src = str(Path(blockselect.__file__).resolve().parents[1])
    code = "import sys, blockselect.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_every_public_name_resolves():
    # public names load lazily, so a stale entry fails only when it is used
    for name in blockselect.__all__:
        assert getattr(blockselect, name) is not None, name


def test_importing_modelselect_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 16 MB and 0.2 s to load; the mislabel
    # rate's assignment comes from scipy.sparse.csgraph, so neither the
    # import nor a detection replicate loads it
    src = str(Path(blockselect.__file__).resolve().parents[1])
    code = (
        "import sys, blockselect.modelselect\n"
        "loaded = ['scipy.optimize' in sys.modules]\n"
        "import numpy as np\n"
        "from blockselect.cluster import mislabel_rate\n"
        "from blockselect.simharness import ExperimentSpec, GridPoint, Study, run_experiment\n"
        "assert mislabel_rate(np.array([1, 2, 2, 3]), np.array([2, 1, 1, 3]), 3) == 0.0\n"
        "spec = ExperimentSpec(Study.COMM_DET_PABM, (GridPoint(n=60, k=2),), ('q3',),\n"
        "                      n_replicates=1, restarts=2)\n"
        "cell = run_experiment(spec).cells[(0, 'q3')]\n"
        "assert not cell.errors and cell.ok_values.size == 1, cell.errors\n"
        "loaded.append('scipy.optimize' in sys.modules)\n"
        "print(loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[False, False]"
