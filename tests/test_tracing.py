"""The benchmark's tracer wraps library functions by name; a rename in the
library would break ``perfbench/run.py --trace 1`` without this check."""

from __future__ import annotations

from blockselect import blockmodels, modelselect
from blockselect.blockmodels import beta_ratio_omega, gen_pabm, gen_sbm

from conftest import load_perfbench


def test_tracer_installs_and_uninstalls_cleanly(monkeypatch):
    tracer = load_perfbench(monkeypatch, "tracing").Tracer()
    originals = (blockmodels.prob_matrix, modelselect.fit_sbm)
    try:
        tracer.install()
        patched = list(tracer._restore)
        assert blockmodels.prob_matrix is not originals[0]
        assert modelselect.fit_sbm is not originals[1]
        assert blockmodels.prob_matrix.__wrapped__ is originals[0]
        assert modelselect.fit_sbm.__wrapped__ is originals[1]
    finally:
        tracer.uninstall()
    assert (blockmodels.prob_matrix, modelselect.fit_sbm) == originals
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


def test_tracer_sees_the_layers_of_detect(monkeypatch, set_workers):
    # the benchmark's PABM detection workload splits its time by these spans
    set_workers(1)
    pabm, _ = gen_pabm(60, 2, seed=1)
    sbm, _ = gen_sbm(60, 2, [0.5, 0.5], beta_ratio_omega(2, 0.2), target_avg_degree=10, seed=1)
    tracer = load_perfbench(monkeypatch, "tracing").Tracer()
    try:
        tracer.install()
        modelselect.detect(pabm, 2, modelselect.ModelKind.PABM, restarts=2)
        modelselect.detect(sbm, 2, modelselect.ModelKind.SBM, restarts=2)
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"spectral.ase", "cluster.minimize_q_subspace_rK", "cluster.minimize_q1"} <= names


def test_tracer_counts_the_replicates_of_each_bootstrap(monkeypatch, set_workers):
    # the benchmark's replicate metrics read the size of what the
    # bootstrap returns
    set_workers(1)
    g, _ = gen_sbm(60, 2, [0.5, 0.5], beta_ratio_omega(2, 0.2), target_avg_degree=10, seed=1)
    tracer = load_perfbench(monkeypatch, "tracing").Tracer()
    try:
        tracer.install()
        tracer.op = 0
        modelselect.run_workflow(g, 2, n_boot=3, restarts=2, seed=0)
    finally:
        tracer.uninstall()
    boots = [span for span in tracer.spans if span.name == "modelselect.bootstrap"]
    assert boots and all(span.info == {"replicates": 3} for span in boots)
    metrics = tracer.layer_metrics([0], traced_op_s=1.0)
    assert metrics["modelselect.replicates"] == 3 * len(boots)
