"""The benchmark checks every operation's outputs against its recorded
``perfbench/reference/``; one pool entry of each workload runs here, so a
change that moves an output bit fails the suite as well as the benchmark."""

from __future__ import annotations

import pytest

from conftest import load_perfbench

_WORKLOADS = ["karate_select", "dcbm_test_n600", "sbm_test_n6000", "pabm_detect_n900"]


@pytest.mark.parametrize("name", _WORKLOADS)
def test_workload_matches_its_recorded_reference(monkeypatch, tmp_path, name):
    workloads = load_perfbench(monkeypatch, "workloads")
    assert sorted(workloads.WORKLOADS) == sorted(_WORKLOADS)
    workload = workloads.WORKLOADS[name]
    entry = workload.pool[0]
    out = workload.run(workload.build(entry), entry, tmp_path)
    assert workloads.mismatches(workloads.load_reference(name)[entry], out) == []
