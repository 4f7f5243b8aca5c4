"""The warm worker pool: one fork per process, reused by every pooled call
until the worker count changes or a worker dies."""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import blockselect
import blockselect.modelselect as ms
from blockselect import _pool, cluster
from blockselect.blockmodels import SbmParams, edge_probs, gen_pabm
from blockselect.cli import main
from blockselect.modelselect import ModelKind, detect

from conftest import RECORDED_UNDER, running_environment, solution_bytes

# a two-block null the size of the karate club
_NULL = edge_probs(SbmParams(
    k=2, omega=np.array([[0.3, 0.05], [0.05, 0.3]]), labels=np.repeat([1, 2], 17)))


def _children() -> set[int]:
    """The process ids of this process's live child processes."""
    return {p.pid for p in multiprocessing.active_children()}


def _two_detects(g) -> list:
    """Two consecutive detections; a one-byte block budget gives each of
    them six restart blocks."""
    return [solution_bytes(detect(g, 2, model, 6, seed=17))
            for model in (ModelKind.DCBM, ModelKind.PABM)]


def _two_bootstraps() -> list[bytes]:
    """Two consecutive bootstraps of the real null statistic."""
    return [ms._bootstrap_statistics(_NULL, 12, seed, ms._null_statistic(2, model, 3)).stats
            .tobytes() for seed, model in ((5, ModelKind.SBM), (6, ModelKind.DCBM))]


def test_consecutive_detects_run_on_the_same_workers(monkeypatch, set_workers, block_pids):
    g, _ = gen_pabm(120, 2, density_scale=0.2, seed=5)
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 1)
    set_workers(2)
    first = solution_bytes(detect(g, 2, ModelKind.DCBM, 6, seed=17))
    workers = _children()
    second = solution_bytes(detect(g, 2, ModelKind.PABM, 6, seed=17))
    # no second fork: the same two workers ran the blocks of both calls
    assert len(workers) == 2 and _children() == workers
    pids = block_pids()
    assert len(pids) == 12 and set(pids) <= workers
    for count in (1, 3):
        set_workers(count)
        assert _two_detects(g) == [first, second]


def test_consecutive_bootstraps_run_on_the_same_workers(set_workers):
    set_workers(2)
    got = [_two_bootstraps()]
    workers = _children()
    got.append(_two_bootstraps())
    assert len(workers) == 2 and _children() == workers
    for count in (1, 3):
        set_workers(count)
        got.append(_two_bootstraps())
    assert all(run == got[0] for run in got)


def test_consecutive_selects_write_the_same_report(tmp_path, set_workers, karate_path):
    argv = ["select", str(karate_path), "--k", "2", "--boot", "20", "--seed", "3"]
    reports = []
    for count in (2, 2, 1, 3):
        set_workers(count)
        out = tmp_path / f"out{len(reports)}"
        assert main([*argv, "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert len(set(reports)) == 1


def test_a_new_worker_count_forks_a_fresh_pool(set_workers):
    set_workers(2)
    want = _two_bootstraps()
    before = _children()
    set_workers(3)
    assert _two_bootstraps() == want
    after = _children()
    assert len(before) == 2 and len(after) == 3 and not before & after


def test_a_killed_worker_is_replaced_by_a_fresh_pool(set_workers):
    set_workers(2)
    want = _two_bootstraps()
    victim, survivor = multiprocessing.active_children()
    os.kill(victim.pid, signal.SIGKILL)
    # the worker has exited once its sentinel is ready
    assert multiprocessing.connection.wait([victim.sentinel], timeout=60)
    assert _two_bootstraps() == want
    after = _children()
    assert len(after) == 2 and not {victim.pid, survivor.pid} & after


def test_a_foreign_thread_keeps_the_units_in_this_process(monkeypatch, set_workers, block_pids):
    # forking a process that runs other threads is unsafe; with no pool
    # warm yet, every restart block runs here
    g, _ = gen_pabm(120, 2, density_scale=0.2, seed=5)
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 1)
    set_workers(1)
    want = _two_detects(g)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        set_workers(2)
        assert _two_detects(g) == want
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert set(block_pids()) == {os.getpid()} and not _children()


def test_a_process_with_a_warm_pool_exits():
    # the workers end with the process that forked them
    code = ("import multiprocessing; from blockselect import _pool, cluster; "
            "from blockselect.blockmodels import gen_pabm; "
            "from blockselect.modelselect import ModelKind, detect; "
            "_pool.workers = lambda: 2; cluster._BLOCK_BYTES = 1; "
            "detect(gen_pabm(120, 2, density_scale=0.2, seed=5)[0], 2, ModelKind.PABM, 6); "
            "print(len(multiprocessing.active_children()))")
    src = str(Path(blockselect.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["2"]


def _ended(pid: int) -> bool:
    """Whether process ``pid`` has exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states in /proc")
def test_the_workers_of_a_killed_process_exit():
    # a process killed without shutting its pool down leaves no idle workers
    code = ("import multiprocessing, sys, time; from blockselect import _pool, cluster; "
            "from blockselect.blockmodels import gen_pabm; "
            "from blockselect.modelselect import ModelKind, detect; "
            "_pool.workers = lambda: 2; cluster._BLOCK_BYTES = 1; "
            "detect(gen_pabm(120, 2, density_scale=0.2, seed=5)[0], 2, ModelKind.PABM, 6); "
            "print(*[p.pid for p in multiprocessing.active_children()], flush=True); "
            "time.sleep(120)")
    src = str(Path(blockselect.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, text=True)
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
    finally:
        proc.kill()
        proc.wait(timeout=60)
    assert len(pids) == 2
    deadline = time.monotonic() + 60
    while not all(_ended(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(_ended(pid) for pid in pids)


@pytest.mark.skipif(not _pool.openblas_symbols("get_corename"), reason="no OpenBLAS library found")
def test_the_suite_runs_where_its_digests_were_recorded():
    # the digest tests hold only under the kernel and versions they were
    # recorded under; a runner without them fails here, under its own name
    assert running_environment() == RECORDED_UNDER


_LATE_BLAS_CODE = """
import json
from blockselect import _pool, spectral
from blockselect.blockmodels import SbmParams, edge_probs, gen_pabm, sample_graph
from blockselect.modelselect import ModelKind, detect, test_sbm_vs_dcbm
import numpy as np

def counts():
    return [get() for get, _ in _pool._openblas_thread_counts()]

inside = []
def recording_eigsh(*args, _original=spectral.eigsh, **kwargs):
    inside.append(counts())
    return _original(*args, **kwargs)

def large_detect(seed):
    inside.clear()
    detect(gen_pabm(600, 2, density_scale=0.05, seed=seed)[0], 2, ModelKind.DCBM, 2)
    return inside[:], counts()

spectral.eigsh = recording_eigsh
_pool.workers = lambda: 2
small = sample_graph(edge_probs(SbmParams(
    k=2, omega=np.array([[0.3, 0.05], [0.05, 0.3]]), labels=np.repeat([1, 2], 20))), 1)
# forks the pool, then detects in this process, neither loading scipy
test_sbm_vs_dcbm(small, 2, n_boot=4, restarts=2)
detect(small, 2, ModelKind.DCBM, 2)
small_counts = counts()
main = large_detect(3)
with _pool.ordered_results(large_detect, [4, 5]) as results:
    workers = list(results)
print(json.dumps({"small": small_counts, "main": main, "workers": workers}))
"""


def test_the_pin_covers_an_openblas_loaded_late():
    # scipy's OpenBLAS loads with the first Lanczos solve, inside the pin of
    # a detection in this process or in a worker forked before it loaded;
    # the solve's own pin runs both libraries on one thread
    src = str(Path(blockselect.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _LATE_BLAS_CODE],
                         env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="4"),
                         capture_output=True, text=True, check=True, timeout=120)
    got = json.loads(out.stdout.splitlines()[-1])
    # numpy's library alone, at the count it took from the environment:
    # OpenBLAS takes no more threads than there are CPUs
    if len(got["small"]) != 1 or got["small"][0] == 1:
        pytest.skip("needs numpy's OpenBLAS alone, on more than one thread")
    (loaded,) = got["small"]
    inside, after = got["main"]
    # each wheel bundles its own library; both read 1 inside the solve, and
    # after it the count each took from the environment
    assert inside == [[1, 1]] and after == [loaded, loaded]
    for inside, after in got["workers"]:
        # a worker's numpy library keeps the pin it was forked in
        assert inside == [[1, 1]] and sorted(after) == [1, loaded]
