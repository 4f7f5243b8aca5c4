"""One private fork pool for every parallel loop in the package, and the
one thread policy of every run: processes for parallelism, one BLAS
thread everywhere.

``ordered_results(fn, units)`` yields ``fn(unit)`` for each unit, in unit
order; ``fn`` is a plain callable (a closure or ``functools.partial``).
The bootstrap's replicate chunks and the minimizers' descents are its two
callers. Units run in forked workers, one per CPU this process may
run on, which inherit ``fn`` and ``units``: only a unit's index and its
result are pickled. A unit's exception is raised when its result is read.
A unit may instead return an error (``returned``) for its caller to raise
in order (``raise_returned``), from the worker's traceback text, which
pickling would drop.

Units run in this process instead when there is one worker or one unit,
when the platform has no ``fork``, when other threads are running (fork
is unsafe then), or when this process is itself a pool worker: a
minimization inside a bootstrap replicate stays in that replicate's
worker rather than forking a pool of its own.

The policy. Parallel work runs on one worker per CPU in the affinity
mask (``workers``), so ``taskset -c 0`` runs serially, in this process.
BLAS runs on one thread everywhere: the workers already occupy every CPU,
and some LAPACK results differ in the last bits between one thread and
several. ``one_blas_thread`` pins every OpenBLAS library it finds around
each pool run, detection and spectral-clustering baseline, which is all
the BLAS work of a run. The CLI also sets ``THREAD_VARS`` to 1 before it
loads numpy, which reaches the builds the pin cannot find (MKL numpy, or
no /proc/self/maps). Outputs are therefore byte-identical at any worker
count, and there is no other configuration.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os
import threading
import traceback
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import NoReturn

# the thread counts BLAS and OpenMP libraries read when they load
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _openblas_thread_counts() -> tuple[tuple[Callable, Callable], ...]:
    """The ``openblas_get_num_threads`` and ``openblas_set_num_threads`` of
    every OpenBLAS library loaded in this process (the numpy and scipy
    wheels each bundle one, under a ``scipy_`` prefix and a ``64_`` suffix
    or not). Finds none where /proc/self/maps does not exist.

    Reading the maps and resolving the symbols take about 2 ms, so it is
    done once: the modules that use this pool import numpy and
    ``scipy.sparse.linalg``, which load both libraries, before anything
    here runs.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # mapped file since replaced or removed
            continue

        def symbol(fn: str):
            names = (f"{pre}openblas_{fn}{post}" for pre in ("", "scipy_") for post in ("", "64_"))
            return next((getattr(lib, n) for n in names if hasattr(lib, n)), None)

        get, set_ = symbol("get_num_threads"), symbol("set_num_threads")
        if get is not None and set_ is not None:
            found.append((get, set_))
    return tuple(found)


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with every loaded OpenBLAS library on one thread, and
    restore each library's own count on exit, also after an exception."""
    restore = []
    try:
        for get, set_ in _openblas_thread_counts():
            restore.append((set_, get()))
            set_(1)
        yield
    finally:
        for set_, count in restore:
            set_(count)


def workers() -> int:
    """Pool processes: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# (fn, units), set in each worker process only, by the initializer
_WORKER: tuple | None = None


def in_worker() -> bool:
    """Whether this process is a pool worker."""
    return _WORKER is not None


class WorkerTraceback(Exception):
    """The traceback text of an error a unit returned in a worker process."""


def returned(exc: Exception) -> Exception:
    """``exc``, for a unit to return: in a worker, with its traceback text
    in its ``__dict__``, which pickling keeps."""
    if in_worker():
        exc._worker_traceback = "".join(traceback.format_exception(exc))
    return exc


def raise_returned(exc: Exception) -> NoReturn:
    """Raise ``exc`` from the worker traceback text ``returned`` kept, if any."""
    text = getattr(exc, "_worker_traceback", "")
    raise exc from (WorkerTraceback(text) if text else None)


def _init_worker(fn, units) -> None:
    global _WORKER
    _WORKER = (fn, units)


def _run_unit(i: int):
    fn, units = _WORKER
    return fn(units[i])


@contextlib.contextmanager
def ordered_results(fn: Callable, units: Sequence) -> Iterator[Iterator]:
    """Yield an iterator over ``fn(unit)`` for each of ``units``, in unit
    order; reading a unit whose call raised raises its exception. ``fn``
    reaches the workers through ``fork``, so it may be a closure.

    Every unit runs on one BLAS thread, so a unit does the same arithmetic
    in a worker as in this process. The workers inherit that setting
    through ``fork``; a BLAS thread pool per worker would oversubscribe
    the CPUs (a DCBM test at n=300 with B=40 ran ten times slower on 2
    CPUs).

    In this process the units run one by one as the iterator is read, so
    units after the last one read never run. In the pool, units not yet
    started when the body exits are dropped.
    """
    n_workers = min(workers(), len(units))
    with one_blas_thread():
        if (
            n_workers <= 1
            or in_worker()
            or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1
        ):
            yield (fn(unit) for unit in units)
            return
        pool = ProcessPoolExecutor(
            n_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(fn, units),
        )
        try:
            futures = [pool.submit(_run_unit, i) for i in range(len(units))]
            yield (f.result() for f in futures)
        finally:
            pool.shutdown(cancel_futures=True)
