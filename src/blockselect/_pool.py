"""One private pool of worker processes for every parallel loop in the
package, and the one thread policy of every run: processes for
parallelism, one BLAS thread everywhere.

``ordered_results(fn, units)`` yields ``fn(unit)`` for each unit, in unit
order. The bootstrap's replicate chunks and the minimizers' descents are
its two callers. The units run on this process's warm pool: one worker
per CPU this process may run on, forked by the first call that needs
them, which live until the process ends, the worker count changes or a
worker dies; the next call then forks a fresh pool (``shutdown`` ends it
earlier). Each unit ships ``fn`` and the unit to a worker by ``pickle``,
so both must pickle: module-level functions, ``functools.partial``s of
them and plain data, not closures or lambdas. A worker sees module
globals, such as a function a test patched, as they were when the pool
forked. A unit's exception is raised when its result is read. A unit may
instead return an error (``returned``) for its caller to raise in order
(``raise_returned``), from the worker's traceback text, which pickling
would drop.

Units run in this process instead when there is one worker or one unit,
when the platform has no ``fork``, when this process is itself a pool
worker (a minimization inside a bootstrap replicate stays in that
replicate's worker rather than forking a pool of its own), or when no pool
is warm yet and other threads are running (fork is unsafe then).

The policy. Parallel work runs on one worker per CPU in the affinity
mask (``workers``), so ``taskset -c 0`` runs serially, in this process.
BLAS runs on one thread everywhere: the workers already occupy every CPU,
and some LAPACK results differ in the last bits between one thread and
several. ``one_blas_thread`` pins every OpenBLAS library it finds around
each pool run, detection, spectral-clustering baseline and Lanczos solve,
which is all the BLAS work of a run; the workers are forked inside that
pin and keep one thread for their life. scipy's library, which only the
Lanczos solve uses, may load after a pin was entered or a worker forked:
the solve's own pin finds it. The CLI also sets ``THREAD_VARS`` to 1 before
it loads numpy, which reaches the builds the pin cannot find (MKL numpy,
or no /proc/self/maps). Outputs are therefore byte-identical at any
worker count, and there is no other configuration.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import multiprocessing.connection
import os
import threading
import traceback
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor, wait
from typing import NoReturn

# the thread counts BLAS and OpenMP libraries read when they load
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def openblas_symbols(*fns: str) -> tuple[tuple[Callable, ...], ...]:
    """The ``openblas_<fn>`` of each of ``fns``, for every OpenBLAS library
    loaded in this process that has them all (the numpy and scipy wheels
    each bundle one, under a ``scipy_`` prefix and a ``64_`` suffix or
    not). Finds none where /proc/self/maps does not exist.

    Reading the maps and resolving the symbols take about 2 ms, so the
    result is kept. numpy's library loads with numpy, before anything here
    runs. scipy's loads later, with the first import of
    ``scipy.sparse.linalg`` or ``scipy.sparse.csgraph``, and only the
    Lanczos solve does BLAS work in it, so ``spectral`` clears the kept
    result after it imports ``scipy.sparse.linalg``.
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

        functions = tuple(symbol(fn) for fn in fns)
        if None not in functions:
            found.append(functions)
    return tuple(found)


_openblas_thread_counts = functools.partial(openblas_symbols, "get_num_threads", "set_num_threads")


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


# this process's warm pool, keyed by (process id, worker count)
_POOL: tuple[tuple[int, int], ProcessPoolExecutor] | None = None
# set in each worker process only, by the initializer
_IN_WORKER = False


def in_worker() -> bool:
    """Whether this process is a pool worker."""
    return _IN_WORKER


def _init_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    # an idle worker waits for units as long as its parent lives, so it
    # ends itself when its parent dies without shutting the pool down
    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=_exit_after, args=(sentinel,), daemon=True).start()


def _exit_after(sentinel) -> None:
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


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


def _usable(pool: ProcessPoolExecutor) -> bool:
    """Whether every worker of ``pool`` is alive: a worker's sentinel is
    ready from its exit on, before the executor's own thread marks the
    pool broken."""
    sentinels = [p.sentinel for p in pool._processes.values()]
    return not pool._broken and not multiprocessing.connection.wait(sentinels, timeout=0)


def shutdown() -> None:
    """End this process's pool, after its running units; the next pooled
    call forks a fresh one. A pool inherited through ``fork`` belongs to
    the parent process, and is only forgotten."""
    global _POOL
    if _POOL is not None and _POOL[0][0] == os.getpid():
        pool = _POOL[1]
        if not _usable(pool):
            # an idle worker waits for its next unit holding the lock on
            # the unit queue; if it died holding it, the others never see
            # the shutdown, so they are stopped first
            for p in pool._processes.values():
                p.terminate()
        pool.shutdown(cancel_futures=True)
    _POOL = None


def _warm_pool() -> ProcessPoolExecutor | None:
    """This process's pool of ``workers()`` processes, made now if there is
    none usable; ``None`` if there is none and other threads are running.
    The executor forks its workers at the first unit submitted to it."""
    global _POOL
    key = (os.getpid(), workers())
    if _POOL is not None and (_POOL[0] != key or not _usable(_POOL[1])):
        shutdown()
    if _POOL is None and threading.active_count() == 1:
        _POOL = key, ProcessPoolExecutor(
            key[1], mp_context=multiprocessing.get_context("fork"), initializer=_init_worker
        )
    return None if _POOL is None else _POOL[1]


@contextlib.contextmanager
def ordered_results(fn: Callable, units: Sequence) -> Iterator[Iterator]:
    """Yield an iterator over ``fn(unit)`` for each of ``units``, in unit
    order; reading a unit whose call raised raises its exception. On the
    pool, ``fn`` and each unit are pickled to a worker.

    Every unit runs on one BLAS thread, so a unit does the same arithmetic
    in a worker as in this process. The workers inherit that setting
    through ``fork``; a BLAS thread pool per worker would oversubscribe
    the CPUs (a DCBM test at n=300 with B=40 ran ten times slower on 2
    CPUs).

    In this process the units run one by one as the iterator is read, so
    units after the last one read never run. On the pool, units not yet
    started when the body exits are cancelled, and the body's exit waits
    for those running.
    """
    with one_blas_thread():
        pool = None
        if (
            len(units) > 1
            and workers() > 1
            and not in_worker()
            and "fork" in multiprocessing.get_all_start_methods()
        ):
            pool = _warm_pool()
        if pool is None:
            yield (fn(unit) for unit in units)
            return
        futures = [pool.submit(fn, unit) for unit in units]
        try:
            yield (f.result() for f in futures)
        finally:
            for f in futures:
                f.cancel()
            wait(futures)
