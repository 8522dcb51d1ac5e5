"""The fork runner: a list of independent runs, split over forked worker processes."""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import threading

from .errors import DcqeError


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, or every CPU where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _worker_count(count: int) -> int:
    """Worker processes ``_run_all`` forks for ``count`` runs; below two it forks none.

    One per CPU in the affinity mask, at most ``count``. The runs stay in
    this process where processes cannot be forked, or while other threads run
    (a lock one of them holds would stay held in the forked copy).
    """
    serial = not hasattr(os, "fork") or threading.active_count() > 1
    return 1 if serial else max(1, min(_available_cpus(), count))


def _keep_freed_memory() -> None:
    """Keep freed blocks under 64 MB in the heap, where there is glibc's ``mallopt``.

    Raising only one of the trim and mmap thresholds leaves most page faults."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        for option in (-1, -3):  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD
            mallopt(option, 64 << 20)


def _serve_range(run, start: int, stop: int, sink) -> None:
    """A forked worker: pickle its runs' results, or what stopped them, into ``sink``; exit 0."""
    try:
        outcome = True, [run(i) for i in range(start, stop)]
    except BaseException as exc:  # the parent raises it again
        outcome = False, exc
    pickle.dump(outcome, sink, pickle.HIGHEST_PROTOCOL)
    sink.flush()
    sys.stdout.flush()
    os._exit(0)  # not through the parent's exit handlers


def _run_all(run, count: int, workers: int | None = None) -> list:
    """``[run(i) for i in range(count)]``, split over ``workers`` (by default
    ``_worker_count(count)``) forked processes; below two it forks none.

    Each worker is forked after set-up, so it inherits ``run`` and its data,
    runs one contiguous range of indices and sends back its outcome through
    a pipe of its own. Every worker is reaped before this returns or raises:
    the first failing range's exception, or ``DcqeError`` for a dead worker.
    On glibc each worker keeps what it frees for its next runs' n x k
    temporaries, which would otherwise fault in fresh pages; this process's
    allocator is left as it is.
    """
    workers = _worker_count(count) if workers is None else workers
    if workers < 2:
        return [run(i) for i in range(count)]
    bounds = [count * k // workers for k in range(workers + 1)]
    sys.stdout.flush()  # or the workers would inherit the buffered text
    pending, outcomes = [], []  # pending: [read end, pid until reaped] per worker, in order
    try:
        for start, stop in zip(bounds, bounds[1:]):
            read_fd, write_fd = os.pipe()
            pending.append([read_fd, None])
            with open(write_fd, "wb") as sink:
                pending[-1][1] = pid = os.fork()
                if pid == 0:  # the worker
                    try:
                        _keep_freed_memory()
                        _serve_range(run, start, stop, sink)
                    finally:
                        os._exit(1)
        for entry in pending:
            with open(entry[0], "rb", closefd=False) as source:
                payload = source.read()
            code = os.waitstatus_to_exitcode(os.waitpid(entry[1], 0)[1])
            entry[1] = None
            outcomes.append(pickle.loads(payload) if code == 0 else (False, DcqeError(
                "a worker process died: "
                + (f"killed by signal {-code}" if code < 0 else f"exit code {code}"))))
    finally:
        for fd, pid in pending:
            os.close(fd)
            if pid:  # still running only when this process is leaving by an exception
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [result for _, results in outcomes for result in results]
