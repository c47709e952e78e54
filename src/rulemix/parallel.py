"""Independent calls in forked worker processes: the one place the package starts processes.

``forked_map(fn, tasks, workers)`` returns ``[fn(*task) for task in
tasks]``. Tasks are dealt round-robin into ``workers`` shares: the calling
process runs the last share itself, and one child forked from it runs each
other share, pickles its results into a pipe and exits. A forked child
inherits the caller's modules and data, so nothing is sent to it, and no
process machinery is imported: ``os.fork`` and ``os.pipe`` do the work.

A fork copies only the thread that calls it, so a lock another thread held
at that moment stays held in the child. Children may call BLAS only when
the caller runs a single OS thread, as ``worker_count(n, blas=True)``
checks: numpy's OpenBLAS starts a thread pool at import unless limited to
one thread (``OPENBLAS_NUM_THREADS=1``), and forked children then each
restart a pool and overload the cores. Pure-Python work, such as the
pendulum's RK4 steps, needs only that no other Python thread runs
(``worker_count(n)``).

Each share runs its tasks in order and stops at the first that raises.
The results are merged in task order, and the first task that did not
return raises its exception in the caller, as ``fn`` would have raised in
a loop. Every child is reaped before ``forked_map`` returns or raises, and
killed first if the caller itself fails.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable, Sequence

from .errors import WorkerDied


def os_threads() -> int | None:
    """The OS threads of this process, BLAS pool included; None where ``/proc/self/task`` cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def worker_count(n_tasks: int, blas: bool = False) -> int:
    """Processes ``forked_map`` should use for ``n_tasks`` tasks: the usable cores, at most one per task.

    1 where the platform cannot fork or report this process's CPU affinity,
    and in a process running other Python threads, one of which could hold
    a lock at the fork that a child would then wait on for ever. With
    ``blas``, for tasks that call BLAS, also 1 unless this process runs a
    single OS thread (see the module docstring).
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    if blas and os_threads() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_tasks))


def _run(fn: Callable, tasks: Sequence[tuple]) -> tuple[list, BaseException | None]:
    """(the results of ``tasks`` up to the first that raised, that exception or None)."""
    results = []
    try:
        for task in tasks:
            results.append(fn(*task))
    except Exception as exc:
        return results, exc
    return results, None


def _child(fn: Callable, share: Sequence[tuple], write: int) -> None:
    """Run ``share``, send its outcome through ``write`` and exit, whatever happens."""
    try:
        results, exc = _run(fn, share)
        try:
            payload = pickle.dumps((results, exc))
        except Exception:  # an exception that does not pickle reaches the caller by name and message
            payload = pickle.dumps((results, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(write, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)  # no atexit handler, buffered output or test hook of the parent runs twice


def _receive(pid: int, read: int) -> tuple[list, BaseException | None]:
    """The outcome child ``pid`` sent through ``read``, once it has closed its end."""
    with open(read, "rb") as fh:
        payload = fh.read()
    if not payload:  # peek at how it ended, leaving the child for forked_map to reap
        info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        ended = (f"exit status {info.si_status}" if info.si_code == os.CLD_EXITED
                 else f"signal {signal.Signals(info.si_status).name}")
        raise WorkerDied(f"worker process {pid} ended without a result ({ended})")
    return pickle.loads(payload)


def forked_map(fn: Callable, tasks: Sequence[tuple], workers: int) -> list:
    """``[fn(*task) for task in tasks]``, over ``workers`` processes; see the module docstring."""
    shares = [tasks[k::workers] for k in range(workers)]
    children: list[int] = []
    unread: dict[int, int] = {}  # child pid -> read end of its pipe, until read
    try:
        for share in shares[:-1]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _child(fn, share, write)
            os.close(write)
            children.append(pid)
            unread[pid] = read
        own = _run(fn, shares[-1])
        outcomes = [_receive(pid, unread.pop(pid)) for pid in children] + [own]
    finally:
        for pid in children:
            if pid in unread:  # the caller failed before reading this child, so it need not finish
                os.close(unread.pop(pid))
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    merged = []
    for i in range(len(tasks)):
        results, exc = outcomes[i % workers]
        if i // workers == len(results):
            raise exc
        merged.append(results[i // workers])
    return merged
