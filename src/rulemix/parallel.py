"""Independent calls in forked processes or in threads: the one place the package starts either.

Pure-Python work, such as the pendulum's RK4 steps, holds the GIL, so it
runs in processes: ``forked_map``. numpy work runs in threads:
``threaded_map``. numpy releases the GIL in its ufunc loops and BLAS calls,
so threads run its kernels at once, with no fork, no pickling and no
copy-on-write faults. Both return ``[fn(*task) for task in tasks]``, deal
the tasks round-robin into ``workers`` shares (share ``k`` holds tasks
``k``, ``k + workers``, ... and runs them in order, so tasks of one share
may share buffers) and run the last share in the caller. Each share stops
at the first of its tasks that raises; the results are merged in task
order, and the first task that did not return raises its exception in the
caller, as ``fn`` would have raised in a loop.

``forked_map`` forks one child per other share. A forked child inherits
the caller's modules and data, so nothing is sent to it, and no process
machinery is imported: ``os.fork`` and ``os.pipe`` do the work. A child
pickles its results into a pipe and exits.

A fork copies only the thread that calls it, so a lock another thread held
at that moment stays held in the child. Children may call BLAS only when
the caller runs a single OS thread, as ``worker_count(n, blas=True)``
checks: numpy's OpenBLAS starts a thread pool at import unless limited to
one thread (``OPENBLAS_NUM_THREADS=1``), and forked children then each
restart a pool and overload the cores. Pure-Python work needs only that no
other Python thread runs (``worker_count(n)``). The same BLAS gate holds
for ``threaded_map``: threads beside an unpinned BLAS pool overload the
cores as forked children do.

``threaded_map`` runs each share on a core of its own: each thread pins
itself to one of the caller's usable cores and the caller to another, and
the caller's own affinity is put back at the end. Linux starts a thread on
its parent's core, and on a 2-core x86-64 host did not move it within a
share's length: two threads running 12 ufuncs each over 6,000 x 64 arrays
took 5.1-5.8 ms unpinned and 2.6-2.7 ms pinned, against 2.3-2.8 ms for one
thread alone (medians of 40).

Every child is reaped before ``forked_map`` returns or raises, and killed
first if the caller itself fails. Every thread is joined before
``threaded_map`` returns or raises; a thread stops at its next task once
a task before that one has failed or the caller was interrupted. A thread
left running would also make ``worker_count`` turn off every later map in
the process.

Ctrl-C in a terminal sends SIGINT to every process of the foreground
group, children included. A child ignores it, so only the caller raises
``KeyboardInterrupt``; it then kills and reaps its children. A child
restores SIGTERM's default action, so one killed on its own still reads as
``WorkerDied``, while a caller whose SIGTERM handler raises (as
``cli.main`` installs) kills and reaps its children as on Ctrl-C. SIGINT
and SIGTERM are blocked from before each fork until the child has set its
handlers and the caller has registered the child, and while the caller
reaps: a signal in those windows waits, rather than reaching a child's
at-fork hooks or cutting the reaping short. A worker thread starts with
both blocked, so they reach the caller, and the caller blocks them while
it joins its threads after a failure.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable, Sequence

from .errors import WorkerDied

_HELD = {signal.SIGINT, signal.SIGTERM}  # blocked across each fork and thread start, and while reaping or joining


def os_threads() -> int | None:
    """The OS threads of this process, BLAS pool included; None where ``/proc/self/task`` cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def worker_count(n_tasks: int, blas: bool = False) -> int:
    """Workers a map should use for ``n_tasks`` tasks: the usable cores, at most one per task.

    1 where the platform cannot fork or report this process's CPU affinity,
    and in a process running other Python threads, one of which could hold
    a lock at the fork that a child would then wait on for ever. With
    ``blas``, for tasks that call BLAS, also 1 unless this process runs a
    single OS thread (see the module docstring), which also rules out other
    Python threads beside a ``threaded_map``.
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


def _child(fn: Callable, share: Sequence[tuple], read: int, write: int, mask: set) -> None:
    """Ignore SIGINT, run ``share``, send its outcome through ``write`` and exit, whatever happens.

    ``mask`` is the signal mask to restore, once SIGINT is ignored and SIGTERM
    has its default action; ``read`` is the caller's end of the pipe.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(read)
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
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, share, read, write, mask)
                children.append(pid)
                unread[pid] = read
            except OSError:  # the fork failed: no child reads or writes the pipe
                os.close(read)
                raise
            finally:  # the child never gets here: it exits in _child
                os.close(write)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a signal held back is handled now
        own = _run(fn, shares[-1])
        outcomes = [_receive(pid, unread.pop(pid)) for pid in children] + [own]
    finally:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)
        try:
            for pid in children:
                if pid in unread:  # the caller failed before reading this child, so it need not finish
                    os.close(unread.pop(pid))
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    merged = []
    for i in range(len(tasks)):
        results, exc = outcomes[i % workers]
        if i // workers == len(results):
            raise exc
        merged.append(results[i // workers])
    return merged


def _pin(cores: set[int]) -> None:
    """Run the calling thread on ``cores`` only; left as it is where the kernel refuses."""
    try:
        os.sched_setaffinity(0, cores)
    except OSError:
        pass


def threaded_map(fn: Callable, tasks: Sequence[tuple], workers: int) -> list:
    """``[fn(*task) for task in tasks]``, over ``workers`` threads; see the module docstring."""
    workers = max(1, min(workers, len(tasks)))  # task i still runs in share i % workers
    results: list = [None] * len(tasks)
    errors: dict[int, BaseException] = {}
    first_error = [len(tasks)]  # the first task in task order that raised so far
    lock = threading.Lock()
    stop = threading.Event()  # set once the caller was interrupted or failed
    # each share on a core of its own, the caller's put back at the end (see the module docstring)
    allowed = os.sched_getaffinity(0) if workers > 1 and hasattr(os, "sched_setaffinity") else set()
    cores = sorted(allowed)

    def run_share(k: int, catch: type[BaseException]) -> None:
        for i in range(k, len(tasks), workers):
            if stop.is_set() or i > first_error[0]:
                return
            try:
                results[i] = fn(*tasks[i])
            except catch as exc:
                errors[i] = exc
                with lock:
                    first_error[0] = min(first_error[0], i)
                return

    def run_thread(k: int) -> None:
        if cores:
            _pin({cores[k % len(cores)]})
        run_share(k, BaseException)

    threads: list[threading.Thread] = []
    try:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)  # a thread inherits the mask
        try:
            for k in range(workers - 1):
                threads.append(threading.Thread(target=run_thread, args=(k,), name=f"rulemix-{k}"))
                threads[-1].start()  # listed first: a handler that raises in start() leaves it to be joined
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if cores:
            _pin({cores[(workers - 1) % len(cores)]})
        run_share(workers - 1, Exception)  # anything else, such as KeyboardInterrupt, ends the map
        for thread in threads:
            thread.join()
    finally:
        stop.set()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)
        late = None  # raised by a handler of a signal that came before the block: raised once all are joined
        try:
            for thread in threads:
                while thread.is_alive():
                    try:
                        thread.join()
                    except BaseException as exc:
                        late = late or exc
            if cores:
                _pin(allowed)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if late is not None:
            raise late
    if errors:
        raise errors[min(errors)]
    return results
