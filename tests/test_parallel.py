"""``parallel.forked_map``: results in task order, errors as a loop raises them, no process left behind."""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import rulemix.parallel
from helpers import assert_reaped
from rulemix.errors import WorkerDied
from rulemix.parallel import forked_map, os_threads, worker_count


def power(base, exponent):
    return base**exponent, os.getpid()


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle")


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_results_come_back_in_task_order(forks, workers):
    tasks = [(k, 3) for k in range(7)]
    got = forked_map(power, tasks, workers)
    assert [value for value, _ in got] == [k**3 for k in range(7)]
    assert len(forks) == workers - 1
    assert len({pid for _, pid in got}) == workers  # every share ran in its own process
    assert_reaped(forks)


def test_the_first_error_in_task_order_is_raised(forks):
    def failing(k):
        if k in (1, 2):  # task 1 runs in a forked worker, task 2 in the caller
            raise ValueError(f"task {k}")
        return k

    with pytest.raises(ValueError, match="^task 1$"):
        forked_map(failing, [(k,) for k in range(6)], 3)
    assert_reaped(forks)


def test_an_error_that_does_not_pickle_reaches_the_caller_by_name(forks):
    def failing(k):
        if k == 0:
            raise Unpicklable("no way back")
        return k

    with pytest.raises(RuntimeError, match="^Unpicklable: no way back$"):
        forked_map(failing, [(0,), (1,)], 2)
    assert_reaped(forks)


def test_a_worker_that_dies_is_an_error(forks):
    def dying(k):
        if k == 0:
            os._exit(3)
        return k

    with pytest.raises(RuntimeError, match="ended without a result"):
        forked_map(dying, [(0,), (1,)], 2)
    assert_reaped(forks)


def test_a_worker_killed_by_a_signal_is_named_with_it(forks):
    def killed(k):
        if k == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return k

    with pytest.raises(WorkerDied) as caught:
        forked_map(killed, [(0,), (1,)], 2)
    assert str(caught.value) == f"worker process {forks[0]} ended without a result (signal SIGKILL)"
    assert_reaped(forks)


def test_workers_are_killed_when_the_caller_fails(forks):
    class Interrupted(BaseException):
        pass

    caller = os.getpid()

    def slow_in_workers(k):
        if os.getpid() == caller:
            raise Interrupted
        time.sleep(60)

    started = time.perf_counter()
    with pytest.raises(Interrupted):
        forked_map(slow_in_workers, [(k,) for k in range(3)], 3)
    assert time.perf_counter() - started < 30 and len(forks) == 2
    assert_reaped(forks)


def test_worker_count_is_bounded_by_tasks_and_cores():
    cores = len(os.sched_getaffinity(0))
    assert worker_count(1) == 1
    assert worker_count(5000) == cores
    assert worker_count(2) == min(2, cores)


def test_a_process_with_other_threads_does_not_fork():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert worker_count(5000) == 1
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()


@pytest.mark.parametrize("threads,blas_workers", [(1, None), (2, 1), (None, 1)])
def test_work_that_calls_blas_forks_only_from_one_os_thread(monkeypatch, threads, blas_workers):
    cores = len(os.sched_getaffinity(0))
    monkeypatch.setattr(rulemix.parallel, "os_threads", lambda: threads)
    assert worker_count(5000, blas=True) == (cores if blas_workers is None else blas_workers)
    assert worker_count(5000) == cores  # pure-Python work ignores threads Python does not run


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count OS threads")
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS starts no pool on one core")
def test_numpy_runs_one_os_thread_only_with_one_blas_thread():
    def threads_after_import(blas_threads: str) -> int:
        env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["OPENBLAS_NUM_THREADS"] = blas_threads
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)  # where this process found rulemix
        code = "import numpy, rulemix.parallel; print(rulemix.parallel.os_threads())"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return int(out.stdout)

    assert threads_after_import("2") > 1
    assert threads_after_import("1") == 1
    assert os_threads() >= 1


def test_a_child_ignores_sigint_and_the_caller_keeps_its_handler(forks):
    # Ctrl-C reaches every process of the group: a child carries on, and only the caller is interrupted
    caller = os.getpid()

    def interrupted(k):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.05)  # time for a handler to run, had it not been ignored
        return signal.getsignal(signal.SIGINT)

    assert forked_map(interrupted, [(0,), (1,)], 2) == [signal.SIG_IGN, signal.default_int_handler]
    assert signal.pthread_sigmask(signal.SIG_BLOCK, set()) == set()  # nothing left blocked in the caller
    assert_reaped(forks)


def test_a_child_dies_of_sigterm_whatever_handler_the_caller_installed(forks):
    # cli.main's handler raises KeyboardInterrupt; a child that kept it would end with exit status 0
    def sigterm(k):
        if k == 0:
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(1)  # time for a handler to run, had the default action not been restored
        return k

    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        with pytest.raises(WorkerDied) as caught:
            forked_map(sigterm, [(0,), (1,)], 2)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert str(caught.value) == f"worker process {forks[0]} ended without a result (signal SIGTERM)"
    assert signal.pthread_sigmask(signal.SIG_BLOCK, set()) == set()  # nothing left blocked in the caller
    assert_reaped(forks)


def test_an_interrupted_caller_kills_and_reaps_its_children(forks):
    caller = os.getpid()

    def interrupted(k):
        if os.getpid() == caller:
            os.kill(caller, signal.SIGINT)
        time.sleep(30)  # only the kill ends a child

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        forked_map(interrupted, [(0,), (1,), (2,)], 3)
    assert time.monotonic() - started < 20
    assert len(forks) == 2
    assert_reaped(forks)
