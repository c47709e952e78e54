"""``parallel.forked_map`` and ``threaded_map``: results in task order, errors as a loop raises them, no worker left."""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import rulemix.parallel
from helpers import assert_joined, assert_reaped
from rulemix.errors import WorkerDied
from rulemix.parallel import forked_map, os_threads, threaded_map, worker_count


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


# ----------------------------------------------------------------------
# threaded_map: the contract of forked_map, on threads of this process
# ----------------------------------------------------------------------


def thread_name(k):
    return k, threading.current_thread().name


@pytest.mark.parametrize("workers", [1, 2, 3, 7, 9])
def test_threads_return_results_in_task_order(threads, workers):
    baseline = threading.active_count()
    got = threaded_map(thread_name, [(k,) for k in range(7)], workers)
    assert [k for k, _ in got] == list(range(7))
    used = min(workers, 7)  # at most one thread per task
    assert len(threads) == used - 1
    # share k runs tasks k, k + workers, ...: the caller runs the last share, a thread each other one
    assert [name for _, name in got] == [
        threading.main_thread().name if k % used == used - 1 else f"rulemix-{k % used}" for k in range(7)
    ]
    assert_joined(threads, baseline)


def test_threads_raise_the_first_error_in_task_order(threads):
    def failing(k):
        if k == 1:  # in a thread's share, raised after task 2
            time.sleep(0.05)
            raise ValueError("task 1")
        if k == 2:  # in the caller's share
            raise ValueError("task 2")
        return k

    baseline = threading.active_count()
    with pytest.raises(ValueError, match="task 1"):
        threaded_map(failing, [(k,) for k in range(6)], 3)
    assert_joined(threads, baseline)


def test_a_thread_stops_at_its_next_task_once_an_earlier_task_failed(threads):
    ran, begun = [], threading.Event()

    def failing(k):
        ran.append(k)
        if k == 0:  # in the thread's share: fails while the caller runs task 1
            begun.wait(10)
            raise ValueError("task 0")
        begun.set()
        time.sleep(0.05)
        return k

    with pytest.raises(ValueError, match="task 0"):
        threaded_map(failing, [(k,) for k in range(8)], 2)
    assert sorted(ran) == [0, 1]  # task 1, begun before task 0 failed, ran to its end; tasks 2 to 7 did not start


def test_an_interrupted_caller_stops_and_joins_its_threads(threads):
    def interrupted(k):
        if threading.current_thread() is threading.main_thread():
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(5)  # the handler's KeyboardInterrupt ends this
        time.sleep(0.05)
        return k

    baseline = threading.active_count()
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        threaded_map(interrupted, [(k,) for k in range(60)], 3)
    assert time.monotonic() - started < 2  # each thread stopped at its next task, not after its 20
    assert_joined(threads, baseline)
    assert signal.pthread_sigmask(signal.SIG_BLOCK, set()) == set()  # nothing left blocked in the caller


def test_a_thread_starts_with_sigint_and_sigterm_blocked(threads):
    got = threaded_map(lambda k: signal.pthread_sigmask(signal.SIG_BLOCK, set()), [(0,), (1,)], 2)
    assert got == [{signal.SIGINT, signal.SIGTERM}, set()]  # so signals reach the caller, which handles them


def test_a_base_exception_in_a_thread_reaches_the_caller(threads):
    def exiting(k):
        if threading.current_thread() is not threading.main_thread():
            raise SystemExit(3)
        return k

    baseline = threading.active_count()
    with pytest.raises(SystemExit):
        threaded_map(exiting, [(0,), (1,)], 2)
    assert_joined(threads, baseline)


def test_a_threaded_map_leaves_later_forked_maps_their_workers(threads, forks):
    threaded_map(thread_name, [(k,) for k in range(4)], 2)
    assert worker_count(5000) == len(os.sched_getaffinity(0))  # no thread of the map is left to turn forks off
    assert [value for value, _ in forked_map(power, [(2, 3), (3, 2)], 2)] == [8, 9]
    assert len(forks) == 1
    assert_reaped(forks)


@pytest.mark.parametrize("failing", [(), (137,), (5, 61, 190), (0,)])
def test_threads_keep_order_and_the_first_error_under_frequent_switches(threads, failing):
    # more threads than cores, switching every microsecond: a lost update to the shared results or to the
    # first failure would show as a wrong list or the wrong error
    def task(k):
        if k in failing:
            raise ValueError(f"task {k}")
        return sum(range(k % 50)), threading.current_thread().name

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        baseline = threading.active_count()
        for _ in range(20):
            if failing:
                with pytest.raises(ValueError, match=f"task {min(failing)}$"):
                    threaded_map(task, [(k,) for k in range(200)], 5)
            else:
                got = threaded_map(task, [(k,) for k in range(200)], 5)
                assert [value for value, _ in got] == [sum(range(k % 50)) for k in range(200)]
                assert {name for _, name in got} == {threading.main_thread().name, *(f"rulemix-{k}" for k in range(4))}
        assert_joined(threads, baseline)
    finally:
        sys.setswitchinterval(interval)
