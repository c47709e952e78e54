"""Fixtures shared by several test modules."""

import os
import threading

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The pid of every process forked while the test runs, in order."""
    real, pids = os.fork, []

    def recording():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


@pytest.fixture
def threads(monkeypatch):
    """Every thread started while the test runs, in order."""
    real, started = threading.Thread.start, []

    def recording(self):
        real(self)
        started.append(self)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started
