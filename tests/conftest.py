"""Fixtures shared by several test modules."""

import os

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
