import multiprocessing
import os

import numpy as np
import pytest

from biphoton import cpus
from biphoton.grids import FREQUENCY, IDLER, SIGNAL, Axis, ComplexGrid2D


@pytest.fixture
def small_axes():
    ax_s = Axis(FREQUENCY, SIGNAL, center=2.289, step=0.0025, count=32)
    ax_i = Axis(FREQUENCY, IDLER, center=2.574, step=0.0030, count=32)
    return ax_s, ax_i


@pytest.fixture
def random_complex_grid(small_axes):
    ax_s, ax_i = small_axes
    rng = np.random.default_rng(7)
    v = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    return ComplexGrid2D(ax_s, ax_i, v)


@pytest.fixture
def no_fork(monkeypatch):
    """Forking a split's partner process raises RuntimeError('no fork'), in
    this process and in the processes it forks."""

    def refused(self, there):
        raise RuntimeError("no fork")

    monkeypatch.setattr(cpus.Partner, "running", refused)


@pytest.fixture
def forked(monkeypatch):
    """The pids of the processes ``os.fork`` starts during the test; each must
    be reaped by the end of the test."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no such child: reaped
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def no_process(monkeypatch):
    """Starting a ``multiprocessing`` process raises RuntimeError('no process')."""

    def refused(self):
        raise RuntimeError("no process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refused)
