import threading

import numpy as np
import pytest

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
def no_thread(monkeypatch):
    """Starting a thread raises RuntimeError('no thread'), in this process and
    in the processes it forks."""

    def refused(self):
        raise RuntimeError("no thread")

    monkeypatch.setattr(threading.Thread, "start", refused)
