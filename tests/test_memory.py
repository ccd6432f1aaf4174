"""Peak allocation budgets of the n x n hot spots, measured with tracemalloc.

Budgets are in units of one n x n complex array (16 n^2 bytes) at n = 128.
numpy reports its array buffers to tracemalloc; LAPACK workspace and FFT plan
caches are not seen, nor are the shared mappings of a split and its partner
process's own allocations.  So the bytes of every mapping a call makes are
added to its peak, and each case that splits also runs serially, where all
of its buffers are in this process.
"""

import mmap
import os
import tracemalloc

import numpy as np
import pytest

from biphoton.gating import GatePulse, GatingModel, RefractiveModel, simulate_measurements
from biphoton.grids import ComplexGrid2D
from biphoton.retrieve import RetrievalConfig, run_retrieval
from biphoton.synth import GaussianStateParams, synthesize_state

N = 128
UNIT = 16 * N * N
STATE = GaussianStateParams(rho=-0.8, chirp_s=-8000.0, chirp_i=-9000.0)
GATE_CENTER = 2.432


@pytest.fixture
def peak_units(monkeypatch):
    """``peak_units(call)``: the peak traced allocation of call(), in UNITs,
    above what was live before it, with each shared mapping it makes counted
    from its creation to the end of the call.  call() runs once untraced
    first, so lazy imports and first-call caches are not counted."""
    peaks, mapped, real = [], [], mmap.mmap

    def recorded(fileno, length, *args, **kwargs):
        if tracemalloc.is_tracing():  # the peak up to here, then a new peak with the mapping
            peaks.append(tracemalloc.get_traced_memory()[1] + sum(mapped))
            tracemalloc.reset_peak()
            mapped.append(length)
        return real(fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", recorded)

    def peak(call):
        call()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            peaks.clear()
            mapped.clear()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] + sum(mapped))
            return (max(peaks) - before) / UNIT
        finally:
            if started:
                tracemalloc.stop()

    return peak


def _force_path(monkeypatch, path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if path == "serial" else {0, 1})


@pytest.mark.parametrize("sigma", [0.01, 1.0 / 260], ids=["sigma_0.01", "sigma_1/260"])
@pytest.mark.parametrize("length, path, budget", [(0.0, "serial", 10.0), (1000.0, "serial", 10.0), (1000.0, "split", 10.0)],
                         ids=["L0", "L1000", "L1000-split"])
def test_simulate_measurements_memory_budget(length, path, budget, sigma, monkeypatch, peak_units):
    _force_path(monkeypatch, path)
    state = synthesize_state(STATE, n=N)
    refractive = RefractiveModel.default().tuned_for(STATE.center_s, GATE_CENTER) if length else None
    gm = GatingModel(gate=GatePulse(center=GATE_CENTER, sigma=sigma), crystal_length=length, refractive=refractive)
    assert peak_units(lambda: simulate_measurements(state, gm)) <= budget


# split, each iteration runs in halves in two processes, forced here at n = 128
@pytest.mark.parametrize("init, split", [("random_phase", False), ("flat_phase", False), ("random_phase", True)],
                         ids=["random_phase", "flat_phase", "random_phase-split"])
def test_run_retrieval_memory_budget(init, split, monkeypatch, peak_units):
    _force_path(monkeypatch, "split" if split else "serial")
    m = simulate_measurements(synthesize_state(STATE, n=N), GatingModel(gate=None))
    flat = ComplexGrid2D(m.i_ww.axis_s, m.i_ww.axis_i, np.sqrt(m.i_ww.values))
    start = flat if init == "flat_phase" else None
    assert peak_units(lambda: run_retrieval(m, RetrievalConfig(iterations=3), start)) <= 8.0
