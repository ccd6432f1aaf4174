"""Peak allocation budgets of the n x n hot spots, measured with tracemalloc.

Budgets are in units of one n x n complex array (16 n^2 bytes) at n = 128.
numpy reports its array buffers to tracemalloc; LAPACK workspace and FFT plan
caches are not seen.
"""

import tracemalloc

import pytest

from biphoton.gating import GatePulse, GatingModel, RefractiveModel, simulate_measurements
from biphoton.retrieve import RetrievalConfig, run_retrieval
from biphoton.synth import GaussianStateParams, synthesize_state

N = 128
UNIT = 16 * N * N
STATE = GaussianStateParams(rho=-0.8, chirp_s=-8000.0, chirp_i=-9000.0)
GATE_CENTER = 2.432


def _peak_units(call):
    """Peak traced allocation of call(), in UNITs, above what was live before
    it.  call() runs once untraced first, so lazy imports and first-call
    caches are not counted."""
    call()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / UNIT
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("sigma", [0.01, 1.0 / 260], ids=["sigma_0.01", "sigma_1/260"])
@pytest.mark.parametrize("length, budget", [(0.0, 10.0), (1000.0, 10.0)], ids=["L0", "L1000"])
def test_simulate_measurements_memory_budget(length, budget, sigma):
    state = synthesize_state(STATE, n=N)
    refractive = RefractiveModel.default().tuned_for(STATE.center_s, GATE_CENTER) if length else None
    gm = GatingModel(gate=GatePulse(center=GATE_CENTER, sigma=sigma), crystal_length=length, refractive=refractive)
    assert _peak_units(lambda: simulate_measurements(state, gm)) <= budget


@pytest.mark.parametrize("init", ["random_phase", "flat_phase"])
def test_run_retrieval_memory_budget(init):
    m = simulate_measurements(synthesize_state(STATE, n=N), GatingModel(gate=None))
    assert _peak_units(lambda: run_retrieval(m, RetrievalConfig(iterations=3, init=init))) <= 8.0
