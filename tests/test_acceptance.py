"""End-to-end acceptance gate.

Each test pins one closed-loop or property criterion with explicit fixtures,
tolerances, and seeds, and prints a one-line verdict.
"""

import time

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from biphoton.analysis import fit_retrieved_phase, tbp_numeric
from biphoton.gating import (
    GatePulse,
    GatingModel,
    RefractiveModel,
    poissonize,
    simulate_measurements,
)
from biphoton.gating import _gate_kernel
from biphoton.grids import (
    FREQUENCY,
    IDLER,
    SIGNAL,
    Axis,
    ComplexGrid2D,
    IntensityGrid2D,
    total_power,
    transform_photon,
)
from biphoton.pipeline import (
    GatingConfig,
    PipelineConfig,
    StateConfig,
    preprocess_set,
    run_pipeline,
)
from biphoton.preprocess import PreprocessConfig, wiener_deconvolve
from biphoton.retrieve import RetrievalConfig, project_magnitude, run_retrieval
from biphoton.synth import GaussianStateParams, gaussian_jsa, synthesize_state, tbp_gaussian
from biphoton.units import wavelength_to_omega

GATE_CENTER = wavelength_to_omega(775.0)
SIGNAL_CENTER = wavelength_to_omega(823.0)
IDLER_CENTER = wavelength_to_omega(732.0)


def _ideal_set(params, n=128):
    state = synthesize_state(params, n=n, span_sigmas=8)
    return simulate_measurements(state, GatingModel(gate=None))


def test_acceptance_1_monotone_convergence():
    """ww-plane error is non-increasing (slack 1e-12) for 10 seeds x 1000 iters."""
    m = _ideal_set(GaussianStateParams(rho=-0.9, chirp_s=-10000.0, chirp_i=-12000.0))
    worst = -np.inf
    for seed in range(10):
        r = run_retrieval(m, RetrievalConfig(iterations=1000, seed=seed))
        worst = max(worst, float(np.max(np.diff(r.error_history_ww))))
        assert np.max(np.diff(r.error_history_ww)) <= 1e-12, f"seed {seed}"
    print(f"[acceptance 1] PASS monotone convergence, worst step {worst:.2e}")


def test_acceptance_2_closed_loop_recovery():
    """Noiseless four-plane retrieval recovers both chirps to 5% for >= 9/10 seeds."""
    p = GaussianStateParams(rho=-0.9, chirp_s=-36000.0, chirp_i=-43000.0)
    m = _ideal_set(p)
    good = 0
    for seed in range(10):
        r = run_retrieval(m, RetrievalConfig(iterations=300, seed=seed))
        fit = fit_retrieved_phase(r.jsa)
        rel_s = abs(fit.chirp_s - p.chirp_s) / abs(p.chirp_s)
        rel_i = abs(fit.chirp_i - p.chirp_i) / abs(p.chirp_i)
        good += rel_s <= 0.05 and rel_i <= 0.05 and fit.chirp_s < 0 and fit.chirp_i < 0
    assert good >= 9, f"only {good}/10 seeds within 5%"
    print(f"[acceptance 2] PASS closed-loop recovery, {good}/10 seeds within 5%")


def test_acceptance_3_ambiguity_breaking():
    """Two-plane retrieval leaves the chirp sign ambiguous (~half the seeds);
    all four planes pin it for every seed."""
    p = GaussianStateParams(rho=-0.9, chirp_s=-36000.0, chirp_i=-43000.0)
    m = _ideal_set(p)

    def count(mask, iterations):
        hits = 0
        for seed in range(20):
            cfg = RetrievalConfig(iterations=iterations, seed=seed, constraint_mask=mask)
            fit = fit_retrieved_phase(run_retrieval(m, cfg).jsa)
            hits += fit.chirp_s < 0 and fit.chirp_i < 0
        return hits

    two = count(frozenset({"ww", "tt"}), 500)
    four = count(frozenset({"ww", "wt", "tw", "tt"}), 300)
    assert 4 <= two <= 16, f"two-plane sign agreement {two}/20 outside [4, 16]"
    assert four == 20, f"four-plane sign agreement {four}/20"
    print(f"[acceptance 3] PASS ambiguity breaking, two-plane {two}/20, four-plane {four}/20")


def test_acceptance_4_deconvolution_round_trip():
    """Blur 4 px Gaussian with 2 px response, Poisson peak 1e4, alpha=0.1:
    recovered s.d. within 10%."""
    n = 64
    ax_s = Axis(FREQUENCY, SIGNAL, 0.0, 1.0, n)
    ax_i = Axis(FREQUENCY, IDLER, 0.0, 1.0, n)
    x = np.arange(n) - n // 2
    true = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2 * 4.0**2))
    blurred = IntensityGrid2D(ax_s, ax_i, gaussian_filter(true, 2.0, mode="constant"))
    noisy = poissonize(blurred, 1e4, seed=1)
    rec = wiener_deconvolve(noisy, PreprocessConfig(alpha=0.1), response=(2.0, 2.0))
    v = rec.values / rec.values.sum()
    sds = []
    for axis in (0, 1):
        p = v.sum(axis=1 - axis)
        mu = (p * x).sum()
        sds.append(np.sqrt((p * (x - mu) ** 2).sum()))
    for sd in sds:
        assert abs(sd - 4.0) / 4.0 <= 0.10, f"recovered s.d. {sd:.3f}"
    print(f"[acceptance 4] PASS deconvolution round trip, s.d. {sds[0]:.3f}/{sds[1]:.3f} vs 4.0")


def test_acceptance_5_witness_consistency():
    """Numeric time-bandwidth product matches the Gaussian closed form to 3%
    and the entangled flag fires exactly for rho < 0."""
    for rho in (0.0, -0.5, -0.9):
        state = gaussian_jsa(GaussianStateParams(rho=rho), n=128)
        m = simulate_measurements(state, GatingModel(gate=None))
        w = tbp_numeric(m.i_ww, m.i_tt)
        want = tbp_gaussian(rho)
        assert abs(w.product - want) / want <= 0.03, f"rho={rho}: {w.product} vs {want}"
        assert w.entangled == (rho < 0), f"rho={rho}: entangled={w.entangled}"
    print("[acceptance 5] PASS witness consistency for rho in {0, -0.5, -0.9}")


def test_acceptance_6_phase_mismatch_trend():
    """Full gated pipeline: swept idler chirp is recovered at L=0 (offset < 2%
    of the 40000 fs^2 sweep scale) and phase mismatch at L=1000 um grows the
    offset for at least 2 of 3 sweep points."""
    n = 128
    gate = GatePulse(center=GATE_CENTER, sigma=1.0 / (2 * 50.0))
    refractive = RefractiveModel.default().tuned_for(SIGNAL_CENTER, GATE_CENTER)

    def reconstruct(chirp_i, L):
        p = GaussianStateParams(
            rho=-0.9, chirp_s=5000.0, chirp_i=chirp_i,
            center_s=SIGNAL_CENTER, center_i=IDLER_CENTER,
        )
        state = synthesize_state(p, n=n, span_sigmas=8)
        gm = GatingModel(
            gate=gate, crystal_length=L, refractive=(refractive if L > 0 else None)
        )
        raw = simulate_measurements(state, gm)
        cfg = PipelineConfig(
            state=StateConfig(params=p, n=n),
            gating=GatingConfig(gate_center=gate.center, gate_sigma=gate.sigma),
            preprocess=PreprocessConfig(
                alpha=1e-6, rho_lp=1.0, grid_n=n, allow_out_of_range=True
            ),
        )
        clean = preprocess_set(raw, cfg)
        r = run_retrieval(clean, RetrievalConfig(iterations=1000, seed=0))
        return fit_retrieved_phase(r.jsa).chirp_i

    scale = 40000.0
    grew = 0
    report = []
    for chirp_i in (-40000.0, 0.0, 40000.0):
        off0 = abs(reconstruct(chirp_i, 0.0) - chirp_i)
        off1 = abs(reconstruct(chirp_i, 1000.0) - chirp_i)
        assert off0 < 0.02 * scale, f"A_i={chirp_i}: L=0 offset {off0:.0f} fs^2"
        grew += off1 > off0
        report.append(f"A_i={chirp_i:.0f}: {off0:.0f} -> {off1:.0f}")
    assert grew >= 2, f"offset grew with L for only {grew}/3 points"
    print(f"[acceptance 6] PASS phase-mismatch trend ({'; '.join(report)}) fs^2")


def test_acceptance_7_performance():
    """Preprocess + retrieve (1000 iterations) + analyze at 64x64 in <= 60 s."""
    p = GaussianStateParams(
        rho=-0.9, chirp_s=-10000.0, chirp_i=-12000.0,
        center_s=SIGNAL_CENTER, center_i=IDLER_CENTER,
    )
    cfg = PipelineConfig(
        state=StateConfig(params=p, n=64),
        gating=GatingConfig(gate_center=GATE_CENTER, gate_sigma=1.0 / (2 * 130.0)),
        preprocess=PreprocessConfig(alpha=0.1, grid_n=64),
        retrieval=RetrievalConfig(iterations=1000, seed=0),
    )
    out = run_pipeline(cfg)
    elapsed = sum(v for k, v in out.timings.items() if k != "simulate")
    assert elapsed <= 60.0, f"pipeline took {elapsed:.1f} s"
    assert out.result.iterations_run == 1000
    print(f"[acceptance 7] PASS performance, {elapsed:.2f} s for 64x64 x 1000 iterations")


def test_acceptance_8_oracle_equivalence():
    """Fast delay-scan (FFT over delays, SVD-contracted kernel) matches the
    direct quadrature of the double-gated intensity on a 16x16 state."""
    p = GaussianStateParams(
        rho=-0.7, chirp_s=3000.0, chirp_i=-5000.0,
        center_s=SIGNAL_CENTER, center_i=IDLER_CENTER,
    )
    state = synthesize_state(p, n=16, span_sigmas=8)
    gate = GatePulse(center=GATE_CENTER, sigma=1.0 / (2 * 130.0))
    refractive = RefractiveModel.default().tuned_for(SIGNAL_CENTER, GATE_CENTER)
    gm = GatingModel(
        gate=gate, crystal_length=1000.0, refractive=refractive,
        upconverted_grid_count=64,
    )
    m = simulate_measurements(state, gm)

    K_s, du_s = _gate_kernel(state.axis_s, gm)
    K_i, du_i = _gate_kernel(state.axis_i, gm)
    dws = state.axis_s.offsets()
    dwi = state.axis_i.offsets()
    ts = m.i_tt.axis_s.values()
    ti = m.i_tt.axis_i.values()
    direct = np.empty((16, 16))
    for j in range(16):
        for k in range(16):
            shifted = state.values * np.exp(-1j * dws * ts[j])[:, None]
            shifted = shifted * np.exp(-1j * dwi * ti[k])[None, :]
            amp = K_s @ shifted @ K_i.T
            direct[j, k] = np.sum(np.abs(amp) ** 2) * du_s * du_i
    direct /= direct.max()
    rms = float(np.sqrt(np.mean((direct - m.i_tt.values) ** 2)))
    assert rms <= 0.005, f"oracle mismatch {rms:.2e} RMS of peak"
    print(f"[acceptance 8] PASS oracle equivalence, {rms:.2e} RMS of peak")


def test_acceptance_9_unitarity_suite():
    """Transform round trips to 1e-10, unit state power, exact projection
    idempotence."""
    rng = np.random.default_rng(42)
    ax_s = Axis(FREQUENCY, SIGNAL, SIGNAL_CENTER, 0.0025, 64)
    ax_i = Axis(FREQUENCY, IDLER, IDLER_CENTER, 0.0030, 64)
    g = ComplexGrid2D(
        ax_s, ax_i, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    )
    for photon in (SIGNAL, IDLER):
        h = transform_photon(transform_photon(g, photon), photon)
        assert np.max(np.abs(h.values - g.values)) <= 1e-10
        assert abs(total_power(h) - total_power(g)) <= 1e-10 * total_power(g)

    state = gaussian_jsa(GaussianStateParams(rho=-0.9), n=128)
    assert abs(total_power(state) - 1.0) <= 1e-3

    i = state.intensity()
    guess = state.with_values(
        state.values * np.exp(2j * np.pi * rng.random(state.values.shape))
    )
    once = project_magnitude(guess, i)
    twice = project_magnitude(once, i)
    # exact up to the zero-magnitude epsilon and unit-phasor rounding
    atol = 2e-12 + 1e-13 * np.max(np.abs(once.values))
    assert np.max(np.abs(twice.values - once.values)) <= atol
    print("[acceptance 9] PASS unitarity/normalization suite")
