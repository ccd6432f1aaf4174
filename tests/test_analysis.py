"""Masking, unwrapping, phase fitting, witness, Monte Carlo propagation."""

import logging
import os
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import pipeline
from biphoton.analysis import (
    FitError,
    _cpu_count,
    fit_phase_poly,
    fit_retrieved_phase,
    monte_carlo_uncertainty,
    sigma_mask,
    tbp_numeric,
    unwrap_phase_2d,
)
from biphoton.gating import GatingModel, poissonize_set, simulate_measurements
from biphoton.pipeline import (
    AnalysisConfig,
    GatingConfig,
    PipelineConfig,
    StateConfig,
)
from biphoton.retrieve import RetrievalConfig, run_retrieval
from biphoton.synth import GaussianStateParams, gaussian_jsa, synthesize_state, tbp_gaussian


@pytest.fixture(scope="module")
def gaussian_intensity():
    return gaussian_jsa(GaussianStateParams(rho=-0.7), n=128).intensity()


def test_sigma_mask_gaussian_fraction(gaussian_intensity):
    # for a bivariate normal the 2-sigma Mahalanobis ellipse holds
    # 1 - exp(-2) of the probability mass
    mask = sigma_mask(gaussian_intensity, 2.0)
    w = gaussian_intensity.values / gaussian_intensity.values.sum()
    frac = w[mask].sum()
    assert frac == pytest.approx(1 - np.exp(-2), abs=0.01)


def test_sigma_mask_handles_correlation(gaussian_intensity):
    # the mask must follow the tilted ellipse, not the bounding box
    mask = sigma_mask(gaussian_intensity, 1.0)
    w = gaussian_intensity.values / gaussian_intensity.values.sum()
    assert w[mask].sum() == pytest.approx(1 - np.exp(-0.5), abs=0.02)


def test_sigma_mask_validation(gaussian_intensity):
    with pytest.raises(ValueError):
        sigma_mask(gaussian_intensity, 0.0)


def test_sigma_mask_rejects_empty_grid(gaussian_intensity):
    empty = gaussian_intensity.with_values(np.zeros_like(gaussian_intensity.values))
    with pytest.raises(ValueError, match="positive total intensity"):
        sigma_mask(empty, 2.0)


def _line_jsa(line):
    """A JSA supported on one line of a 64 x 64 grid, with a cubic phase."""
    k = np.arange(64)
    rows, cols = {
        "row": (np.full(64, 32), k), "column": (k, np.full(64, 32)),
        "diagonal": (k, k), "anti_diagonal": (k, 63 - k),
    }[line]
    values = np.zeros((64, 64), complex)
    values[rows, cols] = np.exp(-(((k - 32) / 5.0) ** 2) + 1e-3j * (k - 32) ** 3)
    return synthesize_state(GaussianStateParams(), n=64).with_values(values)


@pytest.mark.parametrize("line", ["row", "column", "diagonal", "anti_diagonal"])
def test_line_supported_jsa_fit_error(line):
    # a support on a line leaves at most 4 independent monomials of degree
    # <= 3, so no fit exists; any warning (an overflow) fails the test too
    with pytest.raises(FitError):
        fit_retrieved_phase(_line_jsa(line))


def test_sigma_mask_degenerate_covariance_fit_error():
    # the column's covariance has determinant exactly 0
    with pytest.raises(FitError, match="degenerate intensity covariance"):
        sigma_mask(_line_jsa("column").intensity(), 2.0)


def test_unwrap_recovers_smooth_phase():
    x = np.linspace(-3, 3, 64)
    phase = 2.5 * x[:, None] ** 2 + 1.5 * x[None, :] ** 2
    wrapped = np.angle(np.exp(1j * phase))
    mask = np.ones_like(phase, dtype=bool)
    out = unwrap_phase_2d(wrapped, mask)
    diff = out - phase
    # equal up to one global multiple of 2*pi
    k = np.round(diff / (2 * np.pi))
    assert np.all(k == k.flat[0])
    assert np.max(np.abs(diff - 2 * np.pi * k)) < 1e-9


def test_unwrap_respects_mask():
    phase = np.zeros((16, 16))
    mask = np.zeros((16, 16), dtype=bool)
    mask[4:12, 4:12] = True
    sentinel = np.full((16, 16), 9.0)
    out = unwrap_phase_2d(sentinel, mask)
    assert np.array_equal(out[~mask], sentinel[~mask])
    with pytest.raises(ValueError):
        unwrap_phase_2d(phase, np.zeros_like(mask))


@settings(max_examples=15, deadline=None)
@given(k=st.integers(-3, 3))
def test_unwrap_gauge_covariance(k):
    # a global 2*pi*k shift of the input shifts the output by the same amount
    x = np.linspace(-2, 2, 32)
    phase = 1.2 * x[:, None] ** 2 - 0.8 * x[None, :] ** 2
    mask = np.ones_like(phase, dtype=bool)
    base = unwrap_phase_2d(phase, mask)
    shifted = unwrap_phase_2d(phase + 2 * np.pi * k, mask)
    assert np.allclose(shifted, base + 2 * np.pi * k, atol=1e-9)


def test_fit_phase_poly_recovers_coefficients(gaussian_intensity):
    i = gaussian_intensity
    ds = i.axis_s.offsets()[:, None]
    di = i.axis_i.offsets()[None, :]
    truth = {
        (0, 0): 0.3, (1, 0): 40.0, (0, 1): -25.0,
        (2, 0): 12000.0, (0, 2): -8000.0, (1, 1): 3000.0,
        (3, 0): 5.0e5, (0, 3): -2.0e5, (2, 1): 1.0e5, (1, 2): 0.0,
    }
    phase = sum(c * ds**a * di**b for (a, b), c in truth.items())
    mask = sigma_mask(i, 2.0)
    fit = fit_phase_poly(phase, i, mask)
    assert fit.chirp_s == pytest.approx(12000.0, rel=1e-6)
    assert fit.chirp_i == pytest.approx(-8000.0, rel=1e-6)
    assert fit.cross_term == pytest.approx(3000.0, rel=1e-6)
    assert fit.residual_rms < 1e-6
    assert fit.mask_pixel_count == int(mask.sum())


def test_fit_phase_poly_too_few_pixels(gaussian_intensity):
    mask = np.zeros_like(gaussian_intensity.values, dtype=bool)
    mask[60:63, 60:63] = True
    with pytest.raises(FitError):
        fit_phase_poly(np.zeros_like(gaussian_intensity.values), gaussian_intensity, mask)


@pytest.mark.parametrize("block", [slice(0, 0), slice(60, 63)], ids=["no_weight", "nine_weighted"])
def test_fit_phase_poly_needs_ten_weighted_pixels(gaussian_intensity, block):
    # a full mask, but only the weighted pixels enter the fit: fewer than 10
    # cannot fix the 10 monomials, so the weights never sum to 0 past the rank check
    values = np.zeros_like(gaussian_intensity.values)
    values[block, block] = 1.0
    mask = np.ones_like(values, dtype=bool)
    with pytest.raises(FitError, match="rank-deficient"):
        fit_phase_poly(np.zeros_like(values), gaussian_intensity.with_values(values), mask)


def test_fit_retrieved_phase_on_synthesized_state():
    p = GaussianStateParams(rho=-0.85, chirp_s=-20000.0, chirp_i=15000.0)
    state = synthesize_state(p, n=128)
    fit = fit_retrieved_phase(state)
    assert fit.chirp_s == pytest.approx(p.chirp_s, rel=1e-3)
    assert fit.chirp_i == pytest.approx(p.chirp_i, rel=1e-3)


def test_tbp_numeric_matches_gaussian_formula():
    for rho in (0.0, -0.6):
        state = gaussian_jsa(GaussianStateParams(rho=rho), n=128)
        m = simulate_measurements(state, GatingModel(gate=None))
        w = tbp_numeric(m.i_ww, m.i_tt)
        assert w.product == pytest.approx(tbp_gaussian(rho), rel=1e-3)


def test_tbp_entangled_flag():
    sep = gaussian_jsa(GaussianStateParams(rho=0.0), n=64)
    ent = gaussian_jsa(GaussianStateParams(rho=-0.9), n=64)
    m_sep = simulate_measurements(sep, GatingModel(gate=None))
    m_ent = simulate_measurements(ent, GatingModel(gate=None))
    assert not tbp_numeric(m_sep.i_ww, m_sep.i_tt).entangled
    assert tbp_numeric(m_ent.i_ww, m_ent.i_tt).entangled


def test_tbp_rejects_empty():
    g = gaussian_jsa(GaussianStateParams(), n=64)
    m = simulate_measurements(g, GatingModel(gate=None))
    zero = m.i_ww.with_values(np.zeros_like(m.i_ww.values))
    with pytest.raises(ValueError):
        tbp_numeric(zero, m.i_tt)


def test_monte_carlo_uncertainty_smoke():
    p = GaussianStateParams(rho=-0.8, chirp_s=-8000.0, chirp_i=-9000.0)
    cfg = PipelineConfig(
        state=StateConfig(params=p, n=32),
        gating=GatingConfig(ideal=True),
        retrieval=RetrievalConfig(iterations=80),
        analysis=AnalysisConfig(monte_carlo_peak_counts=1e5),
        preprocess_enabled=False,
    )
    state = synthesize_state(p, n=32)
    raw = simulate_measurements(state, GatingModel(gate=None))
    trial = partial(pipeline._mc_trials, raw, cfg, _nominal_jsa(raw, cfg))
    sd, values = monte_carlo_uncertainty(trial, trials=4, seed=3)
    assert set(sd) == {"chirp_s", "chirp_i"}
    assert len(values["chirp_s"]) == 4
    assert sd["chirp_s"] >= 0
    with pytest.raises(ValueError):
        monte_carlo_uncertainty(trial, trials=1, seed=0)


def _nominal_jsa(raw, cfg):
    """The JSA the pipeline retrieves from ``raw``: every trial's start."""
    return run_retrieval(pipeline.preprocess_set(raw, cfg), cfg.retrieval).jsa


@pytest.fixture(scope="module")
def mc_trial():
    p = GaussianStateParams(rho=-0.8, chirp_s=-8000.0, chirp_i=-9000.0)
    cfg = PipelineConfig(
        state=StateConfig(params=p, n=32),
        gating=GatingConfig(ideal=True),
        retrieval=RetrievalConfig(iterations=40),
        analysis=AnalysisConfig(monte_carlo_peak_counts=1e5),
        preprocess_enabled=False,
    )
    raw = simulate_measurements(synthesize_state(p, n=32), GatingModel(gate=None))
    return partial(pipeline._mc_trials, raw, cfg, _nominal_jsa(raw, cfg))


def test_cpu_count_without_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _cpu_count() == (os.cpu_count() or 1)


def test_monte_carlo_results_do_not_depend_on_workers(mc_trial, monkeypatch):
    results = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        results[len(cpus)] = monte_carlo_uncertainty(mc_trial, trials=5, seed=3)
    # one worker runs the trials in order in this process
    assert results[1] == results[2]


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_worker", "two_workers"])
def test_monte_carlo_failed_trial_is_counted_and_logged(mc_trial, monkeypatch, caplog, cpus):
    trials, seed, failing = 5, 3, 1
    bad_seed = int(np.random.SeedSequence(seed).generate_state(2 * trials)[2 * failing])
    poissonize = pipeline.poissonize_set

    def flaky(m, peak_counts, noise_seed):
        # a stack holding the bad noise seed fails as a whole, and then alone
        if noise_seed == bad_seed:
            raise RuntimeError(f"forced failure in process {os.getpid()}")
        return poissonize(m, peak_counts, noise_seed)

    monkeypatch.setattr(pipeline, "poissonize_set", flaky)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    with caplog.at_level(logging.WARNING, logger="biphoton"):
        _, values = monte_carlo_uncertainty(mc_trial, trials=trials, seed=seed)
    assert len(values["chirp_s"]) == len(values["chirp_i"]) == trials - 1
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    message = record.getMessage()
    assert message.startswith(f"Monte Carlo trial {failing} failed: RuntimeError('forced failure")
    # the trial ran in a worker process exactly when there were two CPUs
    in_this_process = f"in process {os.getpid()}'" in message
    assert in_this_process == (len(cpus) == 1)


def test_monte_carlo_trials_do_not_depend_on_stack_size(mc_trial, monkeypatch):
    seeds = [11, 13, 15]
    whole = mc_trial(seeds)  # n = 32: the three retrievals run as one stack
    monkeypatch.setattr(pipeline, "MC_STACK_PIXELS", 1)  # a stack of one each
    assert mc_trial(seeds) == whole
    assert all(isinstance(outcome, tuple) for outcome in whole)


def test_monte_carlo_failed_stack_reruns_each_trial_alone(mc_trial):
    # at 0.2 peak counts the second trial draws an all-zero plane, and the
    # stack of three fails as a whole
    raw, cfg, start = mc_trial.args
    cfg = replace(cfg, analysis=AnalysisConfig(monte_carlo_peak_counts=0.2))
    trial = partial(pipeline._mc_trials, raw, cfg, start)
    seeds = [11, 13, 15]
    outcomes = trial(seeds)
    assert outcomes == [trial([seed])[0] for seed in seeds]
    assert outcomes[1] == "ValueError('measured grid is identically zero')"
    assert isinstance(outcomes[0], tuple) and isinstance(outcomes[2], tuple)


def test_monte_carlo_failed_fit_reruns_each_trial_alone(mc_trial, monkeypatch):
    # the second trial's fit fails; it is found by its lone-run JSA, which its
    # stacked run reproduces bit for bit
    raw, cfg, start = mc_trial.args
    seeds = [11, 13, 15]
    retrieval = replace(cfg.retrieval, iterations=pipeline.MC_ITERATIONS)
    m = pipeline.preprocess_set(poissonize_set(raw, cfg.analysis.monte_carlo_peak_counts, seeds[1]), cfg)
    failing = run_retrieval(m, retrieval, start=start).jsa
    error = FitError("forced fit failure")
    fit = pipeline.fit_retrieved_phase

    def flaky(jsa, mask_sigma):
        if np.array_equal(jsa.values, failing.values):
            raise error
        return fit(jsa, mask_sigma)

    monkeypatch.setattr(pipeline, "fit_retrieved_phase", flaky)
    outcomes = mc_trial(seeds)
    assert outcomes == [mc_trial([seed])[0] for seed in seeds]
    assert outcomes[1] == repr(error)
    assert isinstance(outcomes[0], tuple) and isinstance(outcomes[2], tuple)


@pytest.mark.parametrize("stack_pixels", [pipeline.MC_STACK_PIXELS, 1], ids=["stack_of_three", "stack_of_one"])
def test_monte_carlo_trial_is_a_lone_warm_started_retrieval(monkeypatch, stack_pixels):
    # gated and preprocessed, with trials of another length than the nominal run
    p = GaussianStateParams(rho=-0.8, chirp_s=-8000.0, chirp_i=-9000.0)
    cfg = PipelineConfig(
        state=StateConfig(params=p, n=32),
        retrieval=RetrievalConfig(iterations=40),
        analysis=AnalysisConfig(monte_carlo_peak_counts=1e5),
    )
    raw, _ = pipeline.simulate(cfg)
    start = _nominal_jsa(raw, cfg)
    seeds = [11, 13, 15]
    monkeypatch.setattr(pipeline, "MC_ITERATIONS", 20)
    retrieval = replace(cfg.retrieval, iterations=pipeline.MC_ITERATIONS)
    expected = []
    for seed in seeds:
        m = pipeline.preprocess_set(poissonize_set(raw, cfg.analysis.monte_carlo_peak_counts, seed), cfg)
        fit = fit_retrieved_phase(run_retrieval(m, retrieval, start=start).jsa, cfg.analysis.mask_sigma)
        expected.append((fit.chirp_s, fit.chirp_i))
    monkeypatch.setattr(pipeline, "MC_STACK_PIXELS", stack_pixels)
    assert pipeline._mc_trials(raw, cfg, start, seeds) == expected
