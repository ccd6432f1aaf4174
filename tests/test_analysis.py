"""Masking, unwrapping, phase fitting, witness, Monte Carlo propagation."""

import contextlib
import heapq
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import cpus, pipeline, retrieve
from biphoton.analysis import (
    _MONOMIALS,
    FitError,
    fit_phase_poly,
    fit_retrieved_phase,
    monte_carlo_uncertainty,
    sigma_mask,
    tbp_numeric,
    unwrap_phase_2d,
)
from biphoton.cpus import MonteCarloWorkers
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


def _unwrap_reference(phase, mask, quality=None):
    """The flood fill on numpy scalars and (row, col) tuples, as
    ``unwrap_phase_2d`` ran it before its fill moved to Python floats."""
    mask = np.asarray(mask, dtype=bool)
    phase = np.array(phase, dtype=float)
    quality = np.ones_like(phase) if quality is None else np.asarray(quality, dtype=float)
    seed = np.unravel_index(np.argmax(np.where(mask, quality, -np.inf)), phase.shape)
    visited = np.zeros_like(mask)
    visited[seed] = True
    out = phase.copy()
    heap = []
    counter = 0

    def push_neighbors(p):
        nonlocal counter
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            q = (p[0] + dr, p[1] + dc)
            if 0 <= q[0] < phase.shape[0] and 0 <= q[1] < phase.shape[1]:
                if mask[q] and not visited[q]:
                    heapq.heappush(heap, (-quality[q], counter, q, p))
                    counter += 1

    push_neighbors(seed)
    while heap:
        _, _, q, p = heapq.heappop(heap)
        if visited[q]:
            continue
        visited[q] = True
        jump = phase[q] - out[p]
        out[q] = phase[q] - 2 * np.pi * np.round(jump / (2 * np.pi))
        push_neighbors(q)
    return out


def test_unwrap_is_byte_identical_to_reference():
    # signed zeros, half-turn jumps, quality ties and disconnected masks
    for case in range(450):
        rng = np.random.default_rng(case)
        shape = tuple(rng.integers(2, 20, size=2))
        phase = rng.uniform(-np.pi, np.pi, shape) * rng.choice([1.0, 5.0])
        if case % 3 == 1:
            phase[rng.random(shape) < 0.3] = 0.0
            phase[rng.random(shape) < 0.3] = -0.0
        if case % 3 == 2:
            phase = np.round(rng.uniform(-6, 6, shape)) / 2 * np.pi
        mask = rng.random(shape) < rng.uniform(0.2, 1.0)
        mask.flat[rng.integers(mask.size)] = True
        quality = (None, rng.random(shape), rng.integers(0, 3, shape).astype(float))[case % 3]
        got = unwrap_phase_2d(phase, mask, quality)
        assert got.tobytes() == _unwrap_reference(phase, mask, quality).tobytes(), case


def test_unwrap_matches_reference_on_a_chirped_state():
    jsa = synthesize_state(GaussianStateParams(rho=-0.9, chirp_s=-10000.0, chirp_i=-12000.0), n=64)
    intensity = jsa.intensity()
    args = (np.angle(jsa.values), sigma_mask(intensity, 2.0), intensity.values)
    assert np.array_equal(unwrap_phase_2d(*args), _unwrap_reference(*args))
    # every masked quality -inf: the seed is pixel (0, 0), masked or not
    mask = np.zeros((6, 6), dtype=bool)
    mask[2:4, 1:5] = True
    phase = np.random.default_rng(1).uniform(-9, 9, (6, 6))
    quality = np.full((6, 6), -np.inf)
    assert unwrap_phase_2d(phase, mask, quality).tobytes() == _unwrap_reference(phase, mask, quality).tobytes()


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


def _fit_phase_poly_reference(phase, weights, mask):
    """``fit_phase_poly`` with its former coordinates: two full n x n grids
    indexed by the mask."""
    ds = (weights.axis_s.values() - weights.axis_s.center)[:, None] * np.ones_like(phase)
    di = (weights.axis_i.values() - weights.axis_i.center)[None, :] * np.ones_like(phase)
    x, y = ds[mask], di[mask]
    z = np.asarray(phase, dtype=float)[mask]
    w = np.sqrt(np.clip(weights.values[mask], 0.0, None))
    sx, sy = max(np.max(np.abs(x)), 1e-300), max(np.max(np.abs(y)), 1e-300)
    design = np.stack([(x / sx) ** a * (y / sy) ** b for a, b in _MONOMIALS], axis=-1)
    coeff = np.linalg.lstsq(design * w[:, None], z * w, rcond=None)[0]
    coeffs = {(a, b): float(c / (sx**a * sy**b)) for (a, b), c in zip(_MONOMIALS, coeff)}
    resid = design @ coeff - z
    return coeffs, float(np.sqrt(np.sum((w * resid) ** 2) / np.sum(w**2)))


@pytest.mark.parametrize("n", [64, 128, 256])
def test_fit_phase_poly_is_byte_identical_to_reference(n):
    jsa = synthesize_state(GaussianStateParams(rho=-0.9, chirp_s=-10000.0, chirp_i=-12000.0), n=n)
    intensity = jsa.intensity()
    mask = sigma_mask(intensity, 2.0)
    phase = unwrap_phase_2d(np.angle(jsa.values), mask, quality=intensity.values)
    fit = fit_phase_poly(phase, intensity, mask)
    coeffs, residual_rms = _fit_phase_poly_reference(phase, intensity, mask)
    assert fit.coefficients == coeffs and fit.residual_rms == residual_rms
    assert (fit.chirp_s, fit.chirp_i, fit.cross_term) == (coeffs[(2, 0)], coeffs[(0, 2)], coeffs[(1, 1)])


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


def _monte_carlo(trial, start, trials, seed):
    """``monte_carlo_uncertainty`` as ``run_pipeline`` runs it: workers started
    first, then sent the start."""
    with MonteCarloWorkers(trial, trials, seed) as workers:
        workers.send(start)
        return monte_carlo_uncertainty(workers, trials)


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
    trial = partial(pipeline._mc_trials, raw, cfg)
    sd, values = _monte_carlo(trial, _nominal_jsa(raw, cfg), trials=4, seed=3)
    assert set(sd) == {"chirp_s", "chirp_i"}
    assert len(values["chirp_s"]) == 4
    assert sd["chirp_s"] >= 0
    with pytest.raises(ValueError):
        MonteCarloWorkers(trial, trials=1, seed=0)


def _nominal_jsa(raw, cfg):
    """The JSA the pipeline retrieves from ``raw``: every trial's start."""
    return run_retrieval(pipeline.preprocess_set(raw, cfg), cfg.retrieval).jsa


@pytest.fixture(scope="module")
def mc_case():
    """(raw, cfg, start): the trials of ``partial(pipeline._mc_trials, raw, cfg)`` start from ``start``."""
    p = GaussianStateParams(rho=-0.8, chirp_s=-8000.0, chirp_i=-9000.0)
    cfg = PipelineConfig(
        state=StateConfig(params=p, n=32),
        gating=GatingConfig(ideal=True),
        retrieval=RetrievalConfig(iterations=40),
        analysis=AnalysisConfig(monte_carlo_peak_counts=1e5),
        preprocess_enabled=False,
    )
    raw = simulate_measurements(synthesize_state(p, n=32), GatingModel(gate=None))
    return raw, cfg, _nominal_jsa(raw, cfg)


def _trials(raw, cfg, start, seeds):
    """The outcomes of ``pipeline._mc_trials`` in this process."""
    return pipeline._mc_trials(raw, cfg, seeds, lambda: start)


def test_monte_carlo_results_do_not_depend_on_workers(mc_case, monkeypatch, forked):
    raw, cfg, start = mc_case
    results = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        results[len(cpus)] = _monte_carlo(partial(pipeline._mc_trials, raw, cfg), start, trials=5, seed=3)
    # one worker runs the trials in order in this process
    assert results[1] == results[2]
    assert len(forked) == 2


def test_monte_carlo_workers_do_not_split_their_retrievals(mc_case, monkeypatch, forked):
    # the pool runs one worker per CPU, so a forked worker's retrieval stays in
    # its one process even where this process would split it
    def refused(self, there):
        raise RuntimeError("no fork")

    monkeypatch.setattr(cpus.Partner, "running", refused)
    raw, cfg, start = mc_case
    trial = partial(pipeline._mc_trials, raw, cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    want = _monte_carlo(trial, start, trials=4, seed=3)
    monkeypatch.setattr(retrieve, "SPLIT_PIXELS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _trials(raw, cfg, start, [11]) == ["RuntimeError('no fork')"]
    assert _monte_carlo(trial, start, trials=4, seed=3) == want
    assert len(forked) == 2


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_worker", "two_workers"])
def test_monte_carlo_failed_trial_is_counted_and_logged(mc_case, monkeypatch, caplog, cpus):
    raw, cfg, start = mc_case
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
        _, values = _monte_carlo(partial(pipeline._mc_trials, raw, cfg), start, trials=trials, seed=seed)
    assert len(values["chirp_s"]) == len(values["chirp_i"]) == trials - 1
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    message = record.getMessage()
    assert message.startswith(f"Monte Carlo trial {failing} failed: RuntimeError('forced failure")
    # the trial ran in a worker process exactly when there were two CPUs
    in_this_process = f"in process {os.getpid()}'" in message
    assert in_this_process == (len(cpus) == 1)


def test_monte_carlo_trials_do_not_depend_on_stack_size(mc_case, monkeypatch):
    seeds = [11, 13, 15]
    whole = _trials(*mc_case, seeds)  # n = 32: the three retrievals run as one stack
    monkeypatch.setattr(pipeline, "MC_STACK_PIXELS", 1)  # a stack of one each
    assert _trials(*mc_case, seeds) == whole
    assert all(isinstance(outcome, tuple) for outcome in whole)


def test_monte_carlo_failed_stack_reruns_each_trial_alone(mc_case):
    # at 0.2 peak counts the second trial draws an all-zero plane, and the
    # stack of three fails as a whole
    raw, cfg, start = mc_case
    cfg = replace(cfg, analysis=AnalysisConfig(monte_carlo_peak_counts=0.2))
    seeds = [11, 13, 15]
    outcomes = _trials(raw, cfg, start, seeds)
    assert outcomes == [_trials(raw, cfg, start, [seed])[0] for seed in seeds]
    assert outcomes[1] == "ValueError('measured grid is identically zero')"
    assert isinstance(outcomes[0], tuple) and isinstance(outcomes[2], tuple)


def test_monte_carlo_failed_fit_reruns_each_trial_alone(mc_case, monkeypatch):
    # the second trial's fit fails; it is found by its lone-run JSA, which its
    # stacked run reproduces bit for bit
    raw, cfg, start = mc_case
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
    outcomes = _trials(*mc_case, seeds)
    assert outcomes == [_trials(*mc_case, [seed])[0] for seed in seeds]
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
    assert _trials(raw, cfg, start, seeds) == expected


def test_monte_carlo_trial_asks_for_its_start_after_its_first_stack(mc_case, monkeypatch):
    # at n = 32 a stack holds the three sets: all are preprocessed before the start is needed
    events = []
    poissonize = pipeline.poissonize_set
    monkeypatch.setattr(pipeline, "poissonize_set", lambda *args: events.append("poissonize") or poissonize(*args))
    raw, cfg, start = mc_case

    def started():
        events.append("start")
        return start

    pipeline._mc_trials(raw, cfg, [11, 13, 15], started)
    assert events == ["poissonize"] * 3 + ["start"]


# bodies of forked workers: module-level, so that their failures name them


def _prepare_then_start(ready, seeds, start):
    ready.set()
    return [(float(seed), start()) for seed in seeds]


def _die(seeds, start):
    os._exit(3)


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_monte_carlo_workers_run_before_the_start_is_sent(monkeypatch, forked):
    _two_cpus(monkeypatch)
    ready = multiprocessing.get_context("fork").Event()
    with MonteCarloWorkers(partial(_prepare_then_start, ready), trials=4, seed=0) as workers:
        assert ready.wait(timeout=30)  # a worker runs its chunk before send() sends the start
        workers.send("the start")
        outcomes = workers.collect()
    assert [start for _, start in outcomes] == ["the start"] * 4
    assert [seed for seed, _ in outcomes] == [float(s) for s in workers.seeds]
    assert len(forked) == 2


def test_monte_carlo_worker_that_dies_raises(monkeypatch, forked):
    _two_cpus(monkeypatch)
    with pytest.raises(ChildProcessError, match="ended with exit code 3 before it returned its trials"):
        _monte_carlo(_die, "the start", trials=2, seed=0)
    assert len(forked) == 2


@pytest.mark.parametrize("where", ["before_send", "in_meanwhile"])
def test_monte_carlo_workers_stop_on_an_exception(monkeypatch, capfd, forked, where):
    _two_cpus(monkeypatch)
    ready = multiprocessing.get_context("fork").Event()

    def fail():
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        with MonteCarloWorkers(partial(_prepare_then_start, ready), trials=4, seed=0) as workers:
            assert ready.wait(timeout=30)
            if where == "before_send":
                fail()
            workers.send("the start")
            fail()  # where run_pipeline calls its hook, between send and collect
            workers.collect()
    assert len(forked) == 2
    assert "Traceback" not in capfd.readouterr().err  # a stopped worker exits quietly


def _seed_and_start(seeds, start):
    return [(float(seed), start()) for seed in seeds]


@pytest.mark.parametrize("trials, cpus, fork", [(0, {0}, True), (0, {0, 1}, True), (4, {0, 1}, False)],
                         ids=["no_trials_one_cpu", "no_trials_two_cpus", "two_cpus_no_fork"])
def test_monte_carlo_workers_start_no_process(monkeypatch, forked, trials, cpus, fork):
    # zero trials are an empty pool; without fork the trials run in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    if not fork:
        monkeypatch.delattr(os, "fork")
    with MonteCarloWorkers(_seed_and_start, trials, seed=0) as workers:
        assert len(workers.seeds) == trials
        assert forked == []
        workers.send("the start")
        assert workers.collect() == [(float(seed), "the start") for seed in workers.seeds]


@pytest.mark.parametrize("trials", [1, -1])
def test_monte_carlo_workers_refuse_one_trial_and_fewer_than_zero(trials):
    with pytest.raises(ValueError, match=f"^need 0 or at least 2 trials, not {trials}$"):
        MonteCarloWorkers(_seed_and_start, trials, seed=0)


def test_monte_carlo_workers_stop_the_started_workers_when_a_start_fails(monkeypatch, forked):
    # three workers: the second fork fails, so the first worker is killed and reaped
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    fork = os.fork

    def fork_once():
        if forked:
            raise OSError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    with pytest.raises(OSError, match=r"^\[Errno 11\] Resource temporarily unavailable$"):
        MonteCarloWorkers(_seed_and_start, 6, seed=0)
    assert len(forked) == 1


def test_monte_carlo_uncertainty_refuses_another_trial_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with MonteCarloWorkers(_seed_and_start, 3, seed=0) as workers:
        workers.send("the start")
        with pytest.raises(ValueError, match="^4 trials asked of workers started with 3$"):
            monte_carlo_uncertainty(workers, 4)


def test_monte_carlo_workers_exit_when_their_caller_dies():
    # each worker closes the caller's socket ends it inherits, so the caller's
    # end dies with the caller and a worker waiting for its start gets EOF
    code = (
        "import os\n"
        "from biphoton.cpus import MonteCarloWorkers\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "workers = MonteCarloWorkers(lambda seeds, start: [start()] * len(seeds), 4, 0)\n"
        "print(*(pid for pid, _ in workers._workers), flush=True)\n"
        "os._exit(0)\n"
    )
    # the workers inherit the output pipes: run() returns once every one has exited
    try:
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired as exc:
        for pid in (exc.stdout or b"").split():
            os.kill(int(pid), signal.SIGKILL)
        raise
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.split()) == 2
    assert "Traceback" not in out.stderr


def test_monte_carlo_workers_leave_an_interrupt_to_their_caller():
    # a terminal's Ctrl-C reaches the whole process group: the caller stops
    # the workers, and only the caller reports the interrupt
    code = (
        "import multiprocessing, os, time\n"
        "from biphoton.cpus import MonteCarloWorkers\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "running = multiprocessing.get_context('fork').Semaphore(0)\n"
        "def trial(seeds, start):\n"
        "    running.release()\n"
        "    return [start()] * len(seeds)\n"
        "with MonteCarloWorkers(trial, 4, 0):\n"
        "    running.acquire(); running.acquire()\n"
        "    print('running', flush=True)\n"
        "    time.sleep(60)\n"
    )
    caller = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, start_new_session=True)
    try:
        assert caller.stdout.readline() == "running\n"
        os.killpg(caller.pid, signal.SIGINT)
        _, err = caller.communicate(timeout=60)  # returns once the workers, which hold stderr, have exited
    finally:
        with contextlib.suppress(ProcessLookupError):  # left only by a failure: the caller and its workers
            os.killpg(caller.pid, signal.SIGKILL)
    assert err.count("Traceback") == 1 and err.rstrip().endswith("KeyboardInterrupt"), err
