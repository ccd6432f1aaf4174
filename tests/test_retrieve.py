"""Alternating-projection retrieval: projections, error metric, loop behavior."""

import multiprocessing
import os
import platform
import re
import signal
import sys
import threading
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import retrieve
from biphoton.gating import GatePulse, GatingModel, poissonize_set, simulate_measurements
from biphoton.grids import (
    IDLER,
    SIGNAL,
    ComplexGrid2D,
    IntensityGrid2D,
    conjugate_axis,
    dft_scale,
    transform_photon,
)
from biphoton.retrieve import (
    PLANES,
    MeasurementSet,
    RetrievalConfig,
    RetrievalError,
    _frog_error,
    _project,
    _unit_peak,
    frog_error,
    project_magnitude,
    run_retrieval,
    run_retrieval_stack,
)
from biphoton.synth import GaussianStateParams, synthesize_state


@pytest.fixture(scope="module")
def ideal_measurements():
    p = GaussianStateParams(rho=-0.8, chirp_s=-8000.0, chirp_i=-9000.0)
    state = synthesize_state(p, n=64, span_sigmas=8)
    return simulate_measurements(state, GatingModel(gate=None)), state


def test_project_magnitude_sets_intensity(ideal_measurements):
    m, state = ideal_measurements
    rng = np.random.default_rng(0)
    guess = state.with_values(
        rng.standard_normal(state.values.shape)
        + 1j * rng.standard_normal(state.values.shape)
    )
    out = project_magnitude(guess, m.i_ww)
    assert np.allclose(np.abs(out.values) ** 2, m.i_ww.values, atol=1e-12)
    # phases survive where the magnitude was nonzero
    big = np.abs(guess.values) > 1e-6
    assert np.allclose(
        np.angle(out.values)[big], np.angle(guess.values)[big], atol=1e-12
    )


def test_project_magnitude_idempotent(ideal_measurements):
    m, state = ideal_measurements
    rng = np.random.default_rng(1)
    guess = state.with_values(np.exp(2j * np.pi * rng.random(state.values.shape)))
    once = project_magnitude(guess, m.i_ww)
    twice = project_magnitude(once, m.i_ww)
    # below the zero-magnitude epsilon the phase resets to 1, which bounds the
    # discrepancy by 2*eps; elsewhere only rounding of the unit phasor enters
    atol = 2e-12 + 1e-13 * np.max(np.abs(once.values))
    assert np.max(np.abs(twice.values - once.values)) < atol


def test_project_magnitude_zero_phase_convention(ideal_measurements):
    m, state = ideal_measurements
    out = project_magnitude(state.with_values(np.zeros_like(state.values)), m.i_ww)
    assert np.allclose(out.values, np.sqrt(m.i_ww.values))
    assert np.all(out.values.imag == 0)


def test_frog_error_zero_for_scaled_copy(ideal_measurements):
    m, _ = ideal_measurements
    assert frog_error(m.i_ww, 7.3 * m.i_ww.values) < 1e-12
    assert frog_error(m.i_ww, m.i_ww) < 1e-12


def test_frog_error_positive_and_shape_checked(ideal_measurements):
    m, _ = ideal_measurements
    other = np.roll(m.i_ww.values, 5, axis=0)
    assert frog_error(m.i_ww, other) > 1e-3
    with pytest.raises(ValueError):
        frog_error(m.i_ww, np.zeros((3, 3)))


def test_measurement_set_validation(ideal_measurements):
    m, _ = ideal_measurements
    # swap two planes: axes no longer conjugate
    with pytest.raises(ValueError):
        MeasurementSet(i_ww=m.i_ww, i_wt=m.i_tw, i_tw=m.i_wt, i_tt=m.i_tt)
    with pytest.raises(ValueError):
        MeasurementSet(
            i_ww=m.i_ww.with_values(m.i_ww.values - 1.0),
            i_wt=m.i_wt, i_tw=m.i_tw, i_tt=m.i_tt,
        )
    # a complex plane whose real parts are >= 0 would pass the sign check
    complex_tt = ComplexGrid2D(m.i_tt.axis_s, m.i_tt.axis_i, m.i_tt.values + 1j)
    with pytest.raises(TypeError, match="^i_tt must be an IntensityGrid2D, not ComplexGrid2D$"):
        MeasurementSet(i_ww=m.i_ww, i_wt=m.i_wt, i_tw=m.i_tw, i_tt=complex_tt)


@pytest.mark.parametrize("call, message", [
    (lambda m, state: MeasurementSet(i_ww=m.i_tt, i_wt=m.i_wt, i_tw=m.i_tw, i_tt=m.i_tt),
     "i_ww must live on frequency-frequency axes"),
    (lambda m, state: project_magnitude(state, m.i_tt), "projection axes do not match"),
], ids=["ww_off_the_frequency_axes", "project_on_other_axes"])
def test_measurement_axes_refusals(ideal_measurements, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*ideal_measurements)


def test_retrieval_config_validation():
    with pytest.raises(ValueError):
        RetrievalConfig(iterations=0)
    with pytest.raises(ValueError):
        RetrievalConfig(constraint_mask=frozenset({"ww", "xy"}))
    # an empty mask projects no plane, so the ww error would read 0
    for bad in ({"constraint_mask": ()}, {"constraint_mask": ("wt", "wt")},
                {"seed": -3}):
        with pytest.raises(ValueError, match=r"^retrieval\."):
            RetrievalConfig(**bad)
    with pytest.raises(ValueError, match=r"^retrieval\.constraint_mask entries must be strings, not None$"):
        RetrievalConfig(constraint_mask=("ww", None))
    # a string is a collection of characters, not of plane names
    for text in ("wwtt", "ww"):
        with pytest.raises(ValueError, match=r"^retrieval\.constraint_mask must be a collection of plane names, "
                                             rf"not the string '{text}'$"):
            RetrievalConfig(constraint_mask=text)


def test_start_on_other_axes_rejected_at_run(ideal_measurements):
    m, state = ideal_measurements
    delay = ComplexGrid2D(m.i_tt.axis_s, m.i_tt.axis_i, state.values)
    wider = ComplexGrid2D(replace(state.axis_s, step=2 * state.axis_s.step), state.axis_i, state.values)
    for start in (delay, wider):
        with pytest.raises(ValueError, match="start axes do not match"):
            run_retrieval(m, RetrievalConfig(iterations=1), start=start)


def test_run_retrieval_deterministic_per_seed(ideal_measurements):
    m, _ = ideal_measurements
    r1 = run_retrieval(m, RetrievalConfig(iterations=20, seed=5))
    r2 = run_retrieval(m, RetrievalConfig(iterations=20, seed=5))
    r3 = run_retrieval(m, RetrievalConfig(iterations=20, seed=6))
    assert np.array_equal(r1.jsa.values, r2.jsa.values)
    assert np.array_equal(r1.error_history_ww, r2.error_history_ww)
    assert not np.array_equal(r1.jsa.values, r3.jsa.values)


def test_flat_phase_init_solves_chirpless_state():
    p = GaussianStateParams(rho=-0.8)
    state = synthesize_state(p, n=64)
    m = simulate_measurements(state, GatingModel(gate=None))
    r = run_retrieval(m, RetrievalConfig(iterations=3), start=_flat_start(m))
    assert r.error_history_ww[0] < 1e-8
    assert r.error_final_tt < 1e-8


def test_given_start_records_no_seed(ideal_measurements):
    # a given start draws nothing, so the seed plays no part in the result
    m, _ = ideal_measurements
    r5, r9 = (run_retrieval(m, RetrievalConfig(iterations=5, seed=s), start=_flat_start(m)) for s in (5, 9))
    assert np.array_equal(r5.jsa.values, r9.jsa.values)


def test_supplied_init_with_truth_stays_converged(ideal_measurements):
    m, state = ideal_measurements
    r = run_retrieval(m, RetrievalConfig(iterations=5), start=state)
    assert r.error_history_ww[-1] < 1e-8


def test_history_length_and_result_fields(ideal_measurements):
    m, _ = ideal_measurements
    r = run_retrieval(m, RetrievalConfig(iterations=17, seed=2))
    assert r.error_history_ww.shape == (17,)
    assert r.iterations_run == 17
    assert r.jsa.axis_s.compatible_with(m.i_ww.axis_s)


def test_gauge_fix_peak_real_positive(ideal_measurements):
    m, state = ideal_measurements
    rotated = state.with_values(state.values * np.exp(1j * 1.234))
    # rotate the global phase so the peak-intensity pixel is real positive
    peak = np.unravel_index(np.argmax(np.abs(rotated.values)), rotated.values.shape)
    fixed = rotated.with_values(rotated.values * np.exp(-1j * np.angle(rotated.values[peak])))
    idx = np.unravel_index(np.argmax(np.abs(fixed.values)), fixed.values.shape)
    assert fixed.values[idx].imag == pytest.approx(0.0, abs=1e-12)
    assert fixed.values[idx].real > 0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_projection_preserves_measured_intensity_property(seed):
    p = GaussianStateParams(rho=-0.6)
    state = synthesize_state(p, n=32)
    m = simulate_measurements(state, GatingModel(gate=None))
    rng = np.random.default_rng(seed)
    guess = state.with_values(
        np.sqrt(m.i_ww.values) * np.exp(2j * np.pi * rng.random((32, 32)))
    )
    out = project_magnitude(guess, m.i_ww)
    assert np.allclose(np.abs(out.values) ** 2, m.i_ww.values, atol=1e-12)


# ---------------------------------------------------------------------------
# The array-level loop against the object-level one it replaced


def _oracle_project(f, i, eps):
    mag = np.abs(f.values)
    phase = np.where(mag < eps, 1.0 + 0.0j, f.values / np.where(mag < eps, 1.0, mag))
    return f.with_values(phase * np.sqrt(i.values))


def _reference_start(m, cfg, init="random_phase"):
    """The generated starts as first written: sqrt(ww) with zero phase
    ("flat_phase") or with a uniformly random phase drawn from cfg.seed."""
    amp = np.sqrt(m.i_ww.values)
    if init == "flat_phase":
        values = amp.astype(complex)
    else:
        rng = np.random.default_rng(cfg.seed)
        values = amp * np.exp(2j * np.pi * rng.random(amp.shape))
    return ComplexGrid2D(m.i_ww.axis_s, m.i_ww.axis_i, values)


def _flat_start(m):
    return ComplexGrid2D(m.i_ww.axis_s, m.i_ww.axis_i, np.sqrt(m.i_ww.values))


def _oracle_retrieval(m, cfg, start=None):
    """The loop on typed grids: every step a unitary centered transform_photon
    and every projection a new grid; returns (jsa values, ww history, tt error)."""
    eps, mask = retrieve.ZERO_MAGNITUDE_EPSILON, cfg.constraint_mask
    f = _reference_start(m, cfg) if start is None else start
    history = np.empty(cfg.iterations)
    for k in range(cfg.iterations):
        if "ww" in mask:
            f = _oracle_project(f, m.i_ww, eps)
        f = transform_photon(f, IDLER)
        if "wt" in mask:
            f = _oracle_project(f, m.i_wt, eps)
        f = transform_photon(f, SIGNAL)
        if "tt" in mask:
            f = _oracle_project(f, m.i_tt, eps)
        f = transform_photon(f, IDLER)
        if "tw" in mask:
            f = _oracle_project(f, m.i_tw, eps)
        f = transform_photon(f, SIGNAL)
        history[k] = frog_error(m.i_ww, np.abs(f.values) ** 2)
    f_tt = transform_photon(transform_photon(f, IDLER), SIGNAL)
    return f.values, history, frog_error(m.i_tt, np.abs(f_tt.values) ** 2)


def _assert_matches_oracle(m, cfg, start=None):
    want_jsa, want_hist, want_tt = _oracle_retrieval(m, cfg, start)
    r = run_retrieval(m, cfg, start)
    assert np.max(np.abs(r.jsa.values - want_jsa)) <= 1e-12 * np.max(np.abs(want_jsa))
    assert np.max(np.abs(r.error_history_ww - want_hist)) <= 1e-12
    assert abs(r.error_final_tt - want_tt) <= 1e-12


def _chirped_measurements(n):
    p = GaussianStateParams(rho=-0.8, chirp_s=-8000.0, chirp_i=-9000.0)
    state = synthesize_state(p, n=n, span_sigmas=8)
    return simulate_measurements(state, GatingModel(gate=None)), state


MASKS = [frozenset(c) for r in range(1, 5) for c in combinations(PLANES, r)]


def _mask_id(mask):
    return "+".join(sorted(mask))


def _force_path(monkeypatch, path):
    """Run the loop serially, as on one CPU, or split over two processes
    whatever the stack's size."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if path == "serial" else {0, 1})
    if path == "split":
        monkeypatch.setattr(retrieve, "SPLIT_PIXELS", 1)


def _on_both_paths(argname, values, ids):
    """``parametrize(argname, values, ids=ids)`` on the serial loop, and again
    on the split loop with ``-split`` after each id; the test gets the loop
    as ``path`` and forces it with ``_force_path``."""
    return pytest.mark.parametrize(f"{argname}, path", [
        pytest.param(value, path, id=ids(value) + ("-split" if path == "split" else ""))
        for path in ("serial", "split") for value in values
    ])


@pytest.fixture(scope="module")
def chirped_n32():
    return _chirped_measurements(32)


@_on_both_paths("mask", MASKS, _mask_id)
def test_array_core_matches_object_loop_every_mask(chirped_n32, mask, path, monkeypatch):
    _force_path(monkeypatch, path)
    m, _ = chirped_n32
    _assert_matches_oracle(m, RetrievalConfig(iterations=20, seed=3, constraint_mask=mask))


def test_array_core_matches_object_loop_odd_n():
    # odd and unequal counts (33 x 31): fftshift and ifftshift differ, and a
    # swapped axis would not broadcast; split, the halves are unequal too
    _, state = _chirped_measurements(64)
    axis_s = replace(state.axis_s, count=33)
    axis_i = replace(state.axis_i, count=31)
    odd = ComplexGrid2D(axis_s, axis_i, state.values[16:49, 17:48])
    m = simulate_measurements(odd, GatingModel(gate=None))
    _assert_matches_oracle(m, RetrievalConfig(iterations=20, seed=4))


def test_array_core_matches_object_loop_zero_regions(chirped_n32, monkeypatch):
    # a guess that vanishes exactly where the measurements do not, and
    # measurements that vanish exactly on whole rows: both take the
    # zero-magnitude branch of the projection
    m, state = chirped_n32
    hole = state.values.copy()
    hole[12:20, 10:22] = 0.0
    _assert_matches_oracle(m, RetrievalConfig(iterations=20), state.with_values(hole))
    banded = state.values.copy()
    banded[:8] = 0.0
    m_banded = simulate_measurements(state.with_values(banded), GatingModel(gate=None))
    assert np.any(m_banded.i_ww.values == 0) and np.any(m_banded.i_wt.values == 0)
    _assert_matches_oracle(m_banded, RetrievalConfig(iterations=20, seed=5))
    # a coarse epsilon puts nonzero-amplitude pixels in every plane below it;
    # it must act on the field at its unitary scale, not on the raw FFT output
    monkeypatch.setattr(retrieve, "ZERO_MAGNITUDE_EPSILON", 1e-3)
    _assert_matches_oracle(m, RetrievalConfig(iterations=20, seed=6))


def test_array_core_matches_object_loop_odd_n_split(monkeypatch):
    _force_path(monkeypatch, "split")
    test_array_core_matches_object_loop_odd_n()


def test_array_core_matches_object_loop_zero_regions_split(chirped_n32, monkeypatch):
    _force_path(monkeypatch, "split")
    test_array_core_matches_object_loop_zero_regions(chirped_n32, monkeypatch)


def _reference_retrieval(m, cfg, start=None):
    """Reference: the array loop as first written, holding every shifted
    measured plane and the initial state to the end, then taking a new array
    to the tt plane; returns (jsa values, ww history, tt error)."""
    f = _reference_start(m, cfg) if start is None else start
    measured = {p: np.fft.ifftshift(grid.values) for p, grid in m.grids().items()}
    amp = {p: np.sqrt(measured[p]) for p in cfg.constraint_mask}
    m_hat = _unit_peak(measured["ww"])
    cycle = (
        ("ww", np.fft.fft, 1, dft_scale(f.axis_i)),
        ("wt", np.fft.fft, 0, dft_scale(f.axis_s)),
        ("tt", np.fft.ifft, 1, dft_scale(conjugate_axis(f.axis_i))),
        ("tw", np.fft.ifft, 0, dft_scale(conjugate_axis(f.axis_s))),
    )
    g = np.fft.ifftshift(f.values)
    mag, work = np.abs(g), np.empty(g.shape)
    scale = 1.0
    history = np.empty(cfg.iterations)
    for k in range(cfg.iterations):
        for plane, dft, axis, factor in cycle:
            if plane in amp:
                if plane != "ww":
                    np.abs(g, out=mag)
                _project(g, amp[plane], retrieve.ZERO_MAGNITUDE_EPSILON / scale, mag)
                scale = 1.0
            dft(g, axis=axis, out=g)
            scale *= factor
        np.abs(g, out=mag)
        history[k] = _frog_error(m_hat, np.square(mag, out=work), work)
    g_tt = np.fft.fft(np.fft.fft(g, axis=1), axis=0)
    return np.fft.fftshift(scale * g), history, frog_error(measured["tt"], np.abs(g_tt) ** 2)


@pytest.fixture(
    scope="module",
    params=[(n, sigma, noisy) for n in (32, 64) for sigma in (0.01, 1.0 / 260) for noisy in (False, True)],
    ids=lambda k: f"n{k[0]}-sigma{k[1]:.4f}{'-noisy' * k[2]}",
)
def identity_set(request):
    n, sigma, noisy = request.param
    p = GaussianStateParams(rho=-0.8, chirp_s=-8000.0, chirp_i=-9000.0)
    m = simulate_measurements(synthesize_state(p, n=n, span_sigmas=8), GatingModel(gate=GatePulse(2.432, sigma)))
    # counts of zero put exact zeros in every amplitude
    return poissonize_set(m, 300.0, seed=n) if noisy else m


def _assert_matches_reference(m, cfg, start=None, reference_start=None):
    jsa, history, err_tt = _reference_retrieval(m, cfg, reference_start)
    r = run_retrieval(m, cfg, start)
    assert np.array_equal(r.jsa.values, jsa)
    assert np.array_equal(r.error_history_ww, history)
    assert r.error_final_tt == err_tt


@_on_both_paths("mask", MASKS, _mask_id)
def test_run_retrieval_is_byte_identical_to_reference(identity_set, mask, path, monkeypatch):
    _force_path(monkeypatch, path)
    _assert_matches_reference(identity_set, RetrievalConfig(iterations=12, seed=3, constraint_mask=mask))


@_on_both_paths("init", ["flat_phase", "supplied"], str)
def test_run_retrieval_is_byte_identical_to_reference_for_each_init(init, path, monkeypatch):
    _force_path(monkeypatch, path)
    cfg = RetrievalConfig(iterations=12)
    for n in (32, 64):
        m, state = _chirped_measurements(n)
        if init == "supplied":
            _assert_matches_reference(m, cfg, state, state)
        else:
            _assert_matches_reference(m, cfg, _flat_start(m), _reference_start(m, cfg, "flat_phase"))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_non_finite_state_raises_retrieval_error(chirped_n32):
    m, state = chirped_n32
    huge = state.with_values(np.full(state.values.shape, 1e308 + 0j))
    with pytest.raises(RetrievalError, match="iteration 1"):
        run_retrieval(m, RetrievalConfig(iterations=3, constraint_mask=frozenset({"tt"})), start=huge)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_non_finite_state_raises_retrieval_error_split(chirped_n32, monkeypatch):
    _force_path(monkeypatch, "split")
    test_non_finite_state_raises_retrieval_error(chirped_n32)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@_on_both_paths("mask", [("wt",), ("tw",), ("wt", "tw", "tt")], "-".join)
def test_non_finite_state_raises_without_ww_constraint(chirped_n32, mask, path, monkeypatch):
    # the finiteness check rides on the ww error, which is computed whether or
    # not ww is projected
    _force_path(monkeypatch, path)
    m, state = chirped_n32
    huge = state.with_values(np.full(state.values.shape, 1e308 + 0j))
    with pytest.raises(RetrievalError, match="iteration 1"):
        run_retrieval(m, RetrievalConfig(iterations=3, constraint_mask=frozenset(mask)), start=huge)


# ---------------------------------------------------------------------------
# A stack of measurement sets against lone runs


def _poisson_sets(n_s, n_i, count=4):
    """Poisson draws of one chirped state's ideal planes on n_s x n_i axes
    cut from the n = 64 or 128 grid; low counts put exact zeros in the
    amplitudes."""
    n = 64 if max(n_s, n_i) <= 64 else 128
    _, state = _chirped_measurements(n)
    lo_s, lo_i = n // 2 - n_s // 2, n // 2 - n_i // 2
    cut = ComplexGrid2D(
        replace(state.axis_s, count=n_s), replace(state.axis_i, count=n_i),
        state.values[lo_s : lo_s + n_s, lo_i : lo_i + n_i],
    )
    m = simulate_measurements(cut, GatingModel(gate=None))
    return [poissonize_set(m, 300.0, seed=10 * k) for k in range(count)]


def _assert_same_result(got, want):
    assert np.array_equal(got.jsa.values, want.jsa.values)
    assert (got.jsa.axis_s, got.jsa.axis_i) == (want.jsa.axis_s, want.jsa.axis_i)
    assert np.array_equal(got.error_history_ww, want.error_history_ww)
    assert got.error_final_tt == want.error_final_tt
    assert got.iterations_run == want.iterations_run


# at n = 128 a batched dot product over the stack would sum in another order
@_on_both_paths("shape", [(32, 32), (33, 31), (128, 128)], {(32, 32): "n32", (33, 31): "33x31", (128, 128): "n128"}.get)
@pytest.mark.parametrize("mask", [frozenset(PLANES), frozenset({"ww", "tt"})], ids=["all", "ww+tt"])
def test_stack_gives_each_set_its_lone_result(shape, mask, path, monkeypatch):
    _force_path(monkeypatch, path)
    sets = _poisson_sets(*shape)
    cfg = RetrievalConfig(iterations=15, constraint_mask=mask)
    seeds = [3, 8, 8, 21]  # one seed twice, on different draws
    starts = [_reference_start(m, replace(cfg, seed=seed)) for m, seed in zip(sets, seeds)]
    stack = run_retrieval_stack(sets, cfg, starts)
    assert len(stack) == len(sets)
    for m, seed, got in zip(sets, seeds, stack):
        _assert_same_result(got, run_retrieval(m, replace(cfg, seed=seed)))
    # a set's result does not depend on the other starts of its stack
    start = _flat_start(sets[1])
    got = run_retrieval_stack(sets[:3], cfg, [starts[0], start, starts[2]])
    _assert_same_result(got[1], run_retrieval(sets[1], cfg, start=start))
    _assert_same_result(got[2], stack[2])


def test_stack_raises_the_lone_run_exception():
    # no filterwarnings mark: tier-1 turns warnings into errors, and the loop
    # reports a non-finite set through its error, not through numpy warnings
    sets = _poisson_sets(32, 32, count=3)
    cfg = RetrievalConfig(iterations=6, constraint_mask=frozenset({"wt", "tw", "tt"}))
    zero_tt = replace(sets[1], i_tt=sets[1].i_tt.with_values(np.zeros((32, 32))))
    huge = ComplexGrid2D(sets[1].i_ww.axis_s, sets[1].i_ww.axis_i, np.full((32, 32), 1e308 + 0j))
    others = [_reference_start(m, replace(cfg, seed=seed)) for m, seed in zip(sets, (1, 2, 3))]
    for bad, start, want in (
        (zero_tt, _flat_start(sets[1]), "ValueError('measured grid is identically zero')"),
        (sets[1], huge, "RetrievalError('non-finite state after iteration 1')"),
    ):
        with pytest.raises(Exception) as in_stack:
            run_retrieval_stack([sets[0], bad, sets[2]], cfg, [others[0], start, others[2]])
        with pytest.raises(Exception) as alone:
            run_retrieval(bad, cfg, start=start)
        assert repr(in_stack.value) == repr(alone.value) == want


def test_stack_raises_the_lone_run_exception_split(monkeypatch):
    # the partner's half overflows too: np.errstate must hold there
    _force_path(monkeypatch, "split")
    test_stack_raises_the_lone_run_exception()


def test_stack_needs_shared_ww_axes():
    small, odd = _poisson_sets(32, 32, count=1) + _poisson_sets(33, 31, count=1)
    cfg = RetrievalConfig(iterations=2)
    with pytest.raises(ValueError, match="share the ww axes"):
        run_retrieval_stack([small, odd], cfg, [_reference_start(small, cfg), _reference_start(odd, cfg)])
    assert run_retrieval_stack([], cfg, []) == []


def test_stack_starts_are_states():
    # the random start is drawn by run_retrieval; a stack takes no seed
    (m,) = _poisson_sets(32, 32, count=1)
    with pytest.raises(TypeError, match="^a start must be a ComplexGrid2D, not int$"):
        run_retrieval_stack([m], RetrievalConfig(iterations=2), [3])


# ---------------------------------------------------------------------------
# The split loop: each iteration in halves in two processes


@pytest.fixture(scope="module")
def gated_n256():
    p = GaussianStateParams(rho=-0.8, chirp_s=-8000.0, chirp_i=-9000.0)
    state = synthesize_state(p, n=256, span_sigmas=8)
    return simulate_measurements(state, GatingModel(gate=GatePulse(2.432, 0.01)))


def test_split_is_chosen_from_the_stack_size_and_the_cpus(monkeypatch):
    # a lone 128 x 128 set is SPLIT_PIXELS pixels, the least the loop splits
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert retrieve._splits(128 * 128)
    assert not retrieve._splits(64 * 64 * 3)
    monkeypatch.setattr(threading, "active_count", lambda: 2)  # forking beside a thread can deadlock
    assert not retrieve._splits(128 * 128)
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert not retrieve._splits(128 * 128)
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(platform, "machine", lambda: "aarch64")  # stores may be seen out of order
    assert not retrieve._splits(128 * 128)
    monkeypatch.undo()
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert not retrieve._splits(128 * 128)
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not retrieve._splits(128 * 128)


@pytest.mark.parametrize("mask", [frozenset(PLANES), frozenset({"ww", "tt"})], ids=["all", "ww+tt"])
@pytest.mark.parametrize("path", ["serial", "split"])
def test_n256_is_byte_identical_to_reference(gated_n256, mask, path, monkeypatch, forked):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if path == "serial" else {0, 1})
    _assert_matches_reference(gated_n256, RetrievalConfig(iterations=10, seed=3, constraint_mask=mask))
    assert len(forked) == (path == "split")


def test_one_cpu_forks_no_partner(gated_n256, monkeypatch, no_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _assert_matches_reference(gated_n256, RetrievalConfig(iterations=4, seed=3))
    # on two CPUs the same call would fork one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(RuntimeError, match="^no fork$"):
        run_retrieval(gated_n256, RetrievalConfig(iterations=4, seed=3))


@pytest.mark.parametrize("side", ["partner", "caller"])
def test_split_raises_a_phase_exception_of_either_process(chirped_n32, monkeypatch, forked, side):
    # with its type and message, and reaps the partner, when it raises as when it returns
    _force_path(monkeypatch, "split")
    m, _ = chirped_n32
    caller, project = os.getpid(), retrieve._project

    def failing(g, amp, eps, mag):
        if (os.getpid() == caller) == (side == "caller"):
            raise ZeroDivisionError(side)
        return project(g, amp, eps, mag)

    run_retrieval(m, RetrievalConfig(iterations=3))
    monkeypatch.setattr(retrieve, "_project", failing)
    with pytest.raises(ZeroDivisionError, match=f"^{side}$"):
        run_retrieval(m, RetrievalConfig(iterations=3))
    assert len(forked) == 2


def test_split_raises_child_process_error_when_the_partner_is_killed(chirped_n32, monkeypatch, forked):
    # the caller's spin sees the partner gone instead of waiting for it
    _force_path(monkeypatch, "split")
    m, _ = chirped_n32
    caller, project = os.getpid(), retrieve._project

    def killed(g, amp, eps, mag):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return project(g, amp, eps, mag)

    monkeypatch.setattr(retrieve, "_project", killed)
    with pytest.raises(ChildProcessError) as exc:
        run_retrieval(m, RetrievalConfig(iterations=3))
    (pid,) = forked
    assert str(exc.value) == f"partner process {pid} ended with exit code -9 before its half was done"


def test_concurrent_split_retrievals_match_the_serial_ones(chirped_n32, monkeypatch, no_fork):
    # three callers on at most two CPUs, switching threads every few
    # microseconds: in a process with more than one thread the halves run in
    # sequence, and no partner is forked beside the threads
    m, _ = chirped_n32
    cfgs = [RetrievalConfig(iterations=20, seed=s) for s in (1, 2, 3)]
    _force_path(monkeypatch, "serial")
    want = [run_retrieval(m, cfg) for cfg in cfgs]
    _force_path(monkeypatch, "split")
    got = [None] * len(cfgs)

    def caller(i):
        got[i] = run_retrieval(m, cfgs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(cfgs))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for g, w in zip(got, want, strict=True):
        _assert_same_result(g, w)


def _frog_error_reference(m, r):
    """The FROG error as first written: both intensities scaled to unit peak."""
    m = m / m.max()
    if r.max() > 0:
        r = r / r.max()
    denom = np.sum(r * r)
    mu = np.sum(m * r) / denom if denom > 0 else 0.0
    return float(np.sqrt(np.mean((m - mu * r) ** 2)))


@pytest.mark.parametrize("shape", [(32, 32), (33, 31), (128, 128)])
@pytest.mark.parametrize("r_scale", [1.0, 1e150, 0.0])
def test_frog_helper_matches_reference(shape, r_scale):
    rng = np.random.default_rng(shape[0])
    m = rng.random(shape) ** 4
    r = r_scale * rng.random(shape) ** 4
    want = _frog_error_reference(m, r)
    m_hat, r_before = _unit_peak(m), r.copy()
    resid = np.empty(shape)
    assert _frog_error(m_hat, r, resid) == pytest.approx(want, rel=1e-12, abs=0)
    assert np.array_equal(r, r_before)
    assert frog_error(m, r) == pytest.approx(want, rel=1e-12, abs=0)
    # the retrieval loop writes the residual over the intensity buffer
    assert _frog_error(m_hat, r, r) == pytest.approx(want, rel=1e-12, abs=0)
