"""Optical-gating forward model: gate pulse, phase matching, gated planes."""

import logging
import multiprocessing
import os
import re
import signal
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d
from scipy.optimize import brentq

from biphoton import gating
from biphoton.gating import (
    MAX_PEAK_COUNTS,
    GatePulse,
    GatingModel,
    ModelRangeError,
    RefractiveModel,
    delta_k,
    gate_spectrum,
    phase_match,
    poissonize,
    simulate_measurements,
)
from biphoton.gating import _blur_axis, _gate_kernel, _gated_planes, _gated_planes_l0, _svd_modes
from biphoton.grids import FREQUENCY, IDLER, SIGNAL, Axis, ComplexGrid2D, transform_photon
from biphoton.synth import SPAN_SIGMAS, GaussianStateParams, synthesize_state
from biphoton.units import wavelength_to_omega

GATE_CENTER = wavelength_to_omega(775.0)
CHIRPED = GaussianStateParams(
    rho=-0.8,
    chirp_s=3000.0,
    chirp_i=-5000.0,
    center_s=wavelength_to_omega(823.0),
    center_i=wavelength_to_omega(732.0),
)


@pytest.fixture(scope="module")
def chirped_state():
    return synthesize_state(CHIRPED, n=64, span_sigmas=8)


def test_gate_spectrum_unit_norm():
    g = GatePulse(center=GATE_CENTER, sigma=0.004)
    w = np.linspace(GATE_CENTER - 0.1, GATE_CENTER + 0.1, 4001)
    spec = gate_spectrum(g, w, 0.0)
    norm = np.trapezoid(np.abs(spec) ** 2, w)
    assert norm == pytest.approx(1.0, rel=1e-8)


def test_gate_temporal_width():
    # temporal intensity s.d. must be 1/(2*sigma); direct Fourier quadrature
    sigma = 1.0 / (2 * 130.0)
    g = GatePulse(center=GATE_CENTER, sigma=sigma)
    w = np.linspace(-8 * sigma, 8 * sigma, 1024) + GATE_CENTER
    t = np.linspace(-600, 600, 801)
    spec = gate_spectrum(g, w, 0.0)
    field = np.trapezoid(
        spec[None, :] * np.exp(-1j * np.outer(t, w - GATE_CENTER)), w, axis=1
    ) / np.sqrt(2 * np.pi)
    inten = np.abs(field) ** 2
    inten /= inten.sum()
    mean = (inten * t).sum()
    sd = np.sqrt((inten * (t - mean) ** 2).sum())
    assert sd == pytest.approx(130.0, rel=1e-3)


def test_gate_delay_is_linear_phase():
    g = GatePulse(center=GATE_CENTER, sigma=0.004)
    w = GATE_CENTER + np.linspace(-0.01, 0.01, 11)
    s0 = gate_spectrum(g, w, 0.0)
    s1 = gate_spectrum(g, w, 55.0)
    assert np.allclose(s1, s0 * np.exp(1j * 55.0 * (w - GATE_CENTER)))


def test_ideal_model_matches_transforms(chirped_state):
    m = simulate_measurements(chirped_state, GatingModel(gate=None))
    f_wt = transform_photon(chirped_state, IDLER)
    f_tt = transform_photon(f_wt, SIGNAL)
    want = np.abs(f_tt.values) ** 2
    assert np.allclose(m.i_tt.values, want / want.max(), atol=1e-12)


def test_gated_tt_convolution_oracle(chirped_state):
    # at L=0 the double-gated delay map is the ideal |F(t_s, t_i)|^2 blurred
    # by the gate temporal intensity along both axes
    gate = GatePulse(center=GATE_CENTER, sigma=1.0 / (2 * 130.0))
    gm = GatingModel(gate=gate, crystal_length=0.0)
    m = simulate_measurements(chirped_state, gm)
    ideal = simulate_measurements(chirped_state, GatingModel(gate=None))
    tau = 1.0 / (2 * gate.sigma)
    step = m.i_tt.axis_s.step
    want = gaussian_filter1d(ideal.i_tt.values, tau / step, axis=0, mode="constant")
    want = gaussian_filter1d(want, tau / m.i_tt.axis_i.step, axis=1, mode="constant")
    want /= want.max()
    rms = np.sqrt(np.mean((want - m.i_tt.values) ** 2))
    assert rms < 1e-3


def test_gated_one_side_direct_oracle(chirped_state):
    gate = GatePulse(center=GATE_CENTER, sigma=1.0 / (2 * 130.0))
    gm = GatingModel(gate=gate, crystal_length=0.0, upconverted_grid_count=128)
    K_s, du_s = _gate_kernel(chirped_state.axis_s, gm)
    fast = simulate_measurements(chirped_state, gm).i_tw.values
    dws = chirped_state.axis_s.offsets()
    taus = np.arange(64) - 32
    taus = taus * 2 * np.pi / (64 * chirped_state.axis_s.step)
    direct = np.empty_like(fast)
    for mdx, tau in enumerate(taus):
        A = K_s @ (chirped_state.values * np.exp(-1j * dws * tau)[:, None])
        direct[mdx] = np.sum(np.abs(A) ** 2, axis=0) * du_s
    direct /= direct.max()
    assert np.max(np.abs(direct - fast)) < 1e-10 * fast.max()


def _centered_fft(values, axis):
    v = np.fft.ifftshift(values, axes=axis)
    v = np.fft.fft(v, axis=axis)
    return np.fft.fftshift(v, axes=axis)


def _full_stack_one_side(F, K, du, side_axis):
    """Reference: the (u, n_s, n_i) upconverted-frequency stack, transformed
    along the gated axis and summed over u."""
    if side_axis == 0:
        stack = K[:, :, None] * F[None, :, :]
    else:
        stack = K[:, None, :] * F[None, :, :]
    B = _centered_fft(stack, axis=side_axis + 1)
    return np.sum(np.abs(B) ** 2, axis=0) * du


def _full_stack_both_sides(F, K_s, du_s, K_i, du_i):
    """Reference: double-gated plane, one signal mode at a time over a stack
    of all idler modes, each shifted and transformed on its own."""
    w_s, vh_s = _svd_modes(K_s, du_s)
    w_i, vh_i = _svd_modes(K_i, du_i)
    H = np.zeros(F.shape)
    for a in range(len(w_s)):
        X = vh_s[a][None, :, None] * vh_i[:, None, :] * F[None, :, :]
        X = _centered_fft(_centered_fft(X, axis=1), axis=2)
        H += w_s[a] ** 2 * np.tensordot(w_i**2, np.abs(X) ** 2, axes=(0, 0))
    return H


def _odd_state(state):
    # odd and unequal counts: fftshift and ifftshift differ on both axes
    axis_s = replace(state.axis_s, count=33)
    axis_i = replace(state.axis_i, count=31)
    return ComplexGrid2D(axis_s, axis_i, state.values[16:49, 17:48])


@pytest.mark.parametrize("length", [0.0, 1000.0])
@pytest.mark.parametrize("shape", ["n32", "odd33x31"])
def test_mode_contraction_matches_full_stacks(chirped_state, shape, length):
    state = synthesize_state(CHIRPED, n=32, span_sigmas=8) if shape == "n32" else _odd_state(chirped_state)
    gate = GatePulse(center=GATE_CENTER, sigma=1.0 / (2 * 130.0))
    rm = RefractiveModel.default().tuned_for(state.axis_s.center, GATE_CENTER) if length else None
    gm = GatingModel(gate=gate, crystal_length=length, refractive=rm)
    m = simulate_measurements(state, gm)
    K_s, du_s = _gate_kernel(state.axis_s, gm)
    K_i, du_i = _gate_kernel(state.axis_i, gm)
    F = state.values
    want = {
        "tw": _full_stack_one_side(F, K_s, du_s, 0),
        "wt": _full_stack_one_side(F, K_i, du_i, 1),
        "tt": _full_stack_both_sides(F, K_s, du_s, K_i, du_i),
    }
    got = m.grids()
    for plane, ref in want.items():
        assert got[plane].values.shape == F.shape
        assert np.max(np.abs(got[plane].values - ref / ref.max())) <= 1e-10, plane


def _scan_kernel(axis, gm):
    """Reference: the kernel on a support found numerically, by scanning |K|
    on 1024 trial frequencies for where it exceeds 1e-6 of its peak."""
    omega = axis.values()

    def kernel_on(omega_u):
        wg = omega_u[:, None] - omega[None, :]
        K = gate_spectrum(gm.gate, wg, 0.0)
        if gm.crystal_length > 0:
            dk = delta_k(gm.refractive, omega[None, :], wg, omega_u[:, None])
            K = K * phase_match(dk, gm.crystal_length)
        return K

    lo = omega.min() + gm.gate.center - 12 * gm.gate.sigma
    hi = omega.max() + gm.gate.center + 12 * gm.gate.sigma
    trial = np.linspace(lo, hi, 1024)
    prof = np.max(np.abs(kernel_on(trial)), axis=1)
    support = trial[prof > 1e-6 * prof.max()]
    omega_u = np.linspace(support.min(), support.max(), gm.upconverted_grid_count)
    return kernel_on(omega_u), omega_u[1] - omega_u[0]


@pytest.mark.parametrize("shape", ["n32", "odd33x31"])
def test_analytic_support_matches_scan_kernel(chirped_state, shape):
    # the gate fixes the kernel's support in closed form; a numerical scan of
    # the full kernel (phase matching included) finds the same planes
    state = synthesize_state(CHIRPED, n=32, span_sigmas=8) if shape == "n32" else _odd_state(chirped_state)
    gate = GatePulse(center=GATE_CENTER, sigma=1.0 / (2 * 130.0))
    rm = RefractiveModel.default().tuned_for(state.axis_s.center, GATE_CENTER)
    gm = GatingModel(gate=gate, crystal_length=1000.0, refractive=rm)
    got = simulate_measurements(state, gm).grids()
    ref = _gated_planes(
        state.values, _svd_modes(*_scan_kernel(state.axis_s, gm)), _svd_modes(*_scan_kernel(state.axis_i, gm))
    )
    for plane, want in zip(("tw", "wt", "tt"), ref):
        assert np.max(np.abs(got[plane].values - want / want.max())) <= 1e-10, plane


def _all_pairs_planes(F, modes_s, modes_i):
    """Reference: the mode sum over every (signal, idler) pair, on one thread."""
    (w_s, vh_s), (w_i, vh_i) = modes_s, modes_i
    us = np.fft.ifftshift(vh_s * w_s[:, None], axes=1)
    vs = np.fft.ifftshift(vh_i * w_i[:, None], axes=1)
    F0 = np.fft.ifftshift(F)
    tw, wt, tt = np.zeros(F.shape), np.zeros(F.shape), np.zeros(F.shape)
    for v in vs:
        Z = np.fft.fft(F0 * v, axis=1)
        wt += Z.real**2 + Z.imag**2
    for u in us:
        Y = np.fft.fft(F0 * u[:, None], axis=0)
        tw += Y.real**2 + Y.imag**2
        for v in vs:
            Z = np.fft.fft(Y * v, axis=1)
            tt += Z.real**2 + Z.imag**2
    return tuple(np.fft.fftshift(plane) for plane in (tw, wt, tt))


def _finite_crystal_modes(state, sigma=0.01):
    gate = GatePulse(center=GATE_CENTER, sigma=sigma)
    rm = RefractiveModel.default().tuned_for(state.axis_s.center, GATE_CENTER)
    gm = GatingModel(gate=gate, crystal_length=1000.0, refractive=rm)
    return _svd_modes(*_gate_kernel(state.axis_s, gm)), _svd_modes(*_gate_kernel(state.axis_i, gm))


@pytest.mark.parametrize("shape", ["n32", "odd33x31"])
def test_pruned_pairs_match_all_pairs(chirped_state, shape):
    # skipping the pairs with w_a w_b <= 1e-6 w_0 w_0' moves no plane by more
    # than 1e-12 of its peak
    state = synthesize_state(CHIRPED, n=32, span_sigmas=8) if shape == "n32" else _odd_state(chirped_state)
    modes_s, modes_i = _finite_crystal_modes(state)
    (w_s, _), (w_i, _) = modes_s, modes_i
    kept = sum(np.count_nonzero(w * w_i > 1e-6 * w_s[0] * w_i[0]) for w in w_s)
    assert kept < w_s.size * w_i.size  # the case does skip pairs
    got = _gated_planes(state.values, modes_s, modes_i)
    want = _all_pairs_planes(state.values, modes_s, modes_i)
    for plane, g, ref in zip(("tw", "wt", "tt"), got, want):
        assert np.max(np.abs(g - ref)) <= 1e-12 * ref.max(), plane


def test_gated_planes_do_not_depend_on_cpu_count(chirped_state):
    # one CPU runs the two halves one after the other in this process, two
    # run them side by side in two; the modes are precomputed, so the SVD's BLAS threads
    # cannot differ
    try:
        mask = os.sched_getaffinity(0)
    except AttributeError:
        pytest.skip("no affinity mask on this platform")
    if len(mask) < 2:
        pytest.skip("needs two CPUs")
    modes_s, modes_i = _finite_crystal_modes(chirped_state)
    first_two = sorted(mask)[:2]
    planes = {}
    try:
        for cpus in ({first_two[0]}, set(first_two)):
            try:
                os.sched_setaffinity(0, cpus)
            except OSError:
                pytest.skip("cannot set the affinity mask")
            planes[len(cpus)] = _gated_planes(chirped_state.values, modes_s, modes_i)
    finally:
        os.sched_setaffinity(0, mask)
    for plane, one, two in zip(("tw", "wt", "tt"), planes[1], planes[2]):
        assert np.array_equal(one, two), plane


@pytest.mark.parametrize("where", ["one_cpu", "multiprocessing_child"])
def test_gated_planes_fork_no_partner_without_two_cpus(chirped_state, monkeypatch, no_fork, where):
    # a forked Monte Carlo worker sums both halves in its one process, as the
    # retrieval does there
    modes_s, modes_i = _finite_crystal_modes(chirped_state)
    if where == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    one = _gated_planes(chirped_state.values, modes_s, modes_i)
    monkeypatch.undo()  # forks and both CPUs back
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for plane, a, b in zip(("tw", "wt", "tt"), one, _gated_planes(chirped_state.values, modes_s, modes_i)):
        assert np.array_equal(a, b), plane


@pytest.mark.parametrize("side", ["partner", "caller"])
def test_gated_planes_raise_an_exception_of_either_process(chirped_state, monkeypatch, forked, side):
    # the partner sums the even signal modes, the caller the odd ones and wt;
    # the partner is reaped when the sum raises as when it returns
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    modes_s, modes_i = _finite_crystal_modes(chirped_state)
    caller, add_abs2 = os.getpid(), gating._add_abs2

    def failing(acc, X):
        if (os.getpid() == caller) == (side == "caller"):
            raise ZeroDivisionError(side)
        add_abs2(acc, X)

    _gated_planes(chirped_state.values, modes_s, modes_i)
    monkeypatch.setattr(gating, "_add_abs2", failing)
    with pytest.raises(ZeroDivisionError, match=f"^{side}$"):
        _gated_planes(chirped_state.values, modes_s, modes_i)
    assert len(forked) == 2


def test_gated_planes_raise_child_process_error_when_the_partner_is_killed(chirped_state, monkeypatch, forked):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    modes_s, modes_i = _finite_crystal_modes(chirped_state)
    caller, add_abs2 = os.getpid(), gating._add_abs2

    def killed(acc, X):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        add_abs2(acc, X)

    monkeypatch.setattr(gating, "_add_abs2", killed)
    with pytest.raises(ChildProcessError) as exc:
        _gated_planes(chirped_state.values, modes_s, modes_i)
    (pid,) = forked
    assert str(exc.value) == f"partner process {pid} ended with exit code -9 before its half was done"


@pytest.mark.parametrize("shape", ["n64", "odd33x31"])
def test_closed_form_l0_matches_mode_path(shape):
    # README state; its chirps make the delay planes wide enough that lag
    # wrapping (no zero padding) would show at this gate width
    p = GaussianStateParams(rho=-0.9, chirp_s=-36000.0, chirp_i=-43000.0)
    state = synthesize_state(p, n=64, span_sigmas=8)
    if shape == "odd33x31":
        state = _odd_state(state)
    gm = GatingModel(gate=GatePulse(center=2.432, sigma=0.01), crystal_length=0.0)
    got = simulate_measurements(state, gm).grids()
    K_s, du_s = _gate_kernel(state.axis_s, gm)
    K_i, du_i = _gate_kernel(state.axis_i, gm)
    modes = _gated_planes(state.values, _svd_modes(K_s, du_s), _svd_modes(K_i, du_i))
    for plane, ref in zip(("tw", "wt", "tt"), modes):
        assert got[plane].values.min() >= 0, plane
        assert np.max(np.abs(got[plane].values - ref / ref.max())) <= 1e-10, plane


# The references below are the out-of-place formulas the in-place code
# replaced; every operation and summation order is the same, so the planes
# must agree bit for bit, not just to round-off.


def _l0_planes_reference(F, step_s, step_i, sigma):
    """Reference: the L = 0 closed form with a new array for |X|^2, for each
    transform and for the weighted lags."""
    ns, ni = F.shape

    def lag_weight(n, step):
        d = np.fft.fftfreq(2 * n, 1.0 / (2 * n))
        return np.exp(-((d * step) ** 2) / (8 * sigma**2))

    w_s, w_i = lag_weight(ns, step_s), lag_weight(ni, step_i)

    def plane(X, axes, weight):
        A = np.fft.ifftn(X.real**2 + X.imag**2, axes=axes) * weight
        even = tuple(slice(None, None, 2) if a in axes else slice(None) for a in range(2))
        P = np.fft.fftn(A, axes=axes)[even]
        return np.clip(np.fft.fftshift(P.real, axes=axes), 0.0, None)

    X_s = np.fft.fft(F, n=2 * ns, axis=0)
    tw = plane(X_s, (0,), w_s[:, None])
    wt = plane(np.fft.fft(F, n=2 * ni, axis=1), (1,), w_i[None, :])
    tt = plane(np.fft.fft(X_s, n=2 * ni, axis=1), (0, 1), np.outer(w_s, w_i))
    return tw, wt, tt


def _kernel_reference(axis, gm):
    """Reference: the L > 0 kernel as G * Phi_SFG, G built first."""
    omega = axis.values()
    half = 2 * gm.gate.sigma * np.sqrt(np.log(1e6))
    omega_u = np.linspace(omega.min() + gm.gate.center - half, omega.max() + gm.gate.center + half,
                          gm.upconverted_grid_count)
    wg = omega_u[:, None] - omega[None, :]
    K = gate_spectrum(gm.gate, wg, 0.0)
    return K * phase_match(delta_k(gm.refractive, omega[None, :], wg, omega_u[:, None]), gm.crystal_length)


def _halves_reference(F, modes_s, modes_i):
    """Reference: the pruned mode sum on one thread, each term a new array:
    the even and odd signal modes sum their own tw and tt (tw before the
    pair loop, the squared real part before the imaginary one), then add."""
    (w_s, vh_s), (w_i, vh_i) = modes_s, modes_i
    us = np.fft.ifftshift(vh_s * w_s[:, None], axes=1)
    vs = np.fft.ifftshift(vh_i * w_i[:, None], axes=1)
    partners = [np.count_nonzero(w * w_i > 1e-6 * w_s[0] * w_i[0]) for w in w_s]
    F0 = np.fft.ifftshift(F)
    halves = []
    for h in (0, 1):
        tw, tt = np.zeros(F.shape), np.zeros(F.shape)
        for u, k in zip(us[h::2], partners[h::2]):
            Y = np.fft.fft(F0 * u[:, None], axis=0)
            tw += Y.real**2
            tw += Y.imag**2
            for v in vs[:k]:
                Z = np.fft.fft(Y * v, axis=1)
                tt += Z.real**2
                tt += Z.imag**2
        halves.append((tw, tt))
    wt = np.zeros(F.shape)
    for v in vs:
        Z = np.fft.fft(F0 * v, axis=1)
        wt += Z.real**2
        wt += Z.imag**2
    (tw, tt), (tw_odd, tt_odd) = halves
    return tuple(np.fft.fftshift(plane) for plane in (tw + tw_odd, wt, tt + tt_odd))


def _identity_state(shape, chirped_state):
    if shape == "odd33x31":
        return _odd_state(chirped_state)
    return synthesize_state(CHIRPED, n=int(shape[1:]), span_sigmas=8)


GATE_SIGMAS = pytest.mark.parametrize("sigma", [0.01, 1.0 / 260], ids=["sigma_0.01", "sigma_1/260"])
IDENTITY_SHAPES = pytest.mark.parametrize("shape", ["n32", "n64", "odd33x31"])


@GATE_SIGMAS
@IDENTITY_SHAPES
def test_closed_form_l0_is_byte_identical_to_reference(chirped_state, shape, sigma):
    state = _identity_state(shape, chirped_state)
    args = (state.values, state.axis_s.step, state.axis_i.step, sigma)
    for plane, got, want in zip(("tw", "wt", "tt"), _gated_planes_l0(*args), _l0_planes_reference(*args)):
        assert np.array_equal(got, want), plane


@GATE_SIGMAS
@IDENTITY_SHAPES
@pytest.mark.parametrize("path", ["serial", "split"])
def test_mode_sum_is_byte_identical_to_reference(chirped_state, shape, sigma, path, monkeypatch, forked):
    # serial, both halves run in this process; split, the even half in a partner
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if path == "serial" else {0, 1})
    state = _identity_state(shape, chirped_state)
    rm = RefractiveModel.default().tuned_for(state.axis_s.center, GATE_CENTER)
    gm = GatingModel(gate=GatePulse(center=GATE_CENTER, sigma=sigma), crystal_length=1000.0, refractive=rm)
    modes = []
    for axis in (state.axis_s, state.axis_i):
        K, du = _gate_kernel(axis, gm)
        assert np.array_equal(K, _kernel_reference(axis, gm)), axis.photon
        modes.append(_svd_modes(K, du))
    got = _gated_planes(state.values, *modes)
    for plane, g, want in zip(("tw", "wt", "tt"), got, _halves_reference(state.values, *modes)):
        assert np.array_equal(g, want), plane
    assert len(forked) == (path == "split")


def test_tiny_gate_sigma_weights_far_frequencies_zero_without_warning():
    # (d / sigma)**2 overflows to inf far below the grid step, and exp(-inf)
    # = 0 is the right weight, in the gate spectrum and the L = 0 lag weight
    gate = GatePulse(center=GATE_CENTER, sigma=1e-160)
    amplitude = gate_spectrum(gate, GATE_CENTER + np.array([0.0, 1e-3]), 0.0)
    assert amplitude[0] > 0 and amplitude[1] == 0
    m = simulate_measurements(synthesize_state(GaussianStateParams(), n=16), GatingModel(gate=gate))
    assert all(np.isfinite(grid.values).all() for grid in m.grids().values())


# An L > 0 gate far narrower than the upconverted grid step: its kernel is 0
# wherever the frequencies do not line up exactly, so either every entry is
# 0 and a side keeps no mode, or a few entries hold the gate's peak amplitude
# (2 pi sigma**2)**-0.25 and the mode sum overflows.
@pytest.mark.parametrize("params, sigma, message", [
    # at these grids one signal entry lines up; with the centers swapped, one idler entry
    (GaussianStateParams(sigma_s=1e-30, sigma_i=1e-30), 7.856e-151, "idler gate kernel keeps no mode"),
    (GaussianStateParams(sigma_s=1e-30, sigma_i=1e-30, center_s=2.574, center_i=2.289), 7.856e-151,
     "signal gate kernel keeps no mode"),
    (GaussianStateParams(), 1e-160, "gate kernels' mode sum overflows"),
], ids=["no_idler_mode", "no_signal_mode", "overflowing_mode_sum"])
def test_degenerate_gate_kernel_raises_value_error(params, sigma, message):
    # synth's grid rule refuses a grid one float wide, so the state is put on it by hand:
    # its values, in units of sigma, are those of the sigma = 0.01 state
    axes = []
    for photon, x in ((SIGNAL, "s"), (IDLER, "i")):
        step = 2 * SPAN_SIGMAS * getattr(params, f"sigma_{x}") / 16
        axes.append(Axis(FREQUENCY, photon, getattr(params, f"center_{x}"), step, 16))
    state = ComplexGrid2D(*axes, synthesize_state(replace(params, sigma_s=0.01, sigma_i=0.01), n=16).values)
    rm = RefractiveModel.default().tuned_for(params.center_s, GATE_CENTER)
    gm = GatingModel(gate=GatePulse(center=GATE_CENTER, sigma=sigma), crystal_length=1000.0, refractive=rm)
    with pytest.raises(ValueError, match=re.escape(f"{message} at gate sigma {sigma:g} rad/fs")):
        simulate_measurements(state, gm)


def test_coverage_warning_names_the_delay_planes(caplog):
    # an ideal gate: the delay planes of this n = 32 state reach the grid edge,
    # and the message must not speak of a gate
    state = synthesize_state(GaussianStateParams(rho=-0.9, chirp_s=-36000.0, chirp_i=-43000.0), n=32)
    with caplog.at_level(logging.WARNING):
        m = simulate_measurements(state, GatingModel(gate=None))
    assert m.coverage_warning
    (record,) = caplog.records
    assert "delay-axis edge" in record.getMessage()
    assert "gated" not in record.getMessage()


def test_spectrometer_blur_widens_marginal(chirped_state):
    sig = 0.002
    m0 = simulate_measurements(chirped_state, GatingModel(gate=None))
    m1 = simulate_measurements(chirped_state, GatingModel(gate=None, spectrometer_sigma=sig))

    def marginal_sd(grid, axis):
        w = grid.values.sum(axis=1 - axis)
        x = (grid.axis_s if axis == 0 else grid.axis_i).values()
        w = w / w.sum()
        mu = (w * x).sum()
        return np.sqrt((w * (x - mu) ** 2).sum())

    sd0 = marginal_sd(m0.i_ww, 0)
    sd1 = marginal_sd(m1.i_ww, 0)
    assert sd1 == pytest.approx(np.sqrt(sd0**2 + sig**2), rel=1e-3)


@pytest.mark.parametrize("shape, sigma_px", [
    ((33, 31), 1.7), ((64, 64), 4.0), ((16, 16), 20.0),
    # below 1/8 px the kernel's radius is 0
    ((16, 16), 0.12), ((33, 31), 1e-100), ((16, 16), 1e-300),
])
@pytest.mark.parametrize("axis", [0, 1])
def test_blur_axis_matches_gaussian_filter1d(shape, sigma_px, axis):
    # (16, 16) at 20 px: the truncated kernel is wider than the axis
    values = np.random.default_rng(3).random(shape)
    step = 0.0005
    got = _blur_axis(values, sigma_px * step, step, axis)
    # gaussian_filter1d divides by sigma**2, which underflows to 0 at 1e-300 px;
    # at every radius-0 sigma it can evaluate, it returns its input
    want = gaussian_filter1d(values, sigma_px, axis=axis, mode="constant") if sigma_px > 1e-150 else values
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_blur_axis_zero_sigma_is_identity():
    values = np.random.default_rng(4).random((8, 9))
    assert _blur_axis(values, 0.0, 0.1, 0) is values


def test_matched_model_has_zero_mismatch():
    # dispersionless, equal indices: perfect phase matching
    index = (1.8**2, 0.0, 0.0, 0.0)
    rm = RefractiveModel(ordinary=index, extraordinary=index, valid_nm=(100.0, 10000.0))
    w_in = wavelength_to_omega(823.0)
    w_g = GATE_CENTER
    assert delta_k(rm, w_in, w_g, w_in + w_g) == pytest.approx(0.0, abs=1e-12)


def test_tuned_angle_zeroes_mismatch():
    rm = RefractiveModel.default()
    w_in = wavelength_to_omega(823.0)
    tuned = rm.tuned_for(w_in, GATE_CENTER)
    assert 0 < tuned.theta < np.pi / 2
    assert abs(delta_k(tuned, w_in, GATE_CENTER, w_in + GATE_CENTER)) < 1e-9


@pytest.mark.parametrize("lambda_in, lambda_gate", [(823.0, 775.0), (732.0, 800.0)])
def test_tuned_angle_matches_brentq(lambda_in, lambda_gate):
    rm = RefractiveModel.default()
    w_in, w_g = wavelength_to_omega(lambda_in), wavelength_to_omega(lambda_gate)

    def mismatch(theta):
        return delta_k(replace(rm, theta=theta), w_in, w_g, w_in + w_g)

    want = brentq(mismatch, 1e-6, np.pi / 2 - 1e-6, xtol=1e-12)
    assert abs(rm.tuned_for(w_in, w_g).theta - want) <= 1e-12


def test_tuned_angle_without_root_raises():
    # anomalous ordinary dispersion and n_e > n_o: the mismatch is negative
    # at every angle
    rm = RefractiveModel(
        ordinary=(3.24, 0.0, 0.0, -0.01), extraordinary=(4.0, 0.0, 0.0, 0.0), valid_nm=(100.0, 10000.0)
    )
    with pytest.raises(ValueError, match="no phase-matching angle"):
        rm.tuned_for(wavelength_to_omega(823.0), GATE_CENTER)


def test_phase_match_limits():
    assert phase_match(0.0, 1000.0) == pytest.approx(1.0)
    assert phase_match(0.123, 0.0) == pytest.approx(1.0)
    dk = np.linspace(-0.1, 0.1, 41)
    assert np.all(np.abs(phase_match(dk, 2000.0)) <= 1.0 + 1e-12)


def test_model_range_error():
    rm = RefractiveModel.default()
    with pytest.raises(ModelRangeError, match=r"^wavelength 100 nm outside the model range \[290, 2500\] nm$"):
        rm.n_ordinary(100.0)
    # an array is reported by its lowest and highest offending wavelengths
    lam = np.array([[3000.0, 800.0], [280.5, 2600.0]])
    with pytest.raises(ModelRangeError, match=r"^wavelength 280\.5 to 3000 nm outside the model range"):
        rm.n_extraordinary_effective(lam)
    rm.n_ordinary(np.array([290.0, 2500.0]))  # the range is closed


def test_finite_crystal_suppresses_tails(chirped_state):
    # longer crystal -> narrower phase-matching acceptance -> narrower delay
    # marginal of the double-gated plane
    gate = GatePulse(center=GATE_CENTER, sigma=1.0 / (2 * 50.0))
    rm = RefractiveModel.default().tuned_for(chirped_state.axis_s.center, GATE_CENTER)

    def tau_sd(L):
        gm = GatingModel(gate=gate, crystal_length=L, refractive=(rm if L else None))
        m = simulate_measurements(chirped_state, gm)
        w = m.i_tt.values.sum(axis=1)
        t = m.i_tt.axis_s.values()
        w = w / w.sum()
        mu = (w * t).sum()
        return np.sqrt((w * (t - mu) ** 2).sum())

    assert tau_sd(2000.0) < tau_sd(0.0)


@pytest.mark.parametrize("call, message", [
    (lambda state: GatePulse(center=GATE_CENTER, sigma=0.0), "gate sigma must be positive"),
    (lambda state: GatePulse(center=GATE_CENTER, sigma=-0.01), "gate sigma must be positive"),
    (lambda state: GatingModel(spectrometer_sigma=-1e-3), "spectrometer_sigma must be >= 0"),
    (lambda state: simulate_measurements(transform_photon(state, IDLER), GatingModel()),
     "state must be in the frequency-frequency domain"),
    (lambda state: poissonize(simulate_measurements(state, GatingModel()).i_ww.with_values(np.zeros((64, 64))), 1e3, 0),
     "cannot poissonize an all-zero grid"),
], ids=["gate_sigma_0", "gate_sigma_negative", "spectrometer_sigma_negative", "state_off_the_frequency_axes",
        "poissonize_all_zero"])
def test_gating_refusals(chirped_state, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(chirped_state)


def test_gating_model_validation():
    with pytest.raises(ValueError):
        GatingModel(gate=None, crystal_length=500.0)
    with pytest.raises(ValueError):
        GatingModel(crystal_length=-1.0)


@pytest.mark.parametrize("count", [0, 1])
def test_gating_model_rejects_upconverted_grid_below_two(count):
    # the kernel's w_u step needs two points
    with pytest.raises(ValueError, match="upconverted_grid_count"):
        GatingModel(gate=GatePulse(center=GATE_CENTER, sigma=0.01), upconverted_grid_count=count)


def test_poissonize_deterministic_and_unbiased(chirped_state):
    m = simulate_measurements(chirped_state, GatingModel(gate=None))
    a = poissonize(m.i_ww, 1e4, seed=11)
    b = poissonize(m.i_ww, 1e4, seed=11)
    c = poissonize(m.i_ww, 1e4, seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values.max() == pytest.approx(1e4, rel=0.05)
    # relative error of the total should follow counting statistics
    total_mean = m.i_ww.values.sum() / m.i_ww.values.max() * 1e4
    assert a.values.sum() == pytest.approx(total_mean, rel=5 / np.sqrt(total_mean))


def test_poissonize_refuses_peak_counts_above_numpy_limit(chirped_state):
    # the limit is numpy's own: Generator.poisson takes it and refuses the next float
    above = np.nextafter(MAX_PEAK_COUNTS, np.inf)
    np.random.default_rng(0).poisson(MAX_PEAK_COUNTS)
    with pytest.raises(ValueError):
        np.random.default_rng(0).poisson(above)
    m = simulate_measurements(chirped_state, GatingModel(gate=None))
    assert poissonize(m.i_ww, 1e18, seed=1).values.max() == pytest.approx(1e18, rel=1e-6)
    for counts in (above, 1e19):
        with pytest.raises(ValueError, match=r"^peak_counts must be positive and at most 9\.2233720065e\+18"):
            poissonize(m.i_ww, counts, seed=1)
    # at the limit itself, a peak of 0.03 scales to one ulp above it
    peaked = m.i_ww.with_values(m.i_ww.values / m.i_ww.values.max() * 0.03)
    assert 0.03 * (MAX_PEAK_COUNTS / 0.03) > MAX_PEAK_COUNTS
    assert poissonize(peaked, MAX_PEAK_COUNTS, seed=1).values.max() > 0
