"""Gaussian state synthesis: normalization, moments, Schmidt purity."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.grids import SIGNAL, DomainMismatchError, total_power, transform_photon
from biphoton.synth import (
    GaussianStateParams,
    ParameterError,
    apply_chirp,
    frequency_axes,
    gaussian_jsa,
    schmidt_purity,
    synthesize_state,
    tbp_gaussian,
)


def _marginal_moments(grid):
    w = np.abs(grid.values) ** 2
    w = w / w.sum()
    xs = grid.axis_s.values()
    ys = grid.axis_i.values()
    ps = w.sum(axis=1)
    pi = w.sum(axis=0)
    ms = (ps * xs).sum()
    mi = (pi * ys).sum()
    ss = np.sqrt((ps * (xs - ms) ** 2).sum())
    si = np.sqrt((pi * (ys - mi) ** 2).sum())
    cov = (w * np.outer(xs - ms, ys - mi)).sum()
    return ms, mi, ss, si, cov / (ss * si)


def test_unit_power():
    g = gaussian_jsa(GaussianStateParams(), n=64)
    assert total_power(g) == pytest.approx(1.0, abs=1e-3)


def test_moment_oracle():
    p = GaussianStateParams(sigma_s=0.012, sigma_i=0.009, rho=-0.7)
    g = gaussian_jsa(p, n=128)
    ms, mi, ss, si, rho = _marginal_moments(g)
    assert ms == pytest.approx(p.center_s, abs=1e-9)
    assert mi == pytest.approx(p.center_i, abs=1e-9)
    assert ss == pytest.approx(p.sigma_s, rel=1e-4)
    assert si == pytest.approx(p.sigma_i, rel=1e-4)
    assert rho == pytest.approx(p.rho, abs=1e-4)


def test_schmidt_purity_matches_svd_oracle():
    # purity of the reduced state = sum of squared Schmidt probabilities,
    # computed here by direct SVD of the discretized amplitude
    for rho in (0.0, -0.5, -0.9):
        p = GaussianStateParams(rho=rho)
        g = gaussian_jsa(p, n=128)
        s = np.linalg.svd(g.values, compute_uv=False)
        lam = s**2
        lam = lam / lam.sum()
        assert float(np.sum(lam**2)) == pytest.approx(schmidt_purity(rho), rel=1e-3)


def test_apply_chirp_magnitude_invariant():
    g = gaussian_jsa(GaussianStateParams(), n=32)
    h = apply_chirp(g, 4000.0, -7000.0)
    assert np.allclose(np.abs(h.values), np.abs(g.values))
    ds = g.axis_s.offsets()[:, None]
    di = g.axis_i.offsets()[None, :]
    expected = 4000.0 * ds**2 - 7000.0 * di**2
    applied = np.angle(h.values / g.values)
    wrapped = np.mod(expected - applied + np.pi, 2 * np.pi) - np.pi
    assert np.max(np.abs(wrapped)) < 1e-9


def test_synthesize_state_is_jsa_plus_chirp():
    p = GaussianStateParams(chirp_s=1500.0, chirp_i=-2500.0)
    direct = synthesize_state(p, n=32)
    manual = apply_chirp(gaussian_jsa(p, n=32), p.chirp_s, p.chirp_i)
    assert np.array_equal(direct.values, manual.values)


def test_tbp_gaussian_values():
    assert tbp_gaussian(0.0) == pytest.approx(1.0)
    assert tbp_gaussian(-0.5) == pytest.approx(np.sqrt(1 / 3))
    assert tbp_gaussian(-0.9) == pytest.approx(np.sqrt(0.1 / 1.9))


@pytest.mark.parametrize("call, error, message", [
    (lambda: apply_chirp(transform_photon(gaussian_jsa(GaussianStateParams(), n=16), SIGNAL), 1.0, 1.0),
     DomainMismatchError, "apply_chirp needs both axes in the frequency domain"),
    (lambda: tbp_gaussian(1.0), ParameterError, "|rho| must be < 1"),
    (lambda: tbp_gaussian(-1.5), ParameterError, "|rho| must be < 1"),
], ids=["chirp_on_a_time_axis", "tbp_rho_1", "tbp_rho_-1.5"])
def test_state_function_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_parameter_validation():
    with pytest.raises(ParameterError):
        GaussianStateParams(sigma_s=0.0)
    with pytest.raises(ParameterError):
        GaussianStateParams(rho=1.0)
    with pytest.raises(ParameterError):
        gaussian_jsa(GaussianStateParams(), n=48)
    with pytest.raises(ParameterError):
        gaussian_jsa(GaussianStateParams(), n=64, span_sigmas=4)
    with pytest.raises(ParameterError):
        schmidt_purity(-1.0)


TOO_NARROW = "state.sigma_{x} ({sigma} rad/fs) is too narrow for a frequency grid at state.center_{x} ({center} rad/fs)"
DISTINCT = ": its {n} samples must be distinct floats, and 2 pi over its width ({width} rad/fs) a finite delay step"
CHIRP_RULE = ("too large for the frequency grid: its corner phase |state.chirp_s| (8 state.sigma_s)**2 + "
              "|state.chirp_i| (8 state.sigma_i)**2 overflows")


@pytest.mark.parametrize("params, n, message", [
    (GaussianStateParams(), 48, "state.n must be a power of two >= 16"),
    (GaussianStateParams(), 8, "state.n must be a power of two >= 16"),
    # the samples collapse to fewer floats than n
    (GaussianStateParams(sigma_s=1e-30, sigma_i=1e-30), 16,
     TOO_NARROW.format(x="s", sigma="1e-30", center="2.289") + DISTINCT.format(n=16, width="1.6e-29")),
    # the step 16 sigma / n rounds to 0, which Axis would refuse without naming the key
    (GaussianStateParams(sigma_i=5e-324), 32,
     TOO_NARROW.format(x="i", sigma="4.94066e-324", center="2.574") + DISTINCT.format(n=32, width="0")),
    # distinct samples a few ulps of the center apart
    (GaussianStateParams(sigma_s=1e-15), 16,
     TOO_NARROW.format(x="s", sigma="1e-15", center="2.289")
     + ": its samples are spaced up to 0.33 of its step (1e-15 rad/fs) off that step, more than 1e-06"),
    # the phase fit cubes the outermost offset 8 sigma
    (GaussianStateParams(sigma_s=1e150), 16,
     "state.sigma_s (1e+150 rad/fs) is too wide for a frequency grid: its outermost offset from state.center_s, "
     "8 state.sigma_s, cubes to inf in the degree-3 phase fit"),
    # apply_chirp's phase at the grid's corner overflows
    (GaussianStateParams(sigma_i=1, chirp_i=1.7e308), 16, "state.chirp_i (1.7e+308 fs^2) is " + CHIRP_RULE),
    (GaussianStateParams(sigma_s=1, sigma_i=1, chirp_s=-2e306, chirp_i=-2e306), 16,
     "state.chirp_s (-2e+306 fs^2) and state.chirp_i (-2e+306 fs^2) are " + CHIRP_RULE),
], ids=["n48", "n8", "collapsed_grid", "subnormal_sigma", "ulps_apart_grid", "wide_grid_cubes_to_inf",
        "chirp_phase_overflows", "chirp_phase_sum_overflows"])
def test_frequency_axes_refuses_an_unusable_grid(params, n, message):
    # the one grid rule: every state built on the grid refuses it with the same message
    for build in (frequency_axes, gaussian_jsa, synthesize_state):
        with pytest.raises(ParameterError) as exc:
            build(params, n)
        assert str(exc.value) == message, build.__name__


def test_largest_finite_chirp_phase_synthesizes_without_warning():
    # n = 16, sigma 1: the outermost offset is 8, so the corner phase is 64 (|chirp_s| + |chirp_i|);
    # tier-1 turns numpy's overflow warnings into errors
    edge_square = 64.0
    chirp = np.nextafter(np.finfo(float).max / edge_square, 0)
    g = synthesize_state(GaussianStateParams(sigma_s=1, sigma_i=1, chirp_s=chirp), 16)
    assert np.all(np.isfinite(g.values))
    with pytest.raises(ParameterError, match=r"^state\.chirp_s \(.*\) and state\.chirp_i"):
        frequency_axes(GaussianStateParams(sigma_s=1, sigma_i=1, chirp_s=chirp, chirp_i=chirp), 16)


def test_frequency_axes_accepts_every_grid_of_the_sweep():
    # at sigma 1e-3 to 1 rad/fs the samples are at most 4e-11 of a step off it,
    # far inside the 1e-6 the rule allows
    for n in (16, 64, 256, 1024):
        for sigma in np.logspace(-3, 0, 7):
            for center in (0.7535, 2.289, 6.495):
                axis_s, _ = frequency_axes(GaussianStateParams(sigma_s=sigma, center_s=center), n)
                assert (axis_s.count, axis_s.step, axis_s.center) == (n, 16 * sigma / n, center)


@settings(max_examples=20, deadline=None)
@given(
    rho=st.floats(-0.95, 0.95),
    sigma=st.floats(0.005, 0.05),
)
def test_power_and_purity_property(rho, sigma):
    p = GaussianStateParams(sigma_s=sigma, sigma_i=sigma, rho=rho)
    g = gaussian_jsa(p, n=64, span_sigmas=8)
    assert total_power(g) == pytest.approx(1.0, abs=1e-3)
    assert 0 < schmidt_purity(rho) <= 1
