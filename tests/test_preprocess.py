"""Background suppression and Wiener deconvolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from biphoton.grids import FREQUENCY, IDLER, SIGNAL, Axis, IntensityGrid2D
from biphoton.preprocess import (
    PreprocessConfig,
    _wiener_filter,
    corner_suppress,
    preprocess_grid,
    wiener_deconvolve,
)


def _pixel_axes(n):
    ax_s = Axis(FREQUENCY, SIGNAL, center=0.0, step=1.0, count=n)
    ax_i = Axis(FREQUENCY, IDLER, center=0.0, step=1.0, count=n)
    return ax_s, ax_i


def _gaussian_spot(n, sd):
    x = np.arange(n) - n // 2
    return np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2 * sd**2))


def _radial_sd(values):
    v = values / values.sum()
    n = values.shape[0]
    x = np.arange(n) - n // 2
    ps = v.sum(axis=1)
    mu = (ps * x).sum()
    return np.sqrt((ps * (x - mu) ** 2).sum())


def test_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(alpha=0.5)
    with pytest.raises(ValueError):
        PreprocessConfig(rho_lp=0.5)
    # escape hatch
    PreprocessConfig(alpha=1e-6, rho_lp=1.0, allow_out_of_range=True)


def test_wiener_round_trip_noiseless():
    ax_s, ax_i = _pixel_axes(64)
    true = _gaussian_spot(64, 4.0)
    blurred = gaussian_filter(true, 2.0, mode="constant")
    g = IntensityGrid2D(ax_s, ax_i, blurred)
    cfg = PreprocessConfig(alpha=1e-6, rho_lp=1.0, allow_out_of_range=True)
    rec = wiener_deconvolve(g, cfg, response=(2.0, 2.0))
    assert _radial_sd(rec.values) == pytest.approx(4.0, rel=0.01)


def test_wiener_attenuates_when_alpha_large():
    # with alpha in the noise band the deconvolution is conservative: the
    # recovered width sits between the blurred and the true width
    ax_s, ax_i = _pixel_axes(64)
    true = _gaussian_spot(64, 4.0)
    blurred = gaussian_filter(true, 2.0, mode="constant")
    g = IntensityGrid2D(ax_s, ax_i, blurred)
    rec = wiener_deconvolve(g, PreprocessConfig(alpha=0.1), response=(2.0, 2.0))
    sd = _radial_sd(rec.values)
    assert 4.0 < sd < _radial_sd(blurred)


def test_wiener_identity_without_response():
    ax_s, ax_i = _pixel_axes(32)
    v = _gaussian_spot(32, 3.0)
    g = IntensityGrid2D(ax_s, ax_i, v)
    cfg = PreprocessConfig(alpha=1e-12, rho_lp=1.0, allow_out_of_range=True)
    rec = wiener_deconvolve(g, cfg)
    # residual comes from the top-hat clipping the (negligible) spectral corners
    assert np.allclose(rec.values, v / v.max(), atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0), seed=st.integers(0, 1000))
def test_wiener_linear_when_clamp_off(a, b, seed):
    ax_s, ax_i = _pixel_axes(32)
    rng = np.random.default_rng(seed)
    x = rng.random((32, 32))
    y = rng.random((32, 32))
    cfg = PreprocessConfig(alpha=0.1)

    def W(v):
        return _wiener_filter(IntensityGrid2D(ax_s, ax_i, v), cfg, response=(1.0, 1.5))

    assert np.allclose(W(a * x + b * y), a * W(x) + b * W(y), atol=1e-9)


def test_wiener_rejects_negative_response():
    ax_s, ax_i = _pixel_axes(32)
    g = IntensityGrid2D(ax_s, ax_i, _gaussian_spot(32, 3.0))
    for response in ((-1.0, 0.0), (0.0, -1.0)):
        with pytest.raises(ValueError):
            wiener_deconvolve(g, PreprocessConfig(), response=response)


def test_corner_suppress_removes_uniform_background():
    ax_s, ax_i = _pixel_axes(64)
    spot = _gaussian_spot(64, 3.0)
    g = IntensityGrid2D(ax_s, ax_i, spot + 0.25)
    out = corner_suppress(g)
    assert np.allclose(out.values, spot, atol=1e-6)


def test_corner_suppress_idempotent_on_clean_data():
    ax_s, ax_i = _pixel_axes(64)
    g = IntensityGrid2D(ax_s, ax_i, _gaussian_spot(64, 3.0))
    once = corner_suppress(g)
    twice = corner_suppress(once)
    assert np.max(np.abs(twice.values - once.values)) < 1e-12



def test_preprocess_grid_keeps_input_axes():
    ax_s, ax_i = _pixel_axes(64)
    g = IntensityGrid2D(ax_s, ax_i, _gaussian_spot(64, 4.0))
    cfg = PreprocessConfig(alpha=0.1)
    out = preprocess_grid(g, cfg)
    assert out.values.shape == (64, 64)
    assert out.axis_s.compatible_with(ax_s)
    assert out.values.max() == pytest.approx(1.0)
