"""Turn measured/simulated histograms into the intensity constraints used by
the retrieval: corner-suppression background subtraction and Wiener
deconvolution with a top-hat low-pass.  Every plane keeps its own grid: the
retrieval needs each delay axis to stay the conjugate of its frequency axis."""

from dataclasses import dataclass

import numpy as np

from .grids import IntensityGrid2D, unit_peak


@dataclass(frozen=True)
class PreprocessConfig:
    """Deconvolution knobs.  ``alpha`` is the Wiener noise constant and
    ``rho_lp`` the top-hat radius as a fraction of the Nyquist radius.  The
    instrument response is not a knob: it depends on the plane, and callers
    pass it to ``wiener_deconvolve``."""

    # selects no code; kept because perfbench/workloads.py and the acceptance
    # tests pass grid_n=n.  PipelineConfig refuses a value other than state.n.
    grid_n: int | None = None
    alpha: float = 0.1
    rho_lp: float = 0.9
    allow_out_of_range: bool = False

    def __post_init__(self):
        if not self.alpha > 0:  # also with allow_out_of_range: 0 divides 0 by 0 where G underflows
            raise ValueError("preprocess.alpha must be positive: the Wiener filter divides by G**2 + alpha")
        if not self.allow_out_of_range:
            if not 0.05 <= self.alpha <= 0.2:
                raise ValueError("preprocess.alpha outside [0.05, 0.2]; set allow_out_of_range to override")
            if not 0.8 <= self.rho_lp <= 1.0:
                raise ValueError("preprocess.rho_lp outside [0.8, 1.0]; set allow_out_of_range to override")


# side of each corner patch as a fraction of the grid side
CORNER_FRACTION = 0.0625


def corner_suppress(h: IntensityGrid2D) -> IntensityGrid2D:
    """Subtract the mean over the four corner patches, clamping negatives."""
    v = h.values
    ms = max(1, int(round(CORNER_FRACTION * v.shape[0])))
    mi = max(1, int(round(CORNER_FRACTION * v.shape[1])))
    corners = np.concatenate([
        v[:ms, :mi].ravel(), v[:ms, -mi:].ravel(),
        v[-ms:, :mi].ravel(), v[-ms:, -mi:].ravel(),
    ])
    return h.with_values(np.clip(v - corners.mean(), 0.0, None))


def _response_transfer(n, step, sigma):
    k = 2 * np.pi * np.fft.fftfreq(n, d=step)
    with np.errstate(over="ignore"):  # a response far wider than the grid step: exp(-inf) = 0
        return np.exp(-(k**2) * sigma**2 / 2.0)


def _wiener_filter(h: IntensityGrid2D, cfg: PreprocessConfig, response=(0.0, 0.0)) -> np.ndarray:
    """The linear part of ``wiener_deconvolve``, before clamping and
    normalizing."""
    sigma_s, sigma_i = response
    if sigma_s < 0 or sigma_i < 0:
        raise ValueError("response sigmas must be >= 0")
    ns, ni = h.values.shape
    G = np.outer(
        _response_transfer(ns, h.axis_s.step, sigma_s),
        _response_transfer(ni, h.axis_i.step, sigma_i),
    )
    W = G / (G**2 + cfg.alpha)
    ps = np.fft.fftfreq(ns) * ns
    pi = np.fft.fftfreq(ni) * ni
    radius = cfg.rho_lp * max(ns, ni) / 2.0
    T = (ps[:, None] ** 2 + pi[None, :] ** 2) <= radius**2
    return np.fft.ifft2(np.fft.fft2(h.values) * W * T).real


def wiener_deconvolve(h: IntensityGrid2D, cfg: PreprocessConfig, response=(0.0, 0.0)) -> IntensityGrid2D:
    """Wiener-filtered deconvolution of the per-axis Gaussian instrument
    response, low-passed by a centered top-hat of radius rho_lp * N / 2
    pixels.  ``response`` = (sigma_s, sigma_i) is the response s.d. per axis,
    in that axis's units.  Output is clamped nonnegative and unit-peak
    normalized."""
    return h.with_values(unit_peak(np.clip(_wiener_filter(h, cfg, response), 0.0, None)))


def preprocess_grid(h: IntensityGrid2D, cfg: PreprocessConfig, response=(0.0, 0.0)) -> IntensityGrid2D:
    """Full chain for one histogram on its own grid: corner-suppress, then
    deconvolve the per-axis ``response`` (see ``wiener_deconvolve``)."""
    return wiener_deconvolve(corner_suppress(h), cfg, response)
