"""Turn raw measured/simulated histograms into the intensity constraints used
by the retrieval: square-grid interpolation, corner-suppression background
subtraction, and Wiener deconvolution with a top-hat low-pass."""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .grids import Axis, IntensityGrid2D


@dataclass(frozen=True)
class PreprocessConfig:
    """Deconvolution knobs.  ``alpha`` is the Wiener noise constant,
    ``rho_lp`` the top-hat radius as a fraction of the Nyquist radius,
    and the response sigmas are the per-axis instrument response s.d. in
    the units of the corresponding axis."""

    grid_n: int = 64
    alpha: float = 0.1
    rho_lp: float = 0.9
    response_sigma_s: float = 0.0
    response_sigma_i: float = 0.0
    corner_fraction: float = 0.0625
    allow_out_of_range: bool = False
    clamp: bool = True

    def __post_init__(self):
        if not self.allow_out_of_range:
            if not 0.05 <= self.alpha <= 0.2:
                raise ValueError("alpha outside [0.05, 0.2]; set allow_out_of_range to override")
            if not 0.8 <= self.rho_lp <= 1.0:
                raise ValueError("rho_lp outside [0.8, 1.0]; set allow_out_of_range to override")
        if self.response_sigma_s < 0 or self.response_sigma_i < 0:
            raise ValueError("response sigmas must be >= 0")


def _uniform_axis(template: Axis, lo, hi, n) -> Axis:
    step = (hi - lo) / (n - 1)
    return Axis(
        domain=template.domain,
        photon=template.photon,
        center=lo + (n // 2) * step,
        step=step,
        count=n,
        paired_center=template.paired_center,
    )


def interpolate_to_grid(xs, ys, values, axis_s: Axis, axis_i: Axis, n: int) -> IntensityGrid2D:
    """Bilinear interpolation of rectangular raw data onto an n x n grid
    spanning the data's bounding box; points outside the input support are 0.

    ``xs``/``ys`` are the raw (strictly monotone) sample coordinates for the
    signal/idler axes; ``axis_s``/``axis_i`` supply the domain and photon
    metadata for the output axes.
    """
    if n < 16:
        raise ValueError("target grid must be at least 16 x 16")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    values = np.asarray(values, dtype=float)
    for arr, name in ((xs, "signal"), (ys, "idler")):
        d = np.diff(arr)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError(f"{name} axis samples are not strictly monotone")
    if xs[0] > xs[-1]:
        xs, values = xs[::-1], values[::-1, :]
    if ys[0] > ys[-1]:
        ys, values = ys[::-1], values[:, ::-1]

    out_s = _uniform_axis(axis_s, xs[0], xs[-1], n)
    out_i = _uniform_axis(axis_i, ys[0], ys[-1], n)
    interp = RegularGridInterpolator((xs, ys), values, method="linear", bounds_error=False, fill_value=0.0)
    gx, gy = np.meshgrid(out_s.values(), out_i.values(), indexing="ij")
    out = interp(np.stack([gx.ravel(), gy.ravel()], axis=-1)).reshape(n, n)
    return IntensityGrid2D(out_s, out_i, out)


def regrid(h: IntensityGrid2D, n: int) -> IntensityGrid2D:
    """Interpolate an existing grid onto an n x n grid over the same span."""
    return interpolate_to_grid(h.axis_s.values(), h.axis_i.values(), h.values, h.axis_s, h.axis_i, n)


def corner_suppress(h: IntensityGrid2D, corner_fraction: float = 0.0625) -> IntensityGrid2D:
    """Subtract the mean over the four corner patches, clamping negatives."""
    if not 0 < corner_fraction <= 0.25:
        raise ValueError("corner_fraction must be in (0, 0.25]")
    v = h.values
    ms = max(1, int(round(corner_fraction * v.shape[0])))
    mi = max(1, int(round(corner_fraction * v.shape[1])))
    corners = np.concatenate([
        v[:ms, :mi].ravel(), v[:ms, -mi:].ravel(),
        v[-ms:, :mi].ravel(), v[-ms:, -mi:].ravel(),
    ])
    return h.with_values(np.clip(v - corners.mean(), 0.0, None))


def _response_transfer(n, step, sigma):
    k = 2 * np.pi * np.fft.fftfreq(n, d=step)
    return np.exp(-(k**2) * sigma**2 / 2.0)


def wiener_deconvolve(h: IntensityGrid2D, cfg: PreprocessConfig) -> IntensityGrid2D:
    """Wiener-filtered deconvolution of the per-axis Gaussian instrument
    response, low-passed by a centered top-hat of radius rho_lp * N / 2
    pixels.  Output is clamped nonnegative and unit-peak normalized unless
    cfg.clamp is off (kept for linearity checks)."""
    ns, ni = h.values.shape
    G = np.outer(
        _response_transfer(ns, h.axis_s.step, cfg.response_sigma_s),
        _response_transfer(ni, h.axis_i.step, cfg.response_sigma_i),
    )
    W = G / (G**2 + cfg.alpha)
    ps = np.fft.fftfreq(ns) * ns
    pi = np.fft.fftfreq(ni) * ni
    radius = cfg.rho_lp * max(ns, ni) / 2.0
    T = (ps[:, None] ** 2 + pi[None, :] ** 2) <= radius**2
    out = np.fft.ifft2(np.fft.fft2(h.values) * W * T).real
    if not cfg.clamp:
        return h.with_values(out)
    out = np.clip(out, 0.0, None)
    peak = out.max()
    if peak > 0:
        out = out / peak
    return h.with_values(out)


def preprocess_grid(h: IntensityGrid2D, cfg: PreprocessConfig) -> IntensityGrid2D:
    """Full chain for one histogram: regrid, corner-suppress, deconvolve."""
    if h.values.shape != (cfg.grid_n, cfg.grid_n):
        h = regrid(h, cfg.grid_n)
    h = corner_suppress(h, cfg.corner_fraction)
    return wiener_deconvolve(h, cfg)
