"""Model two-photon states: correlated Gaussian joint spectral amplitude with
optional quadratic spectral phase, plus the analytic diagnostics (Schmidt
purity, Gaussian time-bandwidth product) that go with it."""

import math
from dataclasses import dataclass

import numpy as np

from .grids import FREQUENCY, IDLER, SIGNAL, Axis, ComplexGrid2D, DomainMismatchError

SPAN_SIGMAS = 8.0  # the default grid half-width, in marginal s.d.s per axis
# the most a grid's sample spacing may be off its step, as a fraction of it: grids
# at sigma 1e-3 to 1 rad/fs (n 16 to 1024, centers 0.75 to 6.5 rad/fs) are off by
# at most 4e-11, one whose step is a few ulps of its center by tens of percent
STEP_TOLERANCE = 1e-6


class ParameterError(ValueError):
    """State parameters outside their valid range."""


@dataclass(frozen=True)
class GaussianStateParams:
    """Correlated Gaussian state: marginal amplitude bandwidths (rad/fs),
    spectral correlation, optical centers (rad/fs), chirps (fs^2)."""

    sigma_s: float = 0.01
    sigma_i: float = 0.01
    rho: float = -0.95
    center_s: float = 2.289
    center_i: float = 2.574
    chirp_s: float = 0.0
    chirp_i: float = 0.0

    def __post_init__(self):
        if not (self.sigma_s > 0 and self.sigma_i > 0):
            raise ParameterError("state.sigma_s and state.sigma_i must be positive")
        if not abs(self.rho) < 1:
            raise ParameterError("|state.rho| must be < 1")


def frequency_axes(p: GaussianStateParams, n: int = 64, span_sigmas: float = SPAN_SIGMAS) -> tuple:
    """The signal and idler axes of the state's n x n frequency grid, each
    spanning +/- span_sigmas * sigma around its center.  The one grid rule:
    ``ParameterError`` names an n that is not a power of two >= 16, a
    span_sigmas below 6, and a photon whose outermost offset (n//2) * step
    squares or cubes to inf (checked before any numpy arithmetic can warn),
    whose samples center + (k - n//2) * step are not distinct floats, are
    spaced more than ``STEP_TOLERANCE`` of the step off it, or whose delay
    step 2 pi / width is not finite, checked before ``Axis`` would refuse a
    step of 0 unnamed; then the chirps whose phase at the grid's corner,
    |chirp_s| edge_s**2 + |chirp_i| edge_i**2, is not a finite float."""
    if n < 16 or n & (n - 1):
        raise ParameterError("state.n must be a power of two >= 16")
    if span_sigmas < 6:
        raise ParameterError("span_sigmas must be >= 6")
    axes, phases = [], {}
    for photon, x in ((SIGNAL, "s"), (IDLER, "i")):
        sigma, center = getattr(p, f"sigma_{x}"), getattr(p, f"center_{x}")
        step = 2 * span_sigmas * sigma / n
        edge = n // 2 * step
        # the state's Gaussian and chirp square every offset, the phase fit's degree-3 monomials cube it
        if not math.isfinite(edge * edge * edge):
            power = "squares to inf" if not math.isfinite(edge * edge) else "cubes to inf in the degree-3 phase fit"
            raise ParameterError(f"state.sigma_{x} ({sigma:g} rad/fs) is too wide for a frequency grid: its outermost "
                                 f"offset from state.center_{x}, {span_sigmas:g} state.sigma_{x}, {power}")
        spacing, width = np.diff(center + (np.arange(n) - n // 2) * step), n * step
        narrow = (f"state.sigma_{x} ({sigma:g} rad/fs) is too narrow for a frequency grid at "
                  f"state.center_{x} ({center:g} rad/fs)")
        if not (np.all(spacing > 0) and math.isfinite(2 * math.pi / width)):
            raise ParameterError(f"{narrow}: its {n} samples must be distinct floats, and 2 pi over its width "
                                 f"({width:g} rad/fs) a finite delay step")
        off = np.max(np.abs(spacing - step)) / step
        if not off <= STEP_TOLERANCE:
            raise ParameterError(f"{narrow}: its samples are spaced up to {off:.2g} of its step ({step:g} rad/fs) "
                                 f"off that step, more than {STEP_TOLERANCE:g}")
        axes.append(Axis(FREQUENCY, photon, center, step, n))
        phases[x] = abs(float(getattr(p, f"chirp_{x}"))) * edge * edge  # a float overflows to inf without a warning
    if not math.isfinite(phases["s"] + phases["i"]):  # apply_chirp's phase at the grid's corner
        named = [x for x in "si" if not math.isfinite(phases[x])] or ["s", "i"]
        what = " and ".join(f"state.chirp_{x} ({getattr(p, f'chirp_{x}'):g} fs^2)" for x in named)
        raise ParameterError(f"{what} {'is' if len(named) == 1 else 'are'} too large for the frequency grid: its "
                             f"corner phase |state.chirp_s| ({span_sigmas:g} state.sigma_s)**2 + |state.chirp_i| "
                             f"({span_sigmas:g} state.sigma_i)**2 overflows")
    return tuple(axes)


def gaussian_jsa(p: GaussianStateParams, n: int = 64, span_sigmas: float = SPAN_SIGMAS) -> ComplexGrid2D:
    """Correlated Gaussian JSA on an n x n frequency grid.

    The grid is :func:`frequency_axes`.  The returned amplitude is real and
    positive (no chirp applied) and normalized so that the squared magnitude
    integrates to one.
    """
    axis_s, axis_i = frequency_axes(p, n, span_sigmas)
    ds = axis_s.offsets()[:, None] / p.sigma_s
    di = axis_i.offsets()[None, :] / p.sigma_i
    one_m_r2 = 1.0 - p.rho**2
    prefactor = 1.0 / (np.sqrt(2 * np.pi * p.sigma_s * p.sigma_i) * one_m_r2**0.25)
    exponent = -(ds**2 / 2 + di**2 / 2 - p.rho * ds * di) / (2 * one_m_r2)
    return ComplexGrid2D(axis_s, axis_i, prefactor * np.exp(exponent))


def apply_chirp(g: ComplexGrid2D, chirp_s: float, chirp_i: float) -> ComplexGrid2D:
    """Multiply by the quadratic spectral phase
    exp(i*A_s*(w_s - w_s0)^2 + i*A_i*(w_i - w_i0)^2).  Magnitude unchanged."""
    if g.axis_s.domain != FREQUENCY or g.axis_i.domain != FREQUENCY:
        raise DomainMismatchError("apply_chirp needs both axes in the frequency domain")
    phase = chirp_s * g.axis_s.offsets()[:, None] ** 2 + chirp_i * g.axis_i.offsets()[None, :] ** 2
    return g.with_values(g.values * np.exp(1j * phase))


def schmidt_purity(rho: float) -> float:
    """Purity of one photon's reduced state, sqrt(1 - rho^2)."""
    if not abs(rho) < 1:
        raise ParameterError("|rho| must be < 1")
    return float(np.sqrt(1.0 - rho**2))


def tbp_gaussian(rho: float) -> float:
    """Time-bandwidth product of the equal-bandwidth Gaussian state,
    sqrt((1 + rho) / (1 - rho))."""
    if not abs(rho) < 1:
        raise ParameterError("|rho| must be < 1")
    return float(np.sqrt((1.0 + rho) / (1.0 - rho)))


def synthesize_state(p: GaussianStateParams, n: int = 64, span_sigmas: float = SPAN_SIGMAS) -> ComplexGrid2D:
    """Gaussian JSA with the params' chirps applied."""
    return apply_chirp(gaussian_jsa(p, n, span_sigmas), p.chirp_s, p.chirp_i)
