"""Simulate the four joint intensity measurements from a two-photon state.

Frequency axes get an ideal spectrometer blur; time axes are measured by
sum-frequency optical gating with a Gaussian gate pulse and a finite
phase-matching bandwidth (sinc of the wavevector mismatch over the crystal
length).  The delay dependence enters the gate only as a linear spectral
phase, so scanning a full delay grid reduces to Fourier transforms: the
upconversion kernel is applied once per side (via its SVD for the
double-gated plane) and the delay axis comes out of a centered FFT.
"""

import json
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np
from scipy.ndimage import gaussian_filter1d
from scipy.optimize import brentq

from .grids import (
    FREQUENCY,
    IDLER,
    SIGNAL,
    TO_TIME,
    Axis,
    ComplexGrid2D,
    IntensityGrid2D,
    conjugate_axis,
    transform_photon,
)
from .retrieve import MeasurementSet
from .units import C_UM_FS, omega_to_wavelength


class ModelRangeError(ValueError):
    """A frequency fell outside the refractive model's validity range."""


@dataclass(frozen=True)
class GatePulse:
    """Gaussian gate: spectral amplitude s.d. ``sigma`` (rad/fs) around
    ``center``.  The temporal intensity s.d. is 1/(2*sigma)."""

    center: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("gate sigma must be positive")


def gate_spectrum(g: GatePulse, omega_g, tau):
    """Gate spectral amplitude at delay tau:
    (2*pi*sigma^2)^(-1/4) * exp(-(w - w0)^2 / (4 sigma^2) + i*tau*(w - w0))."""
    d = np.asarray(omega_g) - g.center
    return (2 * np.pi * g.sigma**2) ** -0.25 * np.exp(-(d**2) / (4 * g.sigma**2) + 1j * tau * d)


def _sellmeier_n(coeffs, lambda_um):
    a, b, c, d = coeffs
    n2 = a + b / (lambda_um**2 - c) - d * lambda_um**2
    return np.sqrt(n2)


@dataclass(frozen=True)
class RefractiveModel:
    """Sellmeier index curves for the ordinary and (angle-tuned effective)
    extraordinary polarizations.

    ``theta`` is the propagation angle from the optic axis used for the
    effective extraordinary index; ``tuned_for`` solves it so that the
    type-I mismatch vanishes at given center frequencies.
    """

    ordinary: tuple
    extraordinary: tuple
    valid_nm: tuple
    theta: float = np.pi / 2

    def _check_range(self, lambda_nm):
        lo, hi = self.valid_nm
        if np.any(lambda_nm < lo) or np.any(lambda_nm > hi):
            raise ModelRangeError(
                f"wavelength {lambda_nm} nm outside model range [{lo}, {hi}] nm"
            )

    def n_ordinary(self, lambda_nm):
        self._check_range(lambda_nm)
        return _sellmeier_n(self.ordinary, np.asarray(lambda_nm) / 1000.0)

    def n_extraordinary_effective(self, lambda_nm):
        self._check_range(lambda_nm)
        lam = np.asarray(lambda_nm) / 1000.0
        no = _sellmeier_n(self.ordinary, lam)
        ne = _sellmeier_n(self.extraordinary, lam)
        return 1.0 / np.sqrt(np.cos(self.theta) ** 2 / no**2 + np.sin(self.theta) ** 2 / ne**2)

    def tuned_for(self, omega_in, omega_gate):
        """Copy with theta solved so delta_k(omega_in, omega_gate) = 0."""

        def mismatch(theta):
            return delta_k(replace(self, theta=theta), omega_in, omega_gate, omega_in + omega_gate)

        lo, hi = 1e-6, np.pi / 2 - 1e-6
        f_lo, f_hi = mismatch(lo), mismatch(hi)
        if f_lo * f_hi > 0:
            raise ValueError("no phase-matching angle exists for these frequencies")
        return replace(self, theta=brentq(mismatch, lo, hi, xtol=1e-12))

    @classmethod
    def from_entries(cls, entries, theta=np.pi / 2):
        by_pol = {e["polarization"]: e for e in entries}
        lo = max(e["valid_nm"][0] for e in entries)
        hi = min(e["valid_nm"][1] for e in entries)
        return cls(
            ordinary=tuple(by_pol["ordinary"]["sellmeier_coefficients"]),
            extraordinary=tuple(by_pol["extraordinary"]["sellmeier_coefficients"]),
            valid_nm=(lo, hi),
            theta=theta,
        )

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_entries(json.load(fh))

    @classmethod
    def default(cls):
        """BiBO-like table shipped with the package (configuration data)."""
        text = resources.files("biphoton.data").joinpath("bibo_sellmeier.json").read_text()
        return cls.from_entries(json.loads(text))

    @classmethod
    def matched(cls, n=1.8, valid_nm=(100.0, 10000.0)):
        """Dispersionless model with equal indices: perfect phase matching."""
        return cls(ordinary=(n * n, 0.0, 0.0, 0.0), extraordinary=(n * n, 0.0, 0.0, 0.0), valid_nm=valid_nm)


def delta_k(m: RefractiveModel, omega_in, omega_gate, omega_up):
    """Type-I SFG wavevector mismatch k_o(w_up) - k_e(w_in) - k_e(w_gate)
    in 1/um, with k = n(w) * w / c."""
    k_up = m.n_ordinary(omega_to_wavelength(omega_up)) * omega_up
    k_in = m.n_extraordinary_effective(omega_to_wavelength(omega_in)) * omega_in
    k_gate = m.n_extraordinary_effective(omega_to_wavelength(omega_gate)) * omega_gate
    return (k_up - k_in - k_gate) / C_UM_FS


def phase_match(dk, L):
    """exp(-i*dk*L/2) * sinc(dk*L/2), with sinc(x) = sin(x)/x."""
    x = np.asarray(dk) * L / 2.0
    return np.exp(-1j * x) * np.sinc(x / np.pi)


@dataclass(frozen=True)
class GatingModel:
    """Measurement model: gate pulse (None = ideal delta gate), crystal
    length (um), refractive model, spectrometer response s.d. (rad/fs),
    and the upconverted-frequency quadrature size."""

    gate: GatePulse | None = None
    crystal_length: float = 0.0
    refractive: RefractiveModel | None = None
    spectrometer_sigma: float = 0.0
    upconverted_grid_count: int = 256

    def __post_init__(self):
        if self.crystal_length < 0:
            raise ValueError("crystal_length must be >= 0")
        if self.spectrometer_sigma < 0:
            raise ValueError("spectrometer_sigma must be >= 0")
        if self.crystal_length > 0 and (self.gate is None or self.refractive is None):
            raise ValueError("finite crystal length needs a gate and a refractive model")


@dataclass(frozen=True)
class MeasurementAxes:
    """Frequency and delay axes for the four joint measurements.  Delay axes
    are the conjugates of the frequency axes (same N), as the retrieval
    planes require."""

    freq_s: Axis
    freq_i: Axis
    time_s: Axis
    time_i: Axis

    @classmethod
    def for_state(cls, state: ComplexGrid2D):
        return cls(
            freq_s=state.axis_s,
            freq_i=state.axis_i,
            time_s=conjugate_axis(state.axis_s),
            time_i=conjugate_axis(state.axis_i),
        )


def _centered_fft(values, axis):
    """Centered DFT with the exp(-i*omega*t) envelope kernel along one axis."""
    v = np.fft.ifftshift(values, axes=axis)
    v = np.fft.fft(v, axis=axis)
    return np.fft.fftshift(v, axes=axis)


def _gate_kernel(axis: Axis, gm: GatingModel):
    """Upconversion kernel K[u, j] = G(w_u - w_j) * Phi_SFG on an auto-fitted
    absolute w_u grid; returns (K, w_u step)."""
    gate = gm.gate
    omega = axis.values()
    # trial support scan: the Gaussian gate bounds the integrand envelope
    lo = omega.min() + gate.center - 12 * gate.sigma
    hi = omega.max() + gate.center + 12 * gate.sigma
    trial = np.linspace(lo, hi, 1024)
    K_trial = _kernel_on(trial, omega, gm)
    prof = np.max(np.abs(K_trial), axis=1)
    keep = prof > 1e-6 * prof.max()
    lo, hi = trial[keep].min(), trial[keep].max()
    omega_u = np.linspace(lo, hi, gm.upconverted_grid_count)
    return _kernel_on(omega_u, omega, gm), omega_u[1] - omega_u[0]


def _kernel_on(omega_u, omega, gm: GatingModel):
    wg = omega_u[:, None] - omega[None, :]
    K = gate_spectrum(gm.gate, wg, 0.0)
    if gm.crystal_length > 0:
        dk = delta_k(gm.refractive, omega[None, :], wg, omega_u[:, None])
        K = K * phase_match(dk, gm.crystal_length)
    return K


def _svd_modes(K, tol=1e-6):
    _, s, vh = np.linalg.svd(K, full_matrices=False)
    keep = s > tol * s[0]
    return s[keep], vh[keep]


def _gated_one_side(F, K, du, side_axis):
    """Delay-resolved gated intensity with the other axis left spectral.

    side_axis 0 gates the signal photon (rows), 1 the idler (columns).
    Returns an array indexed by (tau, other-omega) in grid layout.
    """
    if side_axis == 0:
        stack = K[:, :, None] * F[None, :, :]
    else:
        stack = K[:, None, :] * F[None, :, :]
    B = _centered_fft(stack, axis=side_axis + 1)
    out = np.sum(np.abs(B) ** 2, axis=0) * du
    return out


def _gated_both_sides(F, K_s, du_s, K_i, du_i):
    """Double-gated delay-delay intensity via per-side SVD modes."""
    s_s, vh_s = _svd_modes(K_s)
    s_i, vh_i = _svd_modes(K_i)
    H = np.zeros(F.shape)
    for a in range(len(s_s)):
        # stack over idler modes, 2D FFT over both photon axes
        X = vh_s[a][None, :, None] * vh_i[:, None, :] * F[None, :, :]
        X = _centered_fft(_centered_fft(X, axis=1), axis=2)
        H += s_s[a] ** 2 * np.tensordot(s_i**2, np.abs(X) ** 2, axes=(0, 0))
    return H * du_s * du_i


def _blur_axis(values, sigma, step, axis):
    if sigma <= 0:
        return values
    return gaussian_filter1d(values, sigma=sigma / step, axis=axis, mode="constant")


def _unit_peak(values):
    peak = values.max()
    return values / peak if peak > 0 else values


def simulate_measurements(state: ComplexGrid2D, gm: GatingModel, axes: MeasurementAxes | None = None) -> MeasurementSet:
    """Simulate the four joint intensities of a state in the ww domain.

    Frequency axes: squared magnitude convolved with the spectrometer
    Gaussian.  Time axes: optical gating through the upconversion kernel
    (or the exact Fourier-domain intensity when the model has no gate).
    All outputs are normalized to unit peak.  A coverage warning is raised
    on the result when the gated signal at the delay-axis edges exceeds 1%
    of peak.
    """
    if state.axis_s.domain != FREQUENCY or state.axis_i.domain != FREQUENCY:
        raise ValueError("state must be in the frequency-frequency domain")
    if axes is None:
        axes = MeasurementAxes.for_state(state)
    if not (axes.freq_s.compatible_with(state.axis_s) and axes.freq_i.compatible_with(state.axis_i)):
        raise ValueError("measurement frequency axes must match the state axes")

    F = state.values
    step_s, step_i = state.axis_s.step, state.axis_i.step
    sig = gm.spectrometer_sigma

    i_ww = np.abs(F) ** 2
    i_ww = _blur_axis(_blur_axis(i_ww, sig, step_s, 0), sig, step_i, 1)

    if gm.gate is None:
        f_wt = transform_photon(state, IDLER, TO_TIME)
        f_tw = transform_photon(state, SIGNAL, TO_TIME)
        f_tt = transform_photon(f_wt, SIGNAL, TO_TIME)
        i_wt = np.abs(f_wt.values) ** 2
        i_tw = np.abs(f_tw.values) ** 2
        i_tt = np.abs(f_tt.values) ** 2
    else:
        K_s, du_s = _gate_kernel(state.axis_s, gm)
        K_i, du_i = _gate_kernel(state.axis_i, gm)
        i_tw = _gated_one_side(F, K_s, du_s, 0)
        i_wt = _gated_one_side(F, K_i, du_i, 1)
        i_tt = _gated_both_sides(F, K_s, du_s, K_i, du_i)
    i_wt = _blur_axis(i_wt, sig, step_s, 0)
    i_tw = _blur_axis(i_tw, sig, step_i, 1)

    i_wt = _unit_peak(i_wt)
    i_tw = _unit_peak(i_tw)
    i_tt = _unit_peak(i_tt)
    i_ww = _unit_peak(i_ww)

    edge = max(
        i_tw[0, :].max(), i_tw[-1, :].max(),
        i_wt[:, 0].max(), i_wt[:, -1].max(),
        i_tt[0, :].max(), i_tt[-1, :].max(),
        i_tt[:, 0].max(), i_tt[:, -1].max(),
    )

    return MeasurementSet(
        i_ww=IntensityGrid2D(axes.freq_s, axes.freq_i, i_ww),
        i_wt=IntensityGrid2D(axes.freq_s, axes.time_i, i_wt),
        i_tw=IntensityGrid2D(axes.time_s, axes.freq_i, i_tw),
        i_tt=IntensityGrid2D(axes.time_s, axes.time_i, i_tt),
        coverage_warning=bool(edge > 0.01),
    )


def poissonize(h: IntensityGrid2D, peak_counts: float, seed: int) -> IntensityGrid2D:
    """Scale to the given peak and replace every bin by a Poisson draw.
    Deterministic per seed; output holds the raw counts."""
    if not peak_counts > 0:
        raise ValueError("peak_counts must be positive")
    peak = h.values.max()
    if peak <= 0:
        raise ValueError("cannot poissonize an all-zero grid")
    mean = np.clip(h.values, 0.0, None) * (peak_counts / peak)
    rng = np.random.default_rng(seed)
    return h.with_values(rng.poisson(mean).astype(float))


def poissonize_set(m: MeasurementSet, peak_counts: float, seed: int) -> MeasurementSet:
    """Poissonize all four planes; ww, wt, tw, tt draw with seeds seed,
    seed + 1, seed + 2, seed + 3."""
    noisy = {f"i_{p}": poissonize(g, peak_counts, seed + k) for k, (p, g) in enumerate(m.grids().items())}
    return replace(m, **noisy)
