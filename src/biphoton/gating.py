"""Simulate the four joint intensity measurements from a two-photon state.

Frequency axes get an ideal spectrometer blur; time axes are measured by
sum-frequency optical gating with a Gaussian gate pulse and a finite
phase-matching bandwidth (sinc of the wavevector mismatch over the crystal
length).  The delay dependence enters the gate only as a linear spectral
phase, so scanning a full delay grid reduces to Fourier transforms.

For a thin crystal (L = 0) the sum over upconverted frequencies has a closed
form: each gated plane is the ideal plane blurred by the gate's temporal
intensity, computed exactly as a lag-weighted autocorrelation from
zero-padded FFTs.  For L > 0 each side's upconversion kernel is built once,
on the band where the gate's amplitude exceeds 1e-6 of peak, and applied
through its SVD modes: all three gated planes (tw, wt and tt) are sums of
squared centered FFTs of the state weighted by one mode per gated side, so no
upconverted-frequency stack is ever built.  tt skips the mode pairs whose
weight product is below the SVD's own relative cut, and the signal modes are
summed in two fixed halves: in this process and a forked
:class:`~biphoton.cpus.Partner` where :func:`~biphoton.cpus.partner_ok`
allows it, else one after the other in this process.
"""

import json
import logging
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources

import numpy as np

from .grids import (
    FREQUENCY,
    IDLER,
    SIGNAL,
    Axis,
    ComplexGrid2D,
    IntensityGrid2D,
    conjugate_axis,
    transform_photon,
    unit_peak,
)
from .cpus import Partner, partner_ok
from .retrieve import MeasurementSet
from .units import C_UM_FS, omega_to_wavelength

logger = logging.getLogger("biphoton")

# the largest mean numpy's Generator.poisson takes
MAX_PEAK_COUNTS = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


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
    with np.errstate(over="ignore"):  # far below the grid step: exp(-inf) = 0
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
        lam = np.asarray(lambda_nm)
        outside = (lam < lo) | (lam > hi)
        if outside.any():
            bad = lam[outside]
            span = f"{bad.min():.6g}" if bad.size == 1 else f"{bad.min():.6g} to {bad.max():.6g}"
            raise ModelRangeError(f"wavelength {span} nm outside the model range [{lo:g}, {hi:g}] nm")

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
        """Copy with theta solved so delta_k(omega_in, omega_gate) = 0, by
        bisection: 60 halvings of the bracket reach machine precision."""

        def mismatch(theta):
            return delta_k(replace(self, theta=theta), omega_in, omega_gate, omega_in + omega_gate)

        lo, hi = 1e-6, np.pi / 2 - 1e-6
        f_lo, f_hi = mismatch(lo), mismatch(hi)
        if f_lo * f_hi > 0:
            raise ValueError("no phase-matching angle exists for these frequencies")
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            f_mid = mismatch(mid)
            if f_mid * f_lo > 0:
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return replace(self, theta=0.5 * (lo + hi))

    @classmethod
    def from_entries(cls, entries):
        by_pol = {e["polarization"]: e for e in entries}
        lo = max(e["valid_nm"][0] for e in entries)
        hi = min(e["valid_nm"][1] for e in entries)
        return cls(
            ordinary=tuple(by_pol["ordinary"]["sellmeier_coefficients"]),
            extraordinary=tuple(by_pol["extraordinary"]["sellmeier_coefficients"]),
            valid_nm=(lo, hi),
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
    and the upconverted-frequency quadrature size (used only when L > 0)."""

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
        if self.upconverted_grid_count < 2:
            raise ValueError("upconverted_grid_count must be >= 2")
        if self.crystal_length > 0 and (self.gate is None or self.refractive is None):
            raise ValueError("finite crystal length needs a gate and a refractive model")


def kernel_grid(omega, gate: GatePulse, count):
    """The ``count`` upconverted frequencies w_u of the upconversion kernel of
    the frequencies ``omega``, and the band (lo, hi) of w_g = w_u - w they span.
    |Phi_SFG| <= 1, so w_u spans ``omega`` shifted by the gate center and
    widened to where the gate's amplitude falls to 1e-6 of peak.  A gate sigma
    below the w_u step du falls between the samples; from du up the kernel's
    sum over w_u is off by about 2 exp(-2 pi^2 sigma^2 / du^2) <= 5e-9."""
    half = 2 * gate.sigma * np.sqrt(np.log(1e6))
    omega_u = np.linspace(omega.min() + gate.center - half, omega.max() + gate.center + half, count)
    return omega_u, (omega_u[0] - omega.max(), omega_u[-1] - omega.min())


def _gate_kernel(axis: Axis, gm: GatingModel):
    """Upconversion kernel K[u, j] = G(w_u - w_j) * Phi_SFG on the w_u of
    :func:`kernel_grid`; returns (K, w_u step)."""
    gate, omega = gm.gate, axis.values()
    omega_u, _ = kernel_grid(omega, gate, gm.upconverted_grid_count)
    du, wg = omega_u[1] - omega_u[0], omega_u[:, None] - omega[None, :]
    if gm.crystal_length == 0:
        return gate_spectrum(gate, wg, 0.0), du
    # Phi_SFG first, so that its temporaries and those of G never coexist
    phi = phase_match(delta_k(gm.refractive, omega[None, :], wg, omega_u[:, None]), gm.crystal_length)
    return np.multiply(gate_spectrum(gate, wg, 0.0), phi, out=phi), du


# relative cut on singular values, and on products of them for mode pairs
_MODE_CUT = 1e-6


def _svd_modes(K, du):
    """SVD modes of a kernel sampled with step du, largest first: (w, Vh) with
    weights w_a = s_a * sqrt(du), keeping s_a > _MODE_CUT * s_0."""
    _, s, vh = np.linalg.svd(K, full_matrices=False)
    keep = s > _MODE_CUT * s[0]
    return s[keep] * np.sqrt(du), vh[keep]


def _add_abs2(acc, X):
    """acc += |X|^2, the squared real part first; squares the contiguous X in place."""
    np.square(X.view(float), out=X.view(float))
    acc += X.real
    acc += X.imag


def _gated_planes(F, modes_s, modes_i):
    """Delay-resolved gated intensities (tw, wt, tt) in grid layout, from each
    side's ``_svd_modes``.

    With K = U diag(s) Vh and orthonormal U, sum_u |FFT_j(K[u, j] F)|^2 du =
    sum_a w_a^2 |FFT_j(Vh[a, j] F)|^2, so each gated side costs one n x n FFT
    per kept mode.  The signal-side transforms Y_a feed both tw and tt; tt
    skips each pair with w_a w_b <= _MODE_CUT w_0 w_0', whose term carries at
    most 1e-12 of the largest pair's weight, as the per-side cut does for a
    single mode.  The signal modes are split into two fixed halves (even and
    odd index), each summing its own partial tw and tt: a forked
    ``cpus.Partner`` sums the even half into the shared mapping while this
    process sums the odd half and wt, or, where ``cpus.partner_ok`` refuses a
    partner, this process sums both in turn.  The halves and their sum depend
    neither on that choice nor on how the processes are scheduled, so neither
    does the result.  The arrays are ifftshifted once on the way in and
    fftshifted once on the way out; on an untransformed axis the pair is the
    identity, for odd n too.  Buffer budget in this process, in n x n complex
    units: 5.5 and the idler modes during the sum (1 of them in the mapping
    when split), 3 at the end.
    """
    (w_s, vh_s), (w_i, vh_i) = modes_s, modes_i
    # fold the weights into the modes so every term is a plain |.|^2; each
    # signal mode is weighted on its turn, the idler modes once
    vs = np.fft.ifftshift(vh_i * w_i[:, None], axes=1)
    # w_i is sorted, so the idler partners of signal mode a are a prefix
    partners = [np.count_nonzero(w * w_i > _MODE_CUT * w_s[0] * w_i[0]) for w in w_s]
    F0 = np.fft.ifftshift(F)
    # in n x n complex units: F0 1; the scratch Y and Z 2 (|.|^2 squares them
    # in place); each half's partial tw and tt 1; wt 0.5.  The even half's
    # planes are in the mapping a partner writes, when there is one; the
    # partner writes its own copy of the scratch
    shape = F.shape
    pair = Partner((shape, float), (shape, float)) if partner_ok() else None
    tw, tt = pair.arrays if pair else (np.zeros(shape), np.zeros(shape))
    tw_odd, tt_odd, wt = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    Y, Z = np.empty(shape, complex), np.empty(shape, complex)

    def signal_half(h, tw, tt):
        for w, vh, k in zip(w_s[h::2], vh_s[h::2], partners[h::2]):
            u = np.fft.ifftshift(vh * w)
            np.fft.fft(np.multiply(F0, u[:, None], out=Y), axis=0, out=Y)
            for v in vs[:k]:
                np.fft.fft(np.multiply(Y, v, out=Z), axis=1, out=Z)
                _add_abs2(tt, Z)
            _add_abs2(tw, Y)  # after its last read: this squares Y in place

    def odd_half_and_wt():
        signal_half(1, tw_odd, tt_odd)
        for v in vs:
            np.fft.fft(np.multiply(F0, v, out=Z), axis=1, out=Z)
            _add_abs2(wt, Z)

    if pair is None:
        signal_half(0, tw, tt)
        odd_half_and_wt()
    else:
        with pair.running(partial(signal_half, 0, tw, tt)):
            odd_half_and_wt()
    tw += tw_odd
    tt += tt_odd
    del tw_odd, tt_odd, Y, Z, F0  # before the shifted copies (1.5)
    return tuple(np.fft.fftshift(plane) for plane in (tw, wt, tt))


def _gated_planes_l0(F, step_s, step_i, sigma):
    """Delay-resolved gated intensities (tw, wt, tt) at L = 0, in closed form.

    With K[u, j] = G(u - w_j) and a Gaussian gate, sum_u K[u, j] K*[u, j'] du
    = exp(-(d * step)^2 / (8 sigma^2)) with d = j - j', so each gated plane is
    the DFT over the gated axis of the linear autocorrelation of F along that
    axis, weighted per lag.  Zero-padding to 2n keeps the lags linear; the
    n-point DFT is the even bins of the 2n-point one.  Only the gated axes are
    fftshifted, and FFT round-off below zero is clipped.  Each padded
    spectrum is squared, transformed, weighted and transformed back in place;
    the budget peaks at 7 n x n complex units, the 2n x 2n spectrum and tt's
    weight with the planes.
    """
    ns, ni = F.shape

    def lag_weight(n, step):
        d = np.fft.fftfreq(2 * n, 1.0 / (2 * n))
        with np.errstate(over="ignore"):  # far below the grid step: exp(-inf) = 0
            return np.exp(-((d * step) ** 2) / (8 * sigma**2))

    w_s, w_i = lag_weight(ns, step_s), lag_weight(ni, step_i)

    def plane(X, axes, weight):
        np.square(X.view(float), out=X.view(float))
        X.real += X.imag
        X.imag = 0.0
        np.fft.ifftn(X, axes=axes, out=X)
        X *= weight
        np.fft.fftn(X, axes=axes, out=X)
        even = tuple(slice(None, None, 2) if a in axes else slice(None) for a in range(2))
        P = np.fft.fftshift(X[even].real, axes=axes)
        return np.clip(P, 0.0, None, out=P)

    X_s = np.fft.fft(F, n=2 * ns, axis=0)
    X_ss = np.fft.fft(X_s, n=2 * ni, axis=1)
    tw = plane(X_s, (0,), w_s[:, None])
    del X_s
    tt = plane(X_ss, (0, 1), np.outer(w_s, w_i))
    del X_ss
    wt = plane(np.fft.fft(F, n=2 * ni, axis=1), (1,), w_i[None, :])
    return tw, wt, tt


def _blur_axis(values, sigma, step, axis):
    """Gaussian blur (s.d. sigma) along one axis by one n x n matrix product,
    as gaussian_filter1d with mode="constant": the kernel spans offsets
    |d| <= int(4 sigma / step + 0.5), sums to 1, and sees zero off the grid.
    A radius-0 kernel (sigma = 0 among them) is the identity."""
    s = sigma / step
    radius = int(4 * s + 0.5)
    if radius == 0:
        return values
    d = np.arange(-radius, radius + 1)
    norm = np.exp(-0.5 / s**2 * d**2).sum()
    idx = np.arange(values.shape[axis])
    d = np.subtract.outer(idx, idx)
    B = np.where(np.abs(d) <= radius, np.exp(-0.5 / s**2 * d**2) / norm, 0.0)
    return B @ values if axis == 0 else values @ B


def simulate_measurements(state: ComplexGrid2D, gm: GatingModel) -> MeasurementSet:
    """Simulate the four joint intensities of a state in the ww domain.

    Frequency axes: squared magnitude convolved with the spectrometer
    Gaussian.  Time axes: optical gating, in closed form at L = 0 and
    through the upconversion kernel's SVD modes at L > 0 (or the exact
    Fourier-domain intensity when the model has no gate).
    All outputs are normalized to unit peak.  When a delay plane (tw, wt or
    tt, gated or not) exceeds 1% of peak at a delay-axis edge, the result's
    ``coverage_warning`` is set and a WARNING is logged.  An L > 0 gate kernel
    that keeps no mode, or whose mode sum overflows, raises ValueError.
    """
    if state.axis_s.domain != FREQUENCY or state.axis_i.domain != FREQUENCY:
        raise ValueError("state must be in the frequency-frequency domain")

    F = state.values
    step_s, step_i = state.axis_s.step, state.axis_i.step
    sig = gm.spectrometer_sigma

    if gm.gate is None:
        f_wt = transform_photon(state, IDLER)
        f_tw, f_tt = transform_photon(state, SIGNAL), transform_photon(f_wt, SIGNAL)
        i_tw, i_wt, i_tt = (np.abs(f.values) ** 2 for f in (f_tw, f_wt, f_tt))
    elif gm.crystal_length == 0:
        i_tw, i_wt, i_tt = _gated_planes_l0(F, step_s, step_i, gm.gate.sigma)
    else:
        # the kernels are dropped as soon as their modes are taken; a gate far
        # narrower than the w_u step can leave a kernel of zeros, or a few
        # entries at the gate's peak amplitude whose mode sum overflows
        at_sigma = f"at gate sigma {gm.gate.sigma:g} rad/fs"
        axes = (state.axis_s, state.axis_i)
        modes = [_svd_modes(*_gate_kernel(axis, gm)) for axis in axes]
        for axis, (w, _) in zip(axes, modes):
            if not w.size:
                raise ValueError(f"the {axis.photon} gate kernel keeps no mode {at_sigma}: every entry is 0")
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            i_tw, i_wt, i_tt = _gated_planes(F, *modes)
        if not all(np.isfinite(p).all() for p in (i_tw, i_wt, i_tt)):
            raise ValueError(f"the gate kernels' mode sum overflows {at_sigma}")
    i_ww = _blur_axis(_blur_axis(np.abs(F) ** 2, sig, step_s, 0), sig, step_i, 1)
    i_wt = _blur_axis(i_wt, sig, step_s, 0)
    i_tw = _blur_axis(i_tw, sig, step_i, 1)

    i_ww, i_wt, i_tw, i_tt = map(unit_peak, (i_ww, i_wt, i_tw, i_tt))

    # first and last delay of tw's signal axis, wt's idler axis and both of tt's
    edge = max(max(p[0].max(), p[-1].max()) for p in (i_tw, i_wt.T, i_tt, i_tt.T))
    coverage_warning = bool(edge > 0.01)
    if coverage_warning:
        logger.warning("tw, wt or tt is not negligible at the delay-axis edge (%.3g of peak)", edge)

    # delay axes are the conjugates of the frequency axes (same N), as the
    # retrieval planes require
    freq_s, freq_i = state.axis_s, state.axis_i
    time_s, time_i = conjugate_axis(freq_s), conjugate_axis(freq_i)
    return MeasurementSet(
        i_ww=IntensityGrid2D(freq_s, freq_i, i_ww),
        i_wt=IntensityGrid2D(freq_s, time_i, i_wt),
        i_tw=IntensityGrid2D(time_s, freq_i, i_tw),
        i_tt=IntensityGrid2D(time_s, time_i, i_tt),
        coverage_warning=coverage_warning,
    )


def check_peak_counts(key, counts):
    """Refuse peak counts poissonize cannot draw (the peak bin's mean is peak_counts)."""
    if not 0 < counts <= MAX_PEAK_COUNTS:
        raise ValueError(f"{key} must be positive and at most {MAX_PEAK_COUNTS:.11g}, numpy's Poisson limit")


def poissonize(h: IntensityGrid2D, peak_counts: float, seed: int) -> IntensityGrid2D:
    """Scale to the given peak and replace every bin by a Poisson draw.
    Deterministic per seed; output holds the raw counts."""
    check_peak_counts("peak_counts", peak_counts)
    peak = h.values.max()
    if peak <= 0:
        raise ValueError("cannot poissonize an all-zero grid")
    # the peak bin's mean can round one ulp above peak_counts
    mean = np.clip(h.values * (peak_counts / peak), 0.0, MAX_PEAK_COUNTS)
    rng = np.random.default_rng(seed)
    return h.with_values(rng.poisson(mean))  # the grid converts the counts to float


def poissonize_set(m: MeasurementSet, peak_counts: float, seed: int) -> MeasurementSet:
    """Poissonize all four planes; ww, wt, tw, tt draw with seeds seed,
    seed + 1, seed + 2, seed + 3."""
    noisy = {f"i_{p}": poissonize(g, peak_counts, seed + k) for k, (p, g) in enumerate(m.grids().items())}
    return replace(m, **noisy)
