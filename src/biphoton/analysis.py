"""Physics extraction: intensity moments and the time-bandwidth entanglement
witness, sigma-contour masking, quality-guided 2D phase unwrapping, weighted
polynomial phase fitting, and the Monte Carlo spread of fitted chirps over
the trials that :class:`~biphoton.cpus.MonteCarloWorkers` run (``pipeline``
defines the trial)."""

import heapq
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .grids import ComplexGrid2D, IntensityGrid2D

TWO_PI = 2.0 * np.pi
# the witness product must undercut 1 by this much, so rounding flags no separable state
ENTANGLED_TOLERANCE = 1e-9
# the largest share of failed Monte Carlo trials a run reports a spread from
MC_MAX_FAILED_SHARE = 0.2

logger = logging.getLogger("biphoton")


class FitError(RuntimeError):
    """Phase fit could not be performed, or more than 20% of the Monte Carlo
    trials failed to give one."""


@dataclass(frozen=True)
class WitnessReport:
    """Time-bandwidth entanglement witness: product < 1 certifies
    energy-time entanglement."""

    sigma_sum_freq: float
    sigma_diff_time: float
    product: float
    entangled: bool


@dataclass(frozen=True)
class PhaseFit:
    """2D polynomial fit of the unwrapped spectral phase up to total degree 3.

    ``coefficients`` maps (power_s, power_i) to the coefficient of
    (w_s - w_s0)^power_s * (w_i - w_i0)^power_i.  chirp_s / chirp_i are the
    pure quadratic coefficients in fs^2.
    """

    coefficients: dict
    chirp_s: float
    chirp_i: float
    cross_term: float
    residual_rms: float
    mask_pixel_count: int


def _weighted_stats(values, weights):
    w = weights / weights.sum()
    mean = np.sum(w * values)
    var = np.sum(w * (values - mean) ** 2)
    return mean, var


def tbp_numeric(i_ww: IntensityGrid2D, i_tt: IntensityGrid2D) -> WitnessReport:
    """Intensity-weighted s.d. of (w_s + w_i) and (t_s - t_i) and their
    product.  The entangled flag requires the product to undercut 1 by more
    than ``ENTANGLED_TOLERANCE``."""
    for g in (i_ww, i_tt):
        if not g.values.sum() > 0:
            raise ValueError("witness needs a grid with positive total intensity")
    ws = i_ww.axis_s.values()[:, None] + i_ww.axis_i.values()[None, :]
    _, var_sum = _weighted_stats(ws, i_ww.values)
    td = i_tt.axis_s.values()[:, None] - i_tt.axis_i.values()[None, :]
    _, var_diff = _weighted_stats(td, i_tt.values)
    s_sum = float(np.sqrt(var_sum))
    s_diff = float(np.sqrt(var_diff))
    product = s_sum * s_diff
    return WitnessReport(s_sum, s_diff, product, bool(product < 1.0 - ENTANGLED_TOLERANCE))


def sigma_mask(i: IntensityGrid2D, n_sigma: float) -> np.ndarray:
    """Boolean mask of pixels within n_sigma Mahalanobis distance of the intensity
    centroid.  A degenerate 2x2 intensity covariance (the intensity on one line,
    where no degree-3 fit exists) raises ``FitError``."""
    if not n_sigma > 0:
        raise ValueError("n_sigma must be positive")
    total = i.values.sum()
    if not total > 0:
        raise ValueError("sigma mask needs a grid with positive total intensity")
    w = i.values / total
    xs, ys = i.axis_s.values()[:, None], i.axis_i.values()[None, :]
    dx, dy = xs - np.sum(w * xs), ys - np.sum(w * ys)  # broadcast against w
    cov = np.array([
        [np.sum(w * dx * dx), np.sum(w * dx * dy)],
        [np.sum(w * dx * dy), np.sum(w * dy * dy)],
    ])
    det = np.linalg.det(cov)
    if det <= 0 or not np.isfinite(det):
        raise FitError(f"degenerate intensity covariance (determinant {det:.3g}): intensity on a line")
    inv = np.linalg.inv(cov)
    d2 = inv[0, 0] * dx**2 + 2 * inv[0, 1] * dx * dy + inv[1, 1] * dy**2
    return d2 <= n_sigma**2


def unwrap_phase_2d(phase: np.ndarray, mask: np.ndarray, quality: np.ndarray | None = None) -> np.ndarray:
    """Quality-guided flood-fill unwrapping of a wrapped phase over a mask.

    Starts at the highest-quality masked pixel and grows the unwrapped
    region, always visiting the highest-quality frontier pixel next; each
    new pixel is shifted by the multiple of 2*pi that minimizes the jump to
    the neighbor it was reached from.  Unmasked pixels are left untouched.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask is empty")
    phase = np.array(phase, dtype=float)
    if quality is None:
        quality = np.ones_like(phase)
    quality = np.asarray(quality, dtype=float)
    rows, cols = phase.shape

    # the fill runs on Python floats keyed by pixel, over the masked pixels
    # only: indexing numpy scalars per pixel took about 3 times as long (n = 64
    # to 256, the benchmark's chirped state at mask_sigma 2).  Pixel (r, c)
    # is key r * (cols + 1) + c, so that a neighbour off the grid is a key of
    # no masked pixel and needs no bounds check.
    stride = cols + 1
    rs, cs = np.nonzero(mask)
    keys = (rs * stride + cs).tolist()
    wrapped = dict(zip(keys, phase[mask].tolist()))
    weight = dict(zip(keys, quality[mask].tolist()))
    out = dict(wrapped)  # pixels the fill does not reach keep their wrapped phase
    r, c = np.unravel_index(np.argmax(np.where(mask, quality, -np.inf)), phase.shape)
    seed = int(r) * stride + int(c)
    out.setdefault(seed, float(phase[r, c]))  # an unmasked seed: every masked quality is -inf
    visited = {seed}
    heap = []
    counter = itertools.count()

    def push_neighbors(p):
        for q in (p + stride, p - stride, p + 1, p - 1):
            if q in weight and q not in visited:
                heapq.heappush(heap, (-weight[q], next(counter), q, p))

    push_neighbors(seed)
    while heap:
        _, _, q, p = heapq.heappop(heap)
        if q in visited:
            continue
        visited.add(q)
        turns = (wrapped[q] - out[p]) / TWO_PI
        if math.isfinite(turns):  # np.round's rounding, half to even, and its signed zero
            turns = math.copysign(round(turns), turns)
        out[q] = wrapped[q] - TWO_PI * turns
        push_neighbors(q)
    result = phase.copy()
    result[mask] = [out[k] for k in keys]
    return result


_MONOMIALS = [(a, b) for total in range(4) for a in range(total + 1) for b in [total - a]]


def _masked_pixels(mask):
    """The pixel count of a boolean mask, or ``FitError`` below the 10 a
    degree-3 fit needs."""
    npix = int(mask.sum())
    if npix < len(_MONOMIALS):
        raise FitError(f"only {npix} masked pixels; need at least {len(_MONOMIALS)}")
    return npix


def fit_phase_poly(phase_unwrapped: np.ndarray, weights: IntensityGrid2D, mask: np.ndarray) -> PhaseFit:
    """Intensity-weighted least-squares fit of the masked unwrapped phase to
    all 2D monomials of total degree <= 3 in (w_s - w_s0, w_i - w_i0), about
    the axis centres of ``weights``."""
    mask = np.asarray(mask, dtype=bool)
    npix = _masked_pixels(mask)
    rows, cols = np.nonzero(mask)
    x = (weights.axis_s.values() - weights.axis_s.center)[rows]
    y = (weights.axis_i.values() - weights.axis_i.center)[cols]
    z = np.asarray(phase_unwrapped, dtype=float)[mask]
    w = np.sqrt(np.clip(weights.values[mask], 0.0, None))

    # scale coordinates to O(1) for conditioning, unscale coefficients after
    sx = max(np.max(np.abs(x)), 1e-300)
    sy = max(np.max(np.abs(y)), 1e-300)
    design = np.stack([(x / sx) ** a * (y / sy) ** b for a, b in _MONOMIALS], axis=-1)
    A = design * w[:, None]
    rhs = z * w
    coeff, _, rank, sv = np.linalg.lstsq(A, rhs, rcond=None)
    if rank < len(_MONOMIALS):
        raise FitError(
            f"rank-deficient phase fit (rank {rank}/{len(_MONOMIALS)}, "
            f"condition {sv[0] / max(sv[-1], 1e-300):.3g})"
        )
    coeffs = {
        (a, b): float(c / (sx**a * sy**b)) for (a, b), c in zip(_MONOMIALS, coeff)
    }
    resid = design @ coeff - z
    # full rank needs at least 10 weighted pixels, so the weights sum above 0
    residual_rms = float(np.sqrt(np.sum((w * resid) ** 2) / np.sum(w**2)))
    return PhaseFit(
        coefficients=coeffs,
        chirp_s=coeffs[(2, 0)],
        chirp_i=coeffs[(0, 2)],
        cross_term=coeffs[(1, 1)],
        residual_rms=residual_rms,
        mask_pixel_count=npix,
    )


def fit_retrieved_phase(jsa: ComplexGrid2D, mask_sigma: float = 2.0) -> PhaseFit:
    """Mask, unwrap, and polynomial-fit the phase of a retrieved JSA."""
    intensity = jsa.intensity()
    mask = sigma_mask(intensity, mask_sigma)
    _masked_pixels(mask)  # before the unwrap, which refuses an empty mask with a ValueError
    unwrapped = unwrap_phase_2d(np.angle(jsa.values), mask, quality=intensity.values)
    return fit_phase_poly(unwrapped, intensity, mask)


def monte_carlo_uncertainty(workers, trials: int):
    """Per-coefficient spread of the fitted chirps over the ``trials`` Monte
    Carlo trials that ``workers``, a :class:`~biphoton.cpus.MonteCarloWorkers`,
    run from the warm start they were sent.  Results are collected in trial order, so they do
    not depend on the worker count as long as a trial's outcome does not
    depend on its chunk.  The failed trials are logged at WARNING in trial
    order; more than ``MC_MAX_FAILED_SHARE`` (20%) of them raise ``FitError``.

    Returns (stddevs, trial_values) as dicts keyed by 'chirp_s' / 'chirp_i'.
    """
    if trials != len(workers.seeds):
        raise ValueError(f"{trials} trials asked of workers started with {len(workers.seeds)}")
    outcomes = workers.collect()
    failures = [(t, outcome) for t, outcome in enumerate(outcomes) if isinstance(outcome, str)]
    for failure in failures:
        logger.warning("Monte Carlo trial %d failed: %s", *failure)
    if len(failures) > MC_MAX_FAILED_SHARE * trials:
        raise FitError(f"{len(failures)}/{trials} Monte Carlo trials failed: {failures[:3]}")
    fits = [outcome for outcome in outcomes if not isinstance(outcome, str)]
    values = {"chirp_s": [fit[0] for fit in fits], "chirp_i": [fit[1] for fit in fits]}
    stddevs = {k: float(np.std(v, ddof=1)) for k, v in values.items()}
    return stddevs, values
