"""Physics extraction: intensity moments and the time-bandwidth entanglement
witness, sigma-contour masking, quality-guided 2D phase unwrapping, weighted
polynomial phase fitting, and the Monte Carlo spread of fitted chirps over
the trials a caller hands in (``pipeline`` defines the trial it runs)."""

import heapq
import logging
import os
from dataclasses import dataclass

import numpy as np

from .grids import ComplexGrid2D, IntensityGrid2D

TWO_PI = 2.0 * np.pi
# the witness product must undercut 1 by this much, so rounding flags no separable state
ENTANGLED_TOLERANCE = 1e-9

logger = logging.getLogger(__name__)


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

    seed = np.unravel_index(np.argmax(np.where(mask, quality, -np.inf)), phase.shape)
    visited = np.zeros_like(mask)
    visited[seed] = True
    out = phase.copy()
    heap = []
    counter = 0

    def push_neighbors(p):
        nonlocal counter
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            q = (p[0] + dr, p[1] + dc)
            if 0 <= q[0] < phase.shape[0] and 0 <= q[1] < phase.shape[1]:
                if mask[q] and not visited[q]:
                    heapq.heappush(heap, (-quality[q], counter, q, p))
                    counter += 1

    push_neighbors(seed)
    while heap:
        _, _, q, p = heapq.heappop(heap)
        if visited[q]:
            continue
        visited[q] = True
        jump = phase[q] - out[p]
        out[q] = phase[q] - TWO_PI * np.round(jump / TWO_PI)
        push_neighbors(q)
    return out


_MONOMIALS = [(a, b) for total in range(4) for a in range(total + 1) for b in [total - a]]


def fit_phase_poly(phase_unwrapped: np.ndarray, weights: IntensityGrid2D, mask: np.ndarray) -> PhaseFit:
    """Intensity-weighted least-squares fit of the masked unwrapped phase to
    all 2D monomials of total degree <= 3 in (w_s - w_s0, w_i - w_i0), about
    the axis centres of ``weights``."""
    mask = np.asarray(mask, dtype=bool)
    npix = int(mask.sum())
    if npix < 10:
        raise FitError(f"only {npix} masked pixels; need at least 10")
    ds = (weights.axis_s.values() - weights.axis_s.center)[:, None] * np.ones_like(phase_unwrapped)
    di = (weights.axis_i.values() - weights.axis_i.center)[None, :] * np.ones_like(phase_unwrapped)
    x = ds[mask]
    y = di[mask]
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
    unwrapped = unwrap_phase_2d(np.angle(jsa.values), mask, quality=intensity.values)
    return fit_phase_poly(unwrapped, intensity, mask)


def _cpu_count():
    """CPUs this process may run on: its affinity mask, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def monte_carlo_uncertainty(trial, trials: int, seed: int):
    """Per-coefficient spread of the fitted chirps over ``trials`` Monte
    Carlo trials, each given a (noise_seed, retrieval_seed) pair.
    ``trial(seed_pairs)`` runs the trials of a list of pairs and returns one
    outcome per pair: (chirp_s, chirp_i), or a string naming the exception a
    failed trial raised.  It is a module-level function, or a partial of
    one, so that it pickles.  The seed pairs come from one ``SeedSequence``
    of ``seed``.

    The pairs are split into one contiguous chunk per worker (chunk sizes
    differ by at most one), and the chunks run in forked worker processes,
    one per CPU in the affinity mask (at most one per trial), or as one
    chunk in this process when there is one worker or no fork.  Results are
    collected in trial order, so they do not depend on the worker count as
    long as a trial's outcome does not depend on its chunk.  Each failed
    trial is logged at WARNING; more than 20% failed trials raise
    ``FitError``.

    Returns (stddevs, trial_values) as dicts keyed by 'chirp_s' / 'chirp_i'.
    """
    # imported here so that importing biphoton loads no process-pool machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if trials < 2:
        raise ValueError("need at least 2 trials")
    trial_seeds = np.random.SeedSequence(seed).generate_state(2 * trials).reshape(trials, 2)
    seeds = [(int(a), int(b)) for a, b in trial_seeds]
    workers = min(_cpu_count(), trials)
    # fork, not spawn: a spawned worker imports numpy and biphoton again,
    # which made 16 trials at n = 64 on 2 CPUs slower than running them here
    # (1.7-2.1 s against 1.45 s; fork 0.7 s), and it needs a __main__ guard
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        bounds = [trials * w // workers for w in range(workers + 1)]
        chunks = [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            outcomes = [outcome for chunk in pool.map(trial, chunks) for outcome in chunk]
    else:
        outcomes = trial(seeds)
    values = {"chirp_s": [], "chirp_i": []}
    failures = []
    for t, outcome in enumerate(outcomes):
        if isinstance(outcome, str):
            logger.warning("Monte Carlo trial %d failed: %s", t, outcome)
            failures.append((t, outcome))
            continue
        values["chirp_s"].append(outcome[0])
        values["chirp_i"].append(outcome[1])
    if len(failures) > 0.2 * trials:
        raise FitError(f"{len(failures)}/{trials} Monte Carlo trials failed: {failures[:3]}")
    stddevs = {k: float(np.std(v, ddof=1)) for k, v in values.items()}
    return stddevs, values
