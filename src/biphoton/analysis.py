"""Physics extraction: intensity moments and the time-bandwidth entanglement
witness, sigma-contour masking, quality-guided 2D phase unwrapping, weighted
polynomial phase fitting, and the Monte Carlo spread of fitted chirps over
the trials a caller hands in (``pipeline`` defines the trial it runs)."""

import functools
import heapq
import itertools
import logging
import math
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .grids import ComplexGrid2D, IntensityGrid2D
from .retrieve import _cpu_count

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


def fit_phase_poly(phase_unwrapped: np.ndarray, weights: IntensityGrid2D, mask: np.ndarray) -> PhaseFit:
    """Intensity-weighted least-squares fit of the masked unwrapped phase to
    all 2D monomials of total degree <= 3 in (w_s - w_s0, w_i - w_i0), about
    the axis centres of ``weights``."""
    mask = np.asarray(mask, dtype=bool)
    npix = int(mask.sum())
    if npix < 10:
        raise FitError(f"only {npix} masked pixels; need at least 10")
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
    unwrapped = unwrap_phase_2d(np.angle(jsa.values), mask, quality=intensity.values)
    return fit_phase_poly(unwrapped, intensity, mask)


def _run_chunk(trial, seeds, conn, parent_ends):
    """A forked worker's body: run ``trial`` on its chunk of seeds and send
    the outcomes back on ``conn``.  The warm start is received the first
    time ``trial`` asks for it; a closed pipe there, or when sending, means
    the caller has stopped the run, and the worker exits quietly."""
    # a terminal's Ctrl-C reaches the whole process group; the caller handles it and stops the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:  # held open here, they would outlive the caller and keep a worker waiting for its start
        end.close()

    @functools.cache
    def start():
        try:
            return conn.recv()
        except EOFError:
            sys.exit()  # SystemExit: not caught by a trial's ``except Exception``

    try:
        conn.send(trial(seeds, start))
    except ConnectionError:
        pass


def _exchange(process, action, *args):
    """``action(*args)`` on a worker's pipe.  A pipe the worker closed by
    ending raises ``ChildProcessError`` instead of a hang or a pipe error."""
    try:
        return action(*args)
    except (EOFError, ConnectionError):
        # raised below, not as this error's context: kept as a context, a failed send's frames and
        # the pickle buffer they export were left to the cycle collector, which raised BufferError
        pass
    process.join()
    raise ChildProcessError(f"Monte Carlo worker {process.pid} ended with exit code {process.exitcode} "
                            "before it returned its trials")


class MonteCarloWorkers:
    """Monte Carlo trials started before their warm start is known.

    Trial k's noise seed is entry 2k of ``generate_state(2 * trials)`` of
    one ``SeedSequence`` of ``seed``.  ``trial(noise_seeds, start)`` runs
    the trials of a list of seeds and returns one outcome per seed:
    (chirp_s, chirp_i), or a string naming the exception a failed trial
    raised.  ``start()`` returns the warm start; a trial can prepare its
    first trials before it calls it.

    The seeds are split into one contiguous chunk per worker (chunk sizes
    differ by at most one), one worker per CPU in the affinity mask (at most
    one per trial).  With more than one worker and fork available, each
    chunk runs at once in a forked process, which inherits ``trial``, and
    waits in ``start()`` until ``send`` sends the start.  With one worker or
    no fork, the whole list runs in this process inside ``collect``; zero
    trials, an empty pool, import no ``multiprocessing``.  Used as a context
    manager, the workers still running when the block exits (on an
    exception) are terminated and joined.
    """

    def __init__(self, trial, trials: int, seed: int):
        if trials == 1 or trials < 0:
            raise ValueError(f"need 0 or at least 2 trials, not {trials}")
        self._trial = trial
        # entry 2k: the stride keeps trial k's noise draw stable across versions
        self.seeds = np.random.SeedSequence(seed).generate_state(2 * trials)[::2].tolist()
        self._workers = []  # (process, this process's end of its pipe)
        workers = min(_cpu_count(), trials)
        if workers < 2:
            return
        # imported here: importing biphoton, or a pool of one worker or none, loads no process machinery
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return
        # a Process and Pipe per worker, started now, not a pool at the call:
        # the workers prepare their first stack while the caller retrieves the
        # nominal state, and run the trials while it writes its files.  Fork,
        # not spawn: the workers inherit ``trial`` and the data it holds
        # without a pickle or a fresh import of numpy.
        context = multiprocessing.get_context("fork")
        bounds = [trials * w // workers for w in range(workers + 1)]
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                parent_end, child_end = context.Pipe()
                parent_ends = [end for _, end in self._workers] + [parent_end]
                process = context.Process(target=_run_chunk, daemon=True,
                                          args=(trial, self.seeds[lo:hi], child_end, parent_ends))
                process.start()
                child_end.close()  # the worker's end lives in the worker alone, so its exit closes the pipe
                self._workers.append((process, parent_end))
        except BaseException:
            self.stop()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def send(self, start):
        """Hand the trials their warm start ``start``: send it to each worker,
        or keep it for ``collect`` when the trials run in this process."""
        self._start = start
        for process, conn in self._workers:
            _exchange(process, conn.send, start)

    def collect(self) -> list:
        """Every trial's outcome, in trial order: the workers', or those of
        the trials run here from the start ``send`` kept.  A worker that ends
        without returning its outcomes raises ``ChildProcessError``."""
        if not self._workers:
            return self._trial(self.seeds, lambda: self._start)
        outcomes = []
        for process, conn in self._workers:
            outcomes += _exchange(process, conn.recv)
        for process, conn in self._workers:
            conn.close()
            process.join()
        self._workers = []
        return outcomes

    def stop(self):
        """Terminate and join the workers that are still running."""
        for process, conn in self._workers:
            conn.close()
            process.terminate()
        for process, _ in self._workers:
            process.join()
        self._workers = []


def monte_carlo_uncertainty(workers: MonteCarloWorkers, trials: int):
    """Per-coefficient spread of the fitted chirps over the ``trials`` Monte
    Carlo trials that ``workers`` run (``MonteCarloWorkers``) from the warm
    start they were sent.  Results are collected in trial order, so they do
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
