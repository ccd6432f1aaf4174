"""Four-plane alternating-projection phase retrieval.

One iteration visits the planes ww -> wt -> tt -> tw -> ww, replacing the
magnitude with the measured one at each active plane while keeping the phase,
and moving between planes with the single-photon Fourier transforms.  The
FROG-trace error against the ww constraint is recorded every iteration.

The loop works on plain arrays, and on a stack of measurement sets that
share the ww axes at once (a lone run is a stack of one).  At entry each
set's initial state and measured intensities are ``ifftshift``-ed once on
both axes into its slice of the stack, so each centered transform becomes one
``np.fft.fft``/``ifft`` along one axis of the whole stack, done in place; at
exit each state is ``fftshift``-ed back into a single
:class:`~biphoton.grids.ComplexGrid2D`.  The unitary factors of the transforms
(:func:`~biphoton.grids.dft_scale`) are not applied inside the loop: every
projection resets the magnitude, so they are carried as one running scalar
``scale`` with ``physical field = scale * array``.  The zero-magnitude
epsilon is applied to the physical field: a pixel whose ``|scale * array|``
is below ``ZERO_MAGNITUDE_EPSILON`` takes phase 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grids import FREQUENCY, ComplexGrid2D, IntensityGrid2D, conjugate_axis, dft_scale

PLANES = ("ww", "wt", "tw", "tt")
ZERO_MAGNITUDE_EPSILON = 1e-12


class RetrievalError(RuntimeError):
    """Retrieval aborted (non-finite values encountered)."""


@dataclass(frozen=True)
class MeasurementSet:
    """The four intensity constraints on mutually conjugate axes."""

    i_ww: IntensityGrid2D
    i_wt: IntensityGrid2D
    i_tw: IntensityGrid2D
    i_tt: IntensityGrid2D
    coverage_warning: bool = False

    def __post_init__(self):
        for name, grid in self.grids().items():
            if not isinstance(grid, IntensityGrid2D):
                raise TypeError(f"i_{name} must be an IntensityGrid2D, not {type(grid).__name__}")
        fs, fi = self.i_ww.axis_s, self.i_ww.axis_i
        ts, ti = conjugate_axis(fs), conjugate_axis(fi)
        if fs.domain != FREQUENCY or fi.domain != FREQUENCY:
            raise ValueError("i_ww must live on frequency-frequency axes")
        checks = [
            (self.i_wt, fs, ti),
            (self.i_tw, ts, fi),
            (self.i_tt, ts, ti),
        ]
        for grid, want_s, want_i in checks:
            if not (grid.axis_s.compatible_with(want_s) and grid.axis_i.compatible_with(want_i)):
                raise ValueError("measurement axes are not mutually conjugate")
        for grid in (self.i_ww, self.i_wt, self.i_tw, self.i_tt):
            if np.any(grid.values < 0):
                raise ValueError("measured intensities must be nonnegative")

    def grids(self):
        return {"ww": self.i_ww, "wt": self.i_wt, "tw": self.i_tw, "tt": self.i_tt}


@dataclass(frozen=True)
class RetrievalConfig:
    iterations: int = 1000
    seed: int = 0
    constraint_mask: frozenset = frozenset(PLANES)

    def __post_init__(self):
        # messages name the manifest keys
        if self.iterations < 1:
            raise ValueError("retrieval.iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("retrieval.seed must be >= 0")
        planes = list(self.constraint_mask)
        if not planes:
            # with no plane projected the ww error would read 0
            raise ValueError("retrieval.constraint_mask must name at least one plane")
        repeated = sorted({p for p in planes if planes.count(p) > 1})
        if repeated:
            raise ValueError(f"retrieval.constraint_mask names {', '.join(repeated)} more than once")
        object.__setattr__(self, "constraint_mask", frozenset(planes))
        unknown = self.constraint_mask - set(PLANES)
        if unknown:
            raise ValueError(f"retrieval.constraint_mask has unknown planes {sorted(unknown)}")


@dataclass(frozen=True)
class RetrievalResult:
    jsa: ComplexGrid2D
    error_history_ww: np.ndarray
    error_final_tt: float
    seed: int | None  # None when the run was given its start
    iterations_run: int


def _project(g: np.ndarray, amp: np.ndarray, eps: float, mag: np.ndarray) -> np.ndarray:
    """In place: replace |g| with amp, keeping the phase.  Where |g| < eps the
    phase factor is taken as 1.  ``mag`` holds |g| on entry and is used as
    real scratch."""
    if not mag.min() >= eps:  # a NaN minimum takes this path too
        small = mag < eps
        np.copyto(g, 1.0, where=small)
        np.copyto(mag, 1.0, where=small)
    g *= np.divide(amp, mag, out=mag)
    return g


def project_magnitude(f: ComplexGrid2D, i: IntensityGrid2D) -> ComplexGrid2D:
    """Replace |f| with sqrt(i), keeping the phase.  Where |f| is below
    ZERO_MAGNITUDE_EPSILON the phase factor is 1, so the output is real sqrt(i)."""
    if not (f.axis_s.compatible_with(i.axis_s) and f.axis_i.compatible_with(i.axis_i)):
        raise ValueError("projection axes do not match")
    values = np.array(f.values)
    return f.with_values(_project(values, np.sqrt(i.values), ZERO_MAGNITUDE_EPSILON, np.abs(values)))


def _unit_peak(m: np.ndarray) -> np.ndarray:
    peak = m.max()
    if peak <= 0:
        raise ValueError("measured grid is identically zero")
    return m / peak


def _frog_error(m_hat: np.ndarray, r: np.ndarray, resid: np.ndarray) -> float:
    """FROG error of the intensity r against the unit-peak m_hat, written
    through the buffer ``resid`` (which may be r itself).  The error does not
    depend on the scale of r, so r is scaled only through the dot products:
    mu = <m_hat, r> / <r, r>.  A non-finite value in r gives a non-finite
    error, because every pixel of r enters the residual."""
    # einsum, not vdot: BLAS dot products start their threads above ~1e4
    # pixels, and those threads spin beside the FFTs and the Monte Carlo workers
    rr = np.einsum("ij,ij->", r, r)
    mu = np.einsum("ij,ij->", m_hat, r) / rr if rr > 0 else 0.0
    np.multiply(r, -mu, out=resid)
    resid += m_hat
    return float(np.sqrt(np.einsum("ij,ij->", resid, resid) / resid.size))


def frog_error(i_meas: IntensityGrid2D, i_rec) -> float:
    """RMS per-pixel error between unit-peak normalized intensities with the
    closed-form optimal scale applied to the reconstruction."""
    m = np.asarray(i_meas.values if isinstance(i_meas, IntensityGrid2D) else i_meas, dtype=float)
    r = np.asarray(i_rec.values if isinstance(i_rec, IntensityGrid2D) else i_rec, dtype=float)
    if m.shape != r.shape:
        raise ValueError("grid shapes do not match")
    return _frog_error(_unit_peak(m), r, np.empty(r.shape))


def run_retrieval(
    m: MeasurementSet, cfg: RetrievalConfig, start: ComplexGrid2D | None = None
) -> RetrievalResult:
    """Run the alternating-projection loop for cfg.iterations iterations,
    from ``start``, a state on the ww axes (the result's seed is then None),
    or else from sqrt(ww) with a uniformly random phase drawn from ``cfg.seed``.

    This is :func:`run_retrieval_stack` on a stack of one, with its failure
    raised: a non-finite state raises :class:`RetrievalError`, a start on
    other axes or an identically zero ww or tt plane ``ValueError``.
    """
    (outcome,) = run_retrieval_stack([m], cfg, [cfg.seed if start is None else start])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _load(m: MeasurementSet, start, g, amp, m_hat, tt_hat):
    """Fill one slice of the stack, all ifftshift-ed: the start state in g,
    the active planes' amplitudes in amp and the unit-peak ww and tt planes."""
    ww = m.i_ww.values
    if isinstance(start, ComplexGrid2D):
        if not (start.axis_s.compatible_with(m.i_ww.axis_s) and start.axis_i.compatible_with(m.i_ww.axis_i)):
            raise ValueError("start axes do not match the measurements' ww axes")
        g[...] = np.fft.ifftshift(start.values)
    else:
        rng = np.random.default_rng(start)
        g[...] = np.fft.ifftshift(np.sqrt(ww) * np.exp(2j * np.pi * rng.random(ww.shape)))
    grids = m.grids()
    for p, a in amp.items():
        np.sqrt(np.fft.ifftshift(grids[p].values), out=a)
    for hat, p in ((m_hat, "ww"), (tt_hat, "tt")):
        hat[...] = _unit_peak(np.fft.ifftshift(grids[p].values))


def run_retrieval_stack(sets, cfg: RetrievalConfig, starts) -> list:
    """Run the alternating-projection loop on a stack of measurement sets
    that share the ww axes, each from its own start: ``starts[b]`` is a
    state on the ww axes or the seed of sqrt(ww) with a uniformly random
    phase (``cfg.seed`` is not read).  Returns, in order, each set's
    :class:`RetrievalResult` or the exception that ended it; a set that
    fails at set-up or goes non-finite is dropped from the stack at once,
    and every other set's result is the same as in a stack of its own.

    The ww-plane error is evaluated on the estimate returned to the ww plane
    at the end of each cycle (before the next projection), which is the
    quantity the algorithm never increases when all four constraints are on.
    A non-finite error, and so any non-finite pixel of a set's state, ends
    that set with :class:`RetrievalError`; numpy's overflow and invalid-value
    warnings are off in the loop, because that check reports them per set.
    Every numpy call but the FROG error covers the whole (B, n, n) stack;
    the error stays per set, so each set's dot products sum in the order of
    a lone run.  Buffer budget per set, in n x n complex units: 5
    in the loop (the state, two real planes, the active planes' amplitudes
    and the unit-peak ww and tt planes), and the returned JSA; the state
    itself is taken to the tt plane for the final tt error.
    """
    if not sets:
        return []
    axis_s, axis_i = sets[0].i_ww.axis_s, sets[0].i_ww.axis_i
    for m in sets:
        if not (m.i_ww.axis_s.compatible_with(axis_s) and m.i_ww.axis_i.compatible_with(axis_i)):
            raise ValueError("the measurement sets of a stack must share the ww axes")
    shape = (len(sets), axis_s.count, axis_i.count)
    g = np.empty(shape, dtype=complex)
    amp = {p: np.empty(shape) for p in cfg.constraint_mask}
    m_hat, tt_hat = np.empty(shape), np.empty(shape)
    outcomes, live = [None] * len(sets), []  # live[i]: the index in sets of slice i
    for b, (m, start) in enumerate(zip(sets, starts, strict=True)):
        i = len(live)
        try:
            _load(m, start, g[i], {p: a[i] for p, a in amp.items()}, m_hat[i], tt_hat[i])
        except Exception as exc:  # noqa: BLE001 - the set fails alone
            outcomes[b] = exc
            continue
        live.append(b)
    if not live:
        return outcomes
    g, m_hat, tt_hat = g[: len(live)], m_hat[: len(live)], tt_hat[: len(live)]
    amp = {p: a[: len(live)] for p, a in amp.items()}
    # plane projected before the step, step transform, its axis, its unitary factor
    cycle = (
        ("ww", np.fft.fft, -1, dft_scale(axis_i)),
        ("wt", np.fft.fft, -2, dft_scale(axis_s)),
        ("tt", np.fft.ifft, -1, dft_scale(conjugate_axis(axis_i))),
        ("tw", np.fft.ifft, -2, dft_scale(conjugate_axis(axis_s))),
    )
    mag = np.abs(g)  # |g|; at the ww plane it is the one the last error left
    work = np.empty(g.shape)
    scale = 1.0  # physical field = scale * g, the same for every set
    history = np.empty((len(sets), cfg.iterations))

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.iterations):
            for plane, dft, axis, factor in cycle:
                if plane in amp:
                    if plane != "ww":
                        np.abs(g, out=mag)
                    _project(g, amp[plane], ZERO_MAGNITUDE_EPSILON / scale, mag)
                    scale = 1.0
                dft(g, axis=axis, out=g)
                scale *= factor
            np.abs(g, out=mag)
            np.square(mag, out=work)
            errs = [_frog_error(m_b, w_b, w_b) for m_b, w_b in zip(m_hat, work)]
            for b, err in zip(live, errs):
                history[b, k] = err
            if not all(map(math.isfinite, errs)):
                keep = [math.isfinite(err) for err in errs]
                for b, ok in zip(live, keep):
                    if not ok:
                        outcomes[b] = RetrievalError(f"non-finite state after iteration {k + 1}")
                live = [b for b, ok in zip(live, keep) if ok]
                if not live:
                    return outcomes
                g, mag, work, m_hat, tt_hat = (x[keep] for x in (g, mag, work, m_hat, tt_hat))
                amp = {p: a[keep] for p, a in amp.items()}

    jsas = [ComplexGrid2D(axis_s, axis_i, np.fft.fftshift(g[i]) * scale) for i in range(len(live))]
    np.fft.fft(np.fft.fft(g, axis=-1, out=g), axis=-2, out=g)
    np.square(np.abs(g, out=mag), out=mag)
    errs_tt = [_frog_error(t_b, m_b, m_b) for t_b, m_b in zip(tt_hat, mag)]
    for i, b in enumerate(live):
        outcomes[b] = RetrievalResult(
            jsa=jsas[i],
            error_history_ww=history[b],
            error_final_tt=errs_tt[i],
            seed=None if isinstance(starts[b], ComplexGrid2D) else starts[b],
            iterations_run=cfg.iterations,
        )
    return outcomes
