"""Four-plane alternating-projection phase retrieval.

One iteration visits the planes ww -> wt -> tt -> tw -> ww, replacing the
magnitude with the measured one at each active plane while keeping the phase,
and moving between planes with the single-photon Fourier transforms.  The
FROG-trace error against the ww constraint is recorded every iteration.

The loop works on plain arrays, and on a stack of measurement sets that
share the ww axes at once (a lone run is a stack of one).  At entry each
set's initial state and measured intensities are ``ifftshift``-ed once on
both axes into its slice of the stack, so each centered transform becomes one
``np.fft.fft``/``ifft`` along one axis of the stack, done in place; at exit
each state is ``fftshift``-ed back into a single
:class:`~biphoton.grids.ComplexGrid2D`.  A stack of ``SPLIT_PIXELS`` pixels
or more (from one 256 x 256 set) runs each iteration in halves on two threads
when the process may run on two CPUs or more: the projections and the
idler-axis transforms by rows, the signal-axis transforms by columns, with
one hand-off at each change.  Every pixel is computed as in one piece, so
the result does not depend on the split.  The unitary factors of the transforms
(:func:`~biphoton.grids.dft_scale`) are not applied inside the loop: every
projection resets the magnitude, so they are carried as one running scalar
``scale`` with ``physical field = scale * array``.  The zero-magnitude
epsilon is applied to the physical field: a pixel whose ``|scale * array|``
is below ``ZERO_MAGNITUDE_EPSILON`` takes phase 1.
"""

import contextvars
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grids import FREQUENCY, ComplexGrid2D, IntensityGrid2D, conjugate_axis, dft_scale

PLANES = ("ww", "wt", "tw", "tt")
ZERO_MAGNITUDE_EPSILON = 1e-12
# pixels per stack from which an iteration is split over two CPUs: a lone
# n = 256 set ran in 0.68 of the serial time, n = 128 in 1.07 of it
SPLIT_PIXELS = 2**16


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
        if isinstance(self.constraint_mask, str):
            raise ValueError("retrieval.constraint_mask must be a collection of plane names, "
                             f"not the string {self.constraint_mask!r}")
        planes = list(self.constraint_mask)
        if not planes:
            # with no plane projected the ww error would read 0
            raise ValueError("retrieval.constraint_mask must name at least one plane")
        for p in planes:
            if not isinstance(p, str):
                raise ValueError(f"retrieval.constraint_mask entries must be strings, not {p!r}")
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
    """Run the alternating-projection loop for cfg.iterations iterations
    from ``start``, a state on the ww axes, or else from sqrt(ww) with a
    uniformly random phase drawn from ``cfg.seed``: :func:`run_retrieval_stack`
    on a stack of one."""
    if start is None:
        ww, rng = m.i_ww, np.random.default_rng(cfg.seed)
        start = ComplexGrid2D(
            ww.axis_s, ww.axis_i, np.sqrt(ww.values) * np.exp(2j * np.pi * rng.random(ww.values.shape))
        )
    return run_retrieval_stack([m], cfg, [start])[0]


def _load(m: MeasurementSet, start: ComplexGrid2D, g, amp, m_hat, tt_hat):
    """Fill one slice of the stack, all ifftshift-ed: the start state in g,
    the active planes' amplitudes in amp and the unit-peak ww and tt planes."""
    if not isinstance(start, ComplexGrid2D):
        raise TypeError(f"a start must be a ComplexGrid2D, not {type(start).__name__}")
    if not (start.axis_s.compatible_with(m.i_ww.axis_s) and start.axis_i.compatible_with(m.i_ww.axis_i)):
        raise ValueError("start axes do not match the measurements' ww axes")
    g[...] = np.fft.ifftshift(start.values)
    grids = m.grids()
    for p, a in amp.items():
        np.sqrt(np.fft.ifftshift(grids[p].values), out=a)
    for hat, p in ((m_hat, "ww"), (tt_hat, "tt")):
        hat[...] = _unit_peak(np.fft.ifftshift(grids[p].values))


def _cpu_count():
    """CPUs this process may run on: its affinity mask, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _splits(pixels):
    """Whether each iteration over a stack of ``pixels`` pixels runs in two
    halves on two threads: from ``SPLIT_PIXELS`` up, with two CPUs or more,
    and not in a multiprocessing child such as a forked Monte Carlo worker,
    whose pool already runs one worker per CPU."""
    if pixels < SPLIT_PIXELS or _cpu_count() < 2:
        return False
    multiprocessing = sys.modules.get("multiprocessing")  # a child has it loaded
    return multiprocessing is None or multiprocessing.parent_process() is None


@contextmanager
def _phase_runner(shape, split):
    """Yields ``run(phase, axis)``, which calls ``phase(at)`` on the parts
    ``at`` of a stack of ``shape``: ``...`` for the whole stack, or with
    ``split`` one half along ``axis`` on a helper thread and the other half
    here.  The helper runs in a copy of this thread's context, so the
    caller's ``np.errstate`` holds there too; an exception of either half is
    raised here, and leaving the block joins the helper, so no caller forks
    beside it.  Each hand-off is one put and one get on a pair of queues,
    which took 0.91 of the time of a thread pool's submit and result at
    n = 256."""
    if not split:
        yield lambda phase, axis: phase(...)
        return
    # imported here so that importing biphoton starts no thread machinery
    import queue
    import threading

    rows, cols = shape[-2] // 2, shape[-1] // 2
    halves = {  # the helper's half first
        -2: ((..., slice(rows), slice(None)), (..., slice(rows, None), slice(None))),
        -1: ((..., slice(cols)), (..., slice(cols, None))),
    }
    jobs, outcomes = queue.SimpleQueue(), queue.SimpleQueue()

    def serve():
        while (job := jobs.get()) is not None:
            phase, at = job
            try:
                phase(at)
            except BaseException as exc:  # noqa: BLE001 - raised again on the calling thread
                outcomes.put(exc)
            else:
                outcomes.put(None)

    def run(phase, axis):
        first, second = halves[axis]
        jobs.put((phase, first))
        try:
            phase(second)
        finally:
            exc = outcomes.get()  # the helper's half has ended
        if exc is not None:
            raise exc

    helper = threading.Thread(target=contextvars.copy_context().run, args=(serve,), name="retrieval-helper")
    helper.start()
    try:
        yield run
    finally:
        jobs.put(None)
        helper.join()


def run_retrieval_stack(sets, cfg: RetrievalConfig, starts) -> list:
    """Run the alternating-projection loop on a stack of measurement sets
    that share the ww axes, each from its own start ``starts[b]``, a
    :class:`~biphoton.grids.ComplexGrid2D` on the ww axes (else ``TypeError``
    or ``ValueError``).  Returns each set's :class:`RetrievalResult` in order,
    each the same as in a stack of its own; a set that fails raises what its
    lone run raises, for the stack.

    The ww-plane error is evaluated on the estimate returned to the ww plane
    at the end of each cycle (before the next projection), which is the
    quantity the algorithm never increases when all four constraints are on.
    A non-finite error, and so any non-finite pixel of a set's state, raises
    :class:`RetrievalError`; numpy's overflow and invalid-value warnings are
    off in the loop, because that check reports them: under a filter that
    turns warnings into errors they would end the run with another exception.
    Every projection, transform and modulus covers the whole (B, n, n) stack,
    or one half of it, by rows or by columns, when ``_splits`` splits the
    iteration over this thread and a helper; pixel by pixel the halves
    compute what the whole does.  The FROG error, the history and the
    finiteness check stay on this thread, over the whole stack, and the
    error stays per set, so each set's dot products sum in the order of a
    lone run.  Buffer budget per set, in n x n complex units: 5 in the
    loop (the state, two real planes, the active planes' amplitudes and the
    unit-peak ww and tt planes), 2.5 of them freed before the returned JSA is
    built; the state itself is taken to the tt plane for the final tt error.
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
    for b, (m, start) in enumerate(zip(sets, starts, strict=True)):
        _load(m, start, g[b], {p: a[b] for p, a in amp.items()}, m_hat[b], tt_hat[b])
    # the plane projected before each step and the step's unitary factor
    factors = (
        ("ww", dft_scale(axis_i)),
        ("wt", dft_scale(axis_s)),
        ("tt", dft_scale(conjugate_axis(axis_i))),
        ("tw", dft_scale(conjugate_axis(axis_s))),
    )
    mag = np.abs(g)  # |g|; at the ww plane it is the one the last error left
    work = np.empty(shape)
    scale = 1.0  # physical field = scale * g, the same for every set
    eps = {}  # this iteration's zero-magnitude epsilon on g, per projected plane
    history = []  # per iteration, each set's ww error

    def project(plane, at):
        if plane in amp:
            g_at, mag_at = g[at], mag[at]
            if plane != "ww":
                np.abs(g_at, out=mag_at)
            _project(g_at, amp[plane][at], eps[plane], mag_at)

    def transform(dft, axis, at):
        g_at = g[at]
        dft(g_at, axis=axis, out=g_at)

    def idler_leg(before, dft, after, at):
        project(before, at)
        transform(dft, -1, at)
        project(after, at)

    def modulus(at):
        np.abs(g[at], out=mag[at])
        np.square(mag[at], out=work[at])

    # one iteration in five phases, each with the axis its halves split: the
    # projections and the idler-axis transforms by rows, the signal-axis
    # transforms by columns
    phases = (
        (-2, partial(idler_leg, "ww", np.fft.fft, "wt")),
        (-1, partial(transform, np.fft.fft, -2)),
        (-2, partial(idler_leg, "tt", np.fft.ifft, "tw")),
        (-1, partial(transform, np.fft.ifft, -2)),
        (-2, modulus),
    )

    with np.errstate(over="ignore", invalid="ignore"), _phase_runner(shape, _splits(g.size)) as run:
        for k in range(cfg.iterations):
            for plane, factor in factors:
                if plane in amp:
                    eps[plane] = ZERO_MAGNITUDE_EPSILON / scale
                    scale = 1.0
                scale *= factor
            for axis, phase in phases:
                run(phase, axis)
            errs = [_frog_error(m_b, w_b, w_b) for m_b, w_b in zip(m_hat, work)]
            history.append(errs)
            if not all(map(math.isfinite, errs)):
                raise RetrievalError(f"non-finite state after iteration {k + 1}")

    del amp, m_hat, work
    jsas = [ComplexGrid2D(axis_s, axis_i, np.fft.fftshift(g_b) * scale) for g_b in g]
    np.fft.fft(np.fft.fft(g, axis=-1, out=g), axis=-2, out=g)
    np.square(np.abs(g, out=mag), out=mag)
    return [
        RetrievalResult(
            jsa=jsa,
            error_history_ww=errs,
            error_final_tt=_frog_error(t_b, m_b, m_b),
            iterations_run=cfg.iterations,
        )
        for jsa, errs, t_b, m_b in zip(jsas, np.transpose(history), tt_hat, mag)
    ]
