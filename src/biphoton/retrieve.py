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
or more (from one 128 x 128 set) runs each iteration in halves in two
processes, this one and a forked :class:`~biphoton.cpus.Partner`, where
``cpus.partner_ok`` allows it: the projections and the idler-axis transforms
by rows, the signal-axis transforms by columns, with one sync at each change.
Every pixel is computed as in one piece, so
the result does not depend on the split.  The unitary factors of the transforms
(:func:`~biphoton.grids.dft_scale`) are not applied inside the loop: every
projection resets the magnitude, so they are carried as one running scalar
``scale`` with ``physical field = scale * array``.  The zero-magnitude
epsilon is applied to the physical field: a pixel whose ``|scale * array|``
is below ``ZERO_MAGNITUDE_EPSILON`` takes phase 1.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cpus import Partner, partner_ok
from .grids import FREQUENCY, ComplexGrid2D, IntensityGrid2D, conjugate_axis, dft_scale

PLANES = ("ww", "wt", "tw", "tt")
# the planes each set scales to unit peak: ww for the error history, tt for the final error
UNIT_PEAK_PLANES = ("ww", "tt")
ZERO_MAGNITUDE_EPSILON = 1e-12
# pixels per stack from which an iteration is split over two processes: a
# lone n = 128 set ran in 0.66 of the serial time and n = 256 in 0.62 (the
# thread split read 1.07 and 0.68); splitting n = 64 too (2**12) made the
# CLI workload's nominal retrievals, run beside its Monte Carlo workers,
# 1.18 times as slow (README "Retrieval on two CPUs")
SPLIT_PIXELS = 2**14


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
    for hat, p in zip((m_hat, tt_hat), UNIT_PEAK_PLANES):
        hat[...] = _unit_peak(np.fft.ifftshift(grids[p].values))


def _splits(pixels):
    """Whether each iteration over a stack of ``pixels`` pixels runs in two
    halves in two processes: from ``SPLIT_PIXELS`` up, where
    ``cpus.partner_ok`` allows a partner."""
    return pixels >= SPLIT_PIXELS and partner_ok()


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
    iteration over this process and a partner: both run the same loop, each
    on its half of each phase, and sync after each phase, so pixel by pixel
    the halves compute what the whole does.  The state and the two real
    planes live in the mapping the partner shares; the amplitudes and the
    unit-peak planes, which it only reads, are its copies from the fork.  The
    FROG error, the history and the finiteness check stay in this process,
    over the whole stack, while the partner runs its half of the next
    iteration's first phase, which reads only the state, |g| and the ww
    amplitude; the error stays per set, so each set's dot products sum in the
    order of a lone run.  Buffer budget per set, in n x n complex units: 5 in
    the loop (the state, two real planes, the active planes' amplitudes and
    the unit-peak ww and tt planes), 2.5 of them freed before the returned JSA
    is built (2 when split: the mapping holds work until the return); the
    state itself is taken to the tt plane for the final tt error.
    """
    if not sets:
        return []
    axis_s, axis_i = sets[0].i_ww.axis_s, sets[0].i_ww.axis_i
    for m in sets:
        if not (m.i_ww.axis_s.compatible_with(axis_s) and m.i_ww.axis_i.compatible_with(axis_i)):
            raise ValueError("the measurement sets of a stack must share the ww axes")
    shape = (len(sets), axis_s.count, axis_i.count)
    # the state and the two real planes: shared with the partner when split
    pair = Partner((shape, complex), (shape, float), (shape, float)) if _splits(math.prod(shape)) else None
    g, mag, work = pair.arrays if pair else (np.empty(shape, complex), np.empty(shape), np.empty(shape))
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
    np.abs(g, out=mag)  # |g|; at the ww plane it is the one the last error left
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

    def iterate(at, sync, errors):
        """The loop on this process's part of each phase, ``at[axis]``, with
        ``sync()`` after each phase; with ``errors``, each set's ww error
        after each iteration.  Returns the final scale."""
        scale = 1.0  # physical field = scale * g, the same for every set
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(cfg.iterations):
                for plane, factor in factors:
                    if plane in amp:
                        eps[plane] = ZERO_MAGNITUDE_EPSILON / scale
                        scale = 1.0
                    scale *= factor
                for axis, phase in phases:
                    phase(at[axis])
                    sync()
                if errors:
                    errs = [_frog_error(m_b, w_b, w_b) for m_b, w_b in zip(m_hat, work)]
                    history.append(errs)
                    if not all(map(math.isfinite, errs)):
                        raise RetrievalError(f"non-finite state after iteration {k + 1}")
        return scale

    if pair is None:
        scale = iterate({-2: ..., -1: ...}, lambda: None, True)
    else:
        rows, cols = shape[-2] // 2, shape[-1] // 2
        first = {-2: (..., slice(rows), slice(None)), -1: (..., slice(cols))}
        second = {-2: (..., slice(rows, None), slice(None)), -1: (..., slice(cols, None))}
        with pair.running(partial(iterate, first, pair.sync, False)):
            scale = iterate(second, pair.sync, True)

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
