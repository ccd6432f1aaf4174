"""Manifest-driven pipeline: synthesize a state, simulate the four joint
measurements, deconvolve them, run phase retrieval, fit the spectral phase,
and repeat the chain under Poisson noise for the Monte Carlo spread.  The same
configuration objects back the CLI subcommands."""

import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import get_args

from .analysis import MC_MAX_FAILED_SHARE, PhaseFit, WitnessReport, fit_retrieved_phase, monte_carlo_uncertainty
from .analysis import tbp_numeric
from .cpus import MonteCarloWorkers
from .gating import GatePulse, GatingModel, RefractiveModel, check_peak_counts, kernel_grid
from .gating import poissonize_set, simulate_measurements
from .grids import FREQUENCY, ComplexGrid2D, IntensityGrid2D
from .preprocess import PreprocessConfig, preprocess_grid
from .retrieve import UNIT_PEAK_PLANES, MeasurementSet, RetrievalConfig, RetrievalResult, run_retrieval
from .retrieve import run_retrieval_stack
from .synth import SPAN_SIGMAS, GaussianStateParams, frequency_axes, synthesize_state
from .units import wavelength_to_omega


@dataclass(frozen=True)
class StateConfig:
    params: GaussianStateParams = GaussianStateParams()
    n: int = 64

    def __post_init__(self):
        frequency_axes(self.params, self.n)  # the one grid rule, for n and each photon's samples


# The gate spectrum and the L = 0 lag weight divide by gating.gate.sigma**2,
# a positive float on this range; preprocessing also squares the temporal s.d.
# 1/(2 sigma), a finite float from GATE_SIGMA_MIN_PREPROCESSED up.
GATE_SIGMA_RANGE = (math.sqrt(math.ulp(0.0)), math.sqrt(sys.float_info.max))
GATE_SIGMA_MIN_PREPROCESSED = 0.5 / math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class GatingConfig:
    # 775 nm: a NIR gate matching a Ti:sapphire-like source
    gate_center: float = wavelength_to_omega(775.0)
    gate_sigma: float = 1.0 / (2 * 130.0)
    crystal_length_um: float = 0.0
    spectrometer_sigma: float = 0.0
    refractive_table_path: str | None = None
    ideal: bool = False  # delta gate, exact temporal intensities

    def __post_init__(self):
        # checked at parse, so the staged preprocess, which builds no
        # GatingModel, refuses them too; GatingModel names library fields
        if not self.gate_sigma > 0:
            raise ValueError("gating.gate.sigma must be positive")
        lo, hi = GATE_SIGMA_RANGE
        if not self.ideal and not lo <= self.gate_sigma <= hi:  # the ideal gate has no sigma
            raise ValueError(f"gating.gate.sigma ({self.gate_sigma:g} rad/fs) must lie in [{lo:.4g}, {hi:.4g}] "
                             "rad/fs, where sigma**2 is a positive float")
        if not self.crystal_length_um >= 0:
            raise ValueError("gating.crystal_length_um must be >= 0")
        if not self.spectrometer_sigma >= 0:
            raise ValueError("gating.spectrometer_sigma must be >= 0")


@dataclass(frozen=True)
class AnalysisConfig:
    mask_sigma: float = 2.0
    monte_carlo_trials: int = 0
    monte_carlo_peak_counts: float = 1e4

    def __post_init__(self):
        if not self.mask_sigma > 0:
            raise ValueError("analysis.mask_sigma must be positive")
        if not math.isfinite(self.mask_sigma * self.mask_sigma):  # sigma_mask compares against it
            raise ValueError(f"analysis.mask_sigma ({self.mask_sigma:g}) is too large: its square overflows")
        if self.monte_carlo_trials != 0 and self.monte_carlo_trials < 2:
            raise ValueError("analysis.monte_carlo.trials must be 0 (off) or at least 2")
        check_peak_counts("analysis.monte_carlo.peak_counts", self.monte_carlo_peak_counts)


@dataclass(frozen=True)
class PipelineConfig:
    state: StateConfig = StateConfig()
    gating: GatingConfig = GatingConfig()
    preprocess: PreprocessConfig = PreprocessConfig()
    retrieval: RetrievalConfig = RetrievalConfig()
    analysis: AnalysisConfig = AnalysisConfig()
    preprocess_enabled: bool = True
    poisson_peak_counts: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.poisson_peak_counts is not None:
            check_peak_counts("noise.poisson_peak_counts", self.poisson_peak_counts)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        grid_n = self.preprocess.grid_n
        if self.preprocess_enabled and grid_n not in (None, self.state.n):
            # each plane is preprocessed on the grid it was measured on; another
            # size would break the frequency/delay pairing the retrieval needs
            raise ValueError(f"preprocess.grid_n ({grid_n}) must equal state.n ({self.state.n})")
        g = self.gating
        if self.preprocess_enabled and not g.ideal and g.gate_sigma < GATE_SIGMA_MIN_PREPROCESSED:
            raise ValueError(f"gating.gate.sigma ({g.gate_sigma:g} rad/fs) must be at least "
                             f"{GATE_SIGMA_MIN_PREPROCESSED:.4g} rad/fs when preprocessing, "
                             "where the temporal s.d. 1/(2 sigma) squares to a finite float")
        # a narrower spectrometer keeps the blur kernel's radius at most 4 n pixels
        for axis, x in zip(frequency_axes(self.state.params, self.state.n), "si"):
            width = axis.count * axis.step
            if not g.spectrometer_sigma < width:
                raise ValueError(f"gating.spectrometer_sigma ({g.spectrometer_sigma:g} rad/fs) must be below the "
                                 f"frequency grid's full width, {2 * SPAN_SIGMAS:g} state.sigma_{x} ({width:g} rad/fs)")
        if g.crystal_length_um > 0 and not g.ideal:
            _refractive_table(self)

    @classmethod
    def from_manifest(cls, manifest):
        """Parse a JSON manifest: each key names a config field (``_MANIFEST_KEYS``)
        and each value has that field's JSON type; absent keys take the field default."""
        kw = {owner: {} for owner in _SECTIONS}
        for key, value in _manifest_items(manifest):
            owner, field = _MANIFEST_KEYS[key]
            kw[owner][field.name] = _checked(key, field.type, value)
        # the top-level keys are checked first: the retrieval seed defaults to seed
        top = cls(**kw[cls])
        return replace(
            top,
            state=StateConfig(params=GaussianStateParams(**kw[GaussianStateParams]), **kw[StateConfig]),
            gating=GatingConfig(**kw[GatingConfig]),
            preprocess=PreprocessConfig(**kw[PreprocessConfig]),
            retrieval=RetrievalConfig(**{"seed": top.seed, **kw[RetrievalConfig]}),
            analysis=AnalysisConfig(**kw[AnalysisConfig]),
        )


# the manifest section of each config class ("" is the top level)
_SECTIONS = {
    GaussianStateParams: "state.", StateConfig: "state.", GatingConfig: "gating.",
    PreprocessConfig: "preprocess.", RetrievalConfig: "retrieval.",
    AnalysisConfig: "analysis.", PipelineConfig: "",
}
# fields whose key within their section is not the field name
_RENAMED = {
    "gate_center": "gate.center", "gate_sigma": "gate.sigma",
    "monte_carlo_trials": "monte_carlo.trials", "monte_carlo_peak_counts": "monte_carlo.peak_counts",
    "poisson_peak_counts": "noise.poisson_peak_counts",
}
# field type -> (Python types of the JSON values it takes, their JSON name)
_JSON_TYPES = {
    float: ((int, float), "a number"), int: ((int,), "an integer"), bool: ((bool,), "true or false"),
    str: ((str,), "a string"), frozenset: ((list,), "a list"),
}
# dotted manifest key -> (config class, field), for every field of a JSON type
_MANIFEST_KEYS = {
    prefix + _RENAMED.get(f.name, f.name): (owner, f)
    for owner, prefix in _SECTIONS.items()
    for f in fields(owner)
    if (get_args(f.type) or (f.type,))[0] in _JSON_TYPES
}


def _manifest_items(section, prefix=""):
    """The (dotted key, value) leaves of a manifest section.  An unknown key is
    refused: misspelt or misplaced, it would otherwise run with the default."""
    if not isinstance(section, dict):
        where = f"manifest key {prefix[:-1]}" if prefix else "manifest"
        raise ValueError(f"{where} must be a JSON object, not {json.dumps(section)}")
    known = {key[len(prefix):].split(".")[0] for key in _MANIFEST_KEYS if key.startswith(prefix)}
    unknown = sorted(set(section) - known)
    if unknown:
        names = ", ".join(prefix + key for key in unknown)
        raise ValueError(f"unknown manifest key {names}; expected one of {', '.join(sorted(known))}")
    for key, value in section.items():
        if prefix + key in _MANIFEST_KEYS:
            yield prefix + key, value
        else:
            yield from _manifest_items(value, prefix + key + ".")


def _checked(key, annotation, value):
    """``value`` if its JSON type fits the annotation, null only for ``X | None``
    (``type``, not isinstance: true is no number); float fields store finite
    floats (json reads NaN and Infinity)."""
    base, *nullable = get_args(annotation) or (annotation,)
    accepted, name = _JSON_TYPES[base]
    if type(value) not in (*accepted, *nullable):
        raise ValueError(f"manifest key {key} must be {name}, not {json.dumps(value)}")
    if base is not float or value is None:
        return value
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"manifest key {key} must be a finite number, not {json.dumps(value)}")
    return number


def build_gating_model(cfg: PipelineConfig) -> GatingModel:
    g = cfg.gating
    if g.ideal:
        return GatingModel(gate=None, spectrometer_sigma=g.spectrometer_sigma)
    refractive = None
    if g.crystal_length_um > 0:
        refractive = _refractive_table(cfg).tuned_for(cfg.state.params.center_s, g.gate_center)
    return GatingModel(
        gate=GatePulse(center=g.gate_center, sigma=g.gate_sigma),
        crystal_length=g.crystal_length_um,
        refractive=refractive,
        spectrometer_sigma=g.spectrometer_sigma,
    )


def _refractive_table(cfg):
    """The table at ``gating.refractive_table_path``, else the shipped one.  An
    L > 0 model looks it up at the gate, both photons and their upconverted
    sums, and each photon's gate kernel over its grid and the gate and
    upconverted bands around it, so each must lie in its range, and the gate
    sigma must be at least the kernel's upconverted step; the message names
    the keys."""
    path = cfg.gating.refractive_table_path
    try:
        table = RefractiveModel.from_json(path) if path else RefractiveModel.default()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot read gating.refractive_table_path {path}: {exc}") from exc
    (lo_nm, hi_nm), c, p = table.valid_nm, cfg.gating.gate_center, cfg.state.params
    lo, hi = wavelength_to_omega(hi_nm), wavelength_to_omega(lo_nm)
    outside = f"outside the refractive table's range [{lo_nm:g}, {hi_nm:g}] nm ({lo:.4g} to {hi:.4g} rad/fs)"
    gate, s, i = "gating.gate.center", "state.center_s", "state.center_i"
    for key, omega in ((gate, c), (s, p.center_s), (i, p.center_i),
                       (f"{gate} + {s}", c + p.center_s), (f"{gate} + {i}", c + p.center_i)):
        if not lo <= omega <= hi:
            raise ValueError(f"{key} ({omega:.4g} rad/fs) is {outside}")
    gate_pulse, gate_keys = GatePulse(c, cfg.gating.gate_sigma), f"{gate}, gating.gate.sigma"
    for axis, x in zip(frequency_axes(p, cfg.state.n), "si"):
        omega = axis.values()
        omega_u, gate_band = kernel_grid(omega, gate_pulse, GatingModel.upconverted_grid_count)
        du = omega_u[1] - omega_u[0]
        if not cfg.gating.gate_sigma >= du:
            raise ValueError(f"gating.gate.sigma ({cfg.gating.gate_sigma:g} rad/fs) must be at least {du:.4g} rad/fs "
                             f"at L > 0, the {axis.photon} gate kernel's upconverted frequency step, "
                             "so that the kernel resolves the gate")
        for what, keys, (a, b) in (
            (f"the {axis.photon} grid", f"state.center_{x}, state.sigma_{x}", (omega.min(), omega.max())),
            (f"the {axis.photon} kernel's gate band", f"{gate_keys}, state.sigma_{x}", gate_band),
            (f"the {axis.photon} kernel's upconverted band", f"{gate_keys}, state.center_{x}, state.sigma_{x}",
             (omega_u[0], omega_u[-1])),
        ):
            if not lo <= a <= b <= hi:
                raise ValueError(f"{what} ({keys}) spans {a:.4g} to {b:.4g} rad/fs, {outside}")
    return table


def _refuse_zero_planes(m: MeasurementSet, cause: str):
    """Refuse an all-zero ww or tt plane, which the retrieval cannot scale to
    unit peak; ``cause`` names the key that zeroed it."""
    for p in UNIT_PEAK_PLANES:
        if not m.grids()[p].values.max() > 0:
            raise ValueError(f"{cause} an all-zero {p} plane, which the retrieval cannot scale to unit peak")


def simulate(cfg: PipelineConfig):
    """Forward model: returns (raw MeasurementSet, ground-truth state).  The
    gating model is built first, so a bad one fails before any work, and an
    all-zero ww or tt plane is refused: one that phase matching over the
    crystal zeroes, and one that a noisy draw zeroes."""
    gm = build_gating_model(cfg)
    truth = synthesize_state(cfg.state.params, cfg.state.n)
    raw = simulate_measurements(truth, gm)
    _refuse_zero_planes(raw, f"gating.crystal_length_um ({cfg.gating.crystal_length_um:g} um) is too long: it gives")
    if cfg.poisson_peak_counts is not None:
        raw = poissonize_set(raw, cfg.poisson_peak_counts, cfg.seed)
        _refuse_zero_planes(raw, f"noise.poisson_peak_counts ({cfg.poisson_peak_counts:g}) is too low: it drew")
    return raw, truth


def _plane_response_sigmas(grid: IntensityGrid2D, cfg: PipelineConfig):
    """Per-axis instrument response s.d. of one plane: the spectrometer on
    frequency axes, the gate's temporal intensity (s.d. 1/(2 sigma_gate)) on
    delay axes.  At L = 0 this is the simulated blur exactly: both apply the
    lag weight exp(-(d * step)^2 / (8 sigma_gate^2)), the simulation on linear
    lags and the Wiener filter on the plane's wrapped ones.  At L > 0 phase
    matching also shapes the response, and this is an approximation."""
    g = cfg.gating
    temporal = 0.0 if g.ideal else 1.0 / (2.0 * g.gate_sigma)
    return [g.spectrometer_sigma if a.domain == FREQUENCY else temporal for a in (grid.axis_s, grid.axis_i)]


def preprocess_set(m: MeasurementSet, cfg: PipelineConfig) -> MeasurementSet:
    """Deconvolve all four planes with the per-axis instrument responses
    implied by the gating configuration.  A ww or tt plane that this turns
    all-zero is refused, naming the keys that set the grids and the
    responses; one that was all-zero before is left to the caller."""
    if not cfg.preprocess_enabled:
        return m
    cleaned = replace(m, **{f"i_{p}": preprocess_grid(g, cfg.preprocess, _plane_response_sigmas(g, cfg))
                            for p, g in m.grids().items()})
    if all(m.grids()[p].values.max() > 0 for p in UNIT_PEAK_PLANES):
        s, g = cfg.state.params, cfg.gating
        keys = [f"state.sigma_s ({s.sigma_s:g} rad/fs)", f"state.sigma_i ({s.sigma_i:g} rad/fs)"]
        if not g.ideal:
            keys.append(f"gating.gate.sigma ({g.gate_sigma:g} rad/fs)")
        cause = f"{', '.join(keys)} and gating.spectrometer_sigma ({g.spectrometer_sigma:g} rad/fs): preprocessing gives"
        _refuse_zero_planes(cleaned, cause)
    return cleaned


# pixels in one stack of Monte Carlo retrievals: 8 sets at n = 64, 2 at n = 128, 1 from n = 256
MC_STACK_PIXELS = 2**15
# iterations of each Monte Carlo trial's retrieval, started from the nominal JSA
MC_ITERATIONS = 30


def _mc_trials(raw: MeasurementSet, cfg: PipelineConfig, noise_seeds, start) -> list:
    """Monte Carlo trials, one per noise seed: poissonize ``raw`` at
    ``analysis.monte_carlo.peak_counts`` with the seed, preprocess, retrieve
    for ``MC_ITERATIONS`` iterations from ``start()`` (the nominal JSA) and
    fit.  The retrievals run in stacks of ``MC_STACK_PIXELS`` pixels per
    plane (at least one set), and ``start()`` is first called once the
    first stack is preprocessed, so a worker prepares one stack while the
    nominal JSA is retrieved.  A trial's result does not depend on its
    stack: a chunk in which any of these steps raises is run again one
    trial at a time.  Returns, per seed, (chirp_s, chirp_i) or the repr of
    the exception that ended the trial."""
    size = max(1, MC_STACK_PIXELS // raw.i_ww.values.size)
    retrieval = replace(cfg.retrieval, iterations=MC_ITERATIONS)
    outcomes = []
    for lo in range(0, len(noise_seeds), size):
        seeds = noise_seeds[lo : lo + size]
        try:
            sets = [preprocess_set(poissonize_set(raw, cfg.analysis.monte_carlo_peak_counts, seed), cfg)
                    for seed in seeds]
            results = run_retrieval_stack(sets, retrieval, [start()] * len(sets))
            fits = [fit_retrieved_phase(result.jsa, cfg.analysis.mask_sigma) for result in results]
        except Exception as exc:  # noqa: BLE001 - failed trials are counted and logged
            outcomes += [repr(exc)] if len(seeds) == 1 else [_mc_trials(raw, cfg, [s], start)[0] for s in seeds]
            continue
        outcomes += [(fit.chirp_s, fit.chirp_i) for fit in fits]
    return outcomes


def _refuse_doomed_trials(raw: MeasurementSet, peak_counts: float):
    """Refuse Monte Carlo peak counts at which more than ``MC_MAX_FAILED_SHARE``
    of the trials are expected to fail.  A trial fails when its ww or tt
    draw is all zero, which a plane draws with probability exp(-peak_counts
    * sum(plane) / max(plane)) (every bin a Poisson draw scaled to the
    peak), so the expected share follows from the raw planes alone."""
    drawn = [1 - math.exp(-peak_counts * g.values.sum() / g.values.max()) if g.values.max() > 0 else 0.0
             for g in map(raw.grids().get, UNIT_PEAK_PLANES)]
    share = 1 - drawn[0] * drawn[1]
    if share > MC_MAX_FAILED_SHARE:
        raise ValueError(f"analysis.monte_carlo.peak_counts ({peak_counts:g}) is too low: an expected {share:.0%} "
                         f"of the Monte Carlo trials would draw an all-zero {' or '.join(UNIT_PEAK_PLANES)} plane "
                         f"from the raw measurements, above the {MC_MAX_FAILED_SHARE:.0%} at which the run fails")


def analyze(jsa: ComplexGrid2D, constraints: MeasurementSet, cfg: AnalysisConfig) -> tuple:
    """The analyze stage: the ``PhaseFit`` of ``jsa`` and the ``WitnessReport``
    of the constraints' ww and tt planes.  ``ValueError`` unless ``jsa`` lies
    on the constraints' ww axes, so that both come from one grid."""
    ww = constraints.i_ww
    if not (jsa.axis_s.compatible_with(ww.axis_s) and jsa.axis_i.compatible_with(ww.axis_i)):
        got, want = (f"{g.axis_s.count} x {g.axis_i.count} samples, steps {g.axis_s.step:.6g} x "
                     f"{g.axis_i.step:.6g} {g.axis_s.units}" for g in (jsa, ww))
        raise ValueError(f"the JSA ({got}) is not on the constraints' ww axes ({want})")
    return fit_retrieved_phase(jsa, cfg.mask_sigma), tbp_numeric(ww, constraints.i_tt)


@dataclass(frozen=True)
class PipelineOutput:
    raw: MeasurementSet
    constraints: MeasurementSet
    truth: ComplexGrid2D
    result: RetrievalResult
    fit: PhaseFit
    witness: WitnessReport
    timings: dict
    # (stddevs, trial values) of ``monte_carlo_uncertainty``, or None without trials
    monte_carlo: tuple | None


def run_pipeline(cfg: PipelineConfig, meanwhile=None) -> PipelineOutput:
    """Run the stages and, with ``analysis.monte_carlo.trials`` set, the
    Monte Carlo trials.  Their workers (an empty pool without trials) start
    after preprocess and prepare their first trials while the nominal state
    is retrieved and analyzed.  Then they are sent the nominal JSA,
    ``meanwhile(nominal)``, if given, is called once with the nominal
    ``PipelineOutput`` (``monte_carlo`` None), and the trials are collected:
    the hook runs while forked workers run the trials, before them in this
    process, and last without trials.  ``timings["monte_carlo"]`` spans the
    workers' start to the end of the collect, less retrieve and analyze.  On
    any exception the workers are stopped first."""
    timings = {}

    def stage(name, fn, *args):
        t0 = time.perf_counter()
        value = fn(*args)
        timings[name] = time.perf_counter() - t0
        return value

    raw, truth = stage("simulate", simulate, cfg)
    trials = cfg.analysis.monte_carlo_trials
    if trials:
        _refuse_doomed_trials(raw, cfg.analysis.monte_carlo_peak_counts)
    constraints = stage("preprocess", preprocess_set, raw, cfg)
    t0 = time.perf_counter()
    with MonteCarloWorkers(partial(_mc_trials, raw, cfg), trials, cfg.seed) as workers:
        result = stage("retrieve", run_retrieval, constraints, cfg.retrieval)
        fit, witness = stage("analyze", analyze, result.jsa, constraints, cfg.analysis)
        nominal = PipelineOutput(raw, constraints, truth, result, fit, witness, timings, None)
        if trials:
            workers.send(result.jsa)
        if meanwhile is not None:
            meanwhile(nominal)
        if not trials:
            return nominal
        monte_carlo = monte_carlo_uncertainty(workers, trials)
        timings["monte_carlo"] = time.perf_counter() - t0 - timings["retrieve"] - timings["analyze"]
    return replace(nominal, monte_carlo=monte_carlo)


def grid_to_csv(grid, path):
    """Data-only plot export: one row per pixel with both axis coordinates.
    The format is csv's default (excel) dialect: comma-separated, CRLF line
    ends, no quoting, since no field holds a comma or a quote.  Every number
    is its ``repr``; each axis coordinate is formatted once."""
    header = [f"{grid.axis_s.photon}_{grid.axis_s.domain}", f"{grid.axis_i.photon}_{grid.axis_i.domain}"]
    v = grid.values.ravel()
    if isinstance(grid, ComplexGrid2D):
        header += ["re", "im"]
        values = map(",".join, zip(map(repr, v.real.tolist()), map(repr, v.imag.tolist())))
    else:
        header += ["value"]
        values = map(repr, v.tolist())
    xs = [f"{x!r}," for x in grid.axis_s.values().tolist()]
    ys = [f"{y!r}," for y in grid.axis_i.values().tolist()]
    # row-major pixel order: the coordinates of pixel (i, j) are xs[i] + ys[j]
    rows = map(str.__add__, [x + y for x in xs for y in ys], values)
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *rows]) + "\r\n")
