"""Manifest-driven pipeline: synthesize a state, simulate the four joint
measurements, deconvolve them, run phase retrieval, and fit the spectral
phase.  The same configuration objects back the CLI subcommands."""

import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import PhaseFit, WitnessReport, fit_retrieved_phase, tbp_numeric
from .gating import GatePulse, GatingModel, RefractiveModel, poissonize_set, simulate_measurements
from .grids import FREQUENCY, ComplexGrid2D, IntensityGrid2D
from .preprocess import PreprocessConfig, preprocess_grid
from .retrieve import MeasurementSet, RetrievalConfig, RetrievalResult, run_retrieval
from .synth import GaussianStateParams, synthesize_state


def _reject_unknown_keys(section, known, prefix=""):
    """A misspelt or misplaced manifest key would otherwise run silently with
    the default value."""
    unknown = sorted(set(section) - set(known))
    if unknown:
        names = ", ".join(prefix + key for key in unknown)
        raise ValueError(f"unknown manifest key {names}; expected one of {', '.join(sorted(known))}")


def _field_names(config_class):
    return {f.name for f in fields(config_class)}


@dataclass(frozen=True)
class StateConfig:
    params: GaussianStateParams = GaussianStateParams()
    n: int = 64
    span_sigmas: float = 8.0

    @classmethod
    def from_dict(cls, d):
        _reject_unknown_keys(d, _field_names(GaussianStateParams) | {"n", "span_sigmas"}, "state.")
        d = dict(d)
        n = int(d.pop("n", 64))
        span = float(d.pop("span_sigmas", 8.0))
        return cls(params=GaussianStateParams(**d), n=n, span_sigmas=span)


@dataclass(frozen=True)
class GatingConfig:
    gate_center: float | None = None
    gate_sigma: float = 1.0 / (2 * 130.0)
    crystal_length_um: float = 0.0
    spectrometer_sigma: float = 0.0
    refractive_table_path: str | None = None
    upconverted_grid_count: int = 256
    ideal: bool = False  # delta gate, exact temporal intensities

    @classmethod
    def from_dict(cls, d):
        _reject_unknown_keys(d, (
            "gate", "crystal_length_um", "spectrometer_sigma", "refractive_table_path",
            "upconverted_grid_count", "ideal",
        ), "gating.")
        gate = d.get("gate", {})
        _reject_unknown_keys(gate, ("center", "sigma"), "gating.gate.")
        return cls(
            gate_center=gate.get("center"),
            gate_sigma=float(gate.get("sigma", 1.0 / (2 * 130.0))),
            crystal_length_um=float(d.get("crystal_length_um", 0.0)),
            spectrometer_sigma=float(d.get("spectrometer_sigma", 0.0)),
            refractive_table_path=d.get("refractive_table_path"),
            upconverted_grid_count=int(d.get("upconverted_grid_count", 256)),
            ideal=bool(d.get("ideal", False)),
        )


@dataclass(frozen=True)
class AnalysisConfig:
    mask_sigma: float = 2.0
    monte_carlo_trials: int = 0
    monte_carlo_peak_counts: float = 1e4

    def __post_init__(self):
        if not self.mask_sigma > 0:
            raise ValueError("analysis.mask_sigma must be positive")
        if self.monte_carlo_trials != 0 and self.monte_carlo_trials < 2:
            raise ValueError("analysis.monte_carlo.trials must be 0 (off) or at least 2")
        if not self.monte_carlo_peak_counts > 0:
            raise ValueError("analysis.monte_carlo.peak_counts must be positive")

    @classmethod
    def from_dict(cls, d):
        _reject_unknown_keys(d, ("mask_sigma", "monte_carlo"), "analysis.")
        mc = d.get("monte_carlo", {})
        _reject_unknown_keys(mc, ("trials", "peak_counts"), "analysis.monte_carlo.")
        return cls(
            mask_sigma=float(d.get("mask_sigma", 2.0)),
            monte_carlo_trials=int(mc.get("trials", 0)),
            monte_carlo_peak_counts=float(mc.get("peak_counts", 1e4)),
        )


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

    @classmethod
    def from_manifest(cls, manifest: dict):
        _reject_unknown_keys(manifest, (
            "seed", "state", "gating", "preprocess", "retrieval", "analysis",
            "preprocess_enabled", "noise",
        ))
        seed = int(manifest.get("seed", 0))
        retr = dict(manifest.get("retrieval", {}))
        retr.setdefault("seed", seed)
        noise = manifest.get("noise", {})
        _reject_unknown_keys(noise, ("poisson_peak_counts",), "noise.")
        prep = manifest.get("preprocess", {})
        _reject_unknown_keys(prep, _field_names(PreprocessConfig), "preprocess.")
        _reject_unknown_keys(retr, _field_names(RetrievalConfig) - {"initial_guess"}, "retrieval.")
        return cls(
            state=StateConfig.from_dict(manifest.get("state", {})),
            gating=GatingConfig.from_dict(manifest.get("gating", {})),
            preprocess=PreprocessConfig(**prep),
            retrieval=RetrievalConfig(**retr),
            analysis=AnalysisConfig.from_dict(manifest.get("analysis", {})),
            preprocess_enabled=bool(manifest.get("preprocess_enabled", True)),
            poisson_peak_counts=noise.get("poisson_peak_counts"),
            seed=seed,
        )


def build_state(cfg: PipelineConfig) -> ComplexGrid2D:
    return synthesize_state(cfg.state.params, cfg.state.n, cfg.state.span_sigmas)


def build_gating_model(cfg: PipelineConfig) -> GatingModel:
    g = cfg.gating
    if g.ideal:
        return GatingModel(gate=None, spectrometer_sigma=g.spectrometer_sigma)
    center = g.gate_center
    if center is None:
        # default NIR gate center matching a Ti:sapphire-like source
        center = 2 * np.pi * 299.792458 / 775.0
    gate = GatePulse(center=center, sigma=g.gate_sigma)
    refractive = None
    if g.crystal_length_um > 0:
        refractive = (
            RefractiveModel.from_json(g.refractive_table_path)
            if g.refractive_table_path
            else RefractiveModel.default()
        )
        refractive = refractive.tuned_for(cfg.state.params.center_s, center)
    return GatingModel(
        gate=gate,
        crystal_length=g.crystal_length_um,
        refractive=refractive,
        spectrometer_sigma=g.spectrometer_sigma,
        upconverted_grid_count=g.upconverted_grid_count,
    )


def simulate(cfg: PipelineConfig):
    """Forward model: returns (raw MeasurementSet, ground-truth state)."""
    truth = build_state(cfg)
    raw = simulate_measurements(truth, build_gating_model(cfg))
    if cfg.poisson_peak_counts:
        raw = poissonize_set(raw, cfg.poisson_peak_counts, cfg.seed)
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
    out = []
    for axis in (grid.axis_s, grid.axis_i):
        out.append(g.spectrometer_sigma if axis.domain == FREQUENCY else temporal)
    return out


def _check_grid_n(cfg: PipelineConfig):
    grid_n = cfg.preprocess.grid_n
    if cfg.preprocess_enabled and grid_n not in (None, cfg.state.n):
        # each plane is preprocessed on the grid it was measured on; another
        # size would break the frequency/delay pairing the retrieval needs
        raise ValueError(f"preprocess.grid_n ({grid_n}) must equal state.n ({cfg.state.n})")


def preprocess_set(m: MeasurementSet, cfg: PipelineConfig) -> MeasurementSet:
    """Deconvolve all four planes with the per-axis instrument responses
    implied by the gating configuration."""
    if not cfg.preprocess_enabled:
        return m
    _check_grid_n(cfg)
    cleaned = {}
    for key, grid in m.grids().items():
        cleaned[key] = preprocess_grid(grid, cfg.preprocess, _plane_response_sigmas(grid, cfg))
    return MeasurementSet(
        i_ww=cleaned["ww"], i_wt=cleaned["wt"], i_tw=cleaned["tw"], i_tt=cleaned["tt"],
        coverage_warning=m.coverage_warning,
    )


def retrieve_and_fit(m: MeasurementSet, cfg: PipelineConfig, seed: int | None = None) -> PhaseFit:
    retr = cfg.retrieval if seed is None else replace(cfg.retrieval, seed=seed)
    result = run_retrieval(m, retr)
    return fit_retrieved_phase(result.jsa, cfg.analysis.mask_sigma)


@dataclass(frozen=True)
class PipelineOutput:
    raw: MeasurementSet
    constraints: MeasurementSet
    truth: ComplexGrid2D
    result: RetrievalResult
    fit: PhaseFit
    witness: WitnessReport
    timings: dict


def run_pipeline(cfg: PipelineConfig) -> PipelineOutput:
    _check_grid_n(cfg)
    timings = {}
    t0 = time.perf_counter()
    raw, truth = simulate(cfg)
    timings["simulate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    constraints = preprocess_set(raw, cfg)
    timings["preprocess"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = run_retrieval(constraints, cfg.retrieval)
    timings["retrieve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fit = fit_retrieved_phase(result.jsa, cfg.analysis.mask_sigma)
    witness = tbp_numeric(constraints.i_ww, constraints.i_tt)
    timings["analyze"] = time.perf_counter() - t0
    return PipelineOutput(raw, constraints, truth, result, fit, witness, timings)


def grid_to_csv(grid, path):
    """Data-only plot export: one row per pixel with both axis coordinates.
    The format is csv's default (excel) dialect: comma-separated, CRLF line
    ends, no quoting, since no field holds a comma or a quote."""
    xs = grid.axis_s.values()
    ys = grid.axis_i.values()
    v = grid.values.ravel()
    is_complex = isinstance(grid, ComplexGrid2D)
    header = [f"{grid.axis_s.photon}_{grid.axis_s.domain}", f"{grid.axis_i.photon}_{grid.axis_i.domain}"]
    header += ["re", "im"] if is_complex else ["value"]
    # row-major pixel order, built one column at a time
    columns = [np.repeat(xs, len(ys)), np.tile(ys, len(xs))]
    columns += [v.real, v.imag] if is_complex else [v]
    rows = zip(*(map(repr, c.tolist()) for c in columns))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, rows)]) + "\r\n")
