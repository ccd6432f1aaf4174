"""Manifest-driven pipeline: synthesize a state, simulate the four joint
measurements, deconvolve them, run phase retrieval, and fit the spectral
phase.  The same configuration objects back the CLI subcommands."""

import csv
import time
from dataclasses import dataclass, replace

import numpy as np

from .analysis import PhaseFit, fit_retrieved_phase, tbp_numeric
from .gating import GatePulse, GatingModel, RefractiveModel, poissonize_set, simulate_measurements
from .grids import FREQUENCY, ComplexGrid2D, IntensityGrid2D
from .preprocess import PreprocessConfig, preprocess_grid
from .retrieve import MeasurementSet, RetrievalConfig, RetrievalResult, run_retrieval
from .synth import GaussianStateParams, synthesize_state


@dataclass(frozen=True)
class StateConfig:
    params: GaussianStateParams = GaussianStateParams()
    n: int = 64
    span_sigmas: float = 8.0

    @classmethod
    def from_dict(cls, d):
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
        gate = d.get("gate", {})
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

    @classmethod
    def from_dict(cls, d):
        mc = d.get("monte_carlo", {})
        return cls(
            mask_sigma=float(d.get("mask_sigma", 2.0)),
            monte_carlo_trials=int(mc.get("trials", 0)),
            monte_carlo_peak_counts=float(mc.get("peak_counts", 1e4)),
        )


@dataclass(frozen=True)
class PipelineConfig:
    state: StateConfig = StateConfig()
    gating: GatingConfig = GatingConfig(ideal=True)
    preprocess: PreprocessConfig = PreprocessConfig()
    retrieval: RetrievalConfig = RetrievalConfig()
    analysis: AnalysisConfig = AnalysisConfig()
    preprocess_enabled: bool = True
    poisson_peak_counts: float | None = None
    seed: int = 0

    @classmethod
    def from_manifest(cls, manifest: dict):
        seed = int(manifest.get("seed", 0))
        retr = dict(manifest.get("retrieval", {}))
        retr.setdefault("seed", seed)
        if "constraint_mask" in retr:
            retr["constraint_mask"] = frozenset(retr["constraint_mask"])
        noise = manifest.get("noise", {})
        state = StateConfig.from_dict(manifest.get("state", {}))
        prep = dict(manifest.get("preprocess", {}))
        prep.setdefault("grid_n", state.n)
        return cls(
            state=state,
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
    g = cfg.gating
    temporal = 0.0 if g.ideal else 1.0 / (2.0 * g.gate_sigma)
    out = []
    for axis in (grid.axis_s, grid.axis_i):
        out.append(g.spectrometer_sigma if axis.domain == FREQUENCY else temporal)
    return out


def _check_grid_n(cfg: PipelineConfig):
    if cfg.preprocess_enabled and cfg.preprocess.grid_n != cfg.state.n:
        # regridding rescales each plane on its own, so the delay axes stop
        # being conjugate to the frequency axes and retrieval cannot start
        raise ValueError(
            f"preprocess.grid_n ({cfg.preprocess.grid_n}) must equal state.n ({cfg.state.n})"
        )


def preprocess_set(m: MeasurementSet, cfg: PipelineConfig) -> MeasurementSet:
    """Deconvolve all four planes with the per-axis instrument responses
    implied by the gating configuration."""
    if not cfg.preprocess_enabled:
        return m
    _check_grid_n(cfg)
    cleaned = {}
    for key, grid in m.grids().items():
        ss, si = _plane_response_sigmas(grid, cfg)
        plane_cfg = replace(cfg.preprocess, response_sigma_s=ss, response_sigma_i=si)
        cleaned[key] = preprocess_grid(grid, plane_cfg)
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
    witness: object
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
    """Data-only plot export: one row per pixel with both axis coordinates."""
    xs = grid.axis_s.values()
    ys = grid.axis_i.values()
    is_complex = isinstance(grid, ComplexGrid2D)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"{grid.axis_s.photon}_{grid.axis_s.domain}", f"{grid.axis_i.photon}_{grid.axis_i.domain}"]
        header += ["re", "im"] if is_complex else ["value"]
        writer.writerow(header)
        for j, x in enumerate(xs):
            for k, y in enumerate(ys):
                v = grid.values[j, k]
                row = [repr(float(x)), repr(float(y))]
                row += [repr(float(v.real)), repr(float(v.imag))] if is_complex else [repr(float(v))]
                writer.writerow(row)
