"""Manifest parsing and pipeline glue."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from biphoton.pipeline import (
    GatingConfig,
    PipelineConfig,
    StateConfig,
    build_gating_model,
    build_state,
    grid_to_csv,
    run_pipeline,
    simulate,
)
from biphoton.synth import GaussianStateParams


def test_from_manifest_defaults():
    cfg = PipelineConfig.from_manifest({})
    assert cfg.state.n == 64
    assert cfg.retrieval.iterations == 1000
    assert cfg.preprocess_enabled


def test_default_config_equals_empty_manifest():
    # one default: a gated, thin-crystal measurement either way
    assert PipelineConfig() == PipelineConfig.from_manifest({})


def test_from_manifest_grid_n_follows_state_n():
    assert PipelineConfig.from_manifest({"state": {"n": 128}}).preprocess.grid_n is None
    explicit = PipelineConfig.from_manifest({"state": {"n": 128}, "preprocess": {"grid_n": 64}})
    assert explicit.preprocess.grid_n == 64


def test_run_pipeline_ignores_grid_n_without_preprocessing():
    manifest = {
        "state": {"rho": -0.8, "chirp_s": -8000.0, "chirp_i": -9000.0, "n": 32},
        "gating": {"ideal": True},
        "preprocess": {"grid_n": 64},
        "preprocess_enabled": False,
        "retrieval": {"iterations": 50},
    }
    out = run_pipeline(PipelineConfig.from_manifest(manifest))
    assert out.result.jsa.values.shape == (32, 32)


def test_run_pipeline_default_preprocess_config_at_any_n():
    # the default PreprocessConfig sets no grid size, so n = 32 runs with
    # preprocessing on
    cfg = PipelineConfig(state=StateConfig(n=32), gating=GatingConfig(ideal=True))
    assert cfg.preprocess_enabled
    out = run_pipeline(cfg)
    assert out.constraints.i_tt.values.shape == (32, 32)


@pytest.mark.parametrize("manifest, key", [
    ({"gating": {"gate_sigma": 0.01}}, "gating.gate_sigma"),
    ({"gating": {"gate": {"sigma": 0.01, "centre": 2.4}}}, "gating.gate.centre"),
    ({"analysis": {"montecarlo": {"trials": 5}}}, "analysis.montecarlo"),
    ({"analysis": {"monte_carlo": {"trials": 5, "peak": 1e3}}}, "analysis.monte_carlo.peak"),
    ({"noise": {"peak_counts": 1e4}}, "noise.peak_counts"),
    ({"retreival": {"iterations": 10}}, "retreival"),
    ({"state": {"foo": 1}}, "state.foo"),
    ({"preprocess": {"foo": 1}}, "preprocess.foo"),
    ({"retrieval": {"foo": 1}}, "retrieval.foo"),
    # a grid object, not manifest data: it would pass every check and fail later
    ({"retrieval": {"initial_guess": [[1.0]]}}, "retrieval.initial_guess"),
])
def test_from_manifest_rejects_unknown_keys(manifest, key):
    with pytest.raises(ValueError, match=rf"unknown manifest key {key}\b"):
        PipelineConfig.from_manifest(manifest)


def test_readme_example_manifest_parses():
    # the README's example must keep to the manifest's strict key rules
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Example manifest:", 1)[1]
    text = block.split("```json", 1)[1].split("```", 1)[0]
    cfg = PipelineConfig.from_manifest(json.loads(text))
    assert cfg.state.n == 128
    assert cfg.gating.gate_sigma == 0.00385


def test_from_manifest_seed_propagates_to_retrieval():
    cfg = PipelineConfig.from_manifest({"seed": 9})
    assert cfg.seed == 9
    assert cfg.retrieval.seed == 9
    # explicit retrieval seed wins
    cfg = PipelineConfig.from_manifest({"seed": 9, "retrieval": {"seed": 2}})
    assert cfg.retrieval.seed == 2


def test_from_manifest_constraint_mask():
    cfg = PipelineConfig.from_manifest({"retrieval": {"constraint_mask": ["ww", "tt"]}})
    assert cfg.retrieval.constraint_mask == frozenset({"ww", "tt"})


def test_build_state_uses_params():
    manifest = {"state": {"rho": -0.5, "n": 32, "chirp_s": 1000.0}}
    cfg = PipelineConfig.from_manifest(manifest)
    state = build_state(cfg)
    assert state.values.shape == (32, 32)
    assert cfg.state.params == GaussianStateParams(rho=-0.5, chirp_s=1000.0)


def test_build_gating_model_ideal_vs_gated():
    ideal = PipelineConfig.from_manifest({"gating": {"ideal": True}})
    assert build_gating_model(ideal).gate is None
    gated = PipelineConfig.from_manifest(
        {"gating": {"gate": {"sigma": 0.005}, "crystal_length_um": 500.0}}
    )
    gm = build_gating_model(gated)
    assert gm.gate is not None and gm.gate.sigma == 0.005
    assert gm.crystal_length == 500.0
    assert gm.refractive is not None  # auto-tuned default table


def test_simulate_with_poisson_noise():
    manifest = {
        "state": {"rho": -0.8, "n": 32},
        "gating": {"ideal": True},
        "noise": {"poisson_peak_counts": 1e4},
        "seed": 5,
    }
    cfg = PipelineConfig.from_manifest(manifest)
    raw, truth = simulate(cfg)
    assert np.all(raw.i_ww.values == np.round(raw.i_ww.values))  # counts
    raw2, _ = simulate(cfg)
    assert np.array_equal(raw.i_tt.values, raw2.i_tt.values)  # seeded


def test_grid_to_csv(tmp_path):
    cfg = PipelineConfig.from_manifest({"state": {"n": 16}, "gating": {"ideal": True}})
    state = build_state(cfg)
    path = tmp_path / "state.csv"
    grid_to_csv(state, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["signal_frequency", "idler_frequency", "re", "im"]
    assert len(rows) == 1 + 16 * 16
    assert float(rows[1][2]) == pytest.approx(state.values[0, 0].real)
