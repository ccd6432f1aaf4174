"""Manifest parsing and pipeline glue."""

import csv
import json
import logging
import math
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from biphoton.grids import ComplexGrid2D
from biphoton.pipeline import (
    GATE_SIGMA_MIN_PREPROCESSED,
    GATE_SIGMA_RANGE,
    AnalysisConfig,
    GatingConfig,
    PipelineConfig,
    StateConfig,
    build_gating_model,
    grid_to_csv,
    run_pipeline,
    simulate,
)
from biphoton.preprocess import PreprocessConfig
from biphoton.retrieve import RetrievalConfig
from biphoton.synth import GaussianStateParams, synthesize_state


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
    # with preprocessing on, a grid_n other than state.n is refused at parse
    mismatch = {"state": {"n": 128}, "preprocess": {"grid_n": 64}}
    with pytest.raises(ValueError) as exc:
        PipelineConfig.from_manifest(mismatch)
    assert str(exc.value) == "preprocess.grid_n (64) must equal state.n (128)"
    off = PipelineConfig.from_manifest(dict(mismatch, preprocess_enabled=False))
    assert off.preprocess.grid_n == 64


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


# a gated state whose delay planes reach the grid edge at n = 32
COVERAGE_MANIFEST = {
    "seed": 1, "state": {"rho": -0.9, "chirp_s": -36000, "chirp_i": -43000, "n": 32},
    "gating": {"crystal_length_um": 0}, "retrieval": {"iterations": 20},
}


def test_run_pipeline_logs_coverage_warning(caplog):
    with caplog.at_level(logging.WARNING):
        out = run_pipeline(PipelineConfig.from_manifest(COVERAGE_MANIFEST))
    assert out.raw.coverage_warning
    (record,) = caplog.records
    assert (record.name, record.levelno) == ("biphoton.gating", logging.WARNING)
    assert "delay-axis edge" in record.getMessage()


def test_run_pipeline_default_preprocess_config_at_any_n():
    # the default PreprocessConfig sets no grid size, so n = 32 runs with
    # preprocessing on
    cfg = PipelineConfig(state=StateConfig(n=32), gating=GatingConfig(ideal=True))
    assert cfg.preprocess_enabled
    out = run_pipeline(cfg)
    assert out.constraints.i_tt.values.shape == (32, 32)


@pytest.mark.parametrize("trials", [0, 3])
def test_run_pipeline_runs_monte_carlo_trials(trials):
    # a library caller gets the trials the manifest asks for, timed apart
    cfg = PipelineConfig.from_manifest({
        "state": {"rho": -0.8, "chirp_s": -8000.0, "chirp_i": -9000.0, "n": 32},
        "gating": {"ideal": True},
        "preprocess_enabled": False,
        "retrieval": {"iterations": 40},
        "analysis": {"monte_carlo": {"trials": trials, "peak_counts": 1e5}},
    })
    out = run_pipeline(cfg)
    stages = ["simulate", "preprocess", "retrieve", "analyze"]
    if trials:
        _, values = out.monte_carlo
        assert {k: len(v) for k, v in values.items()} == {"chirp_s": trials, "chirp_i": trials}
        assert list(out.timings) == [*stages, "monte_carlo"]
    else:
        assert out.monte_carlo is None
        assert list(out.timings) == stages


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
    # a start is a run_retrieval argument, not a setting
    ({"retrieval": {"initial_guess": [[1.0]]}}, "retrieval.initial_guess"),
    ({"retrieval": {"init": "flat_phase"}}, "retrieval.init"),
    # constants now: the epsilon is retrieve.ZERO_MAGNITUDE_EPSILON, and the
    # upconverted grid is a GatingModel field only
    ({"retrieval": {"zero_magnitude_epsilon": 1e-12}}, "retrieval.zero_magnitude_epsilon"),
    ({"gating": {"upconverted_grid_count": 64}}, "gating.upconverted_grid_count"),
])
def test_from_manifest_rejects_unknown_keys(manifest, key):
    with pytest.raises(ValueError, match=rf"unknown manifest key {key}\b"):
        PipelineConfig.from_manifest(manifest)


# JSON ints in float fields, and every key a manifest can set
EVERY_KEY = {
    "seed": 3,
    "state": {"sigma_s": 0.02, "sigma_i": 0.03, "rho": -0.5, "center_s": 2, "center_i": 3,
              "chirp_s": -100, "chirp_i": 200, "n": 32},
    "gating": {"gate": {"center": 2, "sigma": 0.004}, "crystal_length_um": 500,
               "spectrometer_sigma": 0, "refractive_table_path": "table.json", "ideal": False},
    "preprocess": {"grid_n": 32, "alpha": 1, "rho_lp": 1, "allow_out_of_range": True},
    "retrieval": {"iterations": 20, "seed": 4, "constraint_mask": ["ww", "tt"]},
    "analysis": {"mask_sigma": 3, "monte_carlo": {"trials": 2, "peak_counts": 100}},
    "preprocess_enabled": False,
    "noise": {"poisson_peak_counts": 1000},
}


def test_from_manifest_every_key(tmp_path, monkeypatch):
    # the table at refractive_table_path is read at parse, from the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.json").write_text(resources.files("biphoton.data").joinpath("bibo_sellmeier.json").read_text())
    expected = PipelineConfig(
        state=StateConfig(
            params=GaussianStateParams(
                sigma_s=0.02, sigma_i=0.03, rho=-0.5, center_s=2.0, center_i=3.0,
                chirp_s=-100.0, chirp_i=200.0,
            ),
            n=32,
        ),
        gating=GatingConfig(
            gate_center=2.0, gate_sigma=0.004, crystal_length_um=500.0, spectrometer_sigma=0.0,
            refractive_table_path="table.json", ideal=False,
        ),
        preprocess=PreprocessConfig(grid_n=32, alpha=1.0, rho_lp=1.0, allow_out_of_range=True),
        retrieval=RetrievalConfig(iterations=20, seed=4, constraint_mask=frozenset({"ww", "tt"})),
        analysis=AnalysisConfig(mask_sigma=3.0, monte_carlo_trials=2, monte_carlo_peak_counts=100.0),
        preprocess_enabled=False,
        poisson_peak_counts=1000.0,
        seed=3,
    )
    cfg = PipelineConfig.from_manifest(EVERY_KEY)
    assert cfg == expected
    # float fields hold floats, as the configs built in Python do
    assert type(cfg.state.params.chirp_s) is float
    assert type(cfg.gating.gate_center) is float
    assert type(cfg.poisson_peak_counts) is float


@pytest.mark.parametrize("manifest, key", [
    ({"gating": []}, "gating"),
    ({"gating": {"ideal": "false"}}, "gating.ideal"),
    ({"gating": {"ideal": 0}}, "gating.ideal"),
    ({"preprocess_enabled": "no"}, "preprocess_enabled"),
    ({"analysis": {"monte_carlo": {"trials": 2.9}}}, "analysis.monte_carlo.trials"),
    ({"analysis": {"monte_carlo": []}}, "analysis.monte_carlo"),
    ({"state": {"n": 64.7}}, "state.n"),
    ({"state": {"n": 64.0}}, "state.n"),
    ({"state": {"chirp_s": "1"}}, "state.chirp_s"),
    ({"state": {"rho": True}}, "state.rho"),
    ({"seed": None}, "seed"),
    ({"gating": {"gate": None}}, "gating.gate"),
    ({"gating": {"gate": {"center": None}}}, "gating.gate.center"),
    ({"gating": {"refractive_table_path": 1}}, "gating.refractive_table_path"),
    ({"retrieval": {"constraint_mask": "wwtt"}}, "retrieval.constraint_mask"),
    # json reads NaN and Infinity; no number field takes them
    ({"gating": {"crystal_length_um": float("nan")}}, "gating.crystal_length_um"),
    ({"gating": {"spectrometer_sigma": float("nan")}}, "gating.spectrometer_sigma"),
    ({"state": {"chirp_s": float("inf")}}, "state.chirp_s"),
    ({"preprocess": {"alpha": float("nan")}}, "preprocess.alpha"),
    ({"analysis": {"mask_sigma": float("nan")}}, "analysis.mask_sigma"),
    ({"gating": {"gate": {"center": -float("inf")}}}, "gating.gate.center"),
    ({"state": {"chirp_i": 10**400}}, "state.chirp_i"),
])
def test_from_manifest_rejects_wrong_types(manifest, key):
    with pytest.raises(ValueError, match=rf"manifest key {key} must be\b"):
        PipelineConfig.from_manifest(manifest)


@pytest.mark.parametrize("manifest, message", [
    # no plane projected: the run would report a ww error of 0
    ({"retrieval": {"constraint_mask": []}}, "retrieval.constraint_mask must name at least one plane"),
    ({"retrieval": {"constraint_mask": ["ww", "ww"]}}, "retrieval.constraint_mask names ww more than once"),
    ({"retrieval": {"constraint_mask": ["tt", "ww", "tt"]}}, "retrieval.constraint_mask names tt more than once"),
    ({"retrieval": {"constraint_mask": ["ww", ["tt"]]}},
     "retrieval.constraint_mask entries must be strings, not ['tt']"),
    ({"retrieval": {"constraint_mask": ["ww", 3, "x"]}}, "retrieval.constraint_mask entries must be strings, not 3"),
    ({"retrieval": {"seed": -1}}, "retrieval.seed must be >= 0"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"seed": -1, "retrieval": {"seed": 2}}, "seed must be >= 0"),
], ids=["empty_mask", "repeated_ww", "repeated_tt", "list_entry", "number_entry", "negative_retrieval_seed",
        "negative_seed", "negative_seed_with_retrieval_seed"])
def test_from_manifest_rejects_bad_retrieval_settings(manifest, message):
    with pytest.raises(ValueError) as exc:
        PipelineConfig.from_manifest(manifest)
    assert str(exc.value) == message


@pytest.mark.parametrize("manifest, message", [
    ({"state": {"n": 48}}, "state.n must be a power of two >= 16"),
    ({"state": {"n": 8}}, "state.n must be a power of two >= 16"),
    ({"state": {"rho": 1.5}}, "|state.rho| must be < 1"),
    ({"state": {"sigma_i": 0}}, "state.sigma_s and state.sigma_i must be positive"),
    ({"preprocess": {"alpha": 0.5}}, "preprocess.alpha outside [0.05, 0.2]; set allow_out_of_range to override"),
    ({"preprocess": {"rho_lp": 0.5}}, "preprocess.rho_lp outside [0.8, 1.0]; set allow_out_of_range to override"),
    # at or above the frequency grid's full width (16 sigma per axis)
    ({"state": {"n": 32}, "gating": {"spectrometer_sigma": 1e9}},
     "gating.spectrometer_sigma (1e+09 rad/fs) must be below the frequency grid's full width, "
     "16 state.sigma_s (0.16 rad/fs)"),
    ({"gating": {"spectrometer_sigma": 0.16}},
     "gating.spectrometer_sigma (0.16 rad/fs) must be below the frequency grid's full width, "
     "16 state.sigma_s (0.16 rad/fs)"),
    ({"state": {"sigma_i": 0.005}, "gating": {"spectrometer_sigma": 0.08}},
     "gating.spectrometer_sigma (0.08 rad/fs) must be below the frequency grid's full width, "
     "16 state.sigma_i (0.08 rad/fs)"),
])
def test_from_manifest_messages_name_their_key(manifest, message):
    with pytest.raises(ValueError) as exc:
        PipelineConfig.from_manifest(manifest)
    assert str(exc.value) == message


GATE_SIGMA_RANGE_RULE = "must lie in [2.223e-162, 1.341e+154] rad/fs, where sigma**2 is a positive float"


@pytest.mark.parametrize("gating, message", [
    ({"gate": {"sigma": 0}}, "gating.gate.sigma must be positive"),
    ({"gate": {"sigma": -0.01}}, "gating.gate.sigma must be positive"),
    ({"crystal_length_um": -1}, "gating.crystal_length_um must be >= 0"),
    ({"spectrometer_sigma": -0.001}, "gating.spectrometer_sigma must be >= 0"),
    ({"gate": {"sigma": 1e200}}, f"gating.gate.sigma (1e+200 rad/fs) {GATE_SIGMA_RANGE_RULE}"),
    ({"gate": {"sigma": 1e-200}}, f"gating.gate.sigma (1e-200 rad/fs) {GATE_SIGMA_RANGE_RULE}"),
], ids=["zero_gate_sigma", "negative_gate_sigma", "negative_length", "negative_spectrometer_sigma",
        "huge_gate_sigma", "tiny_gate_sigma"])
def test_from_manifest_rejects_bad_gating(gating, message):
    with pytest.raises(ValueError) as exc:
        PipelineConfig.from_manifest({"gating": gating})
    assert str(exc.value) == message


def test_gate_sigma_range_is_where_its_squares_are_floats():
    lo, hi = GATE_SIGMA_RANGE
    for sigma in (lo, hi, GATE_SIGMA_MIN_PREPROCESSED):
        assert 0 < sigma**2 < math.inf
        assert GatingConfig(gate_sigma=sigma).gate_sigma == sigma
    assert (1.0 / (2.0 * GATE_SIGMA_MIN_PREPROCESSED)) ** 2 < math.inf
    # further out, one of the squares leaves the float range
    assert (lo / 2) ** 2 == 0
    with pytest.raises(OverflowError):
        math.nextafter(hi, math.inf) ** 2
    below = math.nextafter(GATE_SIGMA_MIN_PREPROCESSED, 0.0)
    with pytest.raises(OverflowError):
        (1.0 / (2.0 * below)) ** 2
    for sigma in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)):
        with pytest.raises(ValueError, match=r"^gating\.gate\.sigma \(.*\) must lie in"):
            GatingConfig(gate_sigma=sigma)
        # the ideal gate has no sigma to square
        assert GatingConfig(gate_sigma=sigma, ideal=True).gate_sigma == sigma
    with pytest.raises(ValueError, match=r"^gating\.gate\.sigma \(.*\) must be at least .* when preprocessing"):
        PipelineConfig(gating=GatingConfig(gate_sigma=below))
    # without preprocessing, or with the ideal gate, the temporal s.d. is never squared
    PipelineConfig(gating=GatingConfig(gate_sigma=below), preprocess_enabled=False)
    PipelineConfig(gating=GatingConfig(gate_sigma=below, ideal=True))


def test_from_manifest_accepts_null_where_optional():
    cfg = PipelineConfig.from_manifest({
        "noise": {"poisson_peak_counts": None},
        "preprocess": {"grid_n": None},
        "gating": {"refractive_table_path": None},
    })
    assert cfg == PipelineConfig()


@pytest.mark.parametrize("counts", [0, 0.0, -5])
def test_poisson_peak_counts_must_be_positive(counts):
    with pytest.raises(ValueError, match=r"noise\.poisson_peak_counts must be positive"):
        PipelineConfig.from_manifest({"noise": {"poisson_peak_counts": counts}})
    with pytest.raises(ValueError, match="poisson_peak_counts"):
        PipelineConfig(poisson_peak_counts=counts)


@pytest.mark.parametrize("key, manifest", [
    ("noise.poisson_peak_counts", lambda c: {"noise": {"poisson_peak_counts": c}}),
    ("analysis.monte_carlo.peak_counts", lambda c: {"analysis": {"monte_carlo": {"peak_counts": c}}}),
], ids=["noise", "monte_carlo"])
def test_peak_counts_above_poisson_limit_refused(key, manifest):
    # numpy's Poisson sampler refuses a mean above MAX_PEAK_COUNTS, and
    # poissonize scales the peak bin's mean to the peak counts
    with pytest.raises(ValueError, match=rf"^{key} must be positive and at most 9\.2233720065e\+18"):
        PipelineConfig.from_manifest(manifest(1e19))
    assert PipelineConfig.from_manifest(manifest(1e18)) != PipelineConfig()


def test_refractive_table_path(tmp_path):
    # the shipped table, read from a path, gives the default table's planes
    table = tmp_path / "table.json"
    table.write_text(resources.files("biphoton.data").joinpath("bibo_sellmeier.json").read_text())
    gating = {"crystal_length_um": 1000}
    manifest = {"state": {"n": 16}, "gating": gating}
    default, _ = simulate(PipelineConfig.from_manifest(manifest))
    from_path, _ = simulate(PipelineConfig.from_manifest(
        dict(manifest, gating=dict(gating, refractive_table_path=str(table)))
    ))
    for key, grid in default.grids().items():
        assert np.array_equal(from_path.grids()[key].values, grid.values), key


@pytest.mark.parametrize("text", ["not json", "{}", '[{"polarization": "ordinary"}]'])
def test_unreadable_refractive_table_names_its_key(tmp_path, text):
    table = tmp_path / "table.json"
    table.write_text(text)
    with pytest.raises(ValueError, match=r"gating\.refractive_table_path"):
        PipelineConfig.from_manifest({"gating": {"crystal_length_um": 100, "refractive_table_path": str(table)}})


# the range of the shipped table, as the messages give it
TABLE_RANGE = "[290, 2500] nm (0.7535 to 6.495 rad/fs)"


@pytest.mark.parametrize("manifest, message", [
    ({"state": {"n": 32}, "gating": {"crystal_length_um": 1000, "gate": {"center": 10.0}}},
     f"gating.gate.center (10 rad/fs) is outside the refractive table's range {TABLE_RANGE}"),
    ({"state": {"center_s": 0.5}, "gating": {"crystal_length_um": 1000}},
     f"state.center_s (0.5 rad/fs) is outside the refractive table's range {TABLE_RANGE}"),
    ({"state": {"center_i": 7}, "gating": {"crystal_length_um": 1000}},
     f"state.center_i (7 rad/fs) is outside the refractive table's range {TABLE_RANGE}"),
    # 2.289 + 4 is inside; the idler's 2.574 + 4 upconverts below 290 nm
    ({"gating": {"crystal_length_um": 1000, "gate": {"center": 4}}},
     f"gating.gate.center + state.center_i (6.574 rad/fs) is outside the refractive table's range {TABLE_RANGE}"),
    # every point is inside; the bands the gate kernels evaluate around them are not
    ({"state": {"n": 32, "center_s": 0.7635}, "gating": {"crystal_length_um": 1000}},
     "the signal grid (state.center_s, state.sigma_s) spans 0.6835 to 0.8385 rad/fs, "
     f"outside the refractive table's range {TABLE_RANGE}"),
    ({"gating": {"crystal_length_um": 1000, "gate": {"center": 0.76}}},
     "the signal kernel's gate band (gating.gate.center, gating.gate.sigma, state.sigma_s) spans 0.5739 to "
     f"0.9461 rad/fs, outside the refractive table's range {TABLE_RANGE}"),
    ({"gating": {"crystal_length_um": 1000, "gate": {"center": 3.85}}},
     "the idler kernel's upconverted band (gating.gate.center, gating.gate.sigma, state.center_i, "
     f"state.sigma_i) spans 6.315 to 6.53 rad/fs, outside the refractive table's range {TABLE_RANGE}"),
], ids=["gate_center", "center_s", "center_i", "idler_upconverted", "signal_grid", "signal_gate_band",
        "idler_upconverted_band"])
def test_from_manifest_refuses_frequencies_outside_the_table(manifest, message):
    with pytest.raises(ValueError) as exc:
        PipelineConfig.from_manifest(manifest)
    assert str(exc.value) == message
    # the table is looked up only at L > 0 with a gate
    for gating in ({"crystal_length_um": 0}, {"crystal_length_um": 1000, "ideal": True}):
        PipelineConfig.from_manifest(dict(manifest, gating=dict(manifest["gating"], **gating)))


def test_table_at_a_path_is_range_checked_at_parse(tmp_path):
    # a table at a path is read and checked at parse, as the shipped one is
    table = tmp_path / "table.json"
    table.write_text(resources.files("biphoton.data").joinpath("bibo_sellmeier.json").read_text())
    with pytest.raises(ValueError, match=r"^gating\.gate\.center \(10 rad/fs\) is outside"):
        PipelineConfig.from_manifest({"gating": {
            "crystal_length_um": 1000, "gate": {"center": 10.0}, "refractive_table_path": str(table),
        }})


def test_readme_example_manifest_parses():
    # the README's example must keep to the manifest's strict key rules
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Example manifest:", 1)[1]
    text = block.split("```json", 1)[1].split("```", 1)[0]
    cfg = PipelineConfig.from_manifest(json.loads(text))
    assert cfg.state.n == 128
    assert cfg.gating.gate_sigma == 0.00385


def test_readme_minimal_closed_loop_runs(capsys):
    # the README's library example runs as printed and recovers its chirps
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python")[1:]
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0].split("```", 1)[0], namespace)
    assert namespace["fit"].chirp_s == pytest.approx(-36000, rel=0.05)
    assert namespace["fit"].chirp_i == pytest.approx(-43000, rel=0.05)


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
    state = synthesize_state(cfg.state.params, cfg.state.n)
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
    state = synthesize_state(cfg.state.params, cfg.state.n)
    path = tmp_path / "state.csv"
    grid_to_csv(state, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["signal_frequency", "idler_frequency", "re", "im"]
    assert len(rows) == 1 + 16 * 16
    assert float(rows[1][2]) == pytest.approx(state.values[0, 0].real)


def _csv_per_cell(grid):
    """grid_to_csv's file as first written: every cell, axis coordinates
    included, formatted with its own repr."""
    xs, ys, v = grid.axis_s.values(), grid.axis_i.values(), grid.values.ravel()
    is_complex = isinstance(grid, ComplexGrid2D)
    header = [f"{grid.axis_s.photon}_{grid.axis_s.domain}", f"{grid.axis_i.photon}_{grid.axis_i.domain}"]
    header += ["re", "im"] if is_complex else ["value"]
    columns = [np.repeat(xs, len(ys)), np.tile(ys, len(xs))]
    columns += [v.real, v.imag] if is_complex else [v]
    rows = zip(*(map(repr, c.tolist()) for c in columns))
    return ("\r\n".join([",".join(header), *map(",".join, rows)]) + "\r\n").encode()


def test_grid_to_csv_matches_per_cell_formula(tmp_path):
    state = synthesize_state(GaussianStateParams(rho=-0.9, chirp_s=-10000.0, chirp_i=-12000.0), n=64)
    # odd, unequal counts: a swapped axis or an off-by-one row would show
    odd = ComplexGrid2D(replace(state.axis_s, count=33), replace(state.axis_i, count=31), state.values[16:49, 17:48])
    for grid in (state.intensity(), odd):
        path = tmp_path / "grid.csv"
        grid_to_csv(grid, path)
        assert path.read_bytes() == _csv_per_cell(grid)
