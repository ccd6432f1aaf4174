"""CLI contracts: the subcommand chain, exit codes, determinism."""

import base64
import contextlib
import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import random
import sys
import threading
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from biphoton import cli
from biphoton import pipeline as pl
from biphoton.cli import EXIT_BAD_CONFIG, EXIT_FIT_FAILED, EXIT_RETRIEVAL_NAN, main
from biphoton.retrieve import RetrievalError
from biphoton.units import FS_PER_PS

MANIFEST = {
    "seed": 1,
    "state": {
        "rho": -0.8,
        "chirp_s": -8000.0,
        "chirp_i": -9000.0,
        "n": 32,
    },
    "gating": {"ideal": True},
    "preprocess": {"grid_n": 32},
    "retrieval": {"iterations": 150},
}


@pytest.fixture
def runner():
    return CliRunner()


def _write_manifest(tmp_path, manifest=MANIFEST, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(manifest))
    return str(path)


def test_simulate_writes_grids(runner, tmp_path):
    manifest = _write_manifest(tmp_path)
    out = tmp_path / "sim"
    res = runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(out)])
    assert res.exit_code == 0, res.output
    names = json.loads((out / "measurements.json").read_text())
    assert set(names) == {"i_ww", "i_wt", "i_tw", "i_tt"}
    doc = json.loads((out / "i_ww.json").read_text())
    assert doc["kind"] == "intensity"
    assert doc["manifest"]["seed"] == 1
    assert (out / "truth.json").exists()


def test_simulate_malformed_manifest_json_exit_code(runner, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{")
    res = runner.invoke(main, ["simulate", "--manifest", str(manifest), "--out", str(tmp_path / "sim")])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output == (f"error: cannot read {manifest}: Expecting property name enclosed in double quotes: "
                          "line 1 column 2 (char 1)\n")
    assert not (tmp_path / "sim").exists()


def test_simulate_deterministic_bytes(runner, tmp_path):
    manifest = _write_manifest(tmp_path)
    for d in ("a", "b"):
        res = runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(tmp_path / d)])
        assert res.exit_code == 0
    for name in ("i_ww.json", "i_tt.json", "truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_bad_manifest_exit_code(runner, tmp_path):
    bad = dict(MANIFEST, state=dict(MANIFEST["state"], rho=2.0))
    manifest = _write_manifest(tmp_path, bad)
    res = runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(tmp_path / "x")])
    assert res.exit_code == EXIT_BAD_CONFIG


def test_full_chain(runner, tmp_path):
    manifest = _write_manifest(tmp_path)
    sim = tmp_path / "sim"
    res = runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(sim), "--verbose"])
    assert res.exit_code == 0, res.output
    assert res.output == f"wrote 6 files to {sim}\n"

    pre = tmp_path / "pre"
    res = runner.invoke(main, [
        "preprocess", "--manifest", manifest,
        "--measurements", str(sim / "measurements.json"), "--out", str(pre), "--verbose",
    ])
    assert res.exit_code == 0, res.output
    assert res.output == f"wrote constraints to {pre}\n"

    result_path = tmp_path / "result.json"
    res = runner.invoke(main, [
        "retrieve", "--measurements", str(pre / "constraints.json"),
        "--iterations", "150", "--seed", "0", "--out", str(result_path),
    ])
    assert res.exit_code == 0, res.output
    doc = json.loads(result_path.read_text())
    assert len(doc["error_history"]) == 150
    assert doc["jsa"]["kind"] == "complex"

    analysis_path = tmp_path / "analysis.json"
    res = runner.invoke(main, [
        "analyze", "--result", str(result_path),
        "--measurements", str(pre / "constraints.json"),
        "--out", str(analysis_path),
    ])
    assert res.exit_code == 0, res.output
    rep = json.loads(analysis_path.read_text())
    # chirps inflate the time-difference spread, so the (sufficient-only)
    # witness does not certify this state; just check the report structure
    assert isinstance(rep["witness"]["entangled"], bool)
    assert rep["witness"]["product"] > 0
    assert rep["phase_fit"]["units"] == "fs2"


def test_retrieve_bad_mask(runner, tmp_path):
    manifest = _write_manifest(tmp_path)
    sim = tmp_path / "sim"
    runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(sim)])
    res = runner.invoke(main, [
        "retrieve", "--measurements", str(sim / "measurements.json"),
        "--mask", "wwxy", "--out", str(tmp_path / "r.json"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG


@pytest.mark.parametrize("mask", ["wwwtt", "wwww", "wwttww"])
def test_retrieve_mask_rejects_odd_length_and_repeats(runner, tmp_path, mask):
    manifest = _write_manifest(tmp_path)
    sim = tmp_path / "sim"
    runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(sim)])
    res = runner.invoke(main, [
        "retrieve", "--measurements", str(sim / "measurements.json"),
        "--mask", mask, "--out", str(tmp_path / "r.json"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG


@pytest.mark.parametrize("command, option", [
    ("retrieve", ["--iterations", "0"]),
    ("analyze", ["--mask-sigma", "0"]),
])
def test_invalid_option_value_exit_code(runner, tmp_path, command, option):
    manifest = _write_manifest(tmp_path)
    sim = tmp_path / "sim"
    runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(sim)])
    measurements = str(sim / "measurements.json")
    result_path = str(tmp_path / "result.json")
    runner.invoke(main, [
        "retrieve", "--measurements", measurements, "--iterations", "5", "--out", result_path,
    ])
    inputs = {"retrieve": [], "analyze": ["--result", result_path]}[command]
    res = runner.invoke(main, [
        command, *inputs, "--measurements", measurements, *option,
        "--out", str(tmp_path / "out.json"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output.startswith("error:")


def test_retrieve_default_mask_is_all_four_planes(runner, tmp_path):
    manifest = _write_manifest(tmp_path)
    sim = tmp_path / "sim"
    runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(sim)])
    docs = {}
    for name, extra in (("default", []), ("all", ["--mask", "wwwttwtt"])):
        path = tmp_path / f"{name}.json"
        res = runner.invoke(main, [
            "retrieve", "--measurements", str(sim / "measurements.json"),
            "--iterations", "20", "--out", str(path), *extra,
        ])
        assert res.exit_code == 0, res.output
        docs[name] = path.read_bytes()
    assert docs["default"] == docs["all"]


def test_measurements_manifest_missing_plane(runner, tmp_path):
    manifest = _write_manifest(tmp_path)
    sim = tmp_path / "sim"
    runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(sim)])
    doc = json.loads((sim / "measurements.json").read_text())
    del doc["i_tt"]
    broken = sim / "broken.json"
    broken.write_text(json.dumps(doc))
    res = runner.invoke(main, [
        "retrieve", "--measurements", str(broken), "--out", str(tmp_path / "r.json"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG
    assert res.output == f"error: measurements file {broken} has no key 'i_tt'\n"
    for text in ("[]", json.dumps(dict(doc, i_tt=5))):
        broken.write_text(text)
        res = runner.invoke(main, [
            "retrieve", "--measurements", str(broken), "--out", str(tmp_path / "r.json"),
        ])
        assert res.exit_code == EXIT_BAD_CONFIG, res.output
        assert res.output.startswith(f"error: measurements file {broken}: ")


@pytest.mark.parametrize("command", ["preprocess", "retrieve", "analyze"])
def test_malformed_grid_file_exit_code(runner, tmp_path, command):
    manifest = _write_manifest(tmp_path)
    sim = tmp_path / "sim"
    runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(sim)])
    result_path = str(tmp_path / "result.json")
    runner.invoke(main, [
        "retrieve", "--measurements", str(sim / "measurements.json"), "--iterations", "5", "--out", result_path,
    ])
    grid = json.loads((sim / "i_tt.json").read_text())
    legacy = {key: value for key, value in grid.items() if key != "values_b64"}
    payload = grid["values_b64"]
    documents = {
        "{}": " has no key 'axis_s'",
        "[]": ": list indices must be integers or slices, not str",
        json.dumps(dict(legacy, values_re=[0.0] * 5)): ": cannot reshape array of size 5 into shape (32,32)",
        json.dumps(dict(grid, values_b64=payload[:-4])):
            ": values_b64 holds 8190 bytes, not the 8192 of 32 x 32 values of 8 bytes",
        json.dumps(dict(grid, values_b64="!" + payload[1:])): ": values_b64 is not base64: Only base64 data is allowed",
        json.dumps(dict(grid, values_b64=[0.0] * 5)): ": values_b64 must be a string, not list",
        json.dumps(dict(grid, values_b64=base64.b64encode(np.full(32 * 32, np.nan).tobytes()).decode())):
            ": grid contains non-finite values",
        json.dumps(legacy): " has no key 'values_b64'",
        json.dumps(dict(grid, kind="weird")): ": unknown grid kind 'weird'",
        (sim / "truth.json").read_text(): ": i_tt must be an intensity grid, not complex",
    }
    inputs = {"preprocess": ["--manifest", manifest], "analyze": ["--result", result_path]}.get(command, [])
    for text, message in documents.items():
        (sim / "i_tt.json").write_text(text)
        res = runner.invoke(main, [
            command, *inputs, "--measurements", str(sim / "measurements.json"), "--out", str(tmp_path / "out"),
        ])
        assert res.exit_code == EXIT_BAD_CONFIG, res.output
        assert res.output == f"error: grid file {sim / 'i_tt.json'}{message}\n"


@pytest.mark.parametrize("doc, message", [
    ({}, " has no key 'jsa'"),
    ({"jsa": []}, ": list indices must be integers or slices, not str"),
    ({"jsa": {"kind": "weird"}}, " has no key 'axis_s'"),
    ({"jsa": {"kind": "intensity", "values_re": [0.0] * 4,
              "axis_s": {"domain": "frequency", "photon": "signal", "center": 2.0, "step": 0.01, "count": 2},
              "axis_i": {"domain": "frequency", "photon": "idler", "center": 2.5, "step": 0.01, "count": 2}}},
     ": jsa must be a complex grid, not intensity"),
], ids=["no_jsa", "jsa_list", "jsa_no_axes", "jsa_intensity"])
def test_malformed_result_file_exit_code(runner, tmp_path, doc, message):
    sim = tmp_path / "sim"
    runner.invoke(main, ["simulate", "--manifest", _write_manifest(tmp_path), "--out", str(sim)])
    result = tmp_path / "result.json"
    result.write_text(json.dumps(doc))
    res = runner.invoke(main, [
        "analyze", "--result", str(result), "--measurements", str(sim / "measurements.json"),
        "--out", str(tmp_path / "out"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output == f"error: result file {result}{message}\n"


def test_analyze_units_conversion(runner, tmp_path):
    manifest = _write_manifest(tmp_path)
    sim = tmp_path / "sim"
    runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(sim)])
    result_path = tmp_path / "result.json"
    runner.invoke(main, [
        "retrieve", "--measurements", str(sim / "measurements.json"),
        "--iterations", "150", "--out", str(result_path),
    ])
    outs = {}
    for units in ("fs2", "ps2"):
        path = tmp_path / f"an_{units}.json"
        res = runner.invoke(main, [
            "analyze", "--result", str(result_path),
            "--measurements", str(sim / "measurements.json"),
            "--units", units, "--out", str(path),
        ])
        assert res.exit_code == 0, res.output
        outs[units] = json.loads(path.read_text())
    fs2, ps2 = outs["fs2"]["phase_fit"], outs["ps2"]["phase_fit"]
    assert ps2["chirp_s"] == pytest.approx(fs2["chirp_s"] / FS_PER_PS**2)
    # every phase_fit value follows the document's units: a coefficient of
    # total degree k is in fs^k or ps^k
    assert ps2["cross_term"] == pytest.approx(fs2["cross_term"] / FS_PER_PS**2)
    for key, value in fs2["coefficients"].items():
        degree = sum(map(int, key.split(",")))
        assert ps2["coefficients"][key] == pytest.approx(value / 1e3**degree), key
    for fit in (fs2, ps2):
        assert fit["coefficients"]["1,1"] == fit["cross_term"]


def test_analyze_bad_result_file(runner, tmp_path):
    manifest = _write_manifest(tmp_path)
    sim = tmp_path / "sim"
    runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(sim)])
    bad = tmp_path / "bad_result.json"
    bad.write_text(json.dumps({"not_jsa": 1}))
    res = runner.invoke(main, [
        "analyze", "--result", str(bad),
        "--measurements", str(sim / "measurements.json"),
        "--out", str(tmp_path / "a.json"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG


def test_staged_chain_matches_pipeline(runner, tmp_path):
    # same manifest, seed and iteration count: the staged commands and
    # `pipeline` write the same result and analysis documents
    manifest = _write_manifest(tmp_path)
    sim, pre, run = tmp_path / "sim", tmp_path / "pre", tmp_path / "run"
    commands = [
        ["simulate", "--manifest", manifest, "--out", str(sim)],
        ["preprocess", "--manifest", manifest,
         "--measurements", str(sim / "measurements.json"), "--out", str(pre)],
        ["retrieve", "--measurements", str(pre / "constraints.json"),
         "--iterations", str(MANIFEST["retrieval"]["iterations"]), "--seed", str(MANIFEST["seed"]),
         "--out", str(tmp_path / "result.json")],
        ["analyze", "--result", str(tmp_path / "result.json"),
         "--measurements", str(pre / "constraints.json"), "--out", str(tmp_path / "analysis.json")],
        ["pipeline", "--manifest", manifest, "--out", str(run)],
    ]
    printed = []
    for args in commands:
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        printed.append(res.stdout)
    for name in ("result.json", "analysis.json"):
        assert (tmp_path / name).read_bytes() == (run / name).read_bytes(), name
    # retrieve prints report.txt's error lines, analyze its chirp and witness lines
    report = (run / "report.txt").read_text().splitlines(keepends=True)
    assert printed[2] == "".join(report[:2])
    assert printed[3] == "".join(report[2:5])


def test_pipeline_end_to_end(runner, tmp_path):
    manifest = _write_manifest(tmp_path)
    out = tmp_path / "run"
    res = runner.invoke(main, [
        "pipeline", "--manifest", manifest, "--out", str(out), "--verbose",
    ])
    assert res.exit_code == 0, res.output
    report = (out / "report.txt").read_text()
    assert "final error ww" in report
    analysis = json.loads((out / "analysis.json").read_text())
    assert isinstance(analysis["witness"]["entangled"], bool)
    assert (out / "result.json").exists()
    assert (out / "constraint_tt.csv").exists()
    assert (out / "reconstructed_ww_intensity.csv").exists()


def test_pipeline_grid_n_defaults_to_state_n(runner, tmp_path):
    # no preprocess section: grid_n is unset, and n = 32 runs with preprocessing on
    manifest = _write_manifest(tmp_path, {"state": {"n": 32}, "retrieval": {"iterations": 50}})
    res = runner.invoke(main, ["pipeline", "--manifest", manifest, "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output


def _no_simulation(cfg):
    raise AssertionError("simulated a configuration that cannot run")


def test_pipeline_grid_n_mismatch_fails_before_simulating(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(pl, "simulate", _no_simulation)
    manifest = _write_manifest(tmp_path, dict(MANIFEST, preprocess={"grid_n": 64}))
    res = runner.invoke(main, ["pipeline", "--manifest", manifest, "--out", str(tmp_path / "run")])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert "grid_n" in res.output and "state.n" in res.output


@pytest.mark.parametrize("analysis, field", [
    ({"mask_sigma": 0}, "analysis.mask_sigma"),
    ({"mask_sigma": 1.7e308}, "analysis.mask_sigma"),
    ({"monte_carlo": {"trials": 1}}, "analysis.monte_carlo.trials"),
    ({"monte_carlo": {"trials": 3, "peak_counts": 0}}, "analysis.monte_carlo.peak_counts"),
])
def test_pipeline_bad_analysis_section_fails_before_simulating(
    runner, tmp_path, monkeypatch, analysis, field
):
    monkeypatch.setattr(pl, "simulate", _no_simulation)
    manifest = _write_manifest(tmp_path, dict(MANIFEST, analysis=analysis))
    res = runner.invoke(main, ["pipeline", "--manifest", manifest, "--out", str(tmp_path / "run")])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert field in res.output


@pytest.mark.parametrize("field, value", [
    # no longer fields of PreprocessConfig; each plane's response sigmas follow
    # from gating.gate.sigma and gating.spectrometer_sigma
    ("response_sigma_s", 5.0),
    ("response_sigma_i", 5.0),
    ("corner_fraction", 0.1),
    ("clamp", False),
])
def test_pipeline_rejects_preprocess_fields_without_effect(
    runner, tmp_path, monkeypatch, field, value
):
    monkeypatch.setattr(pl, "simulate", _no_simulation)
    manifest = _write_manifest(tmp_path, dict(MANIFEST, preprocess={field: value}))
    res = runner.invoke(main, ["pipeline", "--manifest", manifest, "--out", str(tmp_path / "run")])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output.startswith("error:")
    assert f"preprocess.{field}" in res.output


def test_pipeline_unknown_manifest_key_exit_code(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(pl, "simulate", _no_simulation)
    manifest = _write_manifest(tmp_path, dict(MANIFEST, gating={"gate_sigma": 0.01}))
    res = runner.invoke(main, ["pipeline", "--manifest", manifest, "--out", str(tmp_path / "run")])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output.startswith("error:")
    assert "gating.gate_sigma" in res.output


@pytest.mark.parametrize("manifest, key", [
    ([], "manifest must be a JSON object"),
    ({"gating": []}, "gating"),
    ({"gating": {"ideal": "false"}}, "gating.ideal"),
    ({"preprocess_enabled": "no"}, "preprocess_enabled"),
    ({"state": {"chirp_s": "1"}}, "state.chirp_s"),
    ({"noise": {"poisson_peak_counts": 0}}, "noise.poisson_peak_counts"),
    ({"noise": {"poisson_peak_counts": -5}}, "noise.poisson_peak_counts"),
    ({"gating": {"crystal_length_um": float("nan")}}, "gating.crystal_length_um"),
    # no longer a field: the epsilon is a constant of the retrieval
    ({"retrieval": {"zero_magnitude_epsilon": -1}}, "retrieval.zero_magnitude_epsilon"),
    ({"retrieval": {"constraint_mask": []}}, "retrieval.constraint_mask"),
    ({"retrieval": {"seed": -1}}, "retrieval.seed"),
    # no longer a field: the grid spans synthesize_state's default 8 sigma
    ({"state": {"n": 32, "span_sigmas": 1e6}, "gating": {"ideal": True}}, "state.span_sigmas"),
    ({"state": {"n": 48}}, "state.n"),
    ({"state": {"rho": 1.5}}, "state.rho"),
    ({"preprocess": {"alpha": 0.5}}, "preprocess.alpha"),
    # the Wiener filter divides by G**2 + alpha, so no override admits alpha <= 0
    ({"preprocess": {"alpha": -1, "allow_out_of_range": True}}, "preprocess.alpha"),
    ({"preprocess": {"alpha": 0, "allow_out_of_range": True}}, "preprocess.alpha"),
    # no longer a field: the retrieval starts from a random phase
    ({"retrieval": {"init": "flat_phase"}}, "retrieval.init"),
    # above numpy's Poisson limit: refused at parse, not after the work
    ({"noise": {"poisson_peak_counts": 1e19}}, "noise.poisson_peak_counts"),
    ({"analysis": {"monte_carlo": {"trials": 3, "peak_counts": 1e19}}}, "analysis.monte_carlo.peak_counts"),
])
def test_pipeline_malformed_manifest_exit_code(runner, tmp_path, monkeypatch, manifest, key):
    monkeypatch.setattr(pl, "simulate", _no_simulation)
    res = runner.invoke(main, [
        "pipeline", "--manifest", _write_manifest(tmp_path, manifest), "--out", str(tmp_path / "run"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output.startswith("error:")
    assert key in res.output


def test_peak_counts_of_1e18_run(runner, tmp_path):
    manifest = dict(MANIFEST, retrieval={"iterations": 50}, noise={"poisson_peak_counts": 1e18},
                    analysis={"monte_carlo": {"trials": 2, "peak_counts": 1e18}})
    out = tmp_path / "run"
    res = runner.invoke(main, ["pipeline", "--manifest", _write_manifest(tmp_path, manifest), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert len(json.loads((out / "analysis.json").read_text())["monte_carlo"]["trials"]["chirp_s"]) == 2


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_seed_override_keeps_manifest_error(runner, tmp_path, monkeypatch, command):
    # --seed is applied after the manifest has parsed, so the loader names
    # what is wrong with it
    monkeypatch.setattr(pl, "simulate", _no_simulation)
    res = runner.invoke(main, [
        command, "--manifest", _write_manifest(tmp_path, []), "--out", str(tmp_path / "run"), "--seed", "3",
    ])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output.startswith("error: manifest must be a JSON object")


@pytest.mark.parametrize("gating, message", [
    # no longer a field: refused as an unknown key, before any work
    ({"crystal_length_um": 100, "upconverted_grid_count": 1}, "upconverted_grid_count"),
    ({"crystal_length_um": 100, "upconverted_grid_count": 0}, "upconverted_grid_count"),
    ({"crystal_length_um": 100, "refractive_table_path": "no_such_table.json"}, "no_such_table.json"),
    ({"crystal_length_um": 100, "refractive_table_path": "no_such_table.json"},
     "gating.refractive_table_path"),
    ({"crystal_length_um": -1}, "gating.crystal_length_um"),
    ({"spectrometer_sigma": -0.001}, "gating.spectrometer_sigma"),
    ({"gate": {"sigma": 0}}, "gating.gate.sigma"),
])
def test_pipeline_bad_gating_model_exit_code(runner, tmp_path, monkeypatch, gating, message):
    def no_gated_simulation(state, gm):
        raise AssertionError("simulated a gating model that cannot run")

    def no_state(*args):
        raise AssertionError("synthesized a state for a gating model that cannot run")

    monkeypatch.setattr(pl, "simulate_measurements", no_gated_simulation)
    monkeypatch.setattr(pl, "synthesize_state", no_state)
    manifest = _write_manifest(tmp_path, dict(MANIFEST, gating=gating))
    res = runner.invoke(main, ["pipeline", "--manifest", manifest, "--out", str(tmp_path / "run")])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output.startswith("error:")
    assert message in res.output


def test_staged_preprocess_bad_gate_sigma_exit_code(runner, tmp_path, monkeypatch):
    sim = tmp_path / "sim"
    res = runner.invoke(main, ["simulate", "--manifest", _write_manifest(tmp_path), "--out", str(sim)])
    assert res.exit_code == 0, res.output

    def no_preprocessing(grid, cfg, response):
        raise AssertionError("preprocessed a configuration that cannot run")

    monkeypatch.setattr(pl, "preprocess_grid", no_preprocessing)
    manifest = _write_manifest(tmp_path, dict(MANIFEST, gating={"gate": {"sigma": 0}}), "bad.json")
    res = runner.invoke(main, [
        "preprocess", "--manifest", manifest,
        "--measurements", str(sim / "measurements.json"), "--out", str(tmp_path / "pre"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output.startswith("error: gating.gate.sigma must be positive")


@pytest.mark.parametrize("options, message", [
    # with no plane projected the run would report a ww error of 0
    (["--mask", ""], "retrieval.constraint_mask must name at least one plane"),
    (["--mask", "wwtwww"], "retrieval.constraint_mask names ww more than once"),
    (["--seed", "-1"], "retrieval.seed must be >= 0"),
], ids=["empty_mask", "repeated_plane", "negative_seed"])
def test_retrieve_refuses_settings_before_retrieving(runner, tmp_path, monkeypatch, options, message):
    sim = tmp_path / "sim"
    runner.invoke(main, ["simulate", "--manifest", _write_manifest(tmp_path), "--out", str(sim)])

    def no_retrieval(m, cfg):
        raise AssertionError("retrieved with settings that cannot run")

    monkeypatch.setattr(cli, "run_retrieval", no_retrieval)
    res = runner.invoke(main, [
        "retrieve", "--measurements", str(sim / "measurements.json"), *options, "--out", str(tmp_path / "r.json"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output.startswith(f"error: {message}")


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_negative_seed_override_fails_before_simulating(runner, tmp_path, monkeypatch, command):
    monkeypatch.setattr(pl, "simulate", _no_simulation)
    res = runner.invoke(main, [
        command, "--manifest", _write_manifest(tmp_path), "--out", str(tmp_path / "run"), "--seed", "-1",
    ])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output.startswith("error: seed must be >= 0")


def test_import_loads_no_scipy_submodules():
    # biphoton runs on numpy alone: neither the import nor a gated L > 0
    # simulation with a spectrometer blur (angle tuning, SVD modes, blur)
    # loads any scipy module
    code = (
        "import sys, biphoton.cli\n"
        "from biphoton import pipeline as pl\n"
        "cfg = pl.PipelineConfig.from_manifest({'state': {'n': 16}, 'gating': "
        "{'crystal_length_um': 1000, 'spectrometer_sigma': 0.002}})\n"
        "assert pl.build_gating_model(cfg).crystal_length > 0\n"
        "pl.simulate(cfg)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# every trial fails when _trials_fail patches their retrieval
TRIALS_FAIL = {"state": {"n": 32}, "gating": {"ideal": True}, "analysis": {"monte_carlo": {"trials": 3}}}
# 0.01 peak counts poissonize the ww or tt plane of 98% of the trials to zero
ALL_TRIALS_FAIL = {"state": {"n": 32}, "gating": {"ideal": True},
                   "analysis": {"monte_carlo": {"trials": 3, "peak_counts": 0.01}}}
DOOMED_COUNTS_ERROR = (
    "analysis.monte_carlo.peak_counts ({counts}) is too low: an expected {share} of the Monte Carlo trials would "
    "draw an all-zero ww or tt plane from the raw measurements, above the 20% at which the run fails"
)


@pytest.mark.parametrize("manifest, counts, share", [
    ({"state": {"n": 32}, "gating": {"ideal": True}, "retrieval": {"iterations": 20},
      "analysis": {"monte_carlo": {"trials": 4, "peak_counts": 1e-3}}}, "0.001", "100%"),
    (ALL_TRIALS_FAIL, "0.01", "98%"),
    ({"state": {"n": 32}, "gating": {"ideal": True}, "analysis": {"monte_carlo": {"trials": 6, "peak_counts": 0.2}}},
     "0.2", "21%"),
], ids=["counts_1e-3", "counts_0.01", "unchirped_counts_0.2"])
def test_doomed_monte_carlo_counts_exit_2_before_the_trials(runner, tmp_path, monkeypatch, manifest, counts, share):
    # the expected share of failed trials is taken from the raw planes: no worker starts
    monkeypatch.setattr(pl, "MonteCarloWorkers", _no_work)
    run = tmp_path / "run"
    res = runner.invoke(main, ["pipeline", "--manifest", _write_manifest(tmp_path, manifest), "--out", str(run)])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output == "error: " + DOOMED_COUNTS_ERROR.format(counts=counts, share=share) + "\n"
    assert not run.exists()


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_all_zero_nominal_draw_exits_2_before_writing(runner, tmp_path, monkeypatch, command):
    # 5e-324 peak counts draw all-zero planes: refused after the draw, before preprocessing
    monkeypatch.setattr(pl, "preprocess_set", _no_work)
    manifest = {"state": {"n": 32}, "gating": {"ideal": True}, "noise": {"poisson_peak_counts": 5e-324}}
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--manifest", _write_manifest(tmp_path, manifest), "--out", str(out)])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output == ("error: noise.poisson_peak_counts (4.94066e-324) is too low: it drew an all-zero ww "
                          "plane, which the retrieval cannot scale to unit peak\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize("length", [1e100, 1e300])
def test_all_zero_noiseless_plane_exits_2_before_writing(runner, tmp_path, monkeypatch, command, length):
    # phase matching over a crystal this long leaves an all-zero tt plane (at
    # 1e300 um wt and tw too): refused after the simulation, before preprocessing
    monkeypatch.setattr(pl, "preprocess_set", _no_work)
    manifest = {"state": {"n": 16}, "gating": {"crystal_length_um": length}}
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--manifest", _write_manifest(tmp_path, manifest), "--out", str(out)])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output.splitlines()[-1] == (f"error: gating.crystal_length_um ({length:g} um) is too long: it gives "
                                           "an all-zero tt plane, which the retrieval cannot scale to unit peak")
    assert res.output.count("error:") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["preprocess", "pipeline"])
@pytest.mark.parametrize("state, gate_sigma, keys", [
    # the gate's temporal response, 1/(2 sigma) = 5e153 fs, overflows exp's
    # argument on the delay axes (exp(-inf) = 0 is the right value)
    ({"n": 16, "sigma_s": 1e100}, 1e-154, "state.sigma_s (1e+100 rad/fs), state.sigma_i (0.01 rad/fs)"),
    ({"n": 16, "sigma_s": 7e101, "sigma_i": 7e101}, None, "state.sigma_s (7e+101 rad/fs), state.sigma_i (7e+101 rad/fs)"),
], ids=["gate_response_overflows", "wide_spectra"])
def test_plane_zeroed_by_preprocessing_exits_2_naming_the_keys(runner, tmp_path, command, state, gate_sigma, keys):
    # a delay grid far finer than the gate's temporal response: the raw tt
    # plane is not zero, and preprocessing turns it all-zero
    manifest = {"state": state, "retrieval": {"iterations": 3}}
    if gate_sigma is not None:
        manifest["gating"] = {"gate": {"sigma": gate_sigma}}
    path = _write_manifest(tmp_path, manifest)
    measurements = []
    if command == "preprocess":
        res = runner.invoke(main, ["simulate", "--manifest", path, "--out", str(tmp_path / "sim")])
        assert res.exit_code == 0, res.output
        measurements = ["--measurements", str(tmp_path / "sim" / "measurements.json")]
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--manifest", path, *measurements, "--out", str(out)])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    sigma = f"{gate_sigma if gate_sigma is not None else 1 / 260:g}"
    assert res.output.splitlines()[-1] == (
        f"error: {keys}, gating.gate.sigma ({sigma} rad/fs) and gating.spectrometer_sigma (0 rad/fs): "
        "preprocessing gives "
        "an all-zero tt plane, which the retrieval cannot scale to unit peak")
    assert res.output.count("error:") == 1
    assert not out.exists()


def test_monte_carlo_counts_below_the_failure_share_run(runner, tmp_path, caplog):
    # chirped at 0.2 peak counts: 11% of the trials are expected to fail, and
    # trial 4 of 6 does; the run exits 0 with its warning
    manifest = {"seed": 1, "state": {"rho": -0.9, "chirp_s": -10000, "chirp_i": -12000, "n": 32},
                "gating": {"ideal": True}, "retrieval": {"iterations": 50},
                "analysis": {"monte_carlo": {"trials": 6, "peak_counts": 0.2}}}
    with caplog.at_level(logging.WARNING, logger="biphoton"):
        res = runner.invoke(main, ["pipeline", "--manifest", _write_manifest(tmp_path, manifest),
                                   "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    failed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("Monte Carlo")]
    assert failed == ["Monte Carlo trial 4 failed: ValueError('measured grid is identically zero')"]


def _trials_fail(monkeypatch):
    """Every trial's retrieval raises; set before the workers fork, so that they inherit it."""
    def zero_grid(*args):
        raise ValueError("measured grid is identically zero")

    monkeypatch.setattr(pl, "run_retrieval_stack", zero_grid)


def test_pipeline_monte_carlo_failures_exit_code(runner, tmp_path, monkeypatch):
    _trials_fail(monkeypatch)
    manifest = _write_manifest(tmp_path, TRIALS_FAIL)
    run = tmp_path / "run"
    res = runner.invoke(main, ["pipeline", "--manifest", manifest, "--out", str(run)])
    assert res.exit_code == EXIT_FIT_FAILED, res.output
    assert res.output.startswith("error: 3/3 Monte Carlo trials failed")
    # the nominal files were written while the trials ran, but reach --out only on
    # success: no result.json, analysis.json, report.txt, CSV or staging directory
    # is left, nor the --out this run made
    assert not run.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_cpu", "two_cpus"])
def test_pipeline_failure_leaves_an_existing_out_as_it_was(runner, tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    _trials_fail(monkeypatch)
    run = tmp_path / "run"
    run.mkdir()
    (run / "notes.txt").write_text("kept")
    res = runner.invoke(main, ["pipeline", "--manifest", _write_manifest(tmp_path, TRIALS_FAIL), "--out", str(run)])
    assert res.exit_code == EXIT_FIT_FAILED, res.output
    assert [p.name for p in run.iterdir()] == ["notes.txt"]
    assert multiprocessing.active_children() == []


def _retrieval_nan(*args):
    raise RetrievalError("non-finite values at iteration 3")


def _disk_full(*args):
    raise OSError(28, "No space left on device")


def _worker_dies(*args):
    os._exit(9)


# mask_sigma 0.01 keeps one pixel: the nominal fit fails after the workers have started
NOMINAL_FIT_FAILS = {
    "state": {"n": 32}, "gating": {"ideal": True}, "retrieval": {"iterations": 20},
    "analysis": {"mask_sigma": 0.01, "monte_carlo": {"trials": 4}},
}
TRIALS_RUN = dict(MANIFEST, retrieval={"iterations": 20}, analysis={"monte_carlo": {"trials": 4, "peak_counts": 1e5}})
PIPELINE_FILES = [
    "result.json", "analysis.json", "report.txt", "reconstructed_ww_intensity.csv",
    *(f"constraint_{plane}.csv" for plane in ("ww", "wt", "tw", "tt")),
]


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_cpu", "two_cpus"])
@pytest.mark.parametrize("manifest, patch, code, message", [
    (TRIALS_RUN, None, 0, None),
    (NOMINAL_FIT_FAILS, None, EXIT_FIT_FAILED, "only 1 masked pixels; need at least 10"),
    # mask_sigma 1e-12 keeps no pixel: the same fit failure, not the unwrap's empty mask
    (dict(NOMINAL_FIT_FAILS, analysis={"mask_sigma": 1e-12, "monte_carlo": {"trials": 4}}), None, EXIT_FIT_FAILED,
     "only 0 masked pixels; need at least 10"),
    (TRIALS_RUN, ("run_retrieval", _retrieval_nan), EXIT_RETRIEVAL_NAN, "non-finite values at iteration 3"),
    (TRIALS_RUN, ("grid_to_csv", _disk_full), EXIT_BAD_CONFIG, "[Errno 28] No space left on device"),
], ids=["success", "nominal_fit_fails", "nominal_fit_empty_mask", "retrieval_nan", "write_fails"])
def test_pipeline_leaves_no_worker_and_no_file_of_a_failed_run(
    runner, tmp_path, monkeypatch, cpus, manifest, patch, code, message
):
    if patch is not None:
        monkeypatch.setattr(pl, *patch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    run = tmp_path / "run"
    res = runner.invoke(main, ["pipeline", "--manifest", _write_manifest(tmp_path, manifest), "--out", str(run)])
    assert res.exit_code == code, res.output
    assert multiprocessing.active_children() == []
    if code == 0:
        assert sorted(p.name for p in run.iterdir()) == sorted(PIPELINE_FILES)
    else:
        assert res.output.startswith(f"error: {message}") and res.output.count("\n") == 1, res.output
        assert not run.exists()


def test_pipeline_worker_that_dies_exits_2(runner, tmp_path, monkeypatch):
    # two CPUs: the trials run in forked workers, and one dies without returning its outcomes
    monkeypatch.setattr(pl, "_mc_trials", _worker_dies)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run = tmp_path / "run"
    res = runner.invoke(main, ["pipeline", "--manifest", _write_manifest(tmp_path, TRIALS_RUN), "--out", str(run)])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    message = r"error: Monte Carlo worker \d+ ended with exit code 9 before it returned its trials\n"
    assert re.fullmatch(message, res.output), res.output
    assert multiprocessing.active_children() == []
    assert not run.exists()


def test_pipeline_nominal_fit_failure_with_trials_exits_in_a_subprocess(tmp_path):
    # the installed command's own process: a worker left waiting would hang it
    run = tmp_path / "run"
    out = subprocess.run(
        [sys.executable, "-m", "biphoton.cli", "pipeline", "--manifest", _write_manifest(tmp_path, NOMINAL_FIT_FAILS),
         "--out", str(run)],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == EXIT_FIT_FAILED, out.stderr
    assert out.stderr == "error: only 1 masked pixels; need at least 10\n"
    assert not run.exists()


@pytest.mark.parametrize("target", ["caller", "session"])
def test_pipeline_sigterm_stops_the_run_and_leaves_no_file(tmp_path, target):
    # SIGTERM to the command alone, or to its whole session as `timeout` sends it,
    # once result.json is staged and the trials run: the workers stop, the staging
    # directory and the --out the run made are removed, and it exits 143
    manifest = {"seed": 1, "state": {"n": 128, "rho": -0.9, "chirp_s": -10000, "chirp_i": -12000},
                "gating": {"crystal_length_um": 0}, "retrieval": {"iterations": 200},
                "noise": {"poisson_peak_counts": 1e4}, "analysis": {"monte_carlo": {"trials": 64, "peak_counts": 1e4}}}
    run = tmp_path / "run"
    caller = subprocess.Popen(
        [sys.executable, "-m", "biphoton.cli", "pipeline", "--manifest", _write_manifest(tmp_path, manifest),
         "--out", str(run)],
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not list(run.glob(".staging-*/result.json")):
            assert caller.poll() is None and time.monotonic() < deadline, "the run ended before it staged result.json"
            time.sleep(0.005)
        (os.killpg if target == "session" else os.kill)(caller.pid, signal.SIGTERM)
        _, err = caller.communicate(timeout=60)  # returns once the workers, which hold stderr, have exited
        try:
            os.killpg(caller.pid, 0)
            left = True
        except ProcessLookupError:
            left = False
    finally:
        with contextlib.suppress(ProcessLookupError):  # left only by a failure
            os.killpg(caller.pid, signal.SIGKILL)
    assert not left, "a process of the run's session is still running"
    assert caller.returncode == 143, err
    assert err == "error: terminated by SIGTERM\n"
    assert not run.exists()


# the files each staged command writes, into --out for simulate and preprocess
STAGED_FILES = {
    "simulate": ["measurements.json", "truth.json", *(f"i_{plane}.json" for plane in ("ww", "wt", "tw", "tt"))],
    "preprocess": ["constraints.json", *(f"i_{plane}_deconvolved.json" for plane in ("ww", "wt", "tw", "tt"))],
    "retrieve": ["result.json"],
    "analyze": ["analysis.json"],
}


# MANIFEST with smaller chirps: no coverage warning, so stderr holds only an error
STAGED_MANIFEST = dict(MANIFEST, state=dict(MANIFEST["state"], chirp_s=-4000.0, chirp_i=-5000.0))


@pytest.fixture(scope="module")
def staged_inputs(tmp_path_factory):
    """The manifest, and the simulate, preprocess and retrieve outputs of STAGED_MANIFEST at 20 iterations."""
    work = tmp_path_factory.mktemp("staged")
    manifest = _write_manifest(work, STAGED_MANIFEST)
    runner = CliRunner()
    for args in (
        ["simulate", "--manifest", manifest, "--out", str(work / "sim")],
        ["preprocess", "--manifest", manifest, "--measurements", str(work / "sim" / "measurements.json"),
         "--out", str(work / "pre")],
        ["retrieve", "--measurements", str(work / "pre" / "constraints.json"), "--iterations", "20",
         "--out", str(work / "result.json")],
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
    return work, manifest


def _staged_command(staged_inputs, command, out):
    """The arguments of a staged command that writes into the directory ``out``."""
    work, manifest = staged_inputs
    constraints = str(work / "pre" / "constraints.json")
    return {
        "simulate": ["simulate", "--manifest", manifest, "--seed", "2", "--out", str(out)],
        "preprocess": ["preprocess", "--manifest", manifest, "--measurements", str(work / "sim" / "measurements.json"),
                       "--out", str(out)],
        "retrieve": ["retrieve", "--measurements", constraints, "--iterations", "20", "--out",
                     str(out / "result.json")],
        "analyze": ["analyze", "--result", str(work / "result.json"), "--measurements", constraints,
                    "--out", str(out / "analysis.json")],
    }[command]


def _previous_output(out, command):
    """An earlier run's files in ``out``: each file the command writes, holding 'previous'."""
    out.mkdir(parents=True)
    for name in STAGED_FILES[command]:
        (out / name).write_text("previous")


def _assert_previous_output(out, command):
    assert sorted(p.name for p in out.iterdir()) == sorted(STAGED_FILES[command])
    assert all((out / name).read_text() == "previous" for name in STAGED_FILES[command])


def _fails_after_writing(write):
    def failing(path, *args, **kwargs):
        write(path, *args, **kwargs)
        raise OSError(28, "No space left on device")

    return failing


@pytest.mark.parametrize("previous", [False, True], ids=["new_out", "previous_out"])
@pytest.mark.parametrize("command", list(STAGED_FILES))
def test_staged_command_failure_leaves_no_file(runner, tmp_path, monkeypatch, staged_inputs, command, previous):
    # the first file is written, then the write fails: no partial plane or index is
    # left, an earlier run's files are kept, and the directories the command made
    # for --out (for retrieve and analyze, for its parent) are removed
    out = tmp_path / "new" / "out"
    if previous:
        _previous_output(out, command)
    with monkeypatch.context() as patched:
        patched.setattr(cli, "save_grid", _fails_after_writing(cli.save_grid))
        patched.setattr(cli, "write_json", _fails_after_writing(cli.write_json))
        res = runner.invoke(main, _staged_command(staged_inputs, command, out))
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output == "error: [Errno 28] No space left on device\n"
    if previous:
        _assert_previous_output(out, command)
    else:
        assert not (tmp_path / "new").exists()
    # unpatched, the same command makes the missing directories and writes its files
    res = runner.invoke(main, _staged_command(staged_inputs, command, out))
    assert res.exit_code == 0, res.output
    assert sorted(p.name for p in out.iterdir()) == sorted(STAGED_FILES[command])


@pytest.mark.parametrize("out_dir", ["run", "."], ids=["subdirectory", "working_directory"])
@pytest.mark.parametrize("command", [*STAGED_FILES, "pipeline"])
def test_publish_onto_a_directory_moves_no_file(runner, tmp_path, monkeypatch, staged_inputs, command, out_dir):
    # the last file to move would replace a directory: the publish is refused
    # before any file moves, the error names the user's path (not the staging
    # directory), and an earlier run's files are kept
    monkeypatch.chdir(tmp_path)
    out = Path(out_dir)
    files = PIPELINE_FILES if command == "pipeline" else STAGED_FILES[command]
    directory = max(files)
    out.mkdir(exist_ok=True)
    for name in files:
        (out / name).mkdir() if name == directory else (out / name).write_text("previous")
    if command == "pipeline":
        args = ["pipeline", "--manifest", staged_inputs[1], "--out", out_dir]
    else:
        args = _staged_command(staged_inputs, command, out)
    res = runner.invoke(main, args)
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output == f"error: [Errno 21] Is a directory: '{out / directory}'\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    assert all((out / name).read_text() == "previous" for name in files if name != directory)
    assert not any((out / directory).iterdir())


# runs a staged command whose first written file is followed by a wait: argv[1] is
# a file to create once that file is written, the rest the command's arguments
BLOCK_AFTER_FIRST_WRITE = """
import sys, time
from pathlib import Path
from biphoton import cli

def blocking(write):
    def wait_after(path, *args, **kwargs):
        write(path, *args, **kwargs)
        Path(sys.argv[1]).touch()
        time.sleep(60)
    return wait_after

cli.save_grid, cli.write_json = blocking(cli.save_grid), blocking(cli.write_json)
cli.main(sys.argv[2:])
"""


@pytest.mark.parametrize("command", list(STAGED_FILES))
def test_staged_command_sigterm_keeps_the_previous_files(tmp_path, staged_inputs, command):
    # SIGTERM to the command's session, as `timeout` sends it, once its first file
    # is staged: one error line, exit 143, no staging directory, the earlier files kept
    out, written = tmp_path / "out", tmp_path / "written"
    _previous_output(out, command)
    caller = subprocess.Popen(
        [sys.executable, "-c", BLOCK_AFTER_FIRST_WRITE, str(written), *_staged_command(staged_inputs, command, out)],
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not written.exists():
            assert caller.poll() is None and time.monotonic() < deadline, "the command ended before it wrote a file"
            time.sleep(0.005)
        os.killpg(caller.pid, signal.SIGTERM)
        _, err = caller.communicate(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):  # left only by a failure
            os.killpg(caller.pid, signal.SIGKILL)
    assert caller.returncode == 143, err
    assert err == "error: terminated by SIGTERM\n"
    _assert_previous_output(out, command)


# runs a command with every retrieval split into halves in two processes: argv[1] is a
# file that receives whether the split was chosen and then, on a second line, the
# partner's pid; the rest are the command's arguments
SPLIT_RETRIEVALS = """
import os, sys
from pathlib import Path
from biphoton import cli, retrieve

retrieve.SPLIT_PIXELS = 1
os.sched_getaffinity = lambda pid: {0, 1}
splits, project, caller, note = retrieve._splits, retrieve._project, os.getpid(), Path(sys.argv[1])

def announced(pixels):
    split = splits(pixels)
    note.write_text(str(split))
    return split

def noted(*args):
    # the first projection of each process: the partner notes its pid
    retrieve._project = project
    if os.getpid() != caller:
        with note.open("a") as fh:
            fh.write(f"\\n{os.getpid()}")
    return project(*args)

retrieve._splits, retrieve._project = announced, noted
cli.main(sys.argv[2:])
"""


def _live_processes(session):
    """The processes of ``session`` that have not ended (zombies count as ended)."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError):  # a process that ended meanwhile
            state, _, _, sid = stat.read_text().rsplit(")", 1)[1].split()[:4]
            if int(sid) == session and state != "Z":
                live.append(int(stat.parent.name))
    return live


@contextlib.contextmanager
def _split_retrieve(tmp_path, staged_inputs):
    """A split ``retrieve`` of many iterations in a session of its own: yields
    the command's process and its partner's pid once both run their halves.
    The session is killed on the way out."""
    work, _ = staged_inputs
    note = tmp_path / "split"
    caller = subprocess.Popen(
        [sys.executable, "-c", SPLIT_RETRIEVALS, str(note), "retrieve", "--measurements",
         str(work / "pre" / "constraints.json"), "--iterations", "100000000", "--out", str(tmp_path / "result.json")],
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not note.exists() or len(note.read_text().splitlines()) < 2:
            assert caller.poll() is None and time.monotonic() < deadline, "the command ended before it split"
            time.sleep(0.005)
        split, partner = note.read_text().splitlines()
        assert split == "True"
        time.sleep(0.2)
        assert sorted(_live_processes(caller.pid)) == sorted([caller.pid, int(partner)])
        yield caller, int(partner)
    finally:
        with contextlib.suppress(ProcessLookupError):  # left only by a failure
            os.killpg(caller.pid, signal.SIGKILL)
        caller.communicate(timeout=60)


def test_retrieve_sigterm_during_a_split_retrieval(tmp_path, staged_inputs):
    # SIGTERM to the session while both processes run their halves: the
    # partner ends, and the command exits 143 with one line and no file
    with _split_retrieve(tmp_path, staged_inputs) as (caller, _):
        os.killpg(caller.pid, signal.SIGTERM)
        _, err = caller.communicate(timeout=60)
    assert caller.returncode == 143, err
    assert err == "error: terminated by SIGTERM\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["split"]
    assert _live_processes(caller.pid) == []


def test_retrieve_exits_2_when_its_partner_is_killed(tmp_path, staged_inputs):
    # the command's spin sees the partner gone: one error line, no hang
    with _split_retrieve(tmp_path, staged_inputs) as (caller, partner):
        os.kill(partner, signal.SIGKILL)
        _, err = caller.communicate(timeout=60)
    assert caller.returncode == EXIT_BAD_CONFIG, err
    assert err == f"error: partner process {partner} ended with exit code -9 before its half was done\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["split"]
    assert _live_processes(caller.pid) == []


def test_partner_exits_when_its_caller_is_killed(tmp_path, staged_inputs):
    # nothing is left to reap the partner's work: it sees its parent change and exits
    with _split_retrieve(tmp_path, staged_inputs) as (caller, partner):
        os.kill(caller.pid, signal.SIGKILL)
        caller.wait(timeout=60)
        deadline = time.monotonic() + 10
        while _live_processes(caller.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _live_processes(caller.pid) == []


def test_commands_restore_the_sigterm_handler_and_run_off_the_main_thread(runner, tmp_path):
    before = signal.getsignal(signal.SIGTERM)
    bad = _write_manifest(tmp_path, dict(MANIFEST, state=dict(MANIFEST["state"], rho=2.0)), "bad.json")
    for manifest, code in ((_write_manifest(tmp_path), 0), (bad, EXIT_BAD_CONFIG)):
        res = runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(tmp_path / "sim")])
        assert res.exit_code == code, res.output
        assert signal.getsignal(signal.SIGTERM) is before
    # off the main thread no handler can be installed, and the command runs without one
    results = []
    thread = threading.Thread(target=lambda: results.append(runner.invoke(main, [
        "simulate", "--manifest", _write_manifest(tmp_path), "--out", str(tmp_path / "sim_thread")])))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert results[0].exit_code == 0, results[0].output
    assert sorted(p.name for p in (tmp_path / "sim_thread").iterdir()) == sorted(STAGED_FILES["simulate"])


# the JSA of one manifest against the constraints of another: analyze refuses the pair
@pytest.mark.parametrize("other, axes", [
    ({"state": {"n": 64, "chirp_s": -5000}}, "64 x 64 samples, steps 0.0025 x 0.0025 rad/fs"),
    ({"state": {"n": 32, "sigma_s": 0.02}}, "32 x 32 samples, steps 0.01 x 0.005 rad/fs"),
], ids=["other_n", "other_sigma_s"])
def test_analyze_refuses_a_jsa_of_another_grid(runner, tmp_path, other, axes):
    ideal = {"gating": {"ideal": True}, "retrieval": {"iterations": 20}}
    sim, pre = tmp_path / "sim", tmp_path / "pre"
    other_manifest = _write_manifest(tmp_path, {**ideal, **other}, "other.json")
    for args in (
        ["simulate", "--manifest", _write_manifest(tmp_path, {**ideal, "state": {"n": 32}}), "--out", str(sim)],
        ["retrieve", "--measurements", str(sim / "measurements.json"), "--iterations", "20",
         "--out", str(tmp_path / "r32.json")],
        ["simulate", "--manifest", other_manifest, "--out", str(tmp_path / "sim_other")],
        ["preprocess", "--manifest", other_manifest, "--measurements", str(tmp_path / "sim_other" / "measurements.json"),
         "--out", str(pre)],
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["analyze", "--result", str(tmp_path / "r32.json"),
                               "--measurements", str(pre / "constraints.json"), "--out", str(tmp_path / "a.json")])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output == (f"error: the JSA (32 x 32 samples, steps 0.005 x 0.005 rad/fs) "
                          f"is not on the constraints' ww axes ({axes})\n")
    assert not (tmp_path / "a.json").exists()


def test_preprocess_grid_n_mismatch_fails_before_preprocessing(runner, tmp_path, monkeypatch):
    # simulate refuses the mismatched manifest too, so measure with the matching one
    sim = tmp_path / "sim"
    res = runner.invoke(main, ["simulate", "--manifest", _write_manifest(tmp_path), "--out", str(sim)])
    assert res.exit_code == 0, res.output
    manifest = _write_manifest(tmp_path, dict(MANIFEST, preprocess={"grid_n": 64}), "mismatch.json")

    def no_preprocessing(grid, cfg, response):
        raise AssertionError("preprocessed a configuration that cannot run")

    monkeypatch.setattr(pl, "preprocess_grid", no_preprocessing)
    res = runner.invoke(main, [
        "preprocess", "--manifest", manifest,
        "--measurements", str(sim / "measurements.json"), "--out", str(tmp_path / "pre"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert "grid_n" in res.output and "state.n" in res.output


def test_result_seed_is_the_retrieval_seed(runner, tmp_path):
    # the top-level seed draws the noise; result.json records the seed of the random start
    manifest = _write_manifest(tmp_path, dict(MANIFEST, seed=5, retrieval={"iterations": 5, "seed": 7}))
    sim, run, result = tmp_path / "sim", tmp_path / "run", tmp_path / "result.json"
    for args in (
        ["pipeline", "--manifest", manifest, "--out", str(run)],
        ["simulate", "--manifest", manifest, "--out", str(sim)],
        ["retrieve", "--measurements", str(sim / "measurements.json"), "--iterations", "5", "--seed", "7",
         "--out", str(result)],
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
    for path in (run / "result.json", result):
        assert json.loads(path.read_text())["seed"] == 7, path


NUMPY_OUT_OF_MEMORY = "Unable to allocate 8.00 TiB for an array with shape (1048576, 1048576) and data type float64"


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize("error, message", [
    (MemoryError(NUMPY_OUT_OF_MEMORY), NUMPY_OUT_OF_MEMORY),
    (MemoryError(), "out of memory"),
], ids=["numpy", "bare"])
def test_memory_exhaustion_exits_2_with_one_line(runner, tmp_path, monkeypatch, command, error, message):
    # a grid too large for the machine, such as state.n 2**20, passes parse
    def out_of_memory(cfg):
        raise error

    monkeypatch.setattr(pl, "simulate", out_of_memory)
    res = runner.invoke(main, [command, "--manifest", _write_manifest(tmp_path), "--out", str(tmp_path / "out")])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output == f"error: {message}\n"


def test_pipeline_seed_override_changes_output(runner, tmp_path):
    manifest = _write_manifest(tmp_path)
    hist = {}
    for seed in (3, 4):
        out = tmp_path / f"run{seed}"
        res = runner.invoke(main, [
            "pipeline", "--manifest", manifest, "--out", str(out), "--seed", str(seed),
        ])
        assert res.exit_code == 0, res.output
        hist[seed] = json.loads((out / "result.json").read_text())["error_history"]
    assert hist[3] != hist[4]


def test_refractive_range_error_is_one_line(runner, tmp_path):
    # the centers pass the table check at parse; the grid's red edge does not
    manifest = {"state": {"n": 32, "center_s": 0.7635}, "gating": {"crystal_length_um": 1000}}
    res = runner.invoke(main, [
        "pipeline", "--manifest", _write_manifest(tmp_path, manifest), "--out", str(tmp_path / "run"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert re.fullmatch(
        r"error: the signal grid \(state\.center_s, state\.sigma_s\) spans \d+(\.\d+)? to \d+(\.\d+)? rad/fs, "
        r"outside the refractive table's range \[290, 2500\] nm \(0\.7535 to 6\.495 rad/fs\)\n", res.output
    ), res.output


def _no_work(*args, **kwargs):
    raise AssertionError("started work on settings that cannot run")


GATE_SIGMA_RANGE_ERROR = (
    "gating.gate.sigma ({} rad/fs) must lie in [2.223e-162, 1.341e+154] rad/fs, where sigma**2 is a positive float"
)
GATE_SIGMA_STEP_ERROR = (
    "gating.gate.sigma ({} rad/fs) must be at least {} rad/fs at L > 0, the signal gate kernel's upconverted "
    "frequency step, so that the kernel resolves the gate"
)
COLLAPSED_GRID_ERROR = (
    "state.sigma_s ({} rad/fs) is too narrow for a frequency grid at state.center_s ({} rad/fs): its 16 samples "
    "must be distinct floats, and 2 pi over its width ({} rad/fs) a finite delay step"
)
COLLAPSED_STATE = {"n": 16, "sigma_s": 1e-30, "sigma_i": 1e-30}
ULPS_APART_GRID_ERROR = (
    "state.sigma_s (1e-15 rad/fs) is too narrow for a frequency grid at state.center_s (2.289 rad/fs): its samples "
    "are spaced up to 0.33 of its step (1e-15 rad/fs) off that step, more than 1e-06"
)
WIDE_GRID_ERROR = ("state.sigma_s ({} rad/fs) is too wide for a frequency grid: its outermost offset from "
                   "state.center_s, 8 state.sigma_s, squares to inf")
WIDE_GRID_CUBE_ERROR = ("state.sigma_{x} ({} rad/fs) is too wide for a frequency grid: its outermost offset from "
                        "state.center_{x}, 8 state.sigma_{x}, cubes to inf in the degree-3 phase fit")
CHIRP_ERROR = ("{} too large for the frequency grid: its corner phase |state.chirp_s| (8 state.sigma_s)**2 + "
               "|state.chirp_i| (8 state.sigma_i)**2 overflows")
SUBNORMAL_GRID_ERROR = (
    "state.sigma_{x} (4.94066e-324 rad/fs) is too narrow for a frequency grid at state.center_{x} ({center} rad/fs): "
    "its 32 samples must be distinct floats, and 2 pi over its width (0 rad/fs) a finite delay step"
)


@pytest.mark.parametrize("command", ["simulate", "preprocess", "pipeline"])
@pytest.mark.parametrize("manifest, message", [
    (dict(MANIFEST, preprocess={"grid_n": 64}), "preprocess.grid_n (64) must equal state.n (32)"),
    ({"state": {"n": 48}, "gating": {"crystal_length_um": 1000}}, "state.n must be a power of two >= 16"),
    ({"state": {"n": 32}, "gating": {"crystal_length_um": 1000, "gate": {"center": 10.0}}},
     "gating.gate.center (10 rad/fs) is outside the refractive table's range [290, 2500] nm (0.7535 to 6.495 rad/fs)"),
    ({"state": {"n": 32}, "gating": {"spectrometer_sigma": 1e9}, "retrieval": {"iterations": 5}},
     "gating.spectrometer_sigma (1e+09 rad/fs) must be below the frequency grid's full width, "
     "16 state.sigma_s (0.16 rad/fs)"),
    # the centers are inside the table; the signal grid's red edge is not
    ({"state": {"n": 32, "center_s": 0.7635}, "gating": {"crystal_length_um": 1000}},
     "the signal grid (state.center_s, state.sigma_s) spans 0.6835 to 0.8385 rad/fs, "
     "outside the refractive table's range [290, 2500] nm (0.7535 to 6.495 rad/fs)"),
    # a table at a path is checked at parse, as the shipped one is
    ({"state": {"n": 32}, "gating": {"crystal_length_um": 1000, "gate": {"center": 10.0},
                                     "refractive_table_path": "table.json"}},
     "gating.gate.center (10 rad/fs) is outside the refractive table's range [290, 2500] nm (0.7535 to 6.495 rad/fs)"),
    ({"state": {"n": 32}, "gating": {"crystal_length_um": 1000, "refractive_table_path": "no_such_table.json"}},
     "cannot read gating.refractive_table_path no_such_table.json: "
     "[Errno 2] No such file or directory: 'no_such_table.json'"),
    # sigma**2 overflows in the L = 0 lag weight
    ({"state": {"n": 16}, "gating": {"gate": {"sigma": 1e300}}}, GATE_SIGMA_RANGE_ERROR.format("1e+300")),
    # sigma**2 underflows to 0 in the gate spectrum
    ({"state": {"n": 16}, "gating": {"gate": {"sigma": 1e-300}, "crystal_length_um": 1000}},
     GATE_SIGMA_RANGE_ERROR.format("1e-300")),
    # (1/(2 sigma))**2 overflows in preprocessing
    ({"state": {"n": 16}, "gating": {"gate": {"sigma": 1e-160}}},
     "gating.gate.sigma (1e-160 rad/fs) must be at least 3.729e-155 rad/fs when preprocessing, "
     "where the temporal s.d. 1/(2 sigma) squares to a finite float"),
    # an L > 0 gate narrower than the kernel's upconverted step falls between its samples
    ({"state": {"n": 32, "rho": -0.9, "chirp_s": -10000, "chirp_i": -12000},
      "gating": {"gate": {"sigma": 1e-12}, "crystal_length_um": 1000}, "preprocess_enabled": False,
      "retrieval": {"iterations": 100}},
     GATE_SIGMA_STEP_ERROR.format("1e-12", "0.0006078")),
    # a grid narrower than the float spacing at its center repeats samples
    ({"state": COLLAPSED_STATE, "retrieval": {"iterations": 20}},
     COLLAPSED_GRID_ERROR.format("1e-30", "2.289", "1.6e-29")),
    ({"state": COLLAPSED_STATE, "gating": {"ideal": True}, "retrieval": {"iterations": 20}},
     COLLAPSED_GRID_ERROR.format("1e-30", "2.289", "1.6e-29")),
    ({"state": {"n": 16, "sigma_s": 1e-17}, "retrieval": {"iterations": 20}},
     COLLAPSED_GRID_ERROR.format("1e-17", "2.289", "1.6e-16")),
    # at L > 0 its upconverted step is 0, which any gate sigma passes
    ({"state": COLLAPSED_STATE, "gating": {"gate": {"sigma": 7.856e-151}, "crystal_length_um": 1000}},
     COLLAPSED_GRID_ERROR.format("1e-30", "2.289", "1.6e-29")),
    # distinct samples around 0, but the delay step 2 pi / width overflows
    ({"state": {"n": 16, "sigma_s": 1e-310, "center_s": 0}, "gating": {"ideal": True}, "preprocess_enabled": False},
     COLLAPSED_GRID_ERROR.format("1e-310", "0", "1.6e-309")),
    # a subnormal sigma rounds the grid step 16 sigma / n to 0
    ({"state": {"n": 32, "sigma_s": 5e-324}, "gating": {"ideal": True}},
     SUBNORMAL_GRID_ERROR.format(x="s", center="2.289")),
    ({"state": {"n": 32, "sigma_i": 5e-324}, "gating": {"ideal": True}},
     SUBNORMAL_GRID_ERROR.format(x="i", center="2.574")),
    # distinct samples a few ulps of the center apart: their spacing is 33% off the step
    ({"state": {"n": 16, "sigma_s": 1e-15}, "retrieval": {"iterations": 20}}, ULPS_APART_GRID_ERROR),
    # the outermost offset squares to inf, or the step itself overflows: no numpy warning first
    ({"state": {"n": 16, "sigma_s": 1e300, "center_i": 1000}}, WIDE_GRID_ERROR.format("1e+300")),
    ({"state": {"n": 16, "sigma_s": 1.7e308}}, WIDE_GRID_ERROR.format("1.7e+308")),
    # the phase fit's degree-3 monomials cube the outermost offset: no overflow warning after the run
    ({"state": {"n": 16, "sigma_s": 1e150}, "retrieval": {"iterations": 3}},
     WIDE_GRID_CUBE_ERROR.format("1e+150", x="s")),
    ({"state": {"n": 16, "sigma_i": 1e153}, "retrieval": {"iterations": 3}},
     WIDE_GRID_CUBE_ERROR.format("1e+153", x="i")),
    # the chirp phase overflows in one term, or only in their sum at the grid's corner
    ({"state": {"n": 16, "sigma_i": 1, "chirp_i": 1.7e308}, "retrieval": {"iterations": 3}},
     CHIRP_ERROR.format("state.chirp_i (1.7e+308 fs^2) is")),
    ({"state": {"n": 16, "sigma_s": 1, "sigma_i": 1, "chirp_s": -2e306, "chirp_i": -2e306}},
     CHIRP_ERROR.format("state.chirp_s (-2e+306 fs^2) and state.chirp_i (-2e+306 fs^2) are")),
], ids=["grid_n_mismatch", "gated_n48", "gate_center_out_of_range", "spectrometer_wider_than_grid",
        "signal_grid_out_of_range", "table_at_path_gate_center_out_of_range", "missing_table",
        "gate_sigma_1e300", "gate_sigma_1e-300_l1000", "gate_sigma_1e-160_preprocessed",
        "gate_sigma_below_kernel_step_l1000", "collapsed_grid_l0", "collapsed_grid_ideal", "collapsed_signal_grid",
        "collapsed_grid_l1000", "zero_center_grid_infinite_delay_step", "subnormal_sigma_s", "subnormal_sigma_i",
        "ulps_apart_grid", "wide_grid_squares_to_inf", "wide_grid_step_overflows", "wide_grid_cubes_to_inf",
        "wide_idler_grid_cubes_to_inf", "chirp_phase_overflows", "chirp_phase_sum_overflows"])
def test_bad_manifest_fails_before_any_work(runner, tmp_path, monkeypatch, command, manifest, message):
    monkeypatch.chdir(tmp_path)  # a relative refractive_table_path is read from the working directory
    (tmp_path / "table.json").write_text(resources.files("biphoton.data").joinpath("bibo_sellmeier.json").read_text())
    # no gating model, simulation or measurement grid before the manifest parses
    for module, name in ((pl, "build_gating_model"), (pl, "simulate_measurements"), (cli, "load_grid")):
        monkeypatch.setattr(module, name, _no_work)
    index = tmp_path / "measurements.json"
    index.write_text(json.dumps({f"i_{plane}": f"i_{plane}.json" for plane in ("ww", "wt", "tw", "tt")}))
    measurements = ["--measurements", str(index)] if command == "preprocess" else []
    res = runner.invoke(main, [
        command, "--manifest", _write_manifest(tmp_path, manifest), *measurements, "--out", str(tmp_path / "out"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["analyze", "--mask-sigma", "0"], "analysis.mask_sigma must be positive"),
    (["analyze", "--mask-sigma", "1.7e308"], "analysis.mask_sigma (1.7e+308) is too large: its square overflows"),
    (["retrieve", "--mask", "wwxy"], "retrieval.constraint_mask has unknown planes ['xy']"),
], ids=["analyze_mask_sigma", "analyze_huge_mask_sigma", "retrieve_mask"])
def test_staged_options_fail_before_reading_files(runner, tmp_path, monkeypatch, args, message):
    monkeypatch.setattr(cli, "_load_json", _no_work)
    monkeypatch.setattr(cli, "load_grid", _no_work)
    existing = _write_manifest(tmp_path)  # click checks that the paths exist
    inputs = ["--result", existing] if args[0] == "analyze" else []
    res = runner.invoke(main, [*args, *inputs, "--measurements", existing, "--out", str(tmp_path / "out.json")])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output.startswith(f"error: {message}")


# a gated state whose delay planes reach the grid edge at n = 32
COVERAGE_MANIFEST = {
    "seed": 1, "state": {"rho": -0.9, "chirp_s": -36000, "chirp_i": -43000, "n": 32},
    "gating": {"crystal_length_um": 0}, "retrieval": {"iterations": 20},
}


def test_retrieve_has_no_init_option(runner, tmp_path, monkeypatch):
    # a flat or supplied start is a library call: run_retrieval(m, cfg, start)
    monkeypatch.setattr(cli, "load_grid", _no_work)
    existing = _write_manifest(tmp_path)
    res = runner.invoke(main, [
        "retrieve", "--measurements", existing, "--init", "flat_phase", "--out", str(tmp_path / "r.json"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert "No such option" in res.output and "--init" in res.output


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_coverage_warning_is_logged(runner, tmp_path, caplog, command):
    manifest = _write_manifest(tmp_path, COVERAGE_MANIFEST)
    with caplog.at_level(logging.WARNING):
        res = runner.invoke(main, [command, "--manifest", manifest, "--out", str(tmp_path / "out"), "--verbose"])
    assert res.exit_code == 0, res.output
    (record,) = caplog.records
    assert (record.name, record.levelno) == ("biphoton", logging.WARNING)
    assert "delay-axis edge" in record.getMessage()


@pytest.mark.parametrize("gating, sigma", [({"ideal": True}, 1e-300), ({}, 1e-170)], ids=["ideal", "gated"])
def test_radius_zero_spectrometer_writes_the_unblurred_files(runner, tmp_path, gating, sigma):
    # below 1/8 of a frequency step the blur kernel's radius is 0, and a
    # radius-0 kernel is the identity, as no spectrometer is
    runs = []
    for spectrometer_sigma in (0, sigma):
        manifest = {"state": {"n": 16}, "gating": dict(gating, spectrometer_sigma=spectrometer_sigma),
                    "retrieval": {"iterations": 2}}
        out = tmp_path / f"run_{spectrometer_sigma}"
        res = runner.invoke(main, [
            "pipeline", "--manifest", _write_manifest(tmp_path, manifest), "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        runs.append(out)
    names = sorted(path.name for path in runs[0].iterdir())
    assert names == sorted(path.name for path in runs[1].iterdir()) and len(names) == 8
    for name in names:
        a, b = ((out / name).read_bytes() for out in runs)
        if name == "report.txt":  # its time lines differ
            a, b = ([line for line in text.splitlines() if not line.startswith(b"time ")] for text in (a, b))
        assert a == b, name


# an L > 0 gate kernel with no mode (its grid is one float wide, so the
# upconverted step would be 0), which the grid rule refuses at parse, and a
# gate whose mode sum would overflow, which the kernel-step rule refuses
@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize("manifest, message", [
    ({"state": COLLAPSED_STATE, "gating": {"gate": {"sigma": 7.856e-151}, "crystal_length_um": 1000}},
     COLLAPSED_GRID_ERROR.format("1e-30", "2.289", "1.6e-29")),
    ({"state": {"n": 16}, "gating": {"gate": {"sigma": 1e-160}, "crystal_length_um": 1000},
      "preprocess_enabled": False},
     GATE_SIGMA_STEP_ERROR.format("1e-160", "0.0005882")),
], ids=["no_idler_mode", "overflowing_mode_sum"])
def test_degenerate_gate_kernel_exits_2_before_writing(runner, tmp_path, command, manifest, message):
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--manifest", _write_manifest(tmp_path, manifest), "--out", str(out)])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert res.output.startswith(f"error: {message}") and res.output.count("\n") == 1, res.output
    assert not out.exists()


# the sweep below draws each key from these values: ordinary ones, and the
# float extremes of gating.gate.sigma and gating.spectrometer_sigma
SWEEP_VALUES = {
    ("gating", "gate", "sigma"): [1e-300, 1e-200, 1e-160, 1e-154, 1e-10, 1 / 260, 0.01, 1.0, 1e100, 1e154, 1e200,
                                  1e300],
    ("gating", "spectrometer_sigma"): [0, 1e-300, 1e-170, 1e-10, 2e-4, 0.002, 0.05],
    ("gating", "crystal_length_um"): [0, 1000],
    ("gating", "ideal"): [False, False, True],
    ("state", "rho"): [-0.95, 0.0, 0.9],
    ("state", "chirp_s"): [0, -36000],
    ("noise", "poisson_peak_counts"): [None, 10, 1e4, 1e18],
    ("preprocess_enabled",): [True, False],
}


def test_manifest_sweep_ends_in_a_documented_exit_code(runner, tmp_path):
    # every manifest runs (exit 0, with finite outputs) or fails with exit 2, 3 or 4
    rng = random.Random(23)
    for k in range(100):
        manifest = {"seed": k, "state": {"n": 16}, "retrieval": {"iterations": 2}}
        for (*sections, key), values in SWEEP_VALUES.items():
            section = manifest
            for name in sections:
                section = section.setdefault(name, {})
            section[key] = rng.choice(values)
        out = tmp_path / f"run{k}"
        res = runner.invoke(main, [
            "pipeline", "--manifest", _write_manifest(tmp_path, manifest), "--out", str(out),
        ])
        assert res.exit_code in (0, EXIT_BAD_CONFIG, EXIT_RETRIEVAL_NAN, EXIT_FIT_FAILED), (manifest, res.exception)
        for path in out.iterdir() if res.exit_code == 0 else ():
            assert not re.search(r"\b(nan|inf|infinity)\b", path.read_text(), re.IGNORECASE), (manifest, path.name)
