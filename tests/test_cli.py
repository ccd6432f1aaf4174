"""CLI contracts: the subcommand chain, exit codes, determinism."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from biphoton import pipeline as pl
from biphoton.cli import EXIT_BAD_CONFIG, EXIT_RETRIEVAL_NAN, main
from biphoton.units import FS2_PER_PS2

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
    assert runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(sim)]).exit_code == 0

    pre = tmp_path / "pre"
    res = runner.invoke(main, [
        "preprocess", "--manifest", manifest,
        "--measurements", str(sim / "measurements.json"), "--out", str(pre),
    ])
    assert res.exit_code == 0, res.output

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
    assert outs["ps2"]["phase_fit"]["chirp_s"] == pytest.approx(
        outs["fs2"]["phase_fit"]["chirp_s"] / FS2_PER_PS2
    )


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
    # no preprocess section: the regrid size follows state.n (here 32, not 64)
    manifest = _write_manifest(tmp_path, {"state": {"n": 32}, "retrieval": {"iterations": 50}})
    res = runner.invoke(main, ["pipeline", "--manifest", manifest, "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output


def test_pipeline_grid_n_mismatch_fails_before_simulating(runner, tmp_path, monkeypatch):
    def no_simulation(cfg):
        raise AssertionError("simulated a configuration that cannot run")

    monkeypatch.setattr(pl, "simulate", no_simulation)
    manifest = _write_manifest(tmp_path, dict(MANIFEST, preprocess={"grid_n": 64}))
    res = runner.invoke(main, ["pipeline", "--manifest", manifest, "--out", str(tmp_path / "run")])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert "grid_n" in res.output and "state.n" in res.output


def test_preprocess_grid_n_mismatch_fails_before_regridding(runner, tmp_path, monkeypatch):
    manifest = _write_manifest(tmp_path, dict(MANIFEST, preprocess={"grid_n": 64}))
    sim = tmp_path / "sim"
    res = runner.invoke(main, ["simulate", "--manifest", manifest, "--out", str(sim)])
    assert res.exit_code == 0, res.output

    def no_regrid(grid, cfg):
        raise AssertionError("regridded a configuration that cannot run")

    monkeypatch.setattr(pl, "preprocess_grid", no_regrid)
    res = runner.invoke(main, [
        "preprocess", "--manifest", manifest,
        "--measurements", str(sim / "measurements.json"), "--out", str(tmp_path / "pre"),
    ])
    assert res.exit_code == EXIT_BAD_CONFIG, res.output
    assert "grid_n" in res.output and "state.n" in res.output


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
