"""Command-line interface.

Subcommands: ``simulate``, ``preprocess``, ``retrieve``, ``analyze``,
``pipeline``.  All grid files use the Grid JSON format; manifests are JSON.
Exit codes: 2 invalid configuration or missing input, 3 retrieval produced
non-finite values, 4 phase fit failed.
"""

import json
import sys
from pathlib import Path

import click

from . import pipeline as pl
from .analysis import FitError, fit_retrieved_phase, monte_carlo_uncertainty, tbp_numeric
from .grids import grid_from_json, grid_to_json, load_grid
from .retrieve import (
    MeasurementSet,
    RetrievalConfig,
    RetrievalError,
    run_retrieval,
)
from .units import FS2_PER_PS2

EXIT_BAD_CONFIG = 2
EXIT_RETRIEVAL_NAN = 3
EXIT_FIT_FAILED = 4

PLANE_KEYS = ("i_ww", "i_wt", "i_tw", "i_tt")


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_manifest(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_BAD_CONFIG, f"cannot read manifest {path}: {exc}")


def _write_grid(path, grid, manifest_echo=None):
    doc = grid_to_json(grid)
    if manifest_echo is not None:
        doc["manifest"] = manifest_echo
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _load_measurement_set(measurements_path):
    """Load the four constraint grids from a measurements manifest."""
    mdir = Path(measurements_path).parent
    doc = _load_manifest(measurements_path)
    grids = {}
    for key in PLANE_KEYS:
        if key not in doc:
            _fail(EXIT_BAD_CONFIG, f"measurements manifest is missing {key!r}")
        p = Path(doc[key])
        if not p.is_absolute():
            p = mdir / p
        if not p.exists():
            _fail(EXIT_BAD_CONFIG, f"measurement file {p} does not exist")
        grids[key] = load_grid(p)
    try:
        return MeasurementSet(**grids)
    except ValueError as exc:
        _fail(EXIT_BAD_CONFIG, f"inconsistent measurement set: {exc}")


def _chirp_in_units(value_fs2, units):
    return value_fs2 / FS2_PER_PS2 if units == "ps2" else value_fs2


@click.group()
def main():
    """Joint-spectral-amplitude reconstruction for energy-time entangled
    photon pairs."""


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="override the manifest seed")
@click.option("--verbose", is_flag=True)
def simulate(manifest_path, out_dir, seed, verbose):
    """Write the four raw measurement grids and the ground-truth state."""
    manifest = _load_manifest(manifest_path)
    if seed is not None:
        manifest["seed"] = seed
    try:
        cfg = pl.PipelineConfig.from_manifest(manifest)
        raw, truth = pl.simulate(cfg)
    except (ValueError, TypeError, OSError) as exc:
        _fail(EXIT_BAD_CONFIG, str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for key, grid in zip(PLANE_KEYS, (raw.i_ww, raw.i_wt, raw.i_tw, raw.i_tt)):
        name = f"{key}.json"
        _write_grid(out / name, grid, manifest_echo=manifest)
        files[key] = name
    _write_grid(out / "truth.json", truth, manifest_echo=manifest)
    with open(out / "measurements.json", "w") as fh:
        json.dump(files, fh)
    if raw.coverage_warning:
        click.echo("warning: gated signal is not negligible at the delay-axis edge", err=True)
    if verbose:
        click.echo(f"wrote {len(files) + 2} files to {out}")


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--measurements", "measurements_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--verbose", is_flag=True)
def preprocess(manifest_path, measurements_path, out_dir, verbose):
    """Deconvolve raw measurement grids into retrieval constraints."""
    manifest = _load_manifest(manifest_path)
    m = _load_measurement_set(measurements_path)
    try:
        cfg = pl.PipelineConfig.from_manifest(manifest)
        clean = pl.preprocess_set(m, cfg)
    except (ValueError, TypeError) as exc:
        _fail(EXIT_BAD_CONFIG, str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for key, grid in zip(PLANE_KEYS, (clean.i_ww, clean.i_wt, clean.i_tw, clean.i_tt)):
        name = f"{key}_deconvolved.json"
        _write_grid(out / name, grid)
        files[key] = name
    with open(out / "constraints.json", "w") as fh:
        json.dump(files, fh)
    if verbose:
        click.echo(f"wrote constraints to {out}")


def _parse_mask(mask):
    """'wwtt' -> {'ww', 'tt'}; plane names are two letters, each given once."""
    if len(mask) % 2:
        raise ValueError(f"mask {mask!r} has odd length; planes are two letters each")
    planes = [mask[i : i + 2] for i in range(0, len(mask), 2)]
    if len(set(planes)) != len(planes):
        raise ValueError(f"mask {mask!r} names a plane more than once")
    return frozenset(planes)


@main.command()
@click.option("--measurements", "measurements_path", required=True, type=click.Path(exists=True))
@click.option("--iterations", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--mask", default="wwwttwtt", show_default=True, help="active planes, e.g. wwtt")
@click.option("--init", default="random_phase", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def retrieve(measurements_path, iterations, seed, mask, init, out_path):
    """Run the alternating-projection phase retrieval."""
    m = _load_measurement_set(measurements_path)
    try:
        cfg = RetrievalConfig(
            iterations=iterations, seed=seed, init=init, constraint_mask=_parse_mask(mask)
        )
    except ValueError as exc:
        _fail(EXIT_BAD_CONFIG, str(exc))
    try:
        result = run_retrieval(m, cfg)
    except RetrievalError as exc:
        _fail(EXIT_RETRIEVAL_NAN, str(exc))
    doc = {
        "jsa": grid_to_json(result.jsa),
        "error_history": result.error_history_ww.tolist(),
        "error_final_tt": result.error_final_tt,
        "seed": result.seed,
        "iterations_run": result.iterations_run,
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    click.echo(
        f"final errors: ww {result.error_history_ww[-1]:.4%}, tt {result.error_final_tt:.4%}"
    )


@main.command()
@click.option("--result", "result_path", required=True, type=click.Path(exists=True))
@click.option("--measurements", "measurements_path", required=True, type=click.Path(exists=True))
@click.option("--fit-order", type=int, default=3, show_default=True)
@click.option("--mask-sigma", type=float, default=2.0, show_default=True)
@click.option("--units", type=click.Choice(["fs2", "ps2"]), default="fs2", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def analyze(result_path, measurements_path, fit_order, mask_sigma, units, out_path):
    """Fit the retrieved phase and evaluate the entanglement witness."""
    if fit_order != 3:
        _fail(EXIT_BAD_CONFIG, "only fit order 3 is supported")
    doc = _load_manifest(result_path)
    try:
        jsa = grid_from_json(doc["jsa"])
    except (KeyError, ValueError) as exc:
        _fail(EXIT_BAD_CONFIG, f"bad result file: {exc}")
    m = _load_measurement_set(measurements_path)
    try:
        fit = fit_retrieved_phase(jsa, mask_sigma)
    except FitError as exc:
        _fail(EXIT_FIT_FAILED, str(exc))
    witness = tbp_numeric(m.i_ww, m.i_tt)
    out = {
        "phase_fit": {
            "chirp_s": _chirp_in_units(fit.chirp_s, units),
            "chirp_i": _chirp_in_units(fit.chirp_i, units),
            "cross_term": fit.cross_term,
            "residual_rms": fit.residual_rms,
            "mask_pixel_count": fit.mask_pixel_count,
            "units": units,
            "coefficients": {f"{a},{b}": c for (a, b), c in fit.coefficients.items()},
        },
        "witness": {
            "sigma_sum_freq": witness.sigma_sum_freq,
            "sigma_diff_time": witness.sigma_diff_time,
            "product": witness.product,
            "entangled": witness.entangled,
        },
    }
    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=2)
    click.echo(
        f"chirp_s {out['phase_fit']['chirp_s']:.4g} {units}, "
        f"chirp_i {out['phase_fit']['chirp_i']:.4g} {units}, "
        f"witness product {witness.product:.4g}"
    )


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--units", type=click.Choice(["fs2", "ps2"]), default="fs2", show_default=True)
@click.option("--verbose", is_flag=True)
def pipeline(manifest_path, out_dir, seed, units, verbose):
    """Run simulate -> preprocess -> retrieve -> analyze end to end."""
    manifest = _load_manifest(manifest_path)
    if seed is not None:
        manifest["seed"] = seed
    try:
        cfg = pl.PipelineConfig.from_manifest(manifest)
    except (ValueError, TypeError) as exc:
        _fail(EXIT_BAD_CONFIG, str(exc))
    try:
        output = pl.run_pipeline(cfg)
    except RetrievalError as exc:
        _fail(EXIT_RETRIEVAL_NAN, str(exc))
    except FitError as exc:
        _fail(EXIT_FIT_FAILED, str(exc))
    except (ValueError, OSError) as exc:
        _fail(EXIT_BAD_CONFIG, str(exc))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result_doc = {
        "jsa": grid_to_json(output.result.jsa),
        "error_history": output.result.error_history_ww.tolist(),
        "error_final_tt": output.result.error_final_tt,
        "seed": output.result.seed,
        "iterations_run": output.result.iterations_run,
    }
    with open(out / "result.json", "w") as fh:
        json.dump(result_doc, fh)
    analysis_doc = {
        "phase_fit": {
            "chirp_s": _chirp_in_units(output.fit.chirp_s, units),
            "chirp_i": _chirp_in_units(output.fit.chirp_i, units),
            "units": units,
            "residual_rms": output.fit.residual_rms,
            "mask_pixel_count": output.fit.mask_pixel_count,
        },
        "witness": {
            "sigma_sum_freq": output.witness.sigma_sum_freq,
            "sigma_diff_time": output.witness.sigma_diff_time,
            "product": output.witness.product,
            "entangled": output.witness.entangled,
        },
    }
    if cfg.analysis.monte_carlo_trials >= 2:
        sd, trials = monte_carlo_uncertainty(
            output.raw, cfg, cfg.analysis.monte_carlo_trials,
            cfg.analysis.monte_carlo_peak_counts, cfg.seed,
        )
        analysis_doc["monte_carlo"] = {
            "stddev": {k: _chirp_in_units(v, units) for k, v in sd.items()},
            "trials": {k: [_chirp_in_units(v, units) for v in vs] for k, vs in trials.items()},
        }
    with open(out / "analysis.json", "w") as fh:
        json.dump(analysis_doc, fh, indent=2)

    for key, grid in output.constraints.grids().items():
        pl.grid_to_csv(grid, out / f"constraint_{key}.csv")
    pl.grid_to_csv(output.result.jsa.intensity(), out / "reconstructed_ww_intensity.csv")

    err_ww = output.result.error_history_ww[-1]
    lines = [
        f"final error ww: {err_ww:.6%}",
        f"final error tt: {output.result.error_final_tt:.6%}",
        f"fitted chirp_s: {_chirp_in_units(output.fit.chirp_s, units):.6g} {units}",
        f"fitted chirp_i: {_chirp_in_units(output.fit.chirp_i, units):.6g} {units}",
        f"witness product: {output.witness.product:.6g} "
        f"(entangled: {output.witness.entangled})",
    ]
    lines += [f"time {k}: {v:.3f} s" for k, v in output.timings.items()]
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    if verbose:
        click.echo("\n".join(lines))


if __name__ == "__main__":
    main()
