"""Command-line interface.

Subcommands: ``simulate``, ``preprocess``, ``retrieve``, ``analyze``,
``pipeline``.  All grid files use the Grid JSON format; manifests are JSON.
Every command maps errors to the same exit codes: 2 invalid configuration,
missing input or memory exhaustion, 3 retrieval produced non-finite values,
4 phase fit failed (also when more than 20% of the Monte Carlo trials fail).
"""

import dataclasses
import json
import shutil
import sys
import tempfile
from contextlib import contextmanager, suppress
from functools import partial
from pathlib import Path

import click

from . import pipeline as pl
from .analysis import FitError
from .grids import ComplexGrid2D, IntensityGrid2D, grid_from_json, grid_to_json, load_grid, naming_file, save_grid
from .grids import write_json
from .retrieve import PLANES, MeasurementSet, RetrievalConfig, RetrievalError, run_retrieval
from .units import FS_PER_PS

EXIT_BAD_CONFIG = 2
EXIT_RETRIEVAL_NAN = 3
EXIT_FIT_FAILED = 4


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextmanager
def _exit_codes():
    """Every command runs inside this: an error ends the command with an
    ``error:`` line and its documented exit code, not a traceback."""
    try:
        yield
    except RetrievalError as exc:
        _fail(EXIT_RETRIEVAL_NAN, exc)
    except FitError as exc:
        _fail(EXIT_FIT_FAILED, exc)
    except (ValueError, TypeError, OSError) as exc:
        _fail(EXIT_BAD_CONFIG, exc)
    except MemoryError as exc:  # a grid too large for this machine
        _fail(EXIT_BAD_CONFIG, str(exc) or "out of memory")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _load_manifest(path, seed=None):
    """The manifest and its parsed config.  ``--seed`` replaces the seed of an
    object manifest before it is parsed; any other manifest fails with the
    loader's message."""
    manifest = _load_json(path)
    if seed is not None and isinstance(manifest, dict):
        manifest["seed"] = seed
    return manifest, pl.PipelineConfig.from_manifest(manifest)


def _write_grid(path, grid, manifest_echo=None):
    save_grid(path, grid, None if manifest_echo is None else {"manifest": manifest_echo})


def _write_planes(out_dir, m, index_name, suffix="", manifest_echo=None):
    """Write the four planes of ``m`` to ``out_dir`` and an index file that
    maps ``i_<plane>`` to each file name; returns the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for plane, grid in m.grids().items():
        files[f"i_{plane}"] = name = f"i_{plane}{suffix}.json"
        _write_grid(out / name, grid, manifest_echo)
    write_json(out / index_name, files)
    return out


def _load_measurement_set(index_path):
    """Load the four intensity planes named by an index file; relative names
    are taken from the index file's directory."""
    index = _load_json(index_path)
    with naming_file(index_path, "measurements file"):
        paths = {key: Path(index_path).parent / index[key] for key in (f"i_{plane}" for plane in PLANES)}
    planes = {key: load_grid(path) for key, path in paths.items()}
    for key, grid in planes.items():
        with naming_file(paths[key]):
            if not isinstance(grid, IntensityGrid2D):
                raise TypeError(f"{key} must be an intensity grid, not complex")
    return MeasurementSet(**planes)


def _in_units(value, units, degree=2):
    """A value in fs^degree, converted to ps^degree under ``--units ps2``."""
    return value / FS_PER_PS**degree if units == "ps2" else value


def _result_doc(result, seed):
    return {
        "jsa": grid_to_json(result.jsa),
        "error_history": result.error_history_ww.tolist(),
        "error_final_tt": result.error_final_tt,
        "seed": seed,
        "iterations_run": result.iterations_run,
    }


def _analysis_doc(fit, witness, units, monte_carlo=None):
    """``analysis.json``: the phase fit in ``units``, the witness and, given
    ``run_pipeline``'s (stddevs, trial values), the Monte Carlo spread."""
    doc = {
        "phase_fit": {
            "chirp_s": _in_units(fit.chirp_s, units),
            "chirp_i": _in_units(fit.chirp_i, units),
            "cross_term": _in_units(fit.cross_term, units),
            "residual_rms": fit.residual_rms,
            "mask_pixel_count": fit.mask_pixel_count,
            "units": units,
            "coefficients": {
                f"{a},{b}": _in_units(c, units, a + b) for (a, b), c in fit.coefficients.items()
            },
        },
        "witness": dataclasses.asdict(witness),
    }
    if monte_carlo is not None:
        sd, trials = monte_carlo
        doc["monte_carlo"] = {
            "stddev": {k: _in_units(v, units) for k, v in sd.items()},
            "trials": {k: [_in_units(v, units) for v in vs] for k, vs in trials.items()},
        }
    return doc


def _summary(result=None, fit=None, witness=None, units="fs2"):
    """``report.txt``'s summary lines for the given retrieval result, phase fit (in ``units``) and witness."""
    lines = []
    if result is not None:
        lines += [f"final error ww: {result.error_history_ww[-1]:.6%}", f"final error tt: {result.error_final_tt:.6%}"]
    if fit is not None:
        lines += [f"fitted chirp_{x}: {_in_units(getattr(fit, f'chirp_{x}'), units):.6g} {units}" for x in "si"]
    if witness is not None:
        lines.append(f"witness product: {witness.product:.6g} (entangled: {witness.entangled})")
    return lines


@click.group()
def main():
    """Joint-spectral-amplitude reconstruction for energy-time entangled
    photon pairs."""


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="override the manifest seed")
@click.option("--verbose", is_flag=True)
@_exit_codes()
def simulate(manifest_path, out_dir, seed, verbose):
    """Write the four raw measurement grids and the ground-truth state."""
    manifest, cfg = _load_manifest(manifest_path, seed)
    raw, truth = pl.simulate(cfg)
    out = _write_planes(out_dir, raw, "measurements.json", manifest_echo=manifest)
    _write_grid(out / "truth.json", truth, manifest_echo=manifest)
    if verbose:
        click.echo(f"wrote 6 files to {out}")


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--measurements", "measurements_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--verbose", is_flag=True)
@_exit_codes()
def preprocess(manifest_path, measurements_path, out_dir, verbose):
    """Deconvolve raw measurement grids into retrieval constraints."""
    _, cfg = _load_manifest(manifest_path)
    clean = pl.preprocess_set(_load_measurement_set(measurements_path), cfg)
    out = _write_planes(out_dir, clean, "constraints.json", suffix="_deconvolved")
    if verbose:
        click.echo(f"wrote constraints to {out}")


def _parse_mask(mask):
    """'wwtt' -> ['ww', 'tt']; ``RetrievalConfig`` checks the plane names."""
    if len(mask) % 2:
        raise ValueError(f"mask {mask!r} has odd length; planes are two letters each")
    return [mask[i : i + 2] for i in range(0, len(mask), 2)]


@main.command()
@click.option("--measurements", "measurements_path", required=True, type=click.Path(exists=True))
@click.option("--iterations", type=int, default=RetrievalConfig.iterations, show_default=True)
@click.option("--seed", type=int, default=RetrievalConfig.seed, show_default=True)
@click.option("--mask", default="".join(PLANES), show_default=True, help="active planes, e.g. wwtt")
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes()
def retrieve(measurements_path, iterations, seed, mask, out_path):
    """Run the alternating-projection phase retrieval from a random phase."""
    cfg = RetrievalConfig(iterations=iterations, seed=seed, constraint_mask=_parse_mask(mask))
    result = run_retrieval(_load_measurement_set(measurements_path), cfg)
    write_json(out_path, _result_doc(result, seed))
    click.echo("\n".join(_summary(result)))


@main.command()
@click.option("--result", "result_path", required=True, type=click.Path(exists=True))
@click.option("--measurements", "measurements_path", required=True, type=click.Path(exists=True))
@click.option("--mask-sigma", type=float, default=pl.AnalysisConfig.mask_sigma, show_default=True)
@click.option("--units", type=click.Choice(["fs2", "ps2"]), default="fs2", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes()
def analyze(result_path, measurements_path, mask_sigma, units, out_path):
    """Fit the retrieved phase and evaluate the entanglement witness."""
    cfg = pl.AnalysisConfig(mask_sigma=mask_sigma)
    result_doc = _load_json(result_path)
    with naming_file(result_path, "result file"):
        jsa = grid_from_json(result_doc["jsa"])
        if not isinstance(jsa, ComplexGrid2D):
            raise TypeError("jsa must be a complex grid, not intensity")
    fit, witness = pl.analyze(jsa, _load_measurement_set(measurements_path), cfg)
    write_json(out_path, _analysis_doc(fit, witness, units), indent=2)
    click.echo("\n".join(_summary(fit=fit, witness=witness, units=units)))


@contextmanager
def _published(out):
    """A staging directory inside ``out``: its files move into ``out`` when
    the block succeeds.  When the block raises, neither they nor an ``out``
    made here is left."""
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        yield staging
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        if made:
            with suppress(OSError):  # left if something else was written there meanwhile
                out.rmdir()
        raise
    for path in sorted(staging.iterdir()):
        path.replace(out / path.name)
    staging.rmdir()


def _write_nominal(out, retrieval_seed, nominal):
    """``result.json`` and the five CSVs of the nominal run."""
    write_json(out / "result.json", _result_doc(nominal.result, retrieval_seed))
    for key, grid in nominal.constraints.grids().items():
        pl.grid_to_csv(grid, out / f"constraint_{key}.csv")
    pl.grid_to_csv(nominal.result.jsa.intensity(), out / "reconstructed_ww_intensity.csv")


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--units", type=click.Choice(["fs2", "ps2"]), default="fs2", show_default=True)
@click.option("--verbose", is_flag=True)
@_exit_codes()
def pipeline(manifest_path, out_dir, seed, units, verbose):
    """Run simulate -> preprocess -> retrieve -> analyze end to end."""
    _, cfg = _load_manifest(manifest_path, seed)
    # the nominal files are written while the Monte Carlo trials run, and
    # every file reaches --out only once the run has succeeded
    with _published(Path(out_dir)) as staging:
        output = pl.run_pipeline(cfg, meanwhile=partial(_write_nominal, staging, cfg.retrieval.seed))
        write_json(staging / "analysis.json", _analysis_doc(output.fit, output.witness, units, output.monte_carlo),
                   indent=2)
        lines = _summary(output.result, output.fit, output.witness, units)
        lines += [f"time {k}: {v:.3f} s" for k, v in output.timings.items()]
        (staging / "report.txt").write_text("\n".join(lines) + "\n")
    if verbose:
        click.echo("\n".join(lines))


if __name__ == "__main__":
    main()
