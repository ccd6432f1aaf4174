"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: the program's public
functions are wrapped at every module attribute that names them (for
example ``biphoton.retrieve.transform_photon`` as well as
``biphoton.grids.transform_photon``), so calls that one module makes into
another are timed without changing the program.  Spans live in memory and
are written out when the run ends.
"""

import functools
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# module -> public functions wrapped in the traced run ("Class.method" for methods)
TRACED = {
    "grids": ("transform_photon", "grid_to_json", "grid_from_json", "load_grid"),
    "synth": ("synthesize_state", "gaussian_jsa", "apply_chirp"),
    "gating": (
        "simulate_measurements", "gate_spectrum", "delta_k", "phase_match", "poissonize",
        "RefractiveModel.tuned_for",
    ),
    "preprocess": ("preprocess_grid", "corner_suppress", "wiener_deconvolve"),
    "retrieve": ("run_retrieval", "project_magnitude", "frog_error"),
    "analysis": (
        "fit_retrieved_phase", "sigma_mask", "unwrap_phase_2d", "fit_phase_poly", "tbp_numeric",
        "monte_carlo_uncertainty",
    ),
    "pipeline": ("run_pipeline", "simulate", "preprocess_set", "retrieve_and_fit", "grid_to_csv"),
    # The CLI writes every grid file through _write_grid (grid_to_json + json.dump),
    # the work grids.save_grid does; it is the only way to time those writes.
    "cli": ("_write_grid",),
}

# The gate-kernel builders: called from simulate_measurements (through the
# private _gate_kernel) and, for delta_k, from RefractiveModel.tuned_for.
KERNEL = ("gating.gate_spectrum", "gating.delta_k", "gating.phase_match")

ITERS_TOL = 1e-3  # ww FROG error that counts as converged for iters_to_tol
CLI_COMMANDS = ("pipeline", "simulate", "preprocess", "retrieve", "analyze")
MODULES = tuple(TRACED)

NAME, START, END, PARENT, PASS, NOTE = range(6)


def iters_to_tol(history, tol=ITERS_TOL):
    """First iteration (1-based) whose ww error is <= tol; len(history) if none."""
    for k, err in enumerate(history):
        if err <= tol:
            return k + 1
    return len(history)


def _note_retrieval(args, kwargs, result):
    return {"iterations": result.iterations_run, "iters_to_tol": iters_to_tol(result.error_history_ww)}


def _note_pipeline(args, kwargs, result):
    return dict(result.timings)


def _note_monte_carlo(fn):
    signature = inspect.signature(fn)

    def note(args, kwargs, result):
        trials = signature.bind(*args, **kwargs).arguments["trials"]
        _, values = result
        return {"failed": trials - min(len(v) for v in values.values())}

    return note


class Tracer:
    """In-memory span list.  Each span is [name, start, end, parent, pass, note];
    parent is the index of the enclosing span (-1 for a root) and pass the
    benchmark pass it belongs to (-1 for set-up), which groups the spans of
    one pass under one identifier."""

    def __init__(self):
        self.spans = []
        self.pass_id = -1
        self._stack = []
        self._installed = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pass_id, None])
        self._stack.append(index)
        return self.spans[index]

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name, fn, note=None, measure_alloc=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                if not measure_alloc:
                    result = fn(*args, **kwargs)
                else:
                    tracemalloc.start()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                    record[NOTE] = {"peak_alloc_mb": peak / 1e6}
                if note is not None:
                    try:
                        record[NOTE] = note(args, kwargs, result)
                    except Exception as exc:  # noqa: BLE001 - a note must never fail the call
                        record[NOTE] = {"note_error": repr(exc)}
                return result
            finally:
                self._close(record)

        return traced

    def install(self):
        """Replace every traced function at each biphoton module attribute that
        refers to it; uninstall() puts the originals back.  A function the
        program no longer has is skipped, and its metrics read 0."""
        if self._installed:
            raise RuntimeError("wrappers already installed")
        program = [m for n, m in sys.modules.items() if n == "biphoton" or n.startswith("biphoton.")]
        for module_name, names in TRACED.items():
            module = sys.modules[f"biphoton.{module_name}"]
            for qualified in names:
                owner_name, _, attr = qualified.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    continue
                span_name = f"{module_name}.{attr}"
                note = None
                if span_name == "retrieve.run_retrieval":
                    note = _note_retrieval
                elif span_name == "pipeline.run_pipeline":
                    note = _note_pipeline
                elif span_name == "analysis.monte_carlo_uncertainty":
                    note = _note_monte_carlo(original)
                wrapper = self.wrap(
                    span_name, original, note,
                    measure_alloc=span_name == "gating.simulate_measurements",
                )
                if owner_name:
                    self._replace(owner, attr, original, wrapper)
                    continue
                for mod in program:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        installed = bool(self._installed)
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install()

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass", "note"], "spans": self.spans}, fh)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer, untraced_pass_s, traced_pass_s, json_mb_per_pass):
    """Per-layer metrics from the recorded spans.

    ``<fn>.us|ms|s`` is the mean duration of one call (set-up calls included);
    ``.calls``, ``.self_s`` and ``gating.kernel.*`` are per traced pass.  A
    layer a workload does not exercise reads 0.
    """
    spans = tracer.spans
    n_pass = len(traced_pass_s)
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name[name]]

    def per_call(name, scale):
        return _mean(durations(name)) * scale

    def calls(name):
        return sum(1 for i in by_name[name] if spans[i][PASS] >= 0) / n_pass

    def notes(name, key):
        return [spans[i][NOTE][key] for i in by_name[name] if key in (spans[i][NOTE] or {})]

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    retrieval = by_name["retrieve.run_retrieval"]
    retrieve_s = sum(durations("retrieve.run_retrieval"))
    iterations = notes("retrieve.run_retrieval", "iterations")
    to_tol = notes("retrieve.run_retrieval", "iters_to_tol")
    put("retrieve.run_retrieval.ms_per_iter", 1e3 * retrieve_s / sum(iterations) if iterations else 0.0, "ms")
    put("retrieve.run_retrieval.calls", calls("retrieve.run_retrieval"), "count")
    retrieve_self = sum(spans[i][END] - spans[i][START] - child[i] for i in retrieval)
    put("retrieve.self_frac", retrieve_self / retrieve_s if retrieve_s else 0.0, "ratio")
    put("retrieve.iters_to_tol", statistics.median(to_tol) if to_tol else 0.0, "count")
    put("retrieve.useful_iter_frac", sum(to_tol) / sum(iterations) if iterations else 0.0, "ratio")
    for name in ("retrieve.project_magnitude", "retrieve.frog_error", "grids.transform_photon"):
        put(f"{name}.us", per_call(name, 1e6), "us")
        put(f"{name}.calls", calls(name), "count")

    simulate = "gating.simulate_measurements"
    put(f"{simulate}.s", per_call(simulate, 1.0), "s")
    put(f"{simulate}.calls", calls(simulate), "count")
    peaks = notes(simulate, "peak_alloc_mb")
    put(f"{simulate}.peak_alloc_mb", max(peaks) if peaks else 0.0, "MB")
    kernel = [
        i for name in KERNEL for i in by_name[name]
        if spans[i][PASS] >= 0 and spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == simulate
    ]
    put("gating.kernel.s", sum(spans[i][END] - spans[i][START] for i in kernel) / n_pass, "s")
    put("gating.kernel.calls", len(kernel) / n_pass, "count")
    put("gating.gate_spectrum.calls", calls("gating.gate_spectrum"), "count")
    put("gating.poissonize.ms", per_call("gating.poissonize", 1e3), "ms")
    put("gating.poissonize.calls", calls("gating.poissonize"), "count")
    put("gating.tuned_for.ms", per_call("gating.tuned_for", 1e3), "ms")

    put("preprocess.preprocess_grid.ms", per_call("preprocess.preprocess_grid", 1e3), "ms")
    put("preprocess.preprocess_grid.calls", calls("preprocess.preprocess_grid"), "count")
    put("preprocess.wiener_deconvolve.ms", per_call("preprocess.wiener_deconvolve", 1e3), "ms")

    put("analysis.monte_carlo_uncertainty.s", per_call("analysis.monte_carlo_uncertainty", 1.0), "s")
    put("analysis.mc_trials_failed", sum(notes("analysis.monte_carlo_uncertainty", "failed")), "count")
    put("analysis.fit_retrieved_phase.ms", per_call("analysis.fit_retrieved_phase", 1e3), "ms")
    put("analysis.fit_retrieved_phase.calls", calls("analysis.fit_retrieved_phase"), "count")
    put("analysis.unwrap_phase_2d.ms", per_call("analysis.unwrap_phase_2d", 1e3), "ms")
    put("analysis.tbp_numeric.ms", per_call("analysis.tbp_numeric", 1e3), "ms")
    put("synth.synthesize_state.ms", per_call("synth.synthesize_state", 1e3), "ms")

    put("grids.save_grid.ms", per_call("cli._write_grid", 1e3), "ms")
    put("grids.load_grid.ms", per_call("grids.load_grid", 1e3), "ms")
    put("grids.json_mb_written", json_mb_per_pass, "MB")
    for command in CLI_COMMANDS:
        put(f"cli.{command}.s", per_call(f"cli.{command}", 1.0), "s")
    for stage in ("simulate", "preprocess", "retrieve", "analyze"):
        put(f"pipeline.{stage}.s", _mean(notes("pipeline.run_pipeline", stage)), "s")

    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        if s[PASS] >= 0:
            self_s[s[NAME].split(".", 1)[0]] += s[END] - s[START] - child[i]
    for module in MODULES:
        put(f"{module}.self_s", self_s[module] / n_pass, "s")

    put(
        "trace.overhead_frac",
        statistics.median(traced_pass_s) / statistics.median(untraced_pass_s) - 1.0,
        "ratio",
    )
    return metrics
