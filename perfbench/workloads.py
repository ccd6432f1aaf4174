"""Workload side of the benchmark; each invocation is a fresh interpreter.

    python3 perfbench/workloads.py setup --workload NAME --seed N
    python3 perfbench/workloads.py run --workload NAME --seed N --seconds S --trace 0|1 --out DIR

``setup`` times the imports and input synthesis alone.  ``run`` sets up,
warms the FFT plan caches with a short untimed retrieval, then repeats the
workload's pass until the next pass would overrun ``--seconds``.  Pass k
draws its random starts (and, for the CLI workload, its noise) from
SeedSequence([seed, k]), so every pass does the same amount of work and the
same seed always gives the same inputs (the ideal workload uses fixed starts;
see ideal_pass).  With ``--trace 1`` every second
pass runs with the span wrappers installed and the others run bare, which
gives the tracing overhead.  Both commands print one JSON record as the
last line of standard output.

The program is always called through module attributes
(``bp.retrieve.run_retrieval``) so that the traced run's wrappers apply.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types
from contextlib import contextmanager, nullcontext
from pathlib import Path

from tracing import Tracer, iters_to_tol, layer_metrics

clock = time.perf_counter

WORKLOADS = ("ideal_multistart_n128", "gated_sweep_n256", "noisy_cli_mc_n64")
SIGNAL_NM, IDLER_NM, GATE_NM = 823.0, 732.0, 775.0


def _import_program():
    import numpy as np

    from biphoton import analysis, cli, gating, grids, pipeline, preprocess, retrieve, synth, units

    return types.SimpleNamespace(
        np=np, analysis=analysis, cli=cli, gating=gating, grids=grids, pipeline=pipeline,
        preprocess=preprocess, retrieve=retrieve, synth=synth, units=units,
    )


def pass_seeds(bp, seed, k, count):
    return [int(s) for s in bp.np.random.SeedSequence([seed, k]).generate_state(count)]


def chirp_err_rel(fit_s, fit_i, truth):
    """|fitted - applied| / |applied| over the (chirp_s, chirp_i) vector."""
    return math.hypot(fit_s - truth[0], fit_i - truth[1]) / math.hypot(*truth)


class Tally:
    """Operations attempted and failed.  A failed check or an exception inside
    ``op`` fails that operation once and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    @contextmanager
    def op(self, name):
        problems = []
        self.attempted += 1
        try:
            yield problems
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: {'; '.join(problems)}")


class Samples:
    """What the passes measure besides their own duration."""

    def __init__(self):
        self.recon_s = []
        self.retrieve_s = []
        self.iterations = []
        self.iters_to_tol = []
        self.chirp_err = []
        self.final_err_ww = []
        self.json_mb = []

    def retrieval(self, seconds, history):
        self.retrieve_s.append(seconds)
        self.iterations.append(len(history))
        self.iters_to_tol.append(iters_to_tol(history))
        self.final_err_ww.append(float(history[-1]))


# --------------------------------------------------------------------------
# set-up: imports, state synthesis, phase-matching angle


def setup(workload, seed, work_dir, tracer=None):
    bp = _import_program()
    ctx = types.SimpleNamespace(workload=workload, seed=seed)
    if tracer is not None:
        tracer.install()
    with tracer.span("bench.setup") if tracer is not None else nullcontext():
        if workload == "ideal_multistart_n128":
            p = bp.synth.GaussianStateParams(rho=-0.9, chirp_s=-36000.0, chirp_i=-43000.0)
            ctx.n, ctx.truth = 128, (p.chirp_s, p.chirp_i)
            ctx.state = bp.synth.synthesize_state(p, n=ctx.n, span_sigmas=8)
        elif workload == "gated_sweep_n256":
            to_omega = bp.units.wavelength_to_omega
            center_s, center_i, center_g = to_omega(SIGNAL_NM), to_omega(IDLER_NM), to_omega(GATE_NM)
            p = bp.synth.GaussianStateParams(
                rho=-0.9, chirp_s=5000.0, chirp_i=40000.0, center_s=center_s, center_i=center_i,
            )
            ctx.n, ctx.truth = 256, (p.chirp_s, p.chirp_i)
            ctx.state = bp.synth.synthesize_state(p, n=ctx.n, span_sigmas=8)
            ctx.gate = bp.gating.GatePulse(center=center_g, sigma=1.0 / 100.0)
            ctx.refractive = bp.gating.RefractiveModel.default().tuned_for(center_s, center_g)
            ctx.cfg = bp.pipeline.PipelineConfig(
                state=bp.pipeline.StateConfig(params=p, n=ctx.n),
                gating=bp.pipeline.GatingConfig(gate_center=center_g, gate_sigma=ctx.gate.sigma),
                preprocess=bp.preprocess.PreprocessConfig(
                    alpha=1e-6, rho_lp=1.0, grid_n=ctx.n, allow_out_of_range=True,
                ),
            )
        else:
            # The CLI synthesizes the state inside its commands; set-up writes the manifest.
            to_omega = bp.units.wavelength_to_omega
            ctx.n, ctx.truth, ctx.trials = 64, (-10000.0, -12000.0), 16
            manifest = {
                "seed": seed,
                "state": {
                    "rho": -0.9, "chirp_s": ctx.truth[0], "chirp_i": ctx.truth[1], "n": ctx.n,
                    "center_s": to_omega(SIGNAL_NM), "center_i": to_omega(IDLER_NM),
                },
                "gating": {
                    "gate": {"center": to_omega(GATE_NM), "sigma": 1.0 / (2 * 130.0)},
                    "crystal_length_um": 0.0,
                },
                "preprocess": {"grid_n": ctx.n, "alpha": 0.1, "rho_lp": 0.9},
                "retrieval": {"iterations": 200},
                "analysis": {"mask_sigma": 2.0, "monte_carlo": {"trials": ctx.trials, "peak_counts": 1e4}},
                "noise": {"poisson_peak_counts": 1e4},
            }
            ctx.work = Path(work_dir)
            ctx.work.mkdir(parents=True, exist_ok=True)
            ctx.manifest = ctx.work / "manifest.json"
            ctx.manifest.write_text(json.dumps(manifest))
    if tracer is not None:
        tracer.uninstall()
    return bp, ctx


def warm_up(bp, ctx):
    """Untimed: one short retrieval at the workload's n fills the FFT plan
    caches; gated workloads also build a tiny gated measurement so LAPACK and
    scipy are initialised.  The large gated stacks are not touched here, so
    their first touch is paid inside the first timed pass."""
    p = bp.synth.GaussianStateParams()
    state = bp.synth.synthesize_state(p, n=ctx.n)
    m = bp.gating.simulate_measurements(state, bp.gating.GatingModel(gate=None))
    bp.retrieve.run_retrieval(m, bp.retrieve.RetrievalConfig(iterations=2))
    if ctx.workload != "ideal_multistart_n128":
        small = bp.synth.synthesize_state(p, n=16)
        gate = bp.gating.GatePulse(center=bp.units.wavelength_to_omega(GATE_NM), sigma=1.0 / 100.0)
        bp.gating.simulate_measurements(small, bp.gating.GatingModel(gate=gate, upconverted_grid_count=64))


# --------------------------------------------------------------------------
# one pass of each workload


def ideal_pass(bp, ctx, k, tally, samples):
    """closed_loop_demo.py: ideal gate, 8 random starts x 300 iterations, each fitted.

    Every pass and every --seed uses the demo's starts 0-7.  The starts are the
    workload's only random input, and their iterations-to-tolerance range from
    40 to 300, so drawing them from the seed made time_to_tol_s differ by ~18%
    (IQR / median) between seeds; with fixed starts every run repeats the same
    reconstructions and only the machine moves the times.
    """
    m = bp.gating.simulate_measurements(ctx.state, bp.gating.GatingModel(gate=None))
    for s in range(8):
        with tally.op(f"pass {k} start {s}") as problems:
            t0 = clock()
            r = bp.retrieve.run_retrieval(m, bp.retrieve.RetrievalConfig(iterations=300, seed=s))
            t1 = clock()
            fit = bp.analysis.fit_retrieved_phase(r.jsa)
            t2 = clock()
            h = r.error_history_ww
            # The ww error of this state is not monotone at the 1e-12 level (steps up to
            # ~4e-4 occur); the check is limited to a finite history that ends lower.
            if not (bp.np.all(bp.np.isfinite(h)) and h[-1] < h[0]):
                problems.append(f"ww error went from {h[0]:.3g} to {h[-1]:.3g}")
            for fitted, applied in ((fit.chirp_s, ctx.truth[0]), (fit.chirp_i, ctx.truth[1])):
                if not (abs(fitted - applied) <= 0.05 * abs(applied) and fitted * applied > 0):
                    problems.append(f"fitted {fitted:.0f} fs^2 for {applied:.0f} fs^2")
            samples.recon_s.append(t2 - t0)
            samples.retrieval(t1 - t0, h)
            samples.chirp_err.append(chirp_err_rel(fit.chirp_s, fit.chirp_i, ctx.truth))


def gated_pass(bp, ctx, k, tally, samples):
    """crystal_length_sweep.py: gated simulate -> preprocess -> 100 iterations -> fit at L = 0, 1000 um."""
    (s,) = pass_seeds(bp, ctx.seed, k, 1)
    offsets = {}
    for length in (0.0, 1000.0):
        with tally.op(f"pass {k} L={length:g}") as problems:
            t0 = clock()
            gm = bp.gating.GatingModel(
                gate=ctx.gate, crystal_length=length,
                refractive=ctx.refractive if length > 0 else None,
            )
            raw = bp.gating.simulate_measurements(ctx.state, gm)
            clean = bp.pipeline.preprocess_set(raw, ctx.cfg)
            t1 = clock()
            r = bp.retrieve.run_retrieval(clean, bp.retrieve.RetrievalConfig(iterations=100, seed=s))
            t2 = clock()
            fit = bp.analysis.fit_retrieved_phase(r.jsa)
            t3 = clock()
            if raw.coverage_warning:
                problems.append("coverage warning")
            offsets[length] = fit.chirp_i - ctx.truth[1]
            samples.recon_s.append(t3 - t0)
            samples.retrieval(t2 - t1, r.error_history_ww)
            if length == 0.0:
                # only L = 0 can recover the applied chirp; L = 1000 um is biased by design
                samples.chirp_err.append(chirp_err_rel(fit.chirp_s, fit.chirp_i, ctx.truth))
                if not abs(offsets[length]) < 0.02 * abs(ctx.truth[1]):
                    problems.append(f"L=0 chirp_i offset {offsets[length]:.0f} fs^2")
    with tally.op(f"pass {k} offset grows with L") as problems:
        if not abs(offsets[1000.0]) > abs(offsets[0.0]):
            problems.append(f"offsets {offsets[0.0]:.0f} -> {offsets[1000.0]:.0f} fs^2")


def _cli(bp, args):
    """One in-process CLI call; returns its exit code."""
    try:
        bp.cli.main([str(a) for a in args], standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_analyze_read_back(bp, w):
    """analyze must fit exactly the JSA that retrieve wrote to result.json."""
    jsa = bp.grids.grid_from_json(json.loads((w / "result.json").read_text())["jsa"])
    want = bp.analysis.fit_retrieved_phase(jsa, 2.0)
    got = json.loads((w / "analysis.json").read_text())["phase_fit"]
    if (got["chirp_s"], got["chirp_i"], got["mask_pixel_count"]) != (want.chirp_s, want.chirp_i, want.mask_pixel_count):
        return [f"analyze fitted {got['chirp_s']:.6g}/{got['chirp_i']:.6g}, result.json holds {want.chirp_s:.6g}/{want.chirp_i:.6g}"]
    return []


def cli_pass(bp, ctx, k, tally, samples):
    """The CLI as users run it: `pipeline` with Monte Carlo, then the staged
    simulate -> preprocess -> retrieve -> analyze chain over Grid JSON files."""
    (s,) = pass_seeds(bp, ctx.seed, k, 1)
    w, manifest = ctx.work, ctx.manifest
    truth, trials, tracer = ctx.truth, ctx.trials, ctx.tracer
    times = {}

    def command(name, *args):
        t0 = clock()
        with tracer.span(f"cli.{name}") if tracer is not None else nullcontext():
            code = _cli(bp, [name, *args])
        times[name] = clock() - t0
        return code

    with tally.op(f"pass {k} pipeline") as problems:
        code = command("pipeline", "--manifest", manifest, "--out", w / "run", "--seed", s)
        if code != 0:
            problems.append(f"exit code {code}")
        analysis = json.loads((w / "run" / "analysis.json").read_text())
        mc = analysis["monte_carlo"]
        returned = min(len(v) for v in mc["trials"].values())
        if not all(math.isfinite(v) for v in mc["stddev"].values()):
            problems.append(f"non-finite Monte Carlo stddev {mc['stddev']}")
        for name in ("constraint_ww", "constraint_wt", "constraint_tw", "constraint_tt", "reconstructed_ww_intensity"):
            if not (w / "run" / f"{name}.csv").is_file():
                problems.append(f"{name}.csv missing")
        fit = analysis["phase_fit"]
        # The Monte Carlo trials cannot be timed one by one without wrappers, so one
        # reconstruction is the pipeline's time over its 1 + 16 reconstructions.
        history = json.loads((w / "run" / "result.json").read_text())["error_history"]
        samples.recon_s.append(times["pipeline"] / (1 + trials))
        samples.retrieval(times["pipeline"] / (1 + trials), history)
        samples.chirp_err.append(chirp_err_rel(fit["chirp_s"], fit["chirp_i"], truth))
        samples.chirp_err.extend(
            chirp_err_rel(a, b, truth) for a, b in zip(mc["trials"]["chirp_s"], mc["trials"]["chirp_i"])
        )
    # every Monte Carlo trial is one attempted operation
    for t in range(trials):
        with tally.op(f"pass {k} Monte Carlo trial {t}") as problems:
            if t >= returned:
                problems.append("trial returned no value")

    staged = (
        ("simulate", "--manifest", manifest, "--out", w / "sim", "--seed", s),
        ("preprocess", "--manifest", manifest, "--measurements", w / "sim" / "measurements.json", "--out", w / "pre"),
        ("retrieve", "--measurements", w / "pre" / "constraints.json", "--iterations", 200, "--seed", s,
         "--out", w / "result.json"),
        ("analyze", "--result", w / "result.json", "--measurements", w / "pre" / "constraints.json",
         "--out", w / "analysis.json"),
    )
    for name, *args in staged:
        with tally.op(f"pass {k} {name}") as problems:
            code = command(name, *args)
            if code != 0:
                problems.append(f"exit code {code}")
            if name == "retrieve":
                written = _sha256(w / "result.json")
            if name == "analyze":
                if _sha256(w / "result.json") != written:
                    problems.append("result.json changed after analyze")
                with tracer.paused() if tracer is not None else nullcontext():
                    problems.extend(_check_analyze_read_back(bp, w))
    samples.json_mb.append(sum(p.stat().st_size for p in w.rglob("*.json")) / 1e6)


PASSES = {
    "ideal_multistart_n128": ideal_pass,
    "gated_sweep_n256": gated_pass,
    "noisy_cli_mc_n64": cli_pass,
}


# --------------------------------------------------------------------------


def fingerprint(seed):
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass

    def cache(level):
        """Size of cpu0's unified cache at this level, as the kernel reports it."""
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if (index / "level").read_text().strip() == str(level) and (index / "type").read_text().strip() == "Unified":
                    return (index / "size").read_text().strip()
            except OSError:
                pass
        return None

    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "l2": cache(2),
        "l3": cache(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in threads},
        "seed": seed,
    }


def run(workload, seed, seconds, trace, out_dir):
    t0 = clock()
    tracer = Tracer() if trace else None
    work_dir = Path(out_dir) / f"work-{workload}-{os.getpid()}"
    bp, ctx = setup(workload, seed, work_dir, tracer)
    setup_s = clock() - t0
    try:
        warm_up(bp, ctx)
        tally, samples = Tally(), Samples()
        passes, traced = [], []
        start = clock()
        k = 0
        while True:
            on = tracer is not None and k % 2 == 1
            ctx.tracer = tracer if on else None
            if on:
                tracer.pass_id = k
                tracer.install()
            t_pass = clock()
            try:
                with tracer.span("bench.pass") if on else nullcontext():
                    PASSES[workload](bp, ctx, k, tally, samples)
            except Exception as exc:  # noqa: BLE001 - counted as one failed operation
                tally.attempted += 1
                tally.failed += 1
                tally.failures.append(f"pass {k}: {type(exc).__name__}: {exc}")
            finally:
                if on:
                    tracer.uninstall()
            (traced if on else passes).append(clock() - t_pass)
            k += 1
            typical = statistics.median(passes + traced)
            if clock() - start + typical > seconds and (tracer is None or traced):
                break
        record = {
            "workload": workload,
            "seed": seed,
            "setup_s": setup_s,
            "pass_s": passes,
            "traced_pass_s": traced,
            **vars(samples),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failures": tally.failures[:20],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fingerprint": fingerprint(seed),
        }
        if tracer is not None:
            json_mb = statistics.mean(samples.json_mb) if samples.json_mb else 0.0
            record["layers"] = layer_metrics(tracer, record["pass_s"], record["traced_pass_s"], json_mb)
            tracer.dump(Path(out_dir) / f"spans-{workload}-seed{seed}.json")
        return record
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.mode == "setup":
        t0 = clock()
        work_dir = Path(args.out) / f"setup-{os.getpid()}"
        try:
            setup(args.workload, args.seed, work_dir)
            record = {"setup_s": clock() - t0}
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    else:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    sys.stdout.flush()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
