"""Phase-mismatch sweep.

For a set of crystal lengths, simulate sum-frequency gated measurements of a
chirped state, deconvolve, retrieve, and report the reconstructed idler chirp
against the applied one.  With a thin crystal the reconstruction matches the
applied phase; as the crystal grows the phase-matching function narrows the
gated planes and biases the reconstructed chirp.

Usage:
    python3 scripts/crystal_length_sweep.py --lengths 0 250 500 1000 --chirp-i 40000
"""

import argparse
import csv

from biphoton.analysis import fit_retrieved_phase
from biphoton.gating import GatePulse, GatingModel, RefractiveModel, simulate_measurements
from biphoton.pipeline import GatingConfig, PipelineConfig, StateConfig, preprocess_set
from biphoton.preprocess import PreprocessConfig
from biphoton.retrieve import RetrievalConfig, run_retrieval
from biphoton.synth import GaussianStateParams, synthesize_state
from biphoton.units import wavelength_to_omega


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lengths", type=float, nargs="+", default=[0.0, 500.0, 1000.0, 2000.0],
                    help="crystal lengths (um)")
    ap.add_argument("--chirp-s", type=float, default=5000.0)
    ap.add_argument("--chirp-i", type=float, default=40000.0)
    ap.add_argument("--gate-fs", type=float, default=50.0, help="gate intensity s.d. (fs)")
    ap.add_argument("--signal-nm", type=float, default=823.0)
    ap.add_argument("--idler-nm", type=float, default=732.0)
    ap.add_argument("--gate-nm", type=float, default=775.0)
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--iterations", type=int, default=1000)
    ap.add_argument("--csv", help="optional output table")
    args = ap.parse_args()

    center_s = wavelength_to_omega(args.signal_nm)
    center_i = wavelength_to_omega(args.idler_nm)
    gate = GatePulse(center=wavelength_to_omega(args.gate_nm), sigma=1.0 / (2 * args.gate_fs))
    refractive = RefractiveModel.default().tuned_for(center_s, gate.center)

    p = GaussianStateParams(
        rho=-0.9, chirp_s=args.chirp_s, chirp_i=args.chirp_i,
        center_s=center_s, center_i=center_i,
    )
    state = synthesize_state(p, n=args.n, span_sigmas=8)
    cfg = PipelineConfig(
        state=StateConfig(params=p, n=args.n),
        gating=GatingConfig(gate_center=gate.center, gate_sigma=gate.sigma),
        preprocess=PreprocessConfig(alpha=1e-6, rho_lp=1.0, allow_out_of_range=True),
    )

    rows = []
    print(f"applied: A_s = {p.chirp_s:.0f} fs^2, A_i = {p.chirp_i:.0f} fs^2")
    print(f"{'L (um)':>8} {'err_ww':>10} {'A_i fit':>10} {'offset':>8}")
    for L in args.lengths:
        gm = GatingModel(gate=gate, crystal_length=L,
                         refractive=(refractive if L > 0 else None))
        raw = simulate_measurements(state, gm)
        clean = preprocess_set(raw, cfg)
        r = run_retrieval(clean, RetrievalConfig(iterations=args.iterations, seed=0))
        fit = fit_retrieved_phase(r.jsa)
        offset = fit.chirp_i - p.chirp_i
        print(f"{L:>8.0f} {r.error_history_ww[-1]:>10.3e} {fit.chirp_i:>10.0f} {offset:>8.0f}")
        rows.append({"length_um": L, "err_ww": r.error_history_ww[-1],
                     "chirp_i_fit": fit.chirp_i, "offset": offset})

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"table written to {args.csv}")


if __name__ == "__main__":
    main()
