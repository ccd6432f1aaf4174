"""Closed-loop retrieval demo.

Synthesize a chirped correlated-Gaussian state, measure it ideally (no gate,
no blur), run the four-plane retrieval from several random starts, and compare
the fitted chirps to the applied ones.  Each start is one manifest run by
``run_pipeline``.

Usage:
    python3 scripts/closed_loop_demo.py --rho -0.9 --chirp-s -36000 --chirp-i -43000
"""

import argparse
import time

from biphoton.pipeline import PipelineConfig, grid_to_csv, run_pipeline


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rho", type=float, default=-0.9)
    ap.add_argument("--sigma", type=float, default=0.01, help="marginal bandwidth (rad/fs)")
    ap.add_argument("--chirp-s", type=float, default=-36000.0, help="signal chirp (fs^2)")
    ap.add_argument("--chirp-i", type=float, default=-43000.0, help="idler chirp (fs^2)")
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--iterations", type=int, default=300)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--save-jsa", metavar="CSV", help="write the best reconstruction")
    args = ap.parse_args()

    manifest = {
        "state": {"sigma_s": args.sigma, "sigma_i": args.sigma, "rho": args.rho,
                  "chirp_s": args.chirp_s, "chirp_i": args.chirp_i, "n": args.n},
        "gating": {"ideal": True},
        "preprocess_enabled": False,
        "retrieval": {"iterations": args.iterations},
    }

    print(f"applied chirps: A_s = {args.chirp_s:.0f} fs^2, A_i = {args.chirp_i:.0f} fs^2")
    print(f"{'seed':>4} {'err_ww':>10} {'A_s fit':>10} {'A_i fit':>10} {'dA_s':>8} {'dA_i':>8}")
    best = None
    for seed in range(args.seeds):
        manifest["retrieval"]["seed"] = seed
        t0 = time.perf_counter()
        out = run_pipeline(PipelineConfig.from_manifest(manifest))
        dt = time.perf_counter() - t0
        err, fit = out.result.error_history_ww[-1], out.fit
        rel_s = (fit.chirp_s - args.chirp_s) / abs(args.chirp_s)
        rel_i = (fit.chirp_i - args.chirp_i) / abs(args.chirp_i)
        print(
            f"{seed:>4} {err:>10.3e} {fit.chirp_s:>10.0f} {fit.chirp_i:>10.0f} "
            f"{rel_s:>7.2%} {rel_i:>7.2%}   ({dt:.2f} s)"
        )
        if best is None or err < best[0]:
            best = (err, out.result.jsa)

    if args.save_jsa:
        grid_to_csv(best[1], args.save_jsa)
        print(f"best reconstruction written to {args.save_jsa}")


if __name__ == "__main__":
    main()
