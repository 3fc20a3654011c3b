#!/usr/bin/env python3
"""Single-link versus two-link operation.

Splitting the cluster in half toward two receivers halves the per-link
array and lowers the per-link SNR target (2 bits/s/Hz per link instead of
4 on one link), yet the summed rate starts out nearly identical and the
lower per-node drain extends the lifetime.
"""

import argparse
from dataclasses import replace

from beamlife import preset, run_ensemble


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    single = run_ensemble(replace(preset("single-link"), runs=args.runs), workers=args.workers)
    multi = run_ensemble(replace(preset("multi-link"), runs=args.runs), workers=args.workers)

    print(f"\n=== first-round operating point ({args.runs} runs) ===")
    print(f"{'':<22} {'single link':>12} {'two links':>12}")
    print(f"{'total rate bits/s/Hz':<22} {single.rate_total[0]:>12.2f} {multi.rate_total[0]:>12.2f}")
    print(f"{'per-link SNR dB':<22} {single.snr_db[0]:>12.2f} {multi.snr_db[0]:>12.2f}")

    print("\n=== lifetime and waste ===")
    for label, result in (("single link", single), ("two links", multi)):
        summary = result.summary()
        print(
            f"{label:<22} lifetime {summary['lifetime_mean_rounds']:>7.1f} rounds, "
            f"wasted {summary['wasted_pct_mean']:>5.1f} %"
        )

    print("\n=== total rate vs time ===")
    horizon = max(single.rounds, multi.rounds)
    print(f"{'round':>6} {'single':>9} {'two links':>10} {'surviving runs (multi)':>23}")
    for t in range(0, horizon, max(1, horizon // 15)):
        s = f"{single.rate_total[t]:.2f}" if t < single.rounds else "-"
        m = f"{multi.rate_total[t]:.2f}" if t < multi.rounds else "-"
        surv = multi.surviving_runs[t] if t < multi.rounds else 0
        print(f"{t + 1:>6} {s:>9} {m:>10} {surv:>23}")

    print("\nNote the rougher tail of the averaged curves: fewer runs are still")
    print("alive near the end, so the per-round mean is taken over fewer of them.")


if __name__ == "__main__":
    main()
