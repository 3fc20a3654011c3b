#!/usr/bin/env python3
"""Lifetime cost of one extra bit per channel use.

The rate target fixes the SNR target through rate = log2(1 + snr), so one
fewer bit roughly halves the required received power and doubles how long
the cluster lasts.
"""

import argparse
from dataclasses import replace

from beamlife import compare_strategies, preset


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    rate4 = replace(preset("rate-4bit"), runs=args.runs)
    rate3 = replace(preset("rate-3bit"), runs=args.runs)
    comparison = compare_strategies([rate4, rate3], workers=args.workers, labels=("4 bits", "3 bits"))

    print(f"\n=== paired-seed comparison ({args.runs} runs) ===")
    print(f"{'target':<10} {'snr target dB':>14} {'mean lifetime':>14} {'wasted':>8} {'ratio':>7}")
    for i, (label, cfg) in enumerate(zip(comparison.labels, (rate4, rate3))):
        print(
            f"{label:<10} {cfg.resolved_target_snr_db():>14.2f} "
            f"{comparison.lifetime_means[i]:>10.1f} rnd "
            f"{comparison.wasted_pct_means[i]:>6.1f} % "
            f"{comparison.lifetime_ratios[i]:>7.2f}"
        )

    e4, e3 = comparison.ensembles
    print("\n=== achieved rate vs time ===")
    horizon = max(e4.rounds, e3.rounds)
    print(f"{'round':>6} {'4-bit target':>13} {'3-bit target':>13}")
    for t in range(0, horizon, max(1, horizon // 15)):
        r4 = f"{e4.rate_total[t]:.2f}" if t < e4.rounds else "-"
        r3 = f"{e3.rate_total[t]:.2f}" if t < e3.rounds else "-"
        print(f"{t + 1:>6} {r4:>13} {r3:>13}")


if __name__ == "__main__":
    main()
