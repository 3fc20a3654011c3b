#!/usr/bin/env python3
"""Effect of the number of transmit power levels.

Hardware offers a finite set of power levels, so the per-node weight is
rounded to a grid. Coarser grids silence low-energy nodes sooner and leave
more energy stranded; finer grids track the residual energies better and
extend the lifetime.
"""

import argparse
from dataclasses import replace

from beamlife import preset, run_ensemble


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    results = {
        levels: run_ensemble(replace(preset(f"quant-{levels}"), runs=args.runs), workers=args.workers)
        for levels in (2, 4, 8)
    }

    print(f"\n=== weight grids ({args.runs} runs each) ===")
    print(f"{'levels':>7} {'mean lifetime':>14} {'wasted energy':>14}")
    for levels, result in results.items():
        summary = result.summary()
        print(f"{levels:>7} {summary['lifetime_mean_rounds']:>10.1f} rnd {summary['wasted_pct_mean']:>12.1f} %")

    print("\n=== alive fraction vs time ===")
    horizon = max(result.rounds for result in results.values())
    print(f"{'round':>6} " + " ".join(f"{f'{lv} levels':>10}" for lv in results))
    for t in range(0, horizon, max(1, horizon // 15)):
        cells = [
            f"{results[lv].alive_fraction[t]:.3f}" if t < results[lv].rounds else "-"
            for lv in results
        ]
        print(f"{t + 1:>6} " + " ".join(f"{c:>10}" for c in cells))

    print("\nWith a grid that includes zero, a node whose residual falls under")
    print("half the lowest step stops transmitting but keeps that remainder")
    print("forever: the coarser the grid, the taller the stranded-energy floor.")


if __name__ == "__main__":
    main()
