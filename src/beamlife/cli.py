"""Command line front end: run ensembles, compare scenarios, list presets.

Outputs are CSV tables plus a JSON manifest that echoes the resolved
configuration and the per-run seeds; re-running the same configuration
reproduces the files byte for byte, and a manifest can be fed back in as
a config file.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import InfeasibleAllocationError
from .config import ConfigError, _echo, load_config, preset, preset_description, preset_names
from .ensemble import compare_strategies, run_ensemble

ROUNDS_COLUMNS = ["round", "alive_fraction", "snr_db", "rate_bits", "residual_total_j", "surviving_runs"]
# rounds.csv rows converted to Python objects at once, which bounds the writer's memory
_ROUNDS_BLOCK = 2**14
# Memory budget of one run's arrays, in bytes. A run holds 8 bytes per node
# for each link's gains and for about 16 per-node vectors besides (the setup
# draws, phasors, residuals, weights and their link copies), and a scenario
# whose n would need more is refused before anything is allocated.
_RUN_BYTES = 2**30
_NODE_VECTORS = 16


def _with_overrides(cfg, runs, seed):
    """Apply ``--runs``/``--seed`` to the scenario, so its manifest reproduces
    the run, and refuse an ``n`` whose per-run arrays exceed ``_RUN_BYTES``."""
    need = 8 * cfg.n * (cfg.links + _NODE_VECTORS)
    if need > _RUN_BYTES:
        raise ConfigError(
            f"n: {_echo(cfg.n)} nodes on {cfg.links} link(s) need about {need / 2**20:.4g} MiB "
            f"per run, above the budget of {_RUN_BYTES // 2**20} MiB"
        )
    seed = cfg.master_seed if seed is None else seed
    return replace(cfg, runs=cfg.runs if runs is None else runs, master_seed=seed)


def _scenarios(args):
    """Labels and scenarios of ``--preset``/``--config`` in command-line order (``pa-uniform`` if none), each
    at the first one's run count and master seed after ``--runs``/``--seed``: a comparison's paired seeds."""
    labels, configs = [], []
    for flag, value in args.sources or [("preset", "pa-uniform")]:
        labels.append(value if flag == "preset" else Path(value).stem)
        configs.append(preset(value) if flag == "preset" else load_config(value))
    first = _with_overrides(configs[0], args.runs, args.seed)
    return labels, [_with_overrides(cfg, first.runs, first.master_seed) for cfg in configs]


def _causes_line(result):
    """How the links of an ensemble's runs died, e.g. ``causes: nodes 0, snr 200, max_rounds 0``."""
    causes = [cause for run in result.causes for cause in run]
    return "causes: " + ", ".join(f"{c} {causes.count(c)}" for c in ("nodes", "snr", "max_rounds"))


def _cell_texts(values):
    """``str`` of each value of a 1-D 64-bit array, called once per run of bit-identical neighbours."""
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    texts = np.array([str(x) for x in values[starts].tolist()], dtype=object)
    return texts.repeat(np.diff(starts, append=values.size)).tolist()


def _write_ensemble_dir(out, result, cfg):
    """Write one ensemble's rounds.csv, summary.csv and manifest.json into ``out``.

    Every rounds.csv cell is a number, which needs no quoting, so its rows
    are written as text directly: a float as its repr and CRLF line ends,
    the bytes ``csv.writer`` gives. A curve holds long runs of equal values
    (it steps only when a node or a run dies), so each run of bit-identical
    cells in a column is formatted once; only bit-identical values share a
    text, so ``0.0`` and ``-0.0`` keep theirs.
    """
    out.mkdir(parents=True, exist_ok=True)
    columns = (result.alive_fraction, result.snr_db, result.rate_total, result.residual_total, result.surviving_runs)
    with open(out / "rounds.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(ROUNDS_COLUMNS) + "\r\n")
        for start in range(0, result.rounds, _ROUNDS_BLOCK):
            stop = start + _ROUNDS_BLOCK
            blocks = [_cell_texts(column[start:stop]) for column in columns]
            fh.writelines(
                f"{t},{a},{s},{r},{e},{c}\r\n" for t, a, s, r, e, c in zip(range(start + 1, stop + 1), *blocks)
            )
    summary = result.summary()
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(summary))
        writer.writerow(summary.values())
    manifest = {
        "artifact_version": __version__,
        "config": asdict(cfg),
        "runs": cfg.runs,
        "master_seed": cfg.master_seed,
        "run_seeds": [[cfg.master_seed, i] for i in range(cfg.runs)],
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_run(args):
    if len(args.sources or ()) > 1:
        raise ConfigError(f"run takes one scenario, got {len(args.sources)} (--preset/--config); compare takes several")
    _, (cfg,) = _scenarios(args)
    result = run_ensemble(cfg, workers=args.workers)
    out = Path(args.out)
    _write_ensemble_dir(out, result, cfg)
    summary = result.summary()
    print(
        f"{cfg.runs} runs: mean lifetime {summary['lifetime_mean_rounds']:.1f} rounds, "
        f"mean wasted energy {summary['wasted_pct_mean']:.1f}% -> {out}"
    )
    print(_causes_line(result))
    return 0


def _cmd_compare(args):
    labels, scenarios = _scenarios(args)
    if len(scenarios) < 2:
        raise ConfigError("compare needs at least two scenarios (--preset/--config, repeatable)")
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"scenario label {label!r} given twice; both would write to {label}/")
        if label in (".", "..", "comparison.csv"):  # stems of "..json", "...json", "comparison.csv.json"
            raise ConfigError(f"scenario label {label!r} names no directory of its own under --out; rename its file")
    comparison = compare_strategies(scenarios, workers=args.workers, labels=labels)
    out = Path(args.out)
    for label, cfg, ensemble in zip(labels, scenarios, comparison.ensembles):
        _write_ensemble_dir(out / label, ensemble, cfg)
    with open(out / "comparison.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario", "lifetime_mean_rounds", "lifetime_ratio", "wasted_pct_mean", "wasted_pct_delta"]
        )
        # csv quotes a label that needs it and writes each float as its repr
        writer.writerows(
            zip(
                labels,
                comparison.lifetime_means.tolist(),
                comparison.lifetime_ratios.tolist(),
                comparison.wasted_pct_means.tolist(),
                comparison.wasted_pct_deltas.tolist(),
            )
        )
    for i, label in enumerate(labels):
        print(
            f"{label}: mean lifetime {comparison.lifetime_means[i]:.1f} rounds "
            f"(ratio {comparison.lifetime_ratios[i]:.2f}), "
            f"wasted {comparison.wasted_pct_means[i]:.1f}%"
        )
        print(f"  {_causes_line(comparison.ensembles[i])}")
    return 0


def _cmd_presets(_args):
    width = max(len(name) for name in preset_names())
    for name in preset_names():
        print(f"{name:<{width}}  {preset_description(name)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beamlife",
        description="Monte Carlo lifetime simulator for beamforming sensor clusters.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options that run and compare share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--runs", type=int, help="override the configured run count")
    common.add_argument("--seed", type=int, help="override the configured master seed")
    common.add_argument("--workers", type=int, default=1, help="parallel workers (does not affect results)")
    # one list of scenarios, in command-line order, each tagged by its flag
    common.add_argument("--preset", action="append", dest="sources", type=lambda v: ("preset", v), metavar="NAME",
                        help="named preset scenario (see 'presets'), labelled by its name")
    common.add_argument("--config", action="append", dest="sources", type=lambda v: ("config", v), metavar="PATH",
                        help="scenario config JSON or a previous run's manifest, labelled by the file's stem")

    run_p = sub.add_parser("run", parents=[common], help="run one scenario ensemble and write CSV tables",
                           description="Run one scenario: one --preset or --config, pa-uniform if neither.")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", parents=[common], help="paired-seed comparison of two or more scenarios",
                           description="Compare scenarios in the order their --preset/--config flags are given; the "
                           "first is the baseline and sets every scenario's run count and master seed.")
    cmp_p.set_defaults(func=_cmd_compare)

    presets_p = sub.add_parser("presets", help="list the built-in scenario presets")
    presets_p.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # a library warning is one line on stderr; the filters stay as they are
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except InfeasibleAllocationError as exc:
            print(f"infeasible allocation: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
