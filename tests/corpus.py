"""Byte-identity corpus: a seeded generator of small scenarios, and the outputs
of one tree of beamlife on them and on a fixed list of CLI commands.

``python tests/corpus.py --out DIR`` (with ``PYTHONPATH=src``, from the root
of the tree under test) writes into the new or empty ``DIR``:

- ``cli/<name>/``: for each command of ``commands()``, its ``--out``
  directory and its ``argv``, ``stdout``, ``stderr`` and ``exit_code``.
  The commands run ``python -m beamlife.cli`` in ``DIR``, on the beamlife
  that this script imports, with inputs that it writes to ``configs/``;
- ``traces/<case>/``: for each generated case, its ``config.json`` and
  ``outcome`` (``ran``, or the error that building or running it raised)
  and, for runs 0 and 1, every ``LifetimeTrace`` field of
  ``run_lifetime(..., record_nodes=True)``, an array as ``<field>.npy`` and
  any other value as ``<field>.json``.

Run it on two trees on one machine, say ``git archive`` copies of a commit
and its parent, and compare the two ``DIR``s with ``diff -r``. No outputs are
committed: transcendental ufuncs may round differently on another CPU.

``cases()`` deals each categorical dimension of a scenario from its own
shuffled deck and draws the rest from one seeded stream. A deck is dealt
only to the cases it applies to, and every full round of a deck holds each
of its values once, so the first 20 cases cover every value of every
``DIMENSIONS`` entry: one case in four is ``cb_pa``, for the five levels,
and two in four are centralized, for the two caps.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

import beamlife
from beamlife.allocation import InfeasibleAllocationError
from beamlife.config import ConfigError, from_dict, preset_names
from beamlife.lifetime import run_lifetime

SEED = 20231
CASES = 240  # generated cases written by --out
TRACED_RUNS = 2  # run indexes traced per case

# One-shot allocation, as in the epa-* presets.
NEVER_REALLOCATE = 10**9

CENTRALIZED = ("centralized_min_power", "centralized_max_gain")
DIMENSIONS = {
    "kind": ("cb_epa", "cb_pa", *CENTRALIZED),
    # cb_pa only; 2**47 is the largest grid that validate's n * levels <= 2**53 accepts at every n <= 62 here
    "levels": (0, 1, 2, 8, 2**47),
    "period": (1, 2, 3, NEVER_REALLOCATE),
    "links": (1, 2, 3),
    "split": ("even", "uneven"),  # links > 1 only
    "energy": ("uniform", "gaussian"),
    "target": ("snr", "rate"),
    # The per-node cap against the power that the round-1 allocation asks of
    # the strongest node: "loose" never binds; "tight" binds at the strongest
    # nodes of a shadowed centralized run, so that its solver runs the capped
    # scan, and clips a closed-form scale once deaths or drained residuals
    # raise it.
    "cap": ("tight", "loose"),
}
_CAP_FACTOR = {"tight": 1.5, "loose": 1e6}


def _deck(values, rng):
    """Deal ``values`` in rounds, each round a fresh seeded shuffle of all of them."""
    while True:
        yield from (values[i] for i in rng.permutation(len(values)))


def cases(count):
    """Yield ``count`` generated cases as ``(dims, config dict)``: the deck
    values that the case was dealt and its scenario as a config dict."""
    rng = np.random.default_rng(SEED)
    decks = {name: _deck(values, rng) for name, values in DIMENSIONS.items()}
    for _ in range(count):
        dims = {name: next(decks[name]) for name in ("kind", "period", "links", "energy", "target", "cap")}
        kind, links = dims["kind"], dims["links"]
        dims["levels"] = next(decks["levels"]) if kind == "cb_pa" else 0
        n = links * int(rng.integers(4, 21))
        if links > 1:
            dims["split"] = next(decks["split"])
            n += int(rng.integers(1, links)) if dims["split"] == "uneven" else 0
        e_max = float(rng.choice([1.0, 2.5]))
        if dims["energy"] == "uniform":
            energy = {"kind": "uniform", "e_max": e_max, "mean": e_max / 2}
        else:
            mean, sigma = e_max * float(rng.choice([0.3, 0.5, 0.9])), e_max * float(rng.choice([0, 0.15, 0.4]))
            energy = {"kind": "gaussian", "e_max": e_max, "mean": mean, "sigma": sigma}
        data = {
            "n": n,
            "links": links,
            "noise_db": float(rng.choice([-110.0, -100.0, -90.0])),
            "shadowing_sigma2_db": float(rng.choice([0.0, 4.0, 16.0])),
            "phase_error_deg_bound": float(rng.choice([0.0, 5.0, 30.0])),
            "energy": energy,
            "strategy": {"kind": kind, "levels": dims["levels"], "period": dims["period"]},
            "death": {
                "max_dead_fraction": float(rng.choice([0.5, 0.9, 1.0])),
                "snr_drop_db": float(rng.choice([1.0, 3.0, 6.0])),
            },
            "runs": TRACED_RUNS,
            "master_seed": int(rng.integers(2**32)),
            "max_rounds": int(rng.integers(20, 400)),
        }
        if dims["target"] == "snr":
            data["target_snr_db"] = float(rng.choice([5.0, 11.76, 20.0]))
            snr = 10 ** (data["target_snr_db"] / 10)
        else:
            data["target_snr_db"] = None
            data["target_rate_bits"] = float(rng.choice([0.0, 1.0, 2.5, 4.0]))
            snr = 2 ** data["target_rate_bits"] - 1
        # Scale the cap and the slot to the equal-power weight of a link's
        # members, taken over the expected gain moments, and the closed-form
        # cb_pa scale, that weight over the mean normalized residual, so that
        # most cases are feasible in round 1 and live tens to hundreds of rounds.
        s2 = data["shadowing_sigma2_db"] * (math.log(10) / 20) ** 2
        m = n / links
        denominator = m * math.expm1(s2) * math.exp(s2) + m * m * math.exp(s2)  # _scale_denominator at unit weights
        power = max(snr, 1.0) * 10 ** (data["noise_db"] / 10) / denominator
        if kind == "cb_pa":
            power /= (energy["mean"] / e_max) ** 2
        data["p_max"] = _CAP_FACTOR[dims["cap"]] * power
        data["t_slot_s"] = e_max / (power * float(rng.integers(30, 200)))
        yield dims, data


def run_case(data):
    """Build and run one generated config dict: ``(outcome, traces)``, where
    the outcome is ``"ran"`` or the ``ConfigError`` or
    ``InfeasibleAllocationError`` raised, and the traces hold the runs'
    ``LifetimeTrace``s, nodes recorded; any other error propagates."""
    try:
        cfg = from_dict(data)
        traces = [
            run_lifetime(cfg, np.random.default_rng(np.random.SeedSequence([cfg.master_seed, i])), record_nodes=True)
            for i in range(cfg.runs)
        ]
    except (ConfigError, InfeasibleAllocationError) as exc:
        return f"{type(exc).__name__}: {exc}", []
    return "ran", traces


def _write_json(path, value):
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_traces(out):
    for i, (_, data) in enumerate(cases(CASES)):
        case = out / "traces" / f"case{i:03d}"
        case.mkdir(parents=True)
        _write_json(case / "config.json", data)
        outcome, traces = run_case(data)
        (case / "outcome").write_text(outcome + "\n", encoding="utf-8")
        for r, trace in enumerate(traces):
            run = case / f"run{r}"
            run.mkdir()
            for f in fields(trace):
                value = getattr(trace, f.name)
                if isinstance(value, np.ndarray):
                    np.save(run / f"{f.name}.npy", value, allow_pickle=False)
                else:
                    _write_json(run / f"{f.name}.json", value)


def commands(configs):
    """``(name, argv without --out)`` of the CLI corpus; its inputs are written into ``configs``."""

    def config(name, data):
        path = configs / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_json(path, data)
        return str(path.relative_to(configs.parent))

    listed = [(f"preset-{name}", ["run", "--preset", name, "--runs", "20"]) for name in preset_names()]
    epa = config("epa_gaussian_period3", {
        "strategy": {"kind": "cb_epa", "levels": 0, "period": 3},
        "energy": {"kind": "gaussian", "e_max": 1.0, "mean": 0.5, "sigma": 0.15},
        "runs": 20,
        "master_seed": 7,
    })
    central = config("max_gain_two_links", {"strategy": {"kind": "centralized_max_gain", "levels": 0}, "links": 2})
    listed.append(("compare-mixed", ["compare", "--config", epa, "--preset", "quant-2", "--config", central]))
    listed.append(("multi-link-workers-2", ["run", "--preset", "multi-link", "--runs", "20", "--workers", "2"]))
    # the benchmark's three workloads at its master seeds 20231 and 20247
    for ms in (20231, 20247):
        listed.append((f"pa-ensemble-{ms}",
                       ["run", "--preset", "pa-uniform", "--runs", "200", "--seed", str(ms), "--workers", "1"]))
        pair = []
        for label, kind in (("min_power", "centralized_min_power"), ("max_gain", "centralized_max_gain")):
            data = {"strategy": {"kind": kind, "levels": 0, "period": 1}, "runs": 10, "master_seed": ms}
            pair += ["--config", config(f"{ms}/{label}", data)]
        listed.append((f"centralized-compare-{ms}", ["compare", *pair, "--workers", "1"]))
        data = {"n": 1000, "strategy": {"kind": "cb_epa", "levels": 0, "period": NEVER_REALLOCATE}, "runs": 4,
                "master_seed": ms}
        listed.append((f"epa-long-{ms}", ["run", "--config", config(f"{ms}/epa_long", data), "--workers", "1"]))
    return listed


def write_cli(out):
    env = dict(os.environ)
    # the children run the beamlife that this process imported
    src = str(Path(beamlife.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name, argv in commands(out / "configs"):
        argv = [*argv, "--out", f"cli/{name}/out"]
        proc = subprocess.run(
            [sys.executable, "-m", "beamlife.cli", *argv], cwd=out, env=env, capture_output=True, text=True
        )
        (out / "cli" / name).mkdir(parents=True, exist_ok=True)
        (out / "cli" / name / "argv").write_text(" ".join(argv) + "\n", encoding="utf-8")
        (out / "cli" / name / "stdout").write_text(proc.stdout, encoding="utf-8")
        (out / "cli" / name / "stderr").write_text(proc.stderr, encoding="utf-8")
        (out / "cli" / name / "exit_code").write_text(f"{proc.returncode}\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--out", required=True, type=Path, help="new or empty directory to write the corpus into")
    args = parser.parse_args(argv)
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"--out {args.out} is not empty")
    args.out.mkdir(parents=True, exist_ok=True)
    write_cli(args.out)
    write_traces(args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
