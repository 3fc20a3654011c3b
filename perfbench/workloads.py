"""The benchmark's workloads: the beamlife command each one runs and its inputs.

A workload seed ``n`` selects master seed ``BASE_SEED + n % SEED_POOL``. The
pool is finite because every output is checked against a reference recorded
for that master seed (see ``reference.json``). Seed ``HELD_OUT_SEED`` was not
used while the benchmark was tuned; a later performance claim must also hold
on it.
"""

import json
from pathlib import Path

BASE_SEED = 20231
SEED_POOL = 17
HELD_OUT_SEED = 16

# One-shot allocation, as in the epa-* presets.
NEVER_REALLOCATE = 10**9


def master_seed(seed):
    return BASE_SEED + seed % SEED_POOL


def _write_config(path, data):
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _pa_ensemble(ms, workdir):
    return ["run", "--preset", "pa-uniform", "--runs", "200", "--seed", str(ms), "--workers", "1"]


def _centralized_compare(ms, workdir):
    paths = []
    for label, kind in (("min_power", "centralized_min_power"), ("max_gain", "centralized_max_gain")):
        config = {"strategy": {"kind": kind, "levels": 0, "period": 1}, "runs": 10, "master_seed": ms}
        paths += ["--config", _write_config(Path(workdir) / f"{label}.json", config)]
    return ["compare", *paths, "--workers", "1"]


def _epa_long(ms, workdir):
    config = {
        "n": 1000,
        "strategy": {"kind": "cb_epa", "levels": 0, "period": NEVER_REALLOCATE},
        "runs": 4,
        "master_seed": ms,
    }
    return ["run", "--config", _write_config(Path(workdir) / "epa_long.json", config), "--workers", "1"]


WORKLOADS = {
    "pa-ensemble": _pa_ensemble,
    "centralized-compare": _centralized_compare,
    "epa-long": _epa_long,
}


def command(name, seed, workdir):
    """Write the workload's inputs into ``workdir``; return the CLI argv without ``--out``."""
    return WORKLOADS[name](master_seed(seed), workdir)
