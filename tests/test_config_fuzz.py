"""Seeded config sweep: odd values in every field must fail cleanly or run.

Each case takes a preset's dict and replaces one field (or, in the mixes,
two or three) with a value from a fixed list of edge cases: signed zeros,
subnormals, the smallest normal float, huge ints, NaN and infinities, and
wrong types. ``from_dict`` may only raise ``ConfigError``. A config it
accepts runs one lifetime through ``run_ensemble``, with every warning an
error, and may only raise ``InfeasibleAllocationError`` or warn that its
nodes do not split evenly into its links.

Each valid config runs at ``runs`` 1, with ``max_rounds`` clamped to 60 and
``n`` to 200 to keep the sweep within a few seconds. The ``n`` clamp also
keeps library runs away from a config such as ``{"n": 10**10}``: it passes
validation, and only the CLI refuses it, by its per-run memory.
"""

import json
import math
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from beamlife.allocation import InfeasibleAllocationError
from beamlife.cli import main
from beamlife.config import ConfigError, from_dict, preset
from beamlife.energy import gate_and_charge
from beamlife.ensemble import run_ensemble

PRESETS = ["pa-uniform", "epa-uniform", "multi-link"]

FIELDS = [
    "n", "links", "target_snr_db", "target_rate_bits", "noise_db", "shadowing_sigma2_db",
    "phase_error_deg_bound", "energy.kind", "energy.e_max", "energy.mean", "energy.sigma",
    "strategy.kind", "strategy.levels", "strategy.period", "death.max_dead_fraction",
    "death.snr_drop_db", "runs", "master_seed", "t_slot_s", "p_max", "max_rounds",
]

VALUES = [
    0, 0.0, -0.0, 1, -1, 0.5, 2, 3,
    5e-324, -5e-324, 1e-310, 2.0**-1022,
    2**60, 10**18, 2**63, 10**400, 1e308,
    math.nan, math.inf, -math.inf,
    True, False, "1", "", None, [], {},
]


def with_value(data, path, value):
    """A copy of ``data`` whose field at the dotted ``path`` holds ``value``."""
    data = {key: dict(v) if isinstance(v, dict) else v for key, v in data.items()}
    section, _, key = path.rpartition(".")
    (data[section] if section else data)[key] = value
    return data


def outcome(data):
    """How a config dict fares: "config", "infeasible" or "ran"; anything
    else raises."""
    try:
        cfg = from_dict(data)
    except ConfigError:
        return "config"
    n = min(cfg.n, 200)
    cfg = replace(cfg, runs=1, max_rounds=min(cfg.max_rounds, 60), n=n, links=min(cfg.links, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", r"\d+ nodes do not split evenly into \d+ links", UserWarning)
        try:
            run_ensemble(cfg)
        except InfeasibleAllocationError:
            return "infeasible"
    return "ran"


def sweep(cases):
    """Outcome counts of ``(preset, {path: value})`` cases; fails listing
    every case that raised or warned otherwise."""
    counts, failures = {}, []
    for name, changes in cases:
        data = asdict(preset(name))
        for path, value in changes.items():
            data = with_value(data, path, value)
        try:
            result = outcome(data)
        except Exception as exc:  # noqa: BLE001 - the report names the case
            failures.append(f"{name} with {changes!r}: {type(exc).__name__}: {exc}")
            continue
        counts[result] = counts.get(result, 0) + 1
    assert not failures, f"{len(failures)} cases failed:\n" + "\n".join(failures)
    return counts


@pytest.mark.parametrize("name", PRESETS)
def test_every_field_takes_every_edge_value(name):
    counts = sweep((name, {path: value}) for path in FIELDS for value in VALUES)
    assert counts["config"] and counts["ran"]


def test_seeded_mixes_of_fields():
    rng = np.random.default_rng(20231)
    cases = []
    for _ in range(1500):
        paths = rng.choice(len(FIELDS), size=rng.integers(2, 4), replace=False)
        values = rng.integers(len(VALUES), size=paths.size)
        cases.append((PRESETS[rng.integers(len(PRESETS))], {FIELDS[p]: VALUES[v] for p, v in zip(paths, values)}))
    counts = sweep(cases)
    assert counts["config"] and counts["ran"]


def test_levels_straddle_the_exact_sum_bound():
    # every preset has n = 100: 2**46 levels keep n * levels <= 2**53, 2**47 do not
    counts = sweep((name, {"strategy.levels": levels}) for name in PRESETS for levels in (2**46, 2**47))
    assert counts == {"ran": len(PRESETS), "config": len(PRESETS)}


# Before validate refused them, the first probe exited 0 with every node dead of an
# infinite charge, and the second overflowed its realized SNR into a traceback.
SLOT_OVERFLOW = {"noise_db": 2800, "target_snr_db": 80, "p_max": 1e300, "t_slot_s": 1e30, "max_rounds": 5}
SNR_OVERFLOW = {"noise_db": 3000, "target_snr_db": 82.0, "p_max": 1e308, "t_slot_s": 1e-306, "runs": 3, "max_rounds": 5}


def test_slot_energy_at_the_cap_is_finite_up_to_the_bound():
    # The largest t_slot_s that validate accepts at the probe's cap: an engine
    # weight is at most sqrt(p_max), whose slot energy stays finite there.
    cap = math.sqrt(SLOT_OVERFLOW["p_max"])
    slot = sys.float_info.max / (cap * cap)
    while math.isfinite(cap * cap * math.nextafter(slot, math.inf)):
        slot = math.nextafter(slot, math.inf)
    while not math.isfinite(cap * cap * slot):
        slot = math.nextafter(slot, 0.0)
    with pytest.raises(ConfigError, match=r"^p_max: "):
        from_dict({**SLOT_OVERFLOW, "t_slot_s": math.nextafter(slot, math.inf)})
    assert outcome({**SLOT_OVERFLOW, "t_slot_s": slot}) == "ran"
    with np.errstate(all="raise"):
        charge, unfunded, _ = gate_and_charge(np.full(1, sys.float_info.max), np.full(1, cap), slot)
    assert unfunded is None and math.isfinite(charge[0])


@pytest.mark.parametrize(
    "data, code",
    [
        ({"shadowing_sigma2_db": -0.0}, 0),
        ({"strategy": {"kind": "cb_epa", "levels": 0, "period": 10**9}, "t_slot_s": 1e-310}, 0),
        ({"n": 101, "links": 2}, 0),
        ({"t_slot_s": math.nan}, 1),
        ({"strategy": {"levels": True}}, 1),
        ({"master_seed": -0.0}, 1),
        ({"p_max": 5e-324}, 2),
        ({"strategy": {"kind": "cb_epa", "levels": 0}, "p_max": 1e-30}, 2),
        (SLOT_OVERFLOW, 1),
        (SNR_OVERFLOW, 1),
        ({**SNR_OVERFLOW, "strategy": {"kind": "cb_epa", "levels": 0}}, 1),
    ],
    ids=["signed-zero-shadowing", "subnormal-slot", "uneven-links", "nan-slot", "bool-levels", "float-seed",
         "subnormal-cap", "epa-infeasible", "slot-energy-overflow", "snr-overflow", "epa-snr-overflow"],
)
def test_cli_exit_codes(tmp_path, capsys, data, code):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"runs": 2, "max_rounds": 60, **data}))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"\d+ nodes do not split evenly into \d+ links", UserWarning)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == (code != 0)
    assert (tmp_path / "out" / "rounds.csv").exists() == (code == 0)
