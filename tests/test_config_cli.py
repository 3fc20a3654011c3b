"""Configuration loading, presets, and the command line front end."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import beamlife.cli
from beamlife.cli import _write_ensemble_dir, main
from beamlife.ensemble import EnsembleResult, run_ensemble
from beamlife.lifetime import run_lifetime
from beamlife.config import (
    ConfigError,
    EnergySpec,
    ScenarioConfig,
    StrategySpec,
    from_dict,
    load_config,
    preset,
    preset_names,
)


class TestDefaultsAndPresets:
    def test_defaults_equal_headline_preset(self):
        assert ScenarioConfig() == preset("pa-uniform")

    def test_headline_preset_values(self):
        cfg = preset("pa-uniform")
        assert cfg.n == 100
        assert cfg.target_snr_db == pytest.approx(11.76)
        assert cfg.shadowing_sigma2_db == 16.0
        assert cfg.strategy.levels == 8
        assert cfg.phase_error_deg_bound == 5.0
        assert cfg.energy.e_max == 1.0 and cfg.energy.mean == 0.5

    def test_all_presets_validate(self):
        for name in preset_names():
            cfg = preset(name)
            assert cfg.n >= 1

    def test_equal_power_presets_allocate_once(self):
        assert preset("epa-uniform").strategy.period >= 10**6

    def test_multi_link_preset(self):
        cfg = preset("multi-link")
        assert cfg.links == 2
        assert cfg.target_rate_bits == 2.0
        assert cfg.target_snr_linear() == pytest.approx(3.0)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("imaginary-preset")


class TestFromDict:
    def test_empty_gives_defaults(self):
        assert from_dict({}) == ScenarioConfig()

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="wobble"):
            from_dict({"wobble": 3})
        with pytest.raises(ConfigError, match="strategy.frequency"):
            from_dict({"strategy": {"frequency": 2}})
        with pytest.raises(ConfigError, match=r"^energy\.x+\.\.\.x+: unknown key$") as info:
            from_dict({"energy": {"x" * 100000: 1}})  # the key is cut
        assert len(str(info.value)) < 300

    def test_both_targets_rejected(self):
        with pytest.raises(ConfigError, match="target"):
            from_dict({"target_snr_db": 10.0, "target_rate_bits": 3.0})

    def test_rate_target_derives_snr(self):
        cfg = from_dict({"target_rate_bits": 4.0})
        assert cfg.target_snr_db is None
        assert cfg.target_snr_linear() == pytest.approx(15.0)
        assert cfg.resolved_target_snr_db() == pytest.approx(10 * math.log10(15.0))

    @pytest.mark.parametrize("key", ["pl0_db", "alpha", "d0_m"])
    def test_link_budget_keys_rejected(self, key):
        # the engine never read these; manifests written with them no longer load
        with pytest.raises(ConfigError, match=f"{key}: unknown key"):
            from_dict({key: 1.0})

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"quantization_include_zero": False}, "quantization_include_zero"),
            ({"channel_redraw_period": 5}, "channel_redraw_period"),
            ({"death": {"nominal": "target"}}, "death.nominal"),
            ({"snr_average": "db"}, "snr_average"),
            ({"ensemble_conditioning": "zero_fill"}, "ensemble_conditioning"),
            ({"wasted_percent_of_realized": True}, "wasted_percent_of_realized"),
            ({"amplitude_divisor": 20}, "amplitude_divisor"),
        ],
    )
    def test_removed_convention_keys_rejected(self, data, path):
        # every workload ran one convention; manifests naming these keys no longer load
        with pytest.raises(ConfigError, match=f"^{path}: unknown key"):
            from_dict(data)

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"wavelength_m": 0.125}, "wavelength_m"),
            ({"disk_radius_wavelengths": 250.0}, "disk_radius_wavelengths"),
            ({"destinations": {"range_m": 1000.0, "azimuths_deg": [0.0]}}, "destinations"),
        ],
    )
    def test_inert_geometry_keys_rejected(self, data, path):
        # the carrier phase cancels the propagation phase, so node positions,
        # ranges and bearings never reached the SNR; manifests naming these
        # keys no longer load (the link count is the top-level ``links``)
        with pytest.raises(ConfigError, match=f"^{path}: unknown key"):
            from_dict(data)

    def test_readme_config_block_matches_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```jsonc\n(.*?)```", readme, re.DOTALL).group(1)
        documented = json.loads(re.sub(r"//.*", "", block))
        assert documented == json.loads(json.dumps(asdict(ScenarioConfig())))

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"strategy": {"kind": "nonsense"}}, "strategy.kind"),
            ({"strategy": {"period": 0}}, "strategy.period"),
            ({"death": {"max_dead_fraction": 0.0}}, "death.max_dead_fraction"),
            ({"death": {"snr_drop_db": 0.0}}, "death.snr_drop_db"),
            ({"energy": {"kind": "exotic"}}, "energy.kind"),
            ({"energy": {"e_max": 0.0}}, "energy.e_max"),
            ({"energy": {"kind": "uniform", "mean": 0.7}}, "energy.mean"),
            ({"energy": {"kind": "gaussian", "mean": 1.5}}, "energy.mean"),
            # ints past Python's int-to-str digit limit, which no JSON file holds;
            # at that n the closed form's channel-moment denominator overflows
            ({"n": 10**5000}, "shadowing_sigma2_db"),
            ({"links": -(10**5000)}, "links"),
        ],
    )
    def test_rejected_values_name_their_key(self, data, path):
        with pytest.raises(ConfigError, match=f"^{path}:"):
            from_dict(data)

    def test_bad_levels_rejected(self):
        with pytest.raises(ConfigError, match="levels"):
            from_dict({"strategy": {"levels": 3}})

    def test_round_trip_through_dict(self):
        cfg = preset("multi-link")
        assert from_dict(asdict(cfg)) == cfg


# files that cannot be read as a JSON config
UNREADABLE_CONFIGS = [
    pytest.param(b'{"n": 10, "runs": "\xe9"}', "not valid UTF-8", id="latin-1"),
    pytest.param(b"[" * 100000, "not valid JSON", id="unclosed-past-recursion-limit"),
    pytest.param(b"[" * 100000 + b"]" * 100000, "not valid JSON", id="nested-past-recursion-limit"),
    # json.loads raises a bare ValueError past the 4300-digit int limit
    pytest.param(b'{"n": ' + b"9" * 5000 + b"}", "integer too long to read", id="integer-past-digit-limit"),
]


class TestLoadConfig:
    def test_empty_file_is_default_preset(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("\n")
        assert load_config(path) == preset("pa-uniform")

    def test_parse_error_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_valid_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 10, "runs": 3}))
        cfg = load_config(path)
        assert cfg.n == 10 and cfg.runs == 3

    @pytest.mark.parametrize("content, message", UNREADABLE_CONFIGS)
    def test_unreadable_file_is_named(self, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=message) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: ")


def tiny_config_dict(**overrides):
    data = {
        "n": 10,
        "runs": 3,
        "master_seed": 5,
        "target_snr_db": 8.0,
        "max_rounds": 400,
        "t_slot_s": 5e9,
        "p_max": 1e-9,
    }
    data.update(overrides)
    return data


def _nan_with_payload():
    value = np.array([math.nan])
    value.view(np.int64)[0] |= 1
    return value[0]


SPECIAL_COLUMNS = [
    [0.25],
    [0.5] * 7,
    [0.1, 0.2, 0.3, -1.5, 1e300],
    [0.0, -0.0, -0.0, 0.0],
    [math.nan, math.nan, 1.0, math.nan, math.nan, math.nan],
    [math.inf, math.inf, -math.inf, -math.inf],
    [0.0, 5e-324, 5e-324, 0.0, 2.2250738585072e-308, -5e-324, -0.0],
    [1.0, 2.0] * 5,
    [_nan_with_payload(), -math.nan, -math.nan, 0.0, -0.0],
]


def ensemble_of_columns(alive, snr, rate, residual):
    """An EnsembleResult holding the given curves, as from runs of 1 to ``rounds`` rounds."""
    rounds = len(alive)
    return EnsembleResult(
        rounds=rounds,
        alive_fraction=np.array(alive, dtype=float),
        snr_db=np.array(snr, dtype=float),
        rate_total=np.array(rate, dtype=float),
        residual_total=np.array(residual, dtype=float),
        surviving_runs=np.arange(rounds, 0, -1),
        lifetimes=np.arange(1, rounds + 1),
        wasted_j=np.zeros(rounds),
        wasted_pct=np.zeros(rounds),
        causes=(("snr",),) * rounds,
    )


def csv_writer_rounds(result):
    """The rounds.csv bytes csv.writer gives for the result's columns."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["round", "alive_fraction", "snr_db", "rate_bits", "residual_total_j", "surviving_runs"])
    writer.writerows(
        zip(
            range(1, result.rounds + 1),
            result.alive_fraction.tolist(),
            result.snr_db.tolist(),
            result.rate_total.tolist(),
            result.residual_total.tolist(),
            result.surviving_runs.tolist(),
        )
    )
    return expected.getvalue().encode("utf-8")


@pytest.mark.parametrize("values", SPECIAL_COLUMNS)
def test_rounds_csv_writes_special_values_as_csv_does(tmp_path, values):
    # signed zeros, NaNs with any sign or payload, infinities and subnormals
    # are written with csv's text, in every float column
    result = ensemble_of_columns(values, values[::-1], values, values[::-1])
    _write_ensemble_dir(tmp_path, result, ScenarioConfig())
    assert (tmp_path / "rounds.csv").read_bytes() == csv_writer_rounds(result)


def test_rounds_csv_rows_span_blocks(tmp_path, monkeypatch):
    # a table of several row blocks, the last one partial, is written whole
    monkeypatch.setattr(beamlife.cli, "_ROUNDS_BLOCK", 4)
    values = np.random.default_rng(1).normal(size=(4, 11)) * 10.0 ** np.arange(-5, 6)
    result = ensemble_of_columns(*values.tolist())
    _write_ensemble_dir(tmp_path, result, ScenarioConfig())
    assert (tmp_path / "rounds.csv").read_bytes() == csv_writer_rounds(result)


def test_rounds_csv_runs_of_equal_cells_span_blocks(tmp_path, monkeypatch):
    # runs of bit-identical cells cross the 4-row block edges, beside cells
    # that are equal in value but not in bits
    monkeypatch.setattr(beamlife.cli, "_ROUNDS_BLOCK", 4)
    payload = _nan_with_payload()
    column = [0.5] * 6 + [0.0] * 3 + [-0.0] * 3 + [math.nan] * 2 + [payload] * 3 + [-math.nan] * 2 + [0.25] * 5
    result = ensemble_of_columns(column, column[::-1], column[3:] + column[:3], column[5:] + column[:5])
    result = replace(result, surviving_runs=np.repeat([3, 2, 1], [7, 6, 11]))
    _write_ensemble_dir(tmp_path, result, ScenarioConfig())
    assert (tmp_path / "rounds.csv").read_bytes() == csv_writer_rounds(result)


class TestCli:
    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in preset_names():
            assert name in out

    def test_run_writes_tables(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        rounds = (out / "rounds.csv").read_text().splitlines()
        header = rounds[0].split(",")
        assert header == ["round", "alive_fraction", "snr_db", "rate_bits", "residual_total_j", "surviving_runs"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["runs"] == 3
        assert manifest["run_seeds"] == [[5, 0], [5, 1], [5, 2]]
        assert (out / "summary.csv").exists()
        # row count equals the longest lifetime across runs
        result = run_ensemble(load_config(cfg_path))
        assert len(rounds) - 1 == result.rounds

    def test_run_with_preset(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--preset", "pa-uniform", "--out", str(out), "--runs", "2"]) == 0
        assert (out / "rounds.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 100

    def test_rounds_csv_is_csv_of_the_ensemble(self, tmp_path):
        # rounds.csv holds the bytes csv.writer gives for the result's floats
        out = tmp_path / "out"
        assert main(["run", "--preset", "epa-uniform", "--runs", "3", "--out", str(out)]) == 0
        result = run_ensemble(replace(preset("epa-uniform"), runs=3))
        assert (out / "rounds.csv").read_bytes() == csv_writer_rounds(result)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict()))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("rounds.csv", "summary.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_reingests_identically(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict()))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()

    def test_overridden_manifest_reingests_identically(self, tmp_path):
        # the manifest's config records the --runs/--seed values the run used
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict()))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out1), "--runs", "2", "--seed", "9"]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert (manifest["config"]["runs"], manifest["config"]["master_seed"]) == (2, 9)
        assert (manifest["runs"], manifest["master_seed"]) == (2, 9)
        assert main(["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "flag, value, path",
        [("--runs", "0", "runs"), ("--seed", "-5", "master_seed"), ("--workers", "-3", "workers")],
    )
    def test_bad_override_exits_with_key_path(self, tmp_path, capsys, command, flag, value, path):
        scenarios = ["--preset", "pa-uniform"] + (["--preset", "epa-uniform"] if command == "compare" else [])
        out = tmp_path / "out"
        assert main([command, *scenarios, "--out", str(out), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not out.exists()

    def test_worker_flag_does_not_change_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # a real pool, even on one CPU
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict()))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out1), "--workers", "1"]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out2), "--workers", "2"]) == 0
        assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_library_warning_is_one_line(self, tmp_path, capfd, monkeypatch, command, workers):
        # Shown under the "default" filter: no source location, no code line,
        # and raised once by the caller, never by a worker. capfd, not
        # capsys: a forked worker writes to its own copy of sys.stderr.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        paths = []
        for name in ("a", "b")[: 1 + (command == "compare")]:
            paths += ["--config", str(tmp_path / f"{name}.json")]
            Path(paths[-1]).write_text(json.dumps(tiny_config_dict(n=101, links=2, runs=2)))
        shown = warnings.showwarning
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            assert main([command, *paths, "--out", str(tmp_path / "out"), "--workers", workers]) == 0
            assert warnings.showwarning is shown
        assert capfd.readouterr().err == "warning: 101 nodes do not split evenly into 2 links\n"

    def test_infeasible_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict(p_max=1e-30)))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"p_max": -2.0}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1

    def test_memory_budget_counts_each_link(self):
        # Near the budget a second link tips n over it. Neither case runs: the
        # one-link scenario would allocate about 1 GB.
        cfg = replace(preset("pa-uniform"), n=7_500_000)
        assert beamlife.cli._with_overrides(cfg, None, None) == cfg
        with pytest.raises(ConfigError, match=r"^n: 7500000 nodes on 2 link\(s\)"):
            beamlife.cli._with_overrides(replace(cfg, links=2), None, None)

    def test_round_budget_holds_the_default_rounds(self):
        # The default max_rounds fits, on one link and on the 100-link
        # zero-target probe; ten times as many rounds on 100 links do not.
        # None of these runs.
        probe = replace(preset("epa-uniform"), links=100, target_snr_db=None, target_rate_bits=0.0)
        for cfg in (preset("pa-uniform"), probe):
            assert cfg.max_rounds == 10**6 and beamlife.cli._with_overrides(cfg, None, None) == cfg
        with pytest.raises(ConfigError, match=r"^max_rounds: 10000000 rounds on 100 link\(s\)"):
            beamlife.cli._with_overrides(replace(probe, max_rounds=10**7), None, None)

    @pytest.mark.parametrize("case", ["epa-one-shot", "epa-one-shot-crossing", "pa-period-1", "epa-one-shot-walk"])
    def test_run_memory_fits_the_budget(self, case):
        # The budget the CLI refuses an n by must hold a run's traced peak.
        # Narrow gaussian budgets keep every node alive for the 12 rounds, so
        # the one-shot runs step an 11-round stretch and cb_pa reallocates
        # every round. In the crossing case every node starts 3.5 slot
        # charges above 0.5 and crosses that binade edge in the stretch. The
        # walk case's 39-round stretch is longer than the walk steps row by
        # row, so it jumps by binades.
        n = 200_000
        one_shot = StrategySpec(kind="cb_epa", levels=0, period=10**9)
        cfg = replace(
            preset("pa-uniform"),
            n=n,
            strategy=one_shot if case.startswith("epa") else StrategySpec(kind="cb_pa", levels=8, period=1),
            energy=EnergySpec(kind="gaussian", e_max=1.0, mean=0.5, sigma=0.05),
            max_rounds=40 if case == "epa-one-shot-walk" else 12,
            runs=1,
        )
        if case == "epa-one-shot-crossing":
            flat = replace(cfg, energy=replace(cfg.energy, sigma=0.0), max_rounds=1)
            charge = run_lifetime(flat, np.random.default_rng(0)).consumed_j / n
            cfg = replace(cfg, energy=replace(flat.energy, mean=0.5 + 3.5 * charge))
        tracemalloc.start()
        try:
            trace = run_lifetime(cfg, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.lifetime == cfg.max_rounds and trace.alive_fraction[-1] == 1.0
        if case == "epa-one-shot-walk":
            assert cfg.max_rounds - 1 > beamlife.lifetime._SHORT
        if case == "epa-one-shot-crossing":
            assert trace.wasted_j < 0.5 * n < trace.initial_j
        assert peak <= 8 * n * (cfg.links + beamlife.cli._NODE_VECTORS)

    @pytest.mark.parametrize("links", [1, 10, 100])
    def test_ensemble_memory_fits_the_round_budget(self, links):
        # The budget the CLI refuses a max_rounds by must hold a one-run
        # ensemble's traced peak, the fold's link mean included. At a zero
        # target every weight is zero, so the one-shot run pays nothing and
        # lasts all its rounds with every link up.
        cfg = replace(
            preset("epa-uniform"), links=links, target_snr_db=None, target_rate_bits=0.0, runs=1, max_rounds=10**5
        )
        tracemalloc.start()
        try:
            result = run_ensemble(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.rounds == cfg.max_rounds and not np.isnan(result.snr_db).any()
        assert peak <= 8 * cfg.max_rounds * (links + beamlife.cli._ROUND_VECTORS)

    def test_negative_zero_shadowing_runs_as_zero(self, tmp_path):
        # sqrt(-0.0) is -0.0, a scale the channel draw would reject as negative
        written = []
        for name, sigma2 in (("plus", 0.0), ("minus", -0.0)):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(tiny_config_dict(shadowing_sigma2_db=sigma2, runs=2)))
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
            written.append((tmp_path / name / "rounds.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"target_snr_db": float("nan")}, "target_snr_db"),
            ({"target_snr_db": float("inf")}, "target_snr_db"),
            ({"runs": True}, "runs"),
            ({"n": "100"}, "n"),
            ({"n": 2.5}, "n"),
            ({"links": 0}, "links"),
            ({"shadowing_sigma2_db": 30000, "n": 10, "runs": 2, "max_rounds": 50}, "shadowing_sigma2_db"),
            ({"shadowing_sigma2_db": 1e8}, "shadowing_sigma2_db"),
            ({"master_seed": -1}, "master_seed"),
            # once ran on NaN phases, and with a FarFieldWarning per node
            ({"wavelength_m": 1e-300, "destinations": {"range_m": 1e10, "azimuths_deg": [0.0]}, "max_rounds": 50},
             "wavelength_m"),
            ({"disk_radius_wavelengths": 2000}, "disk_radius_wavelengths"),
            ({"links": 101}, "links"),
            ({"links": 1.5}, "links"),
            ({"links": True}, "links"),
            # a manifest written when links were given as a list of azimuths
            ({"artifact_version": "0.1.0", "config": {"destinations": {"azimuths_deg": [0.0]}}}, "destinations"),
            # the linear noise power or target SNR overflows, or the noise underflows to 0
            ({"noise_db": 4000, "runs": 1}, "noise_db"),
            ({"target_snr_db": 4000, "runs": 1}, "target_snr_db"),
            ({"target_rate_bits": 2000, "target_snr_db": None, "runs": 1}, "target_rate_bits"),
            ({"noise_db": -4000, "max_rounds": 5, "runs": 1}, "noise_db"),
            ({"strategy": {"levels": 2**1024}, "runs": 1, "max_rounds": 5}, "strategy.levels"),
            # past n * levels <= 2**53 or e_max >= levels * 2**-1022, where level sums and steps are exact
            ({"n": 100, "strategy": {"levels": 2**47}}, "strategy.levels"),
            ({"n": 100, "strategy": {"levels": 2**60}}, "strategy.levels"),
            ({"n": 100, "strategy": {"levels": 2**1023}}, "strategy.levels"),
            ({"energy": {"kind": "uniform", "e_max": 2.0**-1020, "mean": 2.0**-1021}, "strategy": {"levels": 8}},
             "strategy.levels"),
            # long values, which the message echoes cut
            ({"energy": {"kind": "x" * 100000}}, "energy.kind"),
            ({"strategy": {"kind": "x" * 100000}}, "strategy.kind"),
            ({"strategy": {"levels": int("3" * 4000)}}, "strategy.levels"),
            ({"n": "x" * 100000}, "n"),
            ({"n": [[[[[[[[[[1]]]]]]]]]] * 1000}, "n"),
            ({"p_max": "x" * 100000}, "p_max"),
            ({"death": {"snr_drop_db": ["x" * 100000]}}, "death.snr_drop_db"),
            ({"links": 10**3999, "n": 10}, "links"),
            ({"n": 10**3999, "shadowing_sigma2_db": 1e4}, "shadowing_sigma2_db"),
            # per-run arrays above the memory budget, refused before they are allocated
            pytest.param({"n": 10**10, "runs": 1, "max_rounds": 5}, "n", id="n-over-memory-budget"),
            pytest.param({"n": 7_500_000, "links": 2, "runs": 1, "max_rounds": 5}, "n", id="n-two-links-over-budget"),
            pytest.param({"n": 10**150, "runs": 1}, "n", id="n-huge-over-budget"),
            # a manifest whose config is not an object
            pytest.param({"artifact_version": "0.1.0", "config": [1, 2]}, "config", id="manifest-config-not-an-object"),
            # the cluster's energy sums overflow: runs * n * e_max above 2**1016
            pytest.param({"energy": {"kind": "uniform", "e_max": 1e308, "mean": 5e307}, "runs": 2, "max_rounds": 5},
                         "energy.e_max", id="e_max-sums-overflow"),
            pytest.param({"energy": {"kind": "gaussian", "e_max": 1e308, "mean": 5e307}, "runs": 2, "max_rounds": 5},
                         "energy.e_max", id="e_max-sums-overflow-gaussian"),
            # a zero charge jumps any stretch at once, but the per-round trace cannot hold its rounds
            pytest.param({"n": 10, "target_rate_bits": 0.0, "target_snr_db": None,
                          "strategy": {"kind": "cb_epa", "levels": 0, "period": 10**9}, "runs": 1, "max_rounds": 10**20},
                         "max_rounds", id="max_rounds-over-memory-budget"),
            # wasted_pct divides by n * mean, which wasted_j can pass by e_max / mean
            pytest.param({"energy": {"kind": "gaussian", "e_max": 1e300, "mean": 1e-300, "sigma": 1e300}, "runs": 2,
                          "max_rounds": 5}, "energy.mean", id="wasted-pct-overflow"),
        ],
    )
    def test_malformed_value_exits_with_key_path(self, tmp_path, capsys, data, path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))  # NaN and Infinity as Python's json writes them
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert len(err.encode()) < 300
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("content, message", UNREADABLE_CONFIGS)
    def test_unreadable_config_exits_with_its_path(self, tmp_path, capsys, command, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        scenarios = ["--config", str(path)] if command == "run" else ["--preset", "pa-uniform", "--config", str(path)]
        assert main([command, *scenarios, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not (tmp_path / "out").exists()

    def test_run_and_compare_leave_numpy_ma_unimported(self, tmp_path):
        # np.quantile imports numpy.ma (through np.unique), about 1.2 MB of
        # peak RSS in every command
        script = (
            "import sys\n"
            "from beamlife.cli import main\n"
            f"assert main(['run', '--preset', 'pa-uniform', '--runs', '3', '--out', {str(tmp_path / 'run')!r}]) == 0\n"
            "assert main(['compare', '--preset', 'pa-uniform', '--preset', 'epa-uniform', '--runs', '3',"
            f" '--out', {str(tmp_path / 'cmp')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_compare_emits_lifetime_ratio(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(tiny_config_dict()))
        b.write_text(json.dumps(tiny_config_dict(target_snr_db=5.0)))
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--config", str(a), "--config", str(b), "--out", str(out), "--runs", "3"]
        )
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0].split(",")[:3] == ["scenario", "lifetime_mean_rounds", "lifetime_ratio"]
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[2]) == 1.0
        assert (out / "a" / "rounds.csv").exists()
        assert (out / "b" / "rounds.csv").exists()

    def test_compare_quotes_labels(self, tmp_path):
        # a label is a file stem, which may hold csv's delimiter or quote
        a, b = tmp_path / "a,b.json", tmp_path / 'say "hi".json'
        a.write_text(json.dumps(tiny_config_dict()))
        b.write_text(json.dumps(tiny_config_dict(target_snr_db=5.0)))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(a), "--config", str(b), "--out", str(out)]) == 0
        with open(out / "comparison.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == ["a,b", 'say "hi"']
        assert all(len(row) == 5 for row in rows)

    def test_summaries_print_death_causes(self, tmp_path, capsys):
        # one causes line per ensemble, counting every link of every run
        def printed_causes():
            found = re.findall(r"causes: nodes (\d+), snr (\d+), max_rounds (\d+)", capsys.readouterr().out)
            return [tuple(int(c) for c in counts) for counts in found]

        cfg_path = tmp_path / "two_links.json"
        cfg_path.write_text(json.dumps(tiny_config_dict(links=2)))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        (counts,) = printed_causes()
        assert sum(counts) == 3 * 2
        causes = [c for run in run_ensemble(load_config(cfg_path)).causes for c in run]
        assert counts == tuple(causes.count(c) for c in ("nodes", "snr", "max_rounds"))

        capped = tmp_path / "capped.json"
        capped.write_text(json.dumps(tiny_config_dict(max_rounds=3)))
        assert main(["compare", "--config", str(cfg_path), "--config", str(capped), "--out", str(tmp_path / "cmp")]) == 0
        two_links, one_link = printed_causes()
        assert sum(two_links) == 3 * 2
        assert one_link == (0, 0, 3)

    def test_compare_rejects_duplicate_labels(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a, b = tmp_path / "a" / "x.json", tmp_path / "b" / "x.json"
        a.write_text(json.dumps(tiny_config_dict()))
        b.write_text(json.dumps(tiny_config_dict(target_snr_db=5.0)))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(a), "--config", str(b), "--out", str(out)]) == 1
        assert "'x'" in capsys.readouterr().err
        assert main(["compare", "--preset", "pa-uniform", "--preset", "pa-uniform", "--out", str(out)]) == 1
        assert "'pa-uniform'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, label", [("...json", ".."), ("..json", "."), ("comparison.csv.json", "comparison.csv")]
    )
    def test_compare_rejects_dot_labels(self, tmp_path, capsys, name, label):
        # label ".." would write its ensemble beside --out, "." beside comparison.csv, and
        # "comparison.csv" into the directory that the comparison table is then written over
        (tmp_path / "cfg").mkdir()
        dots, b = tmp_path / "cfg" / name, tmp_path / "cfg" / "b.json"
        dots.write_text(json.dumps(tiny_config_dict()))
        b.write_text(json.dumps(tiny_config_dict(target_snr_db=5.0)))
        out = tmp_path / "out" / "cmp"
        assert main(["compare", "--config", str(dots), "--config", str(b), "--out", str(out)]) == 1
        assert f"{label!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_compare_rejects_mismatched_sizes(self, tmp_path, capsys):
        n10, n20 = tmp_path / "n10.json", tmp_path / "n20.json"
        n10.write_text(json.dumps({"n": 10, "runs": 2}))
        n20.write_text(json.dumps({"n": 20, "runs": 2}))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(n10), "--config", str(n20), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n: ")
        assert "'n10'" in err and "'n20'" in err
        assert not out.exists()

    def test_compare_takes_scenarios_in_command_line_order(self, tmp_path):
        # the first scenario given is the baseline and sets every scenario's run count and master seed
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"n": 100, "runs": 3, "master_seed": 5}))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(a), "--preset", "quant-2", "--out", str(out)]) == 0
        with open(out / "comparison.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["scenario"] for row in rows] == ["a", "quant-2"]
        assert float(rows[0]["lifetime_ratio"]) == 1.0
        manifest = json.loads((out / "quant-2" / "manifest.json").read_text())
        assert (manifest["runs"], manifest["master_seed"]) == (3, 5)
        assert (manifest["config"]["runs"], manifest["config"]["master_seed"]) == (3, 5)

    @pytest.mark.parametrize(
        "scenarios",
        [["--preset", "quant-2", "--preset", "epa-uniform"], ["--config", "a.json", "--preset", "pa-uniform"]],
        ids=["two-presets", "config-and-preset"],
    )
    def test_run_refuses_a_second_scenario(self, tmp_path, capsys, scenarios):
        (tmp_path / "a.json").write_text(json.dumps(tiny_config_dict()))
        scenarios = [str(tmp_path / v) if v.endswith(".json") else v for v in scenarios]
        out = tmp_path / "out"
        assert main(["run", *scenarios, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run takes one scenario") and err.count("\n") == 1
        assert not out.exists()

    def test_compare_needs_two(self, tmp_path):
        assert main(["compare", "--preset", "pa-uniform", "--out", str(tmp_path)]) == 1

    def test_compare_rate_presets_ratio_near_two(self, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--preset", "rate-4bit", "--preset", "rate-3bit",
             "--out", str(out), "--runs", "60"]
        )
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        header = lines[0].split(",")
        ratio_col = header.index("lifetime_ratio")
        ratio = float(lines[2].split(",")[ratio_col])
        assert 1.7 <= ratio <= 2.4
