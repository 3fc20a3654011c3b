"""Ensemble alignment, determinism, and comparison tests."""

from dataclasses import replace

import numpy as np
import pytest

import beamlife.ensemble
from beamlife.config import ConfigError, StrategySpec
from beamlife.ensemble import compare_strategies, run_ensemble
from beamlife.lifetime import run_lifetime

from test_lifetime import rng_for, small_scenario


class TestRunEnsemble:
    def test_single_run_equals_trace(self):
        cfg = small_scenario()
        result = run_ensemble(replace(cfg, runs=1, master_seed=7))
        trace = run_lifetime(cfg, rng_for(7, 0))
        assert result.rounds == trace.lifetime
        np.testing.assert_allclose(result.alive_fraction, trace.alive_fraction)
        np.testing.assert_allclose(result.rate_total, trace.rate_total)
        np.testing.assert_allclose(result.residual_total, trace.residual_total)
        assert result.lifetimes[0] == trace.lifetime
        assert result.wasted_pct[0] == pytest.approx(trace.wasted_pct)

    def test_deterministic_for_master_seed(self):
        cfg = small_scenario()
        a = run_ensemble(replace(cfg, runs=8, master_seed=5))
        b = run_ensemble(replace(cfg, runs=8, master_seed=5))
        np.testing.assert_array_equal(a.lifetimes, b.lifetimes)
        np.testing.assert_array_equal(a.alive_fraction, b.alive_fraction)
        np.testing.assert_array_equal(a.snr_db, b.snr_db)

    def test_worker_count_does_not_change_results(self):
        cfg = small_scenario()
        serial = run_ensemble(replace(cfg, runs=8, master_seed=5), workers=1)
        parallel = run_ensemble(replace(cfg, runs=8, master_seed=5), workers=2)
        np.testing.assert_array_equal(serial.lifetimes, parallel.lifetimes)
        np.testing.assert_array_equal(serial.alive_fraction, parallel.alive_fraction)
        np.testing.assert_array_equal(serial.residual_total, parallel.residual_total)

    def test_pool_never_exceeds_run_count(self, monkeypatch):
        # A fork-based pool starts all its workers at the first submit, so
        # the pool is sized to the runs; this stand-in runs jobs inline.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(beamlife.ensemble, "ProcessPoolExecutor", RecordingPool)
        cfg = small_scenario()
        pooled = run_ensemble(replace(cfg, runs=3), workers=64)
        assert sizes == [3]
        np.testing.assert_array_equal(pooled.lifetimes, run_ensemble(replace(cfg, runs=3)).lifetimes)
        run_ensemble(replace(cfg, runs=1), workers=64)
        assert sizes == [3]

    def test_surviving_runs_non_increasing(self):
        result = run_ensemble(small_scenario(runs=12, master_seed=11))
        assert result.surviving_runs[0] == 12
        assert np.all(np.diff(result.surviving_runs) <= 0)
        assert result.surviving_runs[-1] >= 1

    def test_alive_conditioned_average_matches_hand_fold(self):
        cfg = small_scenario()
        runs = 6
        result = run_ensemble(replace(cfg, runs=runs, master_seed=13))
        traces = [run_lifetime(cfg, rng_for(13, i)) for i in range(runs)]
        max_rounds = max(t.lifetime for t in traces)
        assert result.rounds == max_rounds
        for t in range(max_rounds):
            contributors = [tr.alive_fraction[t] for tr in traces if tr.lifetime > t]
            assert result.surviving_runs[t] == len(contributors)
            assert result.alive_fraction[t] == pytest.approx(np.mean(contributors))

    def test_mean_wasted_fraction_in_range(self):
        result = run_ensemble(small_scenario(runs=10, master_seed=17))
        assert 0.0 <= result.wasted_pct.mean() <= 100.0

    def test_run_count_validation(self):
        # the run count is validated with the scenario, before any run
        with pytest.raises(ConfigError, match="^runs: "):
            small_scenario(runs=0)
        with pytest.raises(TypeError):
            run_ensemble(small_scenario(), runs=3)


class TestCompareStrategies:
    def test_identical_scenarios_have_unit_ratio(self):
        cfg = small_scenario()
        cmp = compare_strategies([replace(cfg, runs=5, master_seed=3)] * 2)
        np.testing.assert_allclose(cmp.lifetime_ratios, [1.0, 1.0])
        np.testing.assert_allclose(cmp.wasted_pct_deltas, [0.0, 0.0])
        np.testing.assert_array_equal(cmp.ensembles[0].lifetimes, cmp.ensembles[1].lifetimes)

    def test_paired_seeds_share_realizations(self):
        # same seed, different strategy: the energy draws coincide, so the
        # first-round residual totals agree before strategies diverge
        pa = small_scenario(runs=3, master_seed=23)
        epa = small_scenario(runs=3, master_seed=23, strategy=StrategySpec(kind="cb_epa", levels=0, period=10**9))
        cmp = compare_strategies([pa, epa])
        assert cmp.labels == ("scenario_0", "scenario_1")

    def test_gaussian_energy_depletes_slower(self):
        # concentrated initial budgets have fewer near-empty nodes, so the
        # proportional strategy holds the cluster up longer
        from beamlife.config import preset

        cmp = compare_strategies(
            [replace(preset(name), runs=60) for name in ("pa-uniform", "pa-gaussian")],
            labels=("uniform", "gaussian"),
        )
        assert cmp.lifetime_means[1] > cmp.lifetime_means[0]

    def test_mismatched_sizes_rejected(self):
        # scenarios pair run by run only with one size, run count and seed
        a = small_scenario(runs=2, master_seed=1)
        for key, value in (("n", 10), ("runs", 5), ("master_seed", 2)):
            with pytest.raises(ConfigError, match=f"^{key}: .*'a'.*'b'"):
                compare_strategies([a, replace(a, **{key: value})], labels=("a", "b"))

    def test_needs_two(self):
        with pytest.raises(ValueError):
            compare_strategies([small_scenario(runs=2)])
        # one label per scenario
        with pytest.raises(ValueError, match="labels"):
            compare_strategies([small_scenario(runs=2)] * 3, labels=("x",))
