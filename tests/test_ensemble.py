"""Ensemble alignment, determinism, and comparison tests."""

import concurrent.futures
import multiprocessing
import os
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from beamlife.config import ConfigError, ScenarioConfig, StrategySpec, preset, preset_names
from beamlife.ensemble import EnsembleResult, compare_strategies, run_ensemble
from beamlife.geometry import linear_to_db
from beamlife.lifetime import run_lifetime

from test_lifetime import rng_for, small_scenario


@pytest.fixture
def recorded_pools(monkeypatch):
    """The sizes of the pools ``run_ensemble`` asks for; a stand-in runs their jobs inline."""
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

    # run_ensemble imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


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

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool, even on one CPU
        cfg = small_scenario()
        serial = run_ensemble(replace(cfg, runs=8, master_seed=5), workers=1)
        parallel = run_ensemble(replace(cfg, runs=8, master_seed=5), workers=2)
        np.testing.assert_array_equal(serial.lifetimes, parallel.lifetimes)
        np.testing.assert_array_equal(serial.alive_fraction, parallel.alive_fraction)
        np.testing.assert_array_equal(serial.residual_total, parallel.residual_total)

    def test_pool_never_exceeds_run_count(self, monkeypatch, recorded_pools):
        # A fork-based pool starts all its workers at the first submit, so
        # the pool is sized to the runs.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        cfg = small_scenario()
        pooled = run_ensemble(replace(cfg, runs=3), workers=64)
        assert recorded_pools == [3]
        np.testing.assert_array_equal(pooled.lifetimes, run_ensemble(replace(cfg, runs=3)).lifetimes)
        run_ensemble(replace(cfg, runs=1), workers=64)
        assert recorded_pools == [3]

    @pytest.mark.parametrize("cpus, sizes", [(3, [3]), (1, []), (None, [])], ids=["three", "one", "unknown"])
    def test_pool_never_exceeds_cpu_count(self, monkeypatch, recorded_pools, cpus, sizes):
        # os.cpu_count() may return None; one CPU, or an unknown count, runs serially
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = small_scenario(runs=8)
        pooled = run_ensemble(cfg, workers=5000)
        assert recorded_pools == sizes
        np.testing.assert_array_equal(pooled.lifetimes, run_ensemble(cfg).lifetimes)

    def test_uneven_split_warns_once_and_spawned_workers_stay_silent(self, monkeypatch, capfd):
        # A spawned worker keeps neither the caller's warning filters nor its
        # registry, so a warning raised in a run would print there, with a
        # source line, once per worker.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spawn = partial(concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn)
        cfg = ScenarioConfig(n=101, links=2, runs=4)
        message = r"^101 nodes do not split evenly into 2 links$"
        with pytest.warns(UserWarning, match=message) as serial_warnings:
            serial = run_ensemble(cfg)
        with pytest.warns(UserWarning, match=message) as pooled_warnings:
            pooled = run_ensemble(cfg, workers=2)
        assert len(serial_warnings) == len(pooled_warnings) == 1
        np.testing.assert_array_equal(pooled.lifetimes, serial.lifetimes)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5], ids=["zero", "negative", "bool", "float"])
    def test_workers_must_be_an_integer_of_at_least_one(self, workers):
        cfg = small_scenario(runs=2)
        with pytest.raises(ValueError, match=r"^workers: must be an integer of at least 1"):
            run_ensemble(cfg, workers=workers)
        with pytest.raises(ValueError, match=r"^workers: "):
            compare_strategies([cfg, cfg], workers=workers)

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


def nanmean_reduction(traces):
    """The curves as NaN-padded (runs, rounds) matrices averaged by nanmean."""
    lifetimes = np.array([t.lifetime for t in traces])
    max_rounds = int(lifetimes.max())
    alive, snr, rate, residual = (np.full((len(traces), max_rounds), np.nan) for _ in range(4))
    for i, trace in enumerate(traces):
        rounds_i = trace.lifetime
        alive[i, :rounds_i] = trace.alive_fraction
        snr[i, :rounds_i] = np.nanmean(10.0 ** (trace.snr_db / 10.0), axis=1)
        rate[i, :rounds_i] = trace.rate_total
        residual[i, :rounds_i] = trace.residual_total
    surviving = np.sum(lifetimes[:, None] >= np.arange(1, max_rounds + 1)[None, :], axis=0)
    with np.errstate(invalid="ignore"):
        return (
            np.nanmean(alive, axis=0),
            linear_to_db(np.nanmean(snr, axis=0)),
            np.nanmean(rate, axis=0),
            np.nanmean(residual, axis=0),
            surviving,
        )


@pytest.mark.parametrize(
    "name, runs, workers",
    [("pa-uniform", 40, 1), ("epa-uniform", 40, 1), ("multi-link", 40, 1), ("pa-uniform", 1, 1), ("pa-uniform", 6, 2)],
)
def test_run_order_fold_has_nanmean_bits(monkeypatch, name, runs, workers):
    # adding each run's curves in run order is nanmean's axis-0 sum over the
    # padded matrix, so every curve keeps its bits
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool, even on one CPU
    cfg = replace(preset(name), runs=runs)
    traces = [run_lifetime(cfg, rng_for(cfg.master_seed, i)) for i in range(runs)]
    if name == "multi-link":
        # a link that went down first leaves NaN in its SNR column
        assert any(np.isnan(t.snr_db).any() for t in traces)
    result = run_ensemble(cfg, workers=workers)
    got = (result.alive_fraction, result.snr_db, result.rate_total, result.residual_total, result.surviving_runs)
    for fold, reference in zip(got, nanmean_reduction(traces)):
        assert fold.dtype == reference.dtype
        assert fold.tobytes() == reference.tobytes()


def test_linear_link_mean_is_within_1e_15_of_the_db_round_trip():
    # Each run's link-mean SNR is folded as it is, in linear units. Taking
    # it to dB and back, as the fold once did, rounds it twice more, which
    # can move the last bits of an snr_db cell and nothing else.
    cfg = replace(preset("multi-link"), runs=40)
    traces = [run_lifetime(cfg, rng_for(cfg.master_seed, i)) for i in range(cfg.runs)]
    total = np.zeros(max(t.lifetime for t in traces))
    surviving = np.zeros(total.size)
    for trace in traces:
        link_mean_db = linear_to_db(np.nanmean(10.0 ** (trace.snr_db / 10.0), axis=1))
        total[: trace.lifetime] += 10.0 ** (link_mean_db / 10.0)
        surviving[: trace.lifetime] += 1
    round_trip = linear_to_db(total / surviving)
    result = run_ensemble(cfg)
    np.testing.assert_allclose(result.snr_db, round_trip, rtol=1e-15, atol=0)
    assert not np.array_equal(result.snr_db, round_trip)  # 33 of 247 cells differ


def test_single_round_ensemble_sums_in_run_order():
    # With one round nanmean sums the single column pairwise; the fold keeps
    # adding in run order there too. At this seed the two orders differ in
    # the last bit of both curves.
    cfg = small_scenario(runs=9, master_seed=7, max_rounds=1)
    traces = [run_lifetime(cfg, rng_for(7, i)) for i in range(9)]
    result = run_ensemble(cfg)
    assert result.rounds == 1
    for curve, field in ((result.rate_total, "rate_total"), (result.residual_total, "residual_total")):
        assert curve[0] == sum(float(getattr(t, field)[0]) for t in traces) / 9


def lifetime_samples():
    """Integer lifetimes of every size from 1 to 500, mostly distinct and with many ties."""
    rng = np.random.default_rng(19)
    samples = [np.array([7]), np.array([3, 3]), np.array([2, 9]), np.array([9, 2])]
    for size in range(1, 501):
        samples.append(rng.integers(1, 10**6, size))
        samples.append(rng.integers(1, 4, size))
    return samples


def test_summary_quantiles_have_np_quantile_bits():
    keys = ["lifetime_q10", "lifetime_q25", "lifetime_q50", "lifetime_q75", "lifetime_q90"]
    for lifetimes in lifetime_samples():
        runs = lifetimes.size
        zeros = np.zeros(runs)
        result = EnsembleResult(1, zeros, zeros, zeros, zeros, zeros, lifetimes, zeros, zeros, (("snr",),) * runs)
        summary = result.summary()
        got = [summary[key] for key in keys]
        assert all(type(q) is float for q in got)
        expected = np.quantile(lifetimes, [0.1, 0.25, 0.5, 0.75, 0.9])
        assert np.array(got).tobytes() == expected.tobytes(), lifetimes


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


# Each preset's ensemble at 8 runs, recorded from an engine whose outputs
# every speed-up must keep bit for bit: per-run lifetimes, death
# causes (per run, links joined by "/"), and the sums of the residual, rate
# and SNR curves, the last over its finite rounds, followed by the number of
# rounds whose mean SNR is -inf (every weight quantized to zero).
FROZEN_PRESETS = {
    'pa-uniform': (
        [151, 154, 121, 144, 143, 159, 158, 160],
        'snr snr snr snr snr snr snr snr',
        (4233.712733360582, 632.9213944130338, 1865.9497043058138, 0),
    ),
    'epa-uniform': (
        [143, 134, 79, 107, 124, 158, 155, 125],
        'snr snr snr snr snr snr snr snr',
        (5407.83417055795, 551.9507842048192, 1602.099052048648, 0),
    ),
    'pa-gaussian': (
        [165, 171, 163, 172, 164, 177, 181, 162],
        'snr snr snr snr snr snr snr snr',
        (4756.853746994475, 714.2299674629094, 2102.8025087023857, 0),
    ),
    'epa-gaussian': (
        [159, 162, 168, 180, 163, 177, 182, 174],
        'snr snr snr snr snr snr snr snr',
        (5133.4868327357735, 681.0336194112758, 1991.4917043524665, 0),
    ),
    'single-link': (
        [165, 171, 163, 172, 164, 177, 181, 162],
        'snr snr snr snr snr snr snr snr',
        (4755.95536380232, 714.1786083051456, 2102.8058895271674, 0),
    ),
    'multi-link': (
        [211, 209, 224, 213, 223, 206, 208, 215],
        'snr/snr snr/snr snr/snr snr/snr snr/snr snr/snr snr/snr snr/snr',
        (5869.760145095397, 846.8855015706437, 1039.8478864275457, 0),
    ),
    'rate-4bit': (
        [151, 154, 121, 144, 143, 159, 158, 160],
        'snr snr snr snr snr snr snr snr',
        (4233.003280518111, 632.7733102817987, 1865.517104446127, 0),
    ),
    'rate-3bit': (
        [319, 325, 252, 305, 303, 340, 335, 339],
        'snr snr snr snr snr snr snr snr',
        (9084.38313393003, 1018.7190164265725, 2879.7904563259885, 0),
    ),
    'quant-2': (
        [69, 73, 48, 63, 61, 76, 77, 72],
        'snr snr snr snr snr snr snr snr',
        (2771.065115204067, 300.3508445762395, 894.5565648199489, 1),
    ),
    'quant-4': (
        [118, 121, 89, 109, 109, 129, 126, 124],
        'snr snr snr snr snr snr snr snr',
        (3848.1624400947435, 513.18882826033, 1514.2892412070921, 0),
    ),
    'quant-8': (
        [151, 154, 121, 144, 143, 159, 158, 160],
        'snr snr snr snr snr snr snr snr',
        (4233.712733360582, 632.9213944130338, 1865.9497043058138, 0),
    ),
}


@pytest.mark.parametrize("name", preset_names())
def test_preset_results_are_frozen(name):
    lifetimes, causes, (residual, rate, snr, silent) = FROZEN_PRESETS[name]
    result = run_ensemble(replace(preset(name), runs=8))
    assert result.lifetimes.tolist() == lifetimes
    assert " ".join("/".join(run) for run in result.causes) == causes
    finite = np.isfinite(result.snr_db)
    assert int((~finite).sum()) == silent
    assert float(result.residual_total.sum()) == pytest.approx(residual, rel=1e-9)
    assert float(result.rate_total.sum()) == pytest.approx(rate, rel=1e-9)
    assert float(result.snr_db[finite].sum()) == pytest.approx(snr, rel=1e-9)
