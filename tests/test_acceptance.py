"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Ensembles run at desk scale (100 nodes, 200 Monte Carlo runs) on the
shipped presets; run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines as they complete.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from beamlife.allocation import (
    InfeasibleAllocationError,
    ReiStats,
    cbepa_weight,
    compute_wmax,
    lognormal_channel_stats,
    solve_max_gain,
    solve_min_power,
)
from beamlife.config import EnergySpec, ScenarioConfig, StrategySpec, preset
from beamlife.ensemble import compare_strategies, run_ensemble
from beamlife.lifetime import run_lifetime

from test_allocation import SPREADS, grid_best_max_gain, grid_best_min_power
from test_lifetime import assert_residual_curve_within_bound

RUNS = 200
NOISE = 1e-10


def preset_ensemble(name):
    return run_ensemble(replace(preset(name), runs=RUNS))


def check(criterion, description, value_text, ok):
    line = f"[acceptance] criterion {criterion}: {description}: {value_text} -> {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def allocation_study():
    names = (
        "pa-uniform",
        "epa-uniform",
        "pa-gaussian",
        "epa-gaussian",
    )
    return {name: preset_ensemble(name) for name in names}


@pytest.fixture(scope="module")
def link_split_study():
    return {
        "single": preset_ensemble("single-link"),
        "multi": preset_ensemble("multi-link"),
    }


@pytest.fixture(scope="module")
def quantization_study():
    return {
        levels: preset_ensemble(f"quant-{levels}")
        for levels in (2, 4, 8)
    }


def _empirical_mean_snr(seed, n, sigma2, scale, with_energy, draws=100_000):
    rng = np.random.default_rng(seed)
    total = 0.0
    chunk = draws // 10
    for _ in range(10):
        gains = 10.0 ** (rng.normal(0.0, math.sqrt(sigma2), (chunk, n)) / 20.0)
        if with_energy:
            u = rng.uniform(0.0, 1.0, (chunk, n))
            amplitude = scale * (u * gains).sum(axis=1)
        else:
            amplitude = scale * gains.sum(axis=1)
        total += float((amplitude**2).sum())
    return total / draws / NOISE


@SPREADS
def test_criterion_2_analytic_vs_empirical_snr(sigma2):
    target = 10 ** 1.176
    n = 100
    ch = lognormal_channel_stats(sigma2)
    w_equal = cbepa_weight(target, n, ch, NOISE)
    equal = _empirical_mean_snr(101, n, sigma2, w_equal, with_energy=False)
    rei = ReiStats(mean=0.5, variance=1.0 / 12.0)
    scale = compute_wmax(target, n, rei, ch, NOISE)
    prop = _empirical_mean_snr(103, n, sigma2, scale, with_energy=True)
    err_equal = abs(equal / target - 1.0)
    err_prop = abs(prop / target - 1.0)
    check(2, f"empirical mean SNR vs closed forms (shadowing {sigma2:g} dB², 1e5 draws)",
          f"equal-power off by {100 * err_equal:.2f}%, proportional off by {100 * err_prop:.2f}%",
          err_equal < 0.02 and err_prop < 0.02)


def equal_power_stranded_pct(cfg):
    """Closed-form mean stranded energy, in percent, of the static equal-power benchmark.

    With one equal weight and uniform budgets on [0, e_max], every alive node
    pays the same slot energy, so nodes die in order of their initial budget
    and the realized SNR is the squared share of the initial gain sum still
    alive. The SNR-drop rule fires when that share reaches
    a = 10^(-snr_drop_db/20); the survivors then hold a^2 = 10^(-snr_drop_db/10)
    of the expected cluster energy. The death that crosses the threshold
    overshoots it by about one node's size-biased gain share,
    (1 + cv^2) / (2n), where cv^2 = variance / mean^2 of the amplitude gain.
    """
    stats = lognormal_channel_stats(cfg.shadowing_sigma2_db)
    cv2 = stats.variance / stats.mean**2
    alive_share = 10.0 ** (-cfg.death.snr_drop_db / 20.0) - (1.0 + cv2) / (2.0 * cfg.n)
    return 100.0 * alive_share**2


# Widest tolerance the stranded-energy check accepts. A 0.5 dB error in the
# drop rule moves the 3 dB value by 4.5 to 7 points, so a wider band from a
# too-small or too-noisy ensemble could no longer catch it.
STRANDED_TOLERANCE_CAP = 2.5


def equal_power_stranded_check(result, cfg):
    """Compare measured mean stranded energy with the closed form.

    The tolerance is 3 standard errors of the ensemble mean of ``wasted_pct``
    (about 1.3 points at 200 runs), capped at ``STRANDED_TOLERANCE_CAP``.
    Returns ``(ok, text)``.
    """
    measured = float(result.wasted_pct.mean())
    expected = equal_power_stranded_pct(cfg)
    tolerance = 3.0 * float(result.wasted_pct.std(ddof=1)) / math.sqrt(result.wasted_pct.size)
    ok = tolerance <= STRANDED_TOLERANCE_CAP and abs(measured - expected) <= tolerance
    return ok, f"{measured:.1f}% vs closed form {expected:.1f} +/- {tolerance:.1f}%"


def test_criterion_3a_equal_power_uniform_wasted(allocation_study):
    ok, text = equal_power_stranded_check(allocation_study["epa-uniform"], preset("epa-uniform"))
    check("3a", "equal power, uniform energy: mean wasted energy matches the SNR-drop identity",
          text, ok)


@pytest.mark.parametrize("snr_drop_db", [2.0, 4.0])
def test_criterion_3a_identity_across_snr_drop(snr_drop_db):
    base = preset("epa-uniform")
    cfg = replace(base, death=replace(base.death, snr_drop_db=snr_drop_db))
    ok, text = equal_power_stranded_check(run_ensemble(replace(cfg, runs=100)), cfg)
    check("3a", f"equal power, uniform energy, {snr_drop_db:g} dB drop rule: "
          "mean wasted energy matches the SNR-drop identity", text, ok)


def test_criterion_3b_proportional_uniform_wasted(allocation_study):
    value = allocation_study["pa-uniform"].wasted_pct.mean()
    check("3b", "residual-proportional, uniform energy: mean wasted energy in 14 +/- 5 points",
          f"{value:.1f}%", 9.0 <= value <= 19.0)


def test_criterion_3c_gaussian_ordering(allocation_study):
    pa = allocation_study["pa-gaussian"].wasted_pct.mean()
    epa = allocation_study["epa-gaussian"].wasted_pct.mean()
    check("3c", "gaussian energy: proportional wastes less than equal power",
          f"{pa:.1f}% < {epa:.1f}%", pa < epa)


def _linear_fit_r2(y):
    x = np.arange(1, y.size + 1, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def test_criterion_4a_equal_power_linear_decay(allocation_study):
    result = allocation_study["epa-uniform"]
    window = int(0.8 * result.lifetimes.mean())
    r2 = _linear_fit_r2(result.alive_fraction[:window])
    check("4a", "equal power, uniform energy: alive fraction near-linear over first 80% of lifetime",
          f"R^2 = {r2:.4f}", r2 >= 0.98)


def test_criterion_4b_proportional_decays_slower(allocation_study):
    epa = allocation_study["epa-uniform"]
    pa = allocation_study["pa-uniform"]
    half_life = max(1, int(epa.lifetimes.mean() / 2))
    pa_alive = pa.alive_fraction[min(half_life, pa.rounds) - 1]
    epa_alive = epa.alive_fraction[min(half_life, epa.rounds) - 1]
    check("4b", "proportional alive fraction at the equal-power half-life is strictly higher",
          f"{pa_alive:.3f} > {epa_alive:.3f}", pa_alive > epa_alive)


def test_criterion_5a_multi_link_rate_matches_single(link_split_study):
    single = link_split_study["single"].rate_total[0]
    multi = link_split_study["multi"].rate_total[0]
    rel = abs(multi - single) / single
    check("5a", "two links at first round carry almost the single-link total rate",
          f"{multi:.2f} vs {single:.2f} bits/s/Hz ({100 * rel:.1f}% apart)", rel <= 0.10)


def test_criterion_5b_single_link_snr_higher(link_split_study):
    single = link_split_study["single"].snr_db[0]
    multi = link_split_study["multi"].snr_db[0]
    check("5b", "single-link SNR exceeds the per-link SNR of the split cluster",
          f"{single:.2f} dB > {multi:.2f} dB", single > multi)


def test_criterion_5c_multi_link_lives_longer(link_split_study):
    single = link_split_study["single"].lifetimes.mean()
    multi = link_split_study["multi"].lifetimes.mean()
    check("5c", "splitting into two links does not shorten the mean lifetime (gaussian energy)",
          f"{multi:.1f} >= {single:.1f} rounds", multi >= single)


def test_criterion_6_bit_rate_lifetime_ratio():
    cmp = compare_strategies(
        [replace(preset(name), runs=RUNS) for name in ("rate-4bit", "rate-3bit")],
        labels=("rate4", "rate3"),
    )
    ratio = float(cmp.lifetime_ratios[1])
    check(6, "dropping the target by one bit roughly doubles the lifetime",
          f"ratio {ratio:.2f} in [1.7, 2.4]", 1.7 <= ratio <= 2.4)


def test_criterion_7_quantization_orderings(quantization_study):
    taus = {levels: quantization_study[levels].lifetimes.mean() for levels in (2, 4, 8)}
    wasted = {levels: quantization_study[levels].wasted_pct.mean() for levels in (2, 4, 8)}
    tau_ok = taus[8] >= taus[4] >= taus[2]
    wasted_ok = wasted[8] <= wasted[4] <= wasted[2]
    check(7, "finer weight grids extend lifetime and cut waste",
          f"tau {taus[8]:.0f}/{taus[4]:.0f}/{taus[2]:.0f}, wasted "
          f"{wasted[8]:.1f}/{wasted[4]:.1f}/{wasted[2]:.1f}%",
          tau_ok and wasted_ok)


def test_criterion_8_solvers_match_grid_search():
    rng = np.random.default_rng(20240)
    resolution = 1e-3
    worst_gain, worst_power = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        gains = rng.uniform(0.5, 1.2, n)
        cap = 0.0004  # amplitude cap 0.02 keeps the grid exhaustive
        total = float(rng.uniform(0.3, 0.9)) * n * cap
        w = solve_max_gain(gains, total, cap)
        solver_obj = float(gains @ w) ** 2
        grid_obj = grid_best_max_gain(gains, total, cap, resolution)
        assert solver_obj >= grid_obj - 1e-12
        worst_gain = max(worst_gain, solver_obj - grid_obj)

        c = float(rng.uniform(0.2, 0.8)) * math.sqrt(cap) * gains.sum()
        w = solve_min_power(gains, c**2, 1.0, cap)
        solver_obj = float((w**2).sum())
        grid_obj = grid_best_min_power(gains, c**2, 1.0, cap, resolution)
        assert grid_obj >= solver_obj - 1e-12
        worst_power = max(worst_power, grid_obj - solver_obj)
    check(8, "centralized solvers match exhaustive grid search on 100 random instances",
          f"worst objective gaps {worst_gain:.2e} (gain), {worst_power:.2e} (power)",
          worst_gain <= resolution and worst_power <= resolution)


def _mini_scenario(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    kind = str(rng.choice(["cb_epa", "cb_pa", "centralized_min_power", "centralized_max_gain"]))
    levels = int(rng.choice([0, 2, 4, 8]))
    energy_kind = str(rng.choice(["uniform", "gaussian"]))
    rate = float(rng.choice([1.0, 2.0, 3.0]))
    sigma2 = float(rng.choice([4.0, 16.0]))
    links = 2 if n >= 2 and n % 2 == 0 and rng.random() < 0.3 else 1
    gamma = 2.0**rate - 1.0
    stats = lognormal_channel_stats(sigma2)
    w2 = cbepa_weight(gamma, max(n // links, 1), stats, NOISE) ** 2
    energy = EnergySpec(kind=energy_kind, e_max=1.0, mean=0.5, sigma=0.15)
    return ScenarioConfig(
        n=n,
        links=links,
        target_snr_db=None,
        target_rate_bits=rate,
        shadowing_sigma2_db=sigma2,
        energy=energy,
        strategy=StrategySpec(kind=kind, levels=levels, period=int(rng.choice([1, 3]))),
        t_slot_s=1.0 / (20.0 * w2),
        p_max=1e4 * w2,
        max_rounds=50,
        runs=1,
        master_seed=int(seed),
    )


def test_criterion_9_property_suite_on_mini_scenarios():
    checked, infeasible = 0, 0
    for seed in range(1000):
        cfg = _mini_scenario(seed)

        def fresh_rng():
            return np.random.default_rng(np.random.SeedSequence([4040, seed]))

        try:
            trace = run_lifetime(cfg, fresh_rng(), record_nodes=True)
        except InfeasibleAllocationError:
            infeasible += 1
            with pytest.raises(InfeasibleAllocationError):
                run_lifetime(cfg, fresh_rng(), record_nodes=True)
            continue

        # conservation: initial energy = consumed + stranded, where the
        # stranded energy is the end-of-run sum of the node residuals
        drift = abs(trace.initial_j - trace.consumed_j - trace.wasted_j)
        assert drift <= 1e-9 * max(trace.initial_j, 1e-30), f"seed {seed}: conservation drift {drift}"
        # the rows, expanded from the charges, end where the run's own residuals do
        assert float(trace.node_residuals[-1].sum()) == trace.wasted_j, f"seed {seed}: last row off the residuals"
        # the residual curve, initial energy less the energy paid, lies within
        # its bound of each row's exact sum
        assert_residual_curve_within_bound(trace)

        # range: residuals stay in [0, e_max], which lets the engine skip
        # per-round range checks on its normalized weights
        assert trace.node_residuals.min() >= 0.0, f"seed {seed}: negative residual"
        assert trace.node_residuals.max() <= cfg.energy.e_max, f"seed {seed}: residual above e_max"

        # monotonicity, per node and in aggregate
        if trace.lifetime > 1:
            node_steps = np.diff(trace.node_residuals, axis=0)
            assert node_steps.max() <= 1e-12, f"seed {seed}: residual increased"
            assert np.diff(trace.residual_total).max() <= 1e-12

        # death permanence: a dead node stays dead and stops spending
        alive = trace.node_alive
        assert not np.any(~alive[:-1] & alive[1:]), f"seed {seed}: node resurrected"
        for node in range(cfg.n):
            dead_rounds = np.flatnonzero(~alive[:, node])
            if dead_rounds.size:
                first = dead_rounds[0]
                frozen = trace.node_residuals[first:, node]
                assert np.all(frozen == frozen[0]), f"seed {seed}: dead node kept spending"

        # determinism: an identical rerun reproduces the trace bit for bit
        again = run_lifetime(cfg, fresh_rng(), record_nodes=True)
        assert again.lifetime == trace.lifetime
        assert np.array_equal(again.node_residuals, trace.node_residuals)
        assert np.array_equal(again.snr_db, trace.snr_db, equal_nan=True)
        assert again.causes == trace.causes
        checked += 1

    check(9, "conservation, monotonicity, death permanence, determinism on randomized mini-scenarios",
          f"{checked} scenarios checked, {infeasible} infeasible-at-start (reproducibly)",
          checked >= 900)


def test_criterion_10_phase_error_robustness(allocation_study):
    # The headline presets run with the +/-5 degree phase errors enabled, so
    # the allocation-study conclusions above already hold under them;
    # this re-asserts the bundle explicitly at the perturbed operating point.
    for name in allocation_study:
        assert preset(name).phase_error_deg_bound == 5.0
    pa_uniform = allocation_study["pa-uniform"].wasted_pct.mean()
    epa_ok, epa_text = equal_power_stranded_check(allocation_study["epa-uniform"], preset("epa-uniform"))
    pa_gauss = allocation_study["pa-gaussian"].wasted_pct.mean()
    epa_gauss = allocation_study["epa-gaussian"].wasted_pct.mean()
    window = int(0.8 * allocation_study["epa-uniform"].lifetimes.mean())
    r2 = _linear_fit_r2(allocation_study["epa-uniform"].alive_fraction[:window])
    ok = (
        epa_ok
        and 9.0 <= pa_uniform <= 19.0
        and pa_gauss < epa_gauss
        and r2 >= 0.98
    )
    check(10, "allocation-study bundle under +/-5 degree phase errors (the default)",
          f"equal-power {epa_text}, proportional {pa_uniform:.1f}%, "
          f"gaussian {pa_gauss:.1f}% < {epa_gauss:.1f}%, R^2 {r2:.4f}",
          ok)
