"""Round-engine tests.

The strongest check here replays the engine's setup draws in an
independent, minimal re-implementation of the round loop and compares
whole traces.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from beamlife.allocation import InfeasibleAllocationError, cbepa_weight, ChannelStats
from beamlife.config import (
    ConfigError,
    DeathSpec,
    DestinationsSpec,
    EnergySpec,
    ScenarioConfig,
    StrategySpec,
    preset,
)
from beamlife.lifetime import bit_rate, evaluate_death, partition_cluster, run_lifetime


def rng_for(seed, index=0):
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def small_scenario(**overrides):
    """A fast scenario with lifetimes of a few dozen rounds."""
    base = dict(
        n=12,
        disk_radius_wavelengths=100.0,
        wavelength_m=0.125,
        destinations=DestinationsSpec(range_m=1000.0, azimuths_deg=(0.0,)),
        target_snr_db=8.0,
        noise_db=-100.0,
        shadowing_sigma2_db=16.0,
        amplitude_divisor=20,
        phase_error_deg_bound=5.0,
        energy=EnergySpec(kind="uniform", e_max=1.0, mean=0.5, sigma=0.15),
        strategy=StrategySpec(kind="cb_pa", levels=8, period=1),
        death=DeathSpec(max_dead_fraction=0.9, snr_drop_db=3.0),
        runs=4,
        master_seed=99,
        max_rounds=500,
    )
    base.update(overrides)
    if "t_slot_s" not in base or "p_max" not in base:
        from beamlife.allocation import lognormal_channel_stats

        if base.get("target_rate_bits") is not None:
            gamma = 2.0 ** base["target_rate_bits"] - 1.0
        else:
            gamma = 10 ** (base["target_snr_db"] / 10.0)
        stats = lognormal_channel_stats(base["shadowing_sigma2_db"], base["amplitude_divisor"])
        ref = max(gamma, 1.0)
        w2 = cbepa_weight(ref, base["n"], stats, 10 ** (base["noise_db"] / 10.0)) ** 2
        base.setdefault("t_slot_s", base["energy"].e_max / (30.0 * w2))
        base.setdefault("p_max", 1e4 * w2)
    return ScenarioConfig(**base)


class TestStrategyAndCriteria:
    # The engine reads these specs as given; they are checked once, when the
    # ScenarioConfig is built (key paths are covered in test_config_cli).
    def test_strategy_validation(self):
        ScenarioConfig(strategy=StrategySpec(kind="cb_pa", levels=8, period=3))
        for bad in (StrategySpec(kind="nonsense"), StrategySpec(levels=3), StrategySpec(period=0)):
            with pytest.raises(ConfigError, match="strategy"):
                ScenarioConfig(strategy=bad)

    def test_death_criteria_validation(self):
        for bad in (DeathSpec(max_dead_fraction=0.0), DeathSpec(snr_drop_db=0.0)):
            with pytest.raises(ConfigError, match="death"):
                ScenarioConfig(death=bad)


def members(link_of, link):
    return np.flatnonzero(link_of == link)


class TestPartition:
    def test_even_split(self):
        part = partition_cluster(100, 2)
        assert members(part, 0).size == 50
        assert members(part, 1).size == 50
        assert np.intersect1d(members(part, 0), members(part, 1)).size == 0
        assert np.union1d(members(part, 0), members(part, 1)).size == 100

    def test_identity(self):
        np.testing.assert_array_equal(partition_cluster(10, 1), np.zeros(10, dtype=int))

    def test_too_many_links(self):
        with pytest.raises(ValueError):
            partition_cluster(3, 4)

    def test_uneven_split_warns(self):
        with pytest.warns(UserWarning):
            part = partition_cluster(10, 3)
        sizes = sorted(members(part, l).size for l in range(3))
        assert sizes == [3, 3, 4]


class TestDeathRule:
    def test_node_count_death(self):
        assert evaluate_death(0.91, 20.0, DeathSpec(), 11.76) == "nodes"

    def test_snr_death(self):
        assert evaluate_death(0.30, 11.76 - 3.01, DeathSpec(), 11.76) == "snr"

    def test_fresh_cluster_alive(self):
        assert evaluate_death(0.0, 11.76, DeathSpec(), 11.76) is None


class TestRateHelpers:
    def test_headline_rate(self):
        assert bit_rate(10 ** 1.176) == pytest.approx(4.0, abs=1e-3)

    def test_zero(self):
        assert bit_rate(0.0) == 0.0

    def test_two_bits(self):
        assert bit_rate(3.0) == pytest.approx(2.0, rel=1e-12)

    def test_multi_link_total(self):
        # the engine's rate total sums bit_rate over the links still up
        cfg = small_scenario(
            destinations=DestinationsSpec(range_m=1000.0, azimuths_deg=(0.0, 180.0)),
            target_snr_db=5.0,
        )
        trace = run_lifetime(cfg, rng_for(7))
        per_link = np.nan_to_num(np.log2(1.0 + 10.0 ** (trace.snr_db / 10.0)))
        np.testing.assert_allclose(trace.rate_total, per_link.sum(axis=1), rtol=1e-12)


class TestRunLifetime:
    def test_deterministic(self):
        cfg = small_scenario()
        a = run_lifetime(cfg, rng_for(cfg.master_seed))
        b = run_lifetime(cfg, rng_for(cfg.master_seed))
        assert a.lifetime == b.lifetime
        np.testing.assert_array_equal(a.alive_fraction, b.alive_fraction)
        np.testing.assert_array_equal(a.snr_db, b.snr_db)
        np.testing.assert_array_equal(a.residual_total, b.residual_total)
        assert a.causes == b.causes

    def test_single_node_arithmetic(self):
        # One node, no shadowing, no phase error: the equal-power weight is
        # exact, the node funds exactly k slots (half a slot of margin keeps
        # the count robust to rounding), and the cluster dies of node
        # depletion in round k+1.
        k = 5
        noise = 1e-10
        gamma = 4.0
        t_slot = 1e6
        w = cbepa_weight(gamma, 1, ChannelStats(mean=1.0, variance=0.0), noise)
        cost = w * w * t_slot
        cfg = ScenarioConfig(
            n=1,
            disk_radius_wavelengths=0.0,
            destinations=DestinationsSpec(range_m=1000.0, azimuths_deg=(0.0,)),
            target_snr_db=10 * math.log10(gamma),
            noise_db=-100.0,
            shadowing_sigma2_db=0.0,
            phase_error_deg_bound=0.0,
            energy=EnergySpec(kind="gaussian", e_max=1.0, mean=(k + 0.5) * cost, sigma=0.0),
            strategy=StrategySpec(kind="cb_epa", levels=0, period=1),
            t_slot_s=t_slot,
            p_max=1.0,
            max_rounds=100,
        )
        trace = run_lifetime(cfg, rng_for(1))
        assert trace.lifetime == k + 1
        assert trace.causes == ("nodes",)
        assert trace.snr_db[0, 0] == pytest.approx(10 * math.log10(gamma), abs=1e-9)

    def test_zero_target_hits_round_cap(self):
        cfg = small_scenario(target_snr_db=None, target_rate_bits=0.0, max_rounds=25)
        trace = run_lifetime(cfg, rng_for(3))
        assert trace.lifetime == 25
        assert trace.causes == ("max_rounds",)
        assert trace.residual_total[0] == pytest.approx(trace.residual_total[-1])

    def test_infeasible_initial_allocation_raises(self):
        cfg = small_scenario(p_max=1e-30)
        with pytest.raises(InfeasibleAllocationError):
            run_lifetime(cfg, rng_for(4))

    @pytest.mark.parametrize("kind", ["cb_epa", "cb_pa", "centralized_min_power", "centralized_max_gain"])
    def test_all_strategies_terminate(self, kind):
        cfg = small_scenario(strategy=StrategySpec(kind=kind, levels=8 if kind == "cb_pa" else 0, period=1))
        trace = run_lifetime(cfg, rng_for(5))
        assert 1 <= trace.lifetime <= cfg.max_rounds
        assert trace.wasted_j >= 0

    def test_reallocation_period_freezes_weights(self):
        # With a one-shot period the equal-power weight never adapts, so the
        # first-round consumption repeats until nodes start dying.
        cfg = small_scenario(strategy=StrategySpec(kind="cb_epa", levels=0, period=10**9))
        trace = run_lifetime(cfg, rng_for(6), record_nodes=True)
        steps = np.diff(trace.node_residuals[:, 0])
        active = steps[steps < 0]
        assert active.size >= 2
        assert np.allclose(active[:-1], active[0])

    def test_multi_link_trace_structure(self):
        cfg = small_scenario(
            destinations=DestinationsSpec(range_m=1000.0, azimuths_deg=(0.0, 180.0)),
            target_snr_db=5.0,
        )
        trace = run_lifetime(cfg, rng_for(7))
        assert trace.snr_db.shape == (trace.lifetime, 2)
        assert trace.link_lifetimes.shape == (2,)
        assert all(cause in ("nodes", "snr", "max_rounds") for cause in trace.causes)
        assert trace.lifetime == trace.link_lifetimes.max()
        # once a link is down its later SNR entries are NaN
        for l in range(2):
            death = trace.link_lifetimes[l]
            if death < trace.lifetime:
                assert np.all(np.isnan(trace.snr_db[death:, l]))

    def test_lifetime_ordering_over_paired_seeds(self):
        # Residual-proportional allocation should outlive equal power on
        # uniform energies for almost every paired seed.
        pa = preset("pa-uniform")
        epa = preset("epa-uniform")
        violations = 0
        pairs = 400
        for i in range(pairs):
            tau_pa = run_lifetime(pa, rng_for(pa.master_seed, i)).lifetime
            tau_epa = run_lifetime(epa, rng_for(epa.master_seed, i)).lifetime
            if tau_pa < tau_epa:
                violations += 1
        assert violations <= 0.05 * pairs


def naive_single_link_replay(cfg, rng):
    """Independent minimal re-implementation of the single-link round loop."""
    n = cfg.n
    noise = 10 ** (cfg.noise_db / 10.0)
    gamma = cfg.target_snr_linear()
    s2 = cfg.shadowing_sigma2_db * (math.log(10) / cfg.amplitude_divisor) ** 2
    m_a, v_a = math.exp(s2 / 2), (math.exp(s2) - 1) * math.exp(s2)
    # setup draws in the engine's documented order
    rng.random(n)  # radii
    rng.random(n)  # azimuths
    shadow = rng.normal(0.0, math.sqrt(cfg.shadowing_sigma2_db), n)
    gains = 10.0 ** (shadow / cfg.amplitude_divisor)
    bound = math.radians(cfg.phase_error_deg_bound)
    phases = rng.uniform(-bound, bound, n) if bound > 0 else np.zeros(n)
    energies = rng.uniform(0.0, cfg.energy.e_max, n)

    coherent = gains * np.exp(1j * phases)
    e = energies.copy()
    alive = np.ones(n, bool)
    cap = math.sqrt(cfg.p_max)
    nominal = None
    rows = []
    for t in range(1, cfg.max_rounds + 1):
        na = int(alive.sum())
        w = np.zeros(n)
        if na and gamma > 0:
            if cfg.strategy.kind == "cb_epa":
                w0 = min(math.sqrt(gamma * noise / (na * v_a + na * na * m_a * m_a)), cap)
                w[alive] = w0
            else:
                u = e[alive] / cfg.energy.e_max
                if cfg.strategy.levels:
                    u = np.floor(u * cfg.strategy.levels + 0.5) / cfg.strategy.levels
                mu, vu = u.mean(), u.var()
                den = na * (vu * v_a + v_a * mu**2 + vu * m_a**2) + na**2 * mu**2 * m_a**2
                w[alive] = (min(math.sqrt(gamma * noise / den), cap) if den > 0 else 0.0) * u
        cost = w * w * cfg.t_slot_s
        funded = e >= cost
        alive &= funded
        wg = np.where(funded, w, 0.0)
        e -= np.where(funded, cost, 0.0)
        snr = abs(np.sum(wg * coherent)) ** 2 / noise
        snr_db = 10 * math.log10(snr) if snr > 0 else -math.inf
        if nominal is None:
            nominal = snr_db
        rows.append((alive.sum() / n, snr_db, e.sum()))
        dead_frac = 1 - alive.sum() / n
        if dead_frac > cfg.death.max_dead_fraction or snr_db < nominal - cfg.death.snr_drop_db:
            break
    return rows


@pytest.mark.parametrize("kind", ["cb_epa", "cb_pa"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_naive_replay(kind, seed):
    cfg = small_scenario(strategy=StrategySpec(kind=kind, levels=8 if kind == "cb_pa" else 0, period=1))
    trace = run_lifetime(cfg, rng_for(cfg.master_seed, seed))
    rows = naive_single_link_replay(cfg, rng_for(cfg.master_seed, seed))
    assert trace.lifetime == len(rows)
    for t, (alive_fraction, snr_db, residual) in enumerate(rows):
        assert trace.alive_fraction[t] == pytest.approx(alive_fraction, abs=1e-12)
        if math.isinf(snr_db):
            assert math.isinf(trace.snr_db[t, 0])
        else:
            assert trace.snr_db[t, 0] == pytest.approx(snr_db, abs=1e-9)
        assert trace.residual_total[t] == pytest.approx(residual, rel=1e-12)
