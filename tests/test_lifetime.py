"""Round-engine tests.

The strongest check here replays the engine's setup draws in an
independent, minimal re-implementation of the round loop and compares
whole traces.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import beamlife.lifetime
from beamlife.allocation import (
    ChannelStats,
    InfeasibleAllocationError,
    ReiStats,
    cbepa_weight,
    cbpa_normalized_weights,
    compute_wmax,
    lognormal_channel_stats,
    quantize_weights,
    solve_max_gain,
    solve_min_power,
)
from beamlife.config import (
    ConfigError,
    DeathSpec,
    EnergySpec,
    ScenarioConfig,
    StrategySpec,
    preset,
)
from beamlife.energy import sample_initial_energies
from beamlife.geometry import db_to_linear, sample_channel, sample_phase_errors
from beamlife.lifetime import LifetimeTrace, bit_rate, evaluate_death, run_lifetime


def rng_for(seed, index=0):
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def small_scenario(**overrides):
    """A fast scenario with lifetimes of a few dozen rounds."""
    base = dict(
        n=12,
        links=1,
        target_snr_db=8.0,
        noise_db=-100.0,
        shadowing_sigma2_db=16.0,
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
        if base.get("target_rate_bits") is not None:
            gamma = 2.0 ** base["target_rate_bits"] - 1.0
        else:
            gamma = 10 ** (base["target_snr_db"] / 10.0)
        stats = lognormal_channel_stats(base["shadowing_sigma2_db"])
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


def members(n, k, link):
    """The nodes that serve ``link``: node i serves link i % k."""
    return np.arange(link, n, k)


def link_mask(n, k, link):
    mask = np.zeros(n, dtype=bool)
    mask[members(n, k, link)] = True
    return mask


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
            links=2,
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
            links=1,
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

    def test_link_silent_in_round_one_goes_down_by_snr(self):
        # Link 1's members with a nonzero level all fail to pay round 1 and
        # its survivors quantize to level 0, so its first SNR is -inf. Held
        # to its target, it goes down at once instead of sending nothing
        # until max_rounds; link 0 keeps its own first SNR as its reference.
        cfg = small_scenario(
            n=100,
            links=2,
            target_snr_db=5.0,
            energy=EnergySpec(kind="gaussian", e_max=1.0, mean=0.3, sigma=0.3),
            strategy=StrategySpec(kind="cb_pa", levels=2, period=1),
            death=DeathSpec(max_dead_fraction=0.9, snr_drop_db=10.0),
        )
        cfg = replace(cfg, t_slot_s=2 * cfg.t_slot_s)
        trace = run_lifetime(cfg, rng_for(99, 0))
        assert trace.snr_db[0, 1] == -math.inf and np.isfinite(trace.snr_db[0, 0])
        assert trace.link_lifetimes.tolist() == [2, 1]
        assert trace.causes == ("snr", "snr")

    @pytest.mark.parametrize("kind", ["cb_epa", "cb_pa"])
    def test_infeasible_initial_allocation_raises(self, kind):
        # both closed-form kinds refuse a round-1 scale above the cap
        cfg = small_scenario(p_max=1e-30, strategy=StrategySpec(kind=kind, levels=8 if kind == "cb_pa" else 0))
        with pytest.raises(InfeasibleAllocationError, match="exceeds the cap amplitude"):
            run_lifetime(cfg, rng_for(4))

    @pytest.mark.parametrize("t_slot_s", [1e-310, 2.0**-1022], ids=["subnormal", "smallest-normal"])
    def test_tiny_slot_runs_without_warnings(self, t_slot_s):
        # A subnormal charge overflows a node's estimated last payable round
        # to inf, which is the right estimate; pytest makes a warning an error.
        trace = run_lifetime(one_shot(t_slot_s=t_slot_s, max_rounds=50), rng_for(0))
        assert trace.lifetime == 50 and trace.causes == ("max_rounds",)

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
            links=2,
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
    s2 = cfg.shadowing_sigma2_db * (math.log(10) / 20) ** 2
    m_a, v_a = math.exp(s2 / 2), (math.exp(s2) - 1) * math.exp(s2)
    # setup draws in the engine's documented order
    rng.random(n)  # radii
    rng.random(n)  # azimuths
    shadow = rng.normal(0.0, math.sqrt(cfg.shadowing_sigma2_db), n)
    gains = 10.0 ** (shadow / 20)
    bound = math.radians(cfg.phase_error_deg_bound)
    phases = rng.uniform(-bound, bound, n) if bound > 0 else np.zeros(n)
    if cfg.energy.kind == "uniform":
        energies = rng.uniform(0.0, cfg.energy.e_max, n)
    else:  # gaussian, clamped into [0, e_max]; at sigma 0 nothing is drawn
        sigma = cfg.energy.sigma
        draws = rng.normal(cfg.energy.mean, sigma, n) if sigma > 0 else np.full(n, cfg.energy.mean)
        energies = np.clip(draws, 0.0, cfg.energy.e_max)

    coherent = gains * np.exp(1j * phases)
    e = energies.copy()
    alive = np.ones(n, bool)
    cap = math.sqrt(cfg.p_max)
    nominal = None
    rows = []
    w = np.zeros(n)
    for t in range(1, cfg.max_rounds + 1):
        if (t - 1) % cfg.strategy.period == 0:
            na = int(alive.sum())
            w = np.zeros(n)
            if na and gamma > 0:
                w_epa = math.sqrt(gamma * noise / (na * v_a + na * na * m_a * m_a))
                if cfg.strategy.kind == "cb_epa":
                    w[alive] = min(w_epa, cap)
                elif cfg.strategy.kind == "centralized_min_power":
                    try:
                        w[alive] = solve_min_power(gains[alive], gamma, noise, cfg.p_max)
                    except InfeasibleAllocationError:
                        if t == 1:
                            raise
                        w[alive] = cap
                elif cfg.strategy.kind == "centralized_max_gain":
                    w[alive] = solve_max_gain(gains[alive], min(na * w_epa**2, na * cfg.p_max), cfg.p_max)
                else:
                    u = e[alive] / cfg.energy.e_max
                    if cfg.strategy.levels:
                        u = np.floor(u * cfg.strategy.levels + 0.5) / cfg.strategy.levels
                    mu, vu = u.mean(), u.var()
                    den = na * (vu * v_a + v_a * mu**2 + vu * m_a**2) + na**2 * mu**2 * m_a**2
                    w[alive] = (min(math.sqrt(gamma * noise / den), cap) if den > 0 else 0.0) * u
        w = np.where(alive, w, 0.0)  # weights are kept between reallocations; the dead send nothing
        cost = w * w * cfg.t_slot_s
        funded = e >= cost
        alive &= funded
        wg = np.where(funded, w, 0.0)
        e -= np.where(funded, cost, 0.0)
        snr = abs(np.sum(wg * coherent)) ** 2 / noise
        snr_db = 10 * math.log10(snr) if snr > 0 else -math.inf
        if nominal is None:  # a link silent in round 1 is held to its target
            nominal = snr_db if snr > 0 else (10 * math.log10(gamma) if gamma > 0 else -math.inf)
        rows.append((alive.sum() / n, snr_db, e.sum()))
        dead_frac = 1 - alive.sum() / n
        if dead_frac > cfg.death.max_dead_fraction or snr_db < nominal - cfg.death.snr_drop_db:
            break
    return rows


def assert_residual_curve_within_bound(trace):
    """``residual_total`` is ``initial_j`` less the energy paid; at every
    round t it lies within (2t + 2 ceil(log2 n) + 2) * 2**-53 * initial_j of
    the exact sum of the node residuals (README, rounds.csv)."""
    depth = 2 * math.ceil(math.log2(trace.node_residuals.shape[1])) + 2
    for t, row in enumerate(trace.node_residuals, start=1):
        gap = abs(float(trace.residual_total[t - 1]) - math.fsum(row))
        assert gap <= (2 * t + depth) * 2.0**-53 * trace.initial_j, f"round {t}: {gap}"


def assert_matches_naive_replay(cfg, seed):
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


def clipped_rounds(cfg, trace):
    """Rounds after round 1 that start a period and in which every funded
    node paid the cost of the cap amplitude."""
    cap_cost = cfg.p_max * cfg.t_slot_s
    clipped = []
    for t in range(1 + cfg.strategy.period, trace.lifetime + 1, cfg.strategy.period):
        funded = trace.node_alive[t - 1]
        paid = trace.node_residuals[t - 2][funded] - trace.node_residuals[t - 1][funded]
        if paid.size and np.allclose(paid, cap_cost, rtol=1e-9, atol=0.0):
            clipped.append(t)
    return clipped


@pytest.mark.parametrize(
    "case",
    ["cb_epa", "cb_pa", "centralized_min_power", "centralized_max_gain", "cb_pa-n100-8", "cb_pa-n100-0",
     "cb_pa-silent", "cb_epa-clipped-1", "cb_epa-clipped-3"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_naive_replay(case, seed):
    if case.startswith("cb_epa-clipped"):
        # A cap 2% above the full link's equal-power weight: once a few
        # nodes die, the weight of the alive rises past it and a
        # reallocation clips it to the cap.
        cfg = small_scenario(n=100, strategy=StrategySpec(kind="cb_epa", levels=0, period=int(case[-1])))
        w = cbepa_weight(cfg.target_snr_linear(), cfg.n, lognormal_channel_stats(cfg.shadowing_sigma2_db),
                         db_to_linear(cfg.noise_db))
        cfg = replace(
            cfg,
            t_slot_s=4 * cfg.t_slot_s,
            p_max=(1.02 * w) ** 2,
            death=DeathSpec(max_dead_fraction=1.0, snr_drop_db=60.0),
        )
        trace = run_lifetime(cfg, rng_for(cfg.master_seed, seed), record_nodes=True)
        assert clipped_rounds(cfg, trace)
    elif case.startswith("cb_pa-n100"):
        # A slot long enough that nodes die while the link stays up: cb_pa
        # reallocates both with every member alive (round 2) and after
        # deaths, the engine's two ways of normalizing the residuals. Its
        # charges must also equal the helper chain's.
        cfg = small_scenario(n=100)
        cfg = replace(
            cfg,
            t_slot_s=4 * cfg.t_slot_s,
            death=DeathSpec(max_dead_fraction=1.0, snr_drop_db=60.0),
            strategy=StrategySpec(kind="cb_pa", levels=int(case.rsplit("-", 1)[1]), period=1),
        )
        trace = run_lifetime(cfg, rng_for(cfg.master_seed, seed), record_nodes=True)
        assert trace.alive_fraction[0] == 1.0 and trace.alive_fraction[:-1].min() < 1.0
        assert_charges_match_helper_chain(cfg, trace)
    elif case == "cb_pa-silent":
        # Every node with a nonzero level fails to pay round 1, so the link
        # sends nothing; under its target as the reference it goes down then.
        cfg = small_scenario(strategy=StrategySpec(kind="cb_pa", levels=2, period=1))
        cfg = replace(cfg, t_slot_s=50 * cfg.t_slot_s)
        trace = run_lifetime(cfg, rng_for(cfg.master_seed, seed))
        assert trace.snr_db[0, 0] == -math.inf
        assert trace.lifetime == 1 and trace.causes == ("snr",)
    else:
        cfg = small_scenario(strategy=StrategySpec(kind=case, levels=8 if case == "cb_pa" else 0, period=1))
    assert_matches_naive_replay(cfg, seed)


@pytest.mark.parametrize(
    "strategy",
    [
        StrategySpec(kind="cb_epa", levels=0, period=7),
        StrategySpec(kind="cb_epa", levels=0, period=10**9),
        StrategySpec(kind="cb_pa", levels=8, period=5),
        StrategySpec(kind="centralized_min_power", levels=0, period=3),
        StrategySpec(kind="centralized_min_power", levels=0, period=10**9),
        StrategySpec(kind="centralized_max_gain", levels=0, period=3),
        StrategySpec(kind="centralized_max_gain", levels=0, period=10**9),
    ],
    ids=[
        "cb_epa-7", "cb_epa-one-shot", "cb_pa-5",
        "min_power-3", "min_power-one-shot", "max_gain-3", "max_gain-one-shot",
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_naive_replay_between_reallocations(strategy, seed):
    # Rounds between reallocations are the ones the engine steps in bulk.
    assert_matches_naive_replay(small_scenario(strategy=strategy), seed)


@pytest.mark.parametrize(
    "strategy",
    [
        StrategySpec(kind="cb_epa", levels=0, period=2),
        StrategySpec(kind="cb_epa", levels=0, period=10**9),
        StrategySpec(kind="cb_pa", levels=8, period=1),
        StrategySpec(kind="cb_pa", levels=0, period=10**9),
        StrategySpec(kind="centralized_min_power", levels=0, period=2),
        StrategySpec(kind="centralized_min_power", levels=0, period=10**9),
        StrategySpec(kind="centralized_max_gain", levels=0, period=3),
        StrategySpec(kind="centralized_max_gain", levels=0, period=10**9),
    ],
    ids=[
        "cb_epa-2", "cb_epa-one-shot", "cb_pa-1", "cb_pa-one-shot",
        "min_power-2", "min_power-one-shot", "max_gain-3", "max_gain-one-shot",
    ],
)
@pytest.mark.parametrize("sigma", [0.15, 0.4, 0.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_naive_replay_on_gaussian_energy(strategy, sigma, seed):
    # At sigma 0.4 about a fifth of the nodes start clamped at exactly 0 or
    # e_max, which uniform draws never give; at sigma 0 every node starts at
    # the mean, so equal weights die in one round.
    energy = EnergySpec(kind="gaussian", e_max=1.0, mean=0.5, sigma=sigma)
    assert_matches_naive_replay(small_scenario(energy=energy, strategy=strategy), seed)


@pytest.mark.parametrize(
    "n, k", [(100, 2), (99, 3), (101, 2), (100, 3)], ids=["2-links", "3-links", "uneven-2-links", "uneven-3-links"]
)
@pytest.mark.parametrize("seed", range(3))
def test_multi_link_round_one_snr_matches_setup_replay(n, k, seed):
    # A link's SNR sums its own funded members over their own channel draw,
    # each rotated by nothing but its phase error. Replay the documented
    # setup draws and the round-1 equal-power weight independently.
    cfg = replace(
        preset("multi-link"),
        n=n,
        links=k,
        energy=EnergySpec(),
        strategy=StrategySpec(kind="cb_epa", levels=0, period=1),
    )
    trace = run_lifetime(cfg, rng_for(cfg.master_seed, seed))

    rng = rng_for(cfg.master_seed, seed)
    noise = 10 ** (cfg.noise_db / 10.0)
    s2 = cfg.shadowing_sigma2_db * (math.log(10) / 20) ** 2
    m_a, v_a = math.exp(s2 / 2), (math.exp(s2) - 1) * math.exp(s2)
    rng.random(n)  # radii
    rng.random(n)  # azimuths
    gains = [
        10.0 ** (rng.normal(0.0, math.sqrt(cfg.shadowing_sigma2_db), n) / 20)
        for _ in range(k)
    ]
    bound = math.radians(cfg.phase_error_deg_bound)
    phases = rng.uniform(-bound, bound, n)
    energies = rng.uniform(0.0, cfg.energy.e_max, n)
    for l in range(k):
        idx = members(n, k, l)
        na = idx.size
        w = min(math.sqrt(cfg.target_snr_linear() * noise / (na * v_a + na * na * m_a * m_a)), math.sqrt(cfg.p_max))
        funded = idx[energies[idx] >= w * w * cfg.t_slot_s]
        field = np.sum(w * gains[l][funded] * np.exp(1j * phases[funded]))
        expected = 10 * math.log10(abs(field) ** 2 / noise)
        assert trace.snr_db[0, l] == pytest.approx(expected, rel=1e-12), f"link {l}"


def helper_chain_weights(cfg, residuals, alive, up_links):
    """cb_pa weights of one round through the public, validating helpers."""
    e_max = cfg.energy.e_max
    noise = db_to_linear(cfg.noise_db)
    gamma = cfg.target_snr_linear()
    ch = lognormal_channel_stats(cfg.shadowing_sigma2_db)
    w = np.zeros(cfg.n)
    for l in up_links:
        active = alive & link_mask(cfg.n, cfg.links, l)
        n_alive = int(active.sum())
        if n_alive == 0:
            continue
        u = cbpa_normalized_weights(residuals[active], e_max)
        if cfg.strategy.levels:
            u = quantize_weights(u, cfg.strategy.levels)
        stats = ReiStats(mean=float(u.mean()), variance=float(u.var()))
        try:
            scale = compute_wmax(gamma, n_alive, stats, ch, noise)
        except InfeasibleAllocationError:
            continue
        w[active] = min(scale, math.sqrt(cfg.p_max)) * u
    return w


def assert_charges_match_helper_chain(cfg, trace):
    """Each round's charges equal those of the cb_pa helper chain exactly."""
    for t in range(2, trace.lifetime + 1):
        prev = trace.node_residuals[t - 2]
        up = [l for l in range(cfg.links) if trace.link_lifetimes[l] >= t]
        w = helper_chain_weights(cfg, prev, trace.node_alive[t - 2], up)
        cost = w * w * cfg.t_slot_s
        expected = np.where(prev >= cost, prev - cost, prev)
        assert np.array_equal(trace.node_residuals[t - 1], expected), f"round {t}"


@pytest.mark.parametrize("levels", [0, 8])
@pytest.mark.parametrize("links", [1, 2], ids=["azimuths0", "azimuths1"])  # the suite's long-standing ids
@pytest.mark.parametrize("seed", range(5))
def test_engine_charges_match_helper_chain(levels, links, seed):
    # The engine inlines the cb_pa helpers without their checks; its charges
    # must equal theirs exactly, round by round, with e_max away from 1.
    cfg = small_scenario(
        energy=EnergySpec(kind="gaussian", e_max=2.5, mean=1.25, sigma=0.5),
        strategy=StrategySpec(kind="cb_pa", levels=levels, period=1),
        links=links,
        target_snr_db=5.0,
    )
    trace = run_lifetime(cfg, rng_for(cfg.master_seed, seed), record_nodes=True)
    assert trace.lifetime >= 3
    assert_charges_match_helper_chain(cfg, trace)


def setup_gains(cfg, seed):
    """Each link's channel draw, replayed in the engine's documented setup order."""
    rng = rng_for(cfg.master_seed, seed)
    rng.random((2, cfg.n))  # radii and azimuths
    return [sample_channel(cfg.n, cfg.shadowing_sigma2_db, rng) for _ in range(cfg.links)]


def round_charges(cfg, trace, t, initial, gains):
    """Slot cost of every node in round t >= 2, from public helpers.

    Weights come from the last reallocation boundary at or before round t,
    recomputed there whether or not the engine had to (``initial`` holds the
    residuals of round 1, ``gains`` each link's channel draw); nodes dead by
    round t and links down before it pay nothing.
    """
    reallocated = t - (t - 1) % cfg.strategy.period
    if reallocated == 1:
        residuals, alive = initial, np.ones(cfg.n, dtype=bool)
    else:
        residuals, alive = trace.node_residuals[reallocated - 2], trace.node_alive[reallocated - 2]
    up = [l for l in range(cfg.links) if trace.link_lifetimes[l] >= t]
    if cfg.strategy.kind == "cb_pa":
        w = helper_chain_weights(cfg, residuals, alive, up)
    else:
        ch = lognormal_channel_stats(cfg.shadowing_sigma2_db)
        w = np.zeros(cfg.n)
        gamma, noise, cap = cfg.target_snr_linear(), db_to_linear(cfg.noise_db), math.sqrt(cfg.p_max)
        for l in up:
            active = alive & link_mask(cfg.n, cfg.links, l)
            na = int(active.sum())
            w0 = cbepa_weight(gamma, na, ch, noise)
            if cfg.strategy.kind == "cb_epa":
                w[active] = min(w0, cap)
            elif cfg.strategy.kind == "centralized_min_power":
                try:
                    w[active] = solve_min_power(gains[l][active], gamma, noise, cfg.p_max)
                except InfeasibleAllocationError:
                    w[active] = cap
            else:
                w[active] = solve_max_gain(gains[l][active], min(na * w0**2, na * cfg.p_max), cfg.p_max)
    w[~trace.node_alive[t - 2]] = 0.0
    return w * w * cfg.t_slot_s


def assert_rows_match_round_charges(cfg, trace, initial, gains=None):
    """Every residual row after round 1 equals the row before it less
    ``round_charges``' costs, where the node can pay them; returns the
    costs, indexed by round."""
    charges = [None, None] + [round_charges(cfg, trace, t, initial, gains) for t in range(2, trace.lifetime + 1)]
    for t in range(2, trace.lifetime + 1):
        prev = trace.node_residuals[t - 2]
        expected = np.where(prev >= charges[t], prev - charges[t], prev)
        assert np.array_equal(trace.node_residuals[t - 1], expected), f"round {t}"
    return charges


def run_with_normal_rounds(cfg, seed, monkeypatch):
    """Recorded trace plus the rounds that ran gate_and_charge (the normal path)."""
    entries = []
    gate = beamlife.lifetime.gate_and_charge

    def recording(residual, weights, slot):
        entries.append(residual.tobytes())
        return gate(residual, weights, slot)

    monkeypatch.setattr(beamlife.lifetime, "gate_and_charge", recording)
    trace = run_lifetime(cfg, rng_for(cfg.master_seed, seed), record_nodes=True)
    starts = {row.tobytes(): t for t, row in enumerate(trace.node_residuals[:-1], start=2)}
    return trace, {1} | {starts[entry] for entry in entries[1:]}


def one_shot(**overrides):
    return small_scenario(strategy=StrategySpec(kind="cb_epa", levels=0, period=10**9), **overrides)


def clipped_uneven_links():
    """Two cb_pa links of 7 and 6 nodes on equal budgets, capped just above
    the smaller link's first scale: nobody dies, and the smaller link's SNR
    falls at reallocations until it goes down in a fully funded round."""
    e0 = 0.5
    cfg = small_scenario(
        n=13,
        links=2,
        energy=EnergySpec(kind="gaussian", e_max=1.0, mean=e0, sigma=0.0),
        strategy=StrategySpec(kind="cb_pa", levels=0, period=4),
    )
    ch = lognormal_channel_stats(cfg.shadowing_sigma2_db)
    w6 = cbepa_weight(cfg.target_snr_linear(), 6, ch, db_to_linear(cfg.noise_db))
    return replace(cfg, p_max=(1.01 * w6 / e0) ** 2, t_slot_s=e0 / (30 * w6**2))


@pytest.mark.parametrize(
    "case",
    [
        "unfunded",
        "reallocation",
        "max_rounds",
        "link_down",
        "funded_link_down",
        "min_power-1",
        "max_gain-1",
        "binade_edge",
    ],
)
def test_bulk_stepped_rounds_are_bit_exact(case, monkeypatch):
    # Every round charges exactly what gate_and_charge would, whether the
    # engine ran it or stepped it in bulk, around each way a stretch ends,
    # also where a walk jumps a node across a binade edge, and every round's
    # residual total lies within its bound of the exact row sum.
    cfg = one_shot()
    if case == "reallocation":
        cfg = small_scenario(strategy=StrategySpec(kind="cb_epa", levels=0, period=7))
    elif case == "link_down":
        cfg = one_shot(
            links=2,
            target_snr_db=5.0,
        )
    elif case == "funded_link_down":
        cfg = clipped_uneven_links()
    elif case in ("min_power-1", "max_gain-1"):
        # period 1, but the weights only change after a death
        kind = "centralized_" + case[:-2]
        cfg = small_scenario(strategy=StrategySpec(kind=kind, levels=0, period=1))
    elif case == "max_rounds":
        cfg = replace(cfg, t_slot_s=cfg.t_slot_s / 10)  # longer stretches
        full, normal = run_with_normal_rounds(cfg, 0, monkeypatch)
        inside = [t for t in range(3, full.lifetime) if not {t - 2, t - 1, t, t + 1} & normal]
        cfg = replace(cfg, max_rounds=inside[0])
    elif case == "binade_edge":
        cfg = replace(cfg, t_slot_s=cfg.t_slot_s / 10)
        full, normal = run_with_normal_rounds(cfg, 0, monkeypatch)
        inside = [t for t in range(3, full.lifetime) if not {t - 2, t - 1, t, t + 1} & normal]
        cfg = replace(cfg, max_rounds=inside[-1])
    trace, normal = run_with_normal_rounds(cfg, 0, monkeypatch)
    stepped = set(range(1, trace.lifetime + 1)) - normal
    assert stepped

    initial = np.full(cfg.n, cfg.energy.mean)  # only read for cb_pa, whose budgets are equal
    charges = assert_rows_match_round_charges(cfg, trace, initial, setup_gains(cfg, 0))
    assert_residual_curve_within_bound(trace)

    first_down = int(trace.link_lifetimes.min())
    if case == "unfunded":
        # a stretch ran up to a round in which some node could not pay
        cut = [t for t in range(3, trace.lifetime + 1)
               if t - 1 in stepped and np.any(trace.node_residuals[t - 2] < charges[t])]
        assert cut
    elif case == "reallocation":
        # a stretch ran up to a reallocation that changed the weights
        cut = [t for t in range(8, trace.lifetime + 1, 7)
               if t - 1 in stepped and not np.array_equal(charges[t], charges[t - 1])]
        assert cut
    elif case == "max_rounds":
        assert trace.lifetime == cfg.max_rounds and cfg.max_rounds in stepped
        assert trace.causes == ("max_rounds",)
        assert trace.consumed_j + trace.wasted_j == pytest.approx(trace.initial_j, rel=1e-12)
    elif case == "binade_edge":
        # some stretch longer than _SHORT, which the walk jumps by binades,
        # takes a node across a binade edge after its second round
        short = beamlife.lifetime._SHORT
        edges = [t for t in sorted(normal) if set(range(t + 1, t + short + 2)) <= stepped
                 and np.any(np.frexp(trace.node_residuals[t + 1])[1] != np.frexp(trace.node_residuals[t + short])[1])]
        assert edges
        assert trace.lifetime == cfg.max_rounds and cfg.max_rounds in stepped
        assert trace.causes == ("max_rounds",)
    elif case == "link_down":
        assert first_down < trace.lifetime
        assert stepped & set(range(first_down + 1, trace.lifetime + 1))
    elif case == "funded_link_down":
        # the link went down with every node funded, before a round that
        # reallocates nothing, and that round still ran the normal path
        assert trace.node_alive.all() and first_down % cfg.strategy.period
        assert first_down < trace.lifetime and first_down + 1 in normal
        assert stepped & set(range(first_down + 2, trace.lifetime + 1))
    else:
        # after the round that reallocates for a death, stepping resumes
        alive_counts = trace.node_alive.sum(axis=1)
        first_death = int(np.flatnonzero(alive_counts < cfg.n)[0]) + 1
        assert stepped & set(range(first_death + 2, trace.lifetime + 1))


def quantized_case(case):
    """Period-1 quantized cb_pa scenarios whose rounds repeat their levels."""
    if case == "quant-2":
        return small_scenario(strategy=StrategySpec(kind="cb_pa", levels=2, period=1))
    if case in ("quant-8", "quant-2-links"):
        cfg = small_scenario(n=24, links=2) if case == "quant-2-links" else small_scenario()
        return replace(cfg, t_slot_s=cfg.t_slot_s / 8)  # several rounds per level
    if case == "quant-period-3":
        return small_scenario(strategy=StrategySpec(kind="cb_pa", levels=8, period=3))
    if case == "quant-link-down":
        # a link goes down in a funded round and the next round's levels
        # repeat: that round must reallocate, or the down link keeps paying
        cfg = small_scenario(
            links=2,
            energy=EnergySpec(kind="gaussian", e_max=1.0, mean=0.5, sigma=0.3),
            strategy=StrategySpec(kind="cb_pa", levels=2, period=1),
            death=DeathSpec(max_dead_fraction=1.0, snr_drop_db=3.0),
            master_seed=101,
        )
        return replace(cfg, t_slot_s=cfg.t_slot_s / 8)
    return deaths_on_two_links()


def deaths_on_two_links():
    """Quantized cb_pa on two links with gaussian energies. In the master
    seed's first run nodes die the round before the first link goes down,
    and later rounds repeat their levels."""
    cfg = small_scenario(
        n=100,
        links=2,
        energy=EnergySpec(kind="gaussian", e_max=1.0, mean=0.5, sigma=0.3),
        death=DeathSpec(max_dead_fraction=1.0, snr_drop_db=60.0),
        master_seed=127,
    )
    return replace(cfg, t_slot_s=cfg.t_slot_s / 8)


def stepping_case(case, monkeypatch):
    """Scenario of one ``test_bulk_stepping_is_invisible`` case."""
    gaussian = EnergySpec(kind="gaussian", e_max=1.0, mean=0.5, sigma=0.15)
    if case == "epa-one-shot":
        return one_shot()
    if case == "epa-equal-budgets":
        # every node pays the same charge from the same budget: all die in one round
        return one_shot(energy=EnergySpec(kind="gaussian", e_max=1.0, mean=0.5, sigma=0.0))
    if case == "epa-three-uneven-links":
        # links of 5, 5 and 4 nodes; the third goes down in a round in which nodes die
        cfg = one_shot(n=14, links=3, energy=gaussian, death=DeathSpec(max_dead_fraction=0.9, snr_drop_db=60.0),
                       master_seed=0)
        return replace(cfg, t_slot_s=cfg.t_slot_s / 10)
    if case == "death-downs-a-link":
        # a node's death takes its link past max_dead_fraction inside a stretch; the other link goes on
        cfg = one_shot(links=2, energy=gaussian, death=DeathSpec(max_dead_fraction=0.3, snr_drop_db=60.0),
                       master_seed=0)
        return replace(cfg, t_slot_s=cfg.t_slot_s / 3)
    if case == "epa-period-7":
        return small_scenario(strategy=StrategySpec(kind="cb_epa", levels=0, period=7))
    if case == "pa-period-2":
        cfg = small_scenario(strategy=StrategySpec(kind="cb_pa", levels=8, period=2))
        return replace(cfg, t_slot_s=cfg.t_slot_s / 8)  # several rounds per level
    if case == "pa-period-5":
        return small_scenario(strategy=StrategySpec(kind="cb_pa", levels=8, period=5))
    if case == "pa-period-5-last-round":
        # nodes die in round 10, the last of a period and inside its stretch
        return small_scenario(strategy=StrategySpec(kind="cb_pa", levels=8, period=5), master_seed=3)
    if case in ("min_power-1", "max_gain-1"):
        kind = "centralized_" + case[:-2]
        return small_scenario(strategy=StrategySpec(kind=kind, levels=0, period=1))
    if case == "link_down":
        return one_shot(links=2, target_snr_db=5.0)
    if case == "short_stretch":
        # At period 1 a stretch is walked only as far as residual / charge
        # estimates the first death. For one node on a budget near 40 charges
        # the estimate is a round short, so the walk ends with no death and a
        # second walk from there finds it.
        return period_one_shortfall()
    if case.startswith("quant-"):
        return quantized_case(case)
    if case == "pa-max_rounds":
        # max_rounds on the third round of a period, inside a stretch that
        # would otherwise run on to the next boundary, before the natural end
        cfg = small_scenario(strategy=StrategySpec(kind="cb_pa", levels=8, period=5))
        full, normal = run_with_normal_rounds(cfg, 0, monkeypatch)
        inside = [t for t in range(3, full.lifetime) if t % 5 == 3 and not {t - 1, t, t + 1} & normal]
        return replace(cfg, max_rounds=inside[len(inside) // 2])
    cfg = one_shot()
    cfg = replace(cfg, t_slot_s=cfg.t_slot_s / 10)  # longer stretches
    if case == "binade_walk":
        monkeypatch.setattr(beamlife.lifetime, "_SHORT", 2)  # every stretch of 3 or more rounds jumps by binades
    full, normal = run_with_normal_rounds(cfg, 0, monkeypatch)
    inside = [t for t in range(3, full.lifetime) if not {t - 1, t, t + 1} & normal]
    return replace(cfg, max_rounds=inside[len(inside) // 2])


def one_node(period):
    """One node on one link, at unit gains and no phase error, and its slot charge."""
    cfg = ScenarioConfig(
        n=1,
        links=1,
        target_snr_db=6.0,
        shadowing_sigma2_db=0.0,
        phase_error_deg_bound=0.0,
        energy=EnergySpec(kind="gaussian", e_max=1.0, mean=0.5, sigma=0.0),
        strategy=StrategySpec(kind="cb_epa", levels=0, period=period),
        t_slot_s=1e6,
        p_max=1.0,
        max_rounds=100,
    )
    w = cbepa_weight(cfg.target_snr_linear(), 1, lognormal_channel_stats(0.0), db_to_linear(cfg.noise_db))
    return cfg, w * w * cfg.t_slot_s


def residual_rows(budget, cost):
    """``budget`` and its residuals after each round it pays at ``cost``, subtracting round by round."""
    rows = [budget]
    while rows[-1] >= cost:
        rows.append(rows[-1] - cost)
    return rows


def period_one_shortfall():
    cfg, cost = one_node(period=1)
    budgets = np.nextafter(40 * cost, 0.0) + cost * np.arange(-8, 9) * 2.0**-45
    short = [b for b in budgets if len(residual_rows(b, cost)) - 1 > int(b / cost)]
    assert short
    return replace(cfg, energy=replace(cfg.energy, mean=float(short[0])))


@pytest.mark.parametrize(
    "case",
    ["epa-one-shot", "epa-equal-budgets", "epa-three-uneven-links", "death-downs-a-link", "epa-period-7",
     "pa-period-2", "pa-period-5", "pa-period-5-last-round", "min_power-1", "max_gain-1", "link_down",
     "max_rounds", "pa-max_rounds", "binade_walk", "short_stretch", "quant-2", "quant-8", "quant-2-links",
     "quant-deaths", "quant-period-3", "quant-link-down"],
)
def test_bulk_stepping_is_invisible(case, monkeypatch):
    # A run that walks static stretches, through the rounds in which nodes
    # die, and steps rounds whose levels repeat, and one that runs every
    # round on the normal path, give the same trace, bit for bit: the
    # repeated records of stepped rounds included, not only the residuals.
    # Both skip the reallocations whose levels repeat, so every residual row
    # must also be the public helper chain's, reallocated at every period
    # boundary.
    cfg = stepping_case(case, monkeypatch)
    gate_calls = counted_calls(monkeypatch, "gate_and_charge")
    walks = []
    full = beamlife.lifetime._walk

    def logged(residual, cost, horizon):
        fewest, paid, final = full(residual, cost, horizon)
        walks.append((horizon, fewest))
        return fewest, paid, final

    monkeypatch.setattr(beamlife.lifetime, "_walk", logged)
    stepped = run_lifetime(cfg, rng_for(cfg.master_seed), record_nodes=True)
    stepped_gates = len(gate_calls)
    assert stepped_gates < stepped.lifetime
    normal_rounds = set(run_with_normal_rounds(cfg, 0, monkeypatch)[1])
    assert_rows_match_round_charges(cfg, stepped, initial_residuals(cfg, 0), setup_gains(cfg, 0))
    monkeypatch.setattr(beamlife.lifetime, "_walk", lambda residual, cost, horizon: full(residual, cost, 0))
    del gate_calls[:]
    normal = run_lifetime(cfg, rng_for(cfg.master_seed), record_nodes=True)
    assert len(gate_calls) == normal.lifetime

    for field in fields(LifetimeTrace):
        a, b = getattr(stepped, field.name), getattr(normal, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert np.array_equal(a, b, equal_nan=field.name == "snr_db"), field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name
    alive_counts = np.concatenate([[cfg.n], stepped.node_alive.sum(axis=1)])
    death_rounds = set(np.flatnonzero(np.diff(alive_counts) < 0) + 1)
    walked_deaths = death_rounds - normal_rounds  # deaths found by a walk, in rounds that ran no gate
    first_down = int(stepped.link_lifetimes.min())
    if case in ("link_down", "quant-2-links", "quant-deaths", "quant-link-down"):
        assert first_down < stepped.lifetime
        if case == "quant-deaths":
            assert stepped.node_alive[: first_down - 1].sum(axis=1).min() < cfg.n
    elif case in ("max_rounds", "pa-max_rounds", "binade_walk"):
        assert stepped.lifetime == cfg.max_rounds and stepped.causes == ("max_rounds",)
        if case == "binade_walk":
            assert max(horizon for horizon, _ in walks) > 2
    elif case == "pa-period-2":
        # one-round stretches after a boundary that reallocated, and
        # two-round ones from a boundary whose levels repeated
        assert {1, 2} <= {horizon for horizon, _ in walks}
    elif case == "epa-one-shot":
        # one allocation; each death round after it is walked, unless a node
        # cannot pay round 2, which then runs the gate
        assert normal_rounds <= {1, 2} and death_rounds - {1, 2} <= walked_deaths and len(walked_deaths) > 2
    elif case == "epa-equal-budgets":
        assert alive_counts[-2] == cfg.n and alive_counts[-1] == 0 and walked_deaths == {stepped.lifetime}
    elif case in ("epa-three-uneven-links", "death-downs-a-link"):
        # a link goes down in a walked death round, and a later round runs the gate for the links left
        assert first_down in walked_deaths and first_down < stepped.lifetime and first_down + 1 in normal_rounds
        if case == "epa-three-uneven-links":
            assert [len(range(l, cfg.n, cfg.links)) for l in range(cfg.links)] == [5, 5, 4]
    elif case == "pa-period-5-last-round":
        # a death in a period's last round reallocates at the next one; the stretch ends there
        assert 10 in walked_deaths and 11 in normal_rounds
    elif case == "short_stretch":
        # the first stretch's walk paid its whole horizon short of the death,
        # and the second found the node unable to pay the next round
        (h1, m1), (h2, m2) = walks[:2]
        assert m1 == h1 < cfg.max_rounds - 1 and m2 == 0
        assert normal_rounds == {1, stepped.lifetime} and stepped.causes == ("nodes",)
    elif case in ("min_power-1", "max_gain-1"):
        # period 1: a walked death round ends its stretch, and the next round reallocates
        assert walked_deaths and all(t + 1 in normal_rounds for t in walked_deaths if t < stepped.lifetime)


def counted_calls(monkeypatch, name):
    """Replace ``beamlife.lifetime.<name>`` with a wrapper; return its call log."""
    calls = []
    fn = getattr(beamlife.lifetime, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(beamlife.lifetime, name, counted)
    return calls


@pytest.mark.parametrize(
    "kind, solver",
    [("centralized_min_power", "solve_min_power"), ("centralized_max_gain", "solve_max_gain")],
)
@pytest.mark.parametrize("seed", range(3))
def test_period_one_centralized_solves_only_after_deaths(kind, solver, seed, monkeypatch):
    # The gains are fixed and the alive set only shrinks, so the weights are
    # solved in round 1 and again only in the rounds that follow a death,
    # by the engine's kernel: the round loop calls no public solver.
    calls = counted_calls(monkeypatch, "_strategy_weights")
    solver_calls = counted_calls(monkeypatch, solver)
    cfg = small_scenario(strategy=StrategySpec(kind=kind, levels=0, period=1))
    trace = run_lifetime(cfg, rng_for(cfg.master_seed, seed), record_nodes=True)
    alive_after = trace.node_alive.sum(axis=1)
    alive_before = np.concatenate(([cfg.n], alive_after[:-1]))
    followed_deaths = np.count_nonzero((alive_after < alive_before)[:-1])
    assert followed_deaths >= 1
    assert len(calls) == 1 + followed_deaths < trace.lifetime
    assert not solver_calls


def solver_weights(out, kind, active, n_alive, gains, target_snr, noise_power, ch_stats, p_max, first_round):
    """``out`` with the link's alive weights from the public solvers on the
    gathered alive gains, or every alive node at the cap where min-power is
    infeasible after round 1: the independent reference of the engine's
    ``_strategy_weights``."""
    ref = out.copy()
    if kind == "centralized_min_power":
        try:
            ref[active] = solve_min_power(gains[active], target_snr, noise_power, p_max)
        except InfeasibleAllocationError:
            if first_round:
                raise
            ref[active] = math.sqrt(p_max)
    else:
        budget = min(n_alive * cbepa_weight(target_snr, n_alive, ch_stats, noise_power) ** 2, n_alive * p_max)
        ref[active] = solve_max_gain(gains[active], budget, p_max)
    return ref


CENTRALIZED = ["centralized_min_power", "centralized_max_gain"]


@pytest.mark.parametrize("kind", CENTRALIZED)
def test_strategy_kernel_matches_the_solvers_at_the_call_site(kind, monkeypatch):
    # Every call the round loop makes writes the public solvers' bits into
    # the link's view, on configs where the cap binds, min-power falls back
    # to the cap after round 1, and several links give strided views.
    kernel = beamlife.lifetime._strategy_weights
    scans = counted_calls(monkeypatch, "_capped_matched_filter")
    seen = {"calls": 0, "partial": 0, "strided": 0, "fallback": 0}

    def checked(out, kind, active, n_alive, gains, rank, target_snr, noise_power, ch_stats, p_max, first_round):
        args = (target_snr, noise_power, ch_stats, p_max)
        ref = solver_weights(out, kind, active, n_alive, gains, *args, first_round)
        kernel(out, kind, active, n_alive, gains, rank, *args, first_round=first_round)
        assert out.tobytes() == ref.tobytes()
        reach = math.sqrt(p_max) * float(np.sum(gains[active]))  # all alive nodes at the cap
        seen["fallback"] += kind == "centralized_min_power" and reach < math.sqrt(target_snr * noise_power)
        seen["calls"] += 1
        seen["partial"] += n_alive < gains.size
        seen["strided"] += gains.strides[0] > gains.itemsize

    monkeypatch.setattr(beamlife.lifetime, "_strategy_weights", checked)
    for links, period, cap in [(1, 1, 1.5), (2, 1, 1.5), (3, 3, 1.5), (2, 1, 3.0), (2, 2, 1e4)]:
        # small_scenario's cap is 1e4 times its equal-power weight's square
        base = small_scenario(n=30, links=links, strategy=StrategySpec(kind=kind, levels=0, period=period))
        energy = EnergySpec(kind="gaussian", e_max=1.0, mean=0.5, sigma=0.15)
        cfg = replace(base, p_max=base.p_max * 1e-4 * cap * links**2, energy=energy)
        for seed in range(4):
            try:
                run_lifetime(cfg, rng_for(cfg.master_seed, seed))
            except InfeasibleAllocationError:
                pass
    assert seen["calls"] > seen["partial"] > 0 and seen["strided"] > 0
    assert len(scans) > 0  # the cap bound, so the scan ran
    if kind == "centralized_min_power":
        assert seen["fallback"] > 0


def ranked_kernel_weights(kind, gains, active, target_snr, noise_power, p_max, first_round):
    """``_strategy_weights`` on one link's gains, ranked as the engine ranks them."""
    out = np.zeros(gains.size)
    rank = beamlife.lifetime._rank_gains(gains)
    n_alive = int(np.count_nonzero(active))
    ch = lognormal_channel_stats(16.0)
    beamlife.lifetime._strategy_weights(
        out, kind, active, n_alive, gains, rank, target_snr, noise_power, ch, p_max, first_round=first_round
    )
    ref = solver_weights(np.zeros(gains.size), kind, active, n_alive, gains, target_snr, noise_power, ch, p_max,
                         first_round)
    return out, ref


@pytest.mark.parametrize("kind", CENTRALIZED)
def test_strategy_kernel_matches_the_solvers_bit_for_bit(kind, monkeypatch):
    # Seeded gains, with ties, partial alive masks and strided views, at
    # targets from far below the cap to where every alive node is capped.
    scans = counted_calls(monkeypatch, "_capped_matched_filter")
    rng = np.random.default_rng(2027)
    for k in range(400):
        n = int(rng.integers(1, 60))
        row = 10 ** (rng.normal(0.0, 4.0 + 10.0 * (k % 3), 3 * n) / 20)
        if k % 4 == 0:  # ties
            row = rng.choice(row[: max(1, n // 3)], 3 * n)
        gains = row[k % 3 :: 3][:n] if k % 2 else row[:n]
        active = rng.random(n) < rng.uniform(0.3, 1.0) if k % 5 else np.ones(n, dtype=bool)
        if not active.any():
            active[int(rng.integers(n))] = True
        alive = gains[active]
        p_max = float(rng.uniform(0.01, 2.0))
        # min-power's reach at the cap, and the target where the matched filter's largest weight meets it
        full = math.sqrt(p_max) * float(alive.sum())
        edge = math.sqrt(p_max) / float(alive.max()) * float(np.sum(alive**2))
        amplitude = min(edge, full) * float(rng.choice([0.3, 1.0, 1.0 + 1e-15, 1.5, 3.0]))
        target = amplitude**2 if kind == "centralized_min_power" else float(rng.uniform(0.0, 10.0)) ** 2
        noise = float(rng.choice([1.0, 1e-10]))
        try:
            out, ref = ranked_kernel_weights(kind, gains, active, target / noise, noise, p_max, first_round=False)
        except InfeasibleAllocationError:
            pytest.fail("min-power after round 1 puts every alive node at the cap")
        assert out.tobytes() == ref.tobytes(), (k, kind)
    assert len(scans) > 20  # the cap bound in many instances


def cap_with_amplitude(s):
    """The per-node cap whose ``math.sqrt`` is exactly ``s``."""
    p = s * s
    for _ in range(8):
        if math.sqrt(p) == s:
            return p
        p = float(np.nextafter(p, math.inf if math.sqrt(p) < s else 0.0))
    raise AssertionError(f"no cap has amplitude {s!r}")


@pytest.mark.parametrize("kind", CENTRALIZED)
@pytest.mark.parametrize("mask", ["full", "partial"])
def test_strategy_kernel_at_the_edge_of_the_cap(kind, mask, monkeypatch):
    # Cap amplitudes on the uncapped matched filter's largest weight and on
    # the last floats either side of it: the kernel keeps the uncapped filter
    # up to that weight, calls the scan just below it, and on every side
    # writes the bits of the solvers, which run the plain scan.
    scans = counted_calls(monkeypatch, "_capped_matched_filter")
    rng = np.random.default_rng(28)
    ch = lognormal_channel_stats(16.0)
    for k in range(60):
        n = int(rng.integers(9, 80))
        gains = 10 ** (rng.normal(0.0, 4.0 + 10.0 * (k % 3), n) / 20)
        active = rng.random(n) < 0.6 if mask == "partial" else np.ones(n, dtype=bool)
        active[np.argsort(gains)[:2]] = True  # at least two distinct alive gains
        alive = gains[active]
        tail = float(np.cumsum(np.sort(alive) ** 2)[-1])  # the scan's tail[0]
        noise = float(rng.choice([1.0, 1e-10]))
        target_snr = float(rng.uniform(0.1, 100.0)) / noise
        if kind == "centralized_min_power":
            mu = math.sqrt(target_snr * noise) / tail
        else:
            budget = alive.size * cbepa_weight(target_snr, alive.size, ch, noise) ** 2
            mu = math.sqrt(budget / tail)
        edge = mu * float(alive.max())
        for side, s in [(-1, np.nextafter(edge, 0.0)), (0, edge), (1, np.nextafter(edge, math.inf))]:
            p_max = cap_with_amplitude(float(s))
            if kind == "centralized_max_gain":
                assert budget < alive.size * p_max  # the budget, not the cap, is spent
            before = len(scans)
            out, ref = ranked_kernel_weights(kind, gains, active, target_snr, noise, p_max, first_round=True)
            assert out.tobytes() == ref.tobytes(), (k, side)
            assert len(scans) - before == (side < 0), (k, side)


def test_min_power_kernel_infeasible_in_round_one_and_after():
    gains = np.array([0.5, 2.0, 1.0, 0.25])
    active = np.array([True, False, True, True])
    target = 4.0  # amplitude 2, above the cap's reach 0.1 * 1.75
    with pytest.raises(InfeasibleAllocationError) as solver:
        solve_min_power(gains[active], target, 1.0, 0.01)
    with pytest.raises(InfeasibleAllocationError) as engine:
        ranked_kernel_weights("centralized_min_power", gains, active, target, 1.0, 0.01, first_round=True)
    assert str(engine.value) == str(solver.value)
    out, ref = ranked_kernel_weights("centralized_min_power", gains, active, target, 1.0, 0.01, first_round=False)
    assert out.tobytes() == ref.tobytes() == np.array([0.1, 0.0, 0.1, 0.1]).tobytes()


@pytest.mark.parametrize("kind", CENTRALIZED)
@pytest.mark.parametrize("tiny", [1e-160, 2.0**-512])
def test_engine_rejects_gains_whose_squares_are_subnormal(kind, tiny, monkeypatch):
    # The engine checks the drawn gains once per run, with the solvers' error.
    cfg = small_scenario(strategy=StrategySpec(kind=kind, levels=0, period=1), links=2)
    drawn = []

    def channel(n, sigma2_db, rng):
        gains = sample_channel(n, sigma2_db, rng)
        gains[0] = tiny  # a member of link 0
        drawn.append(gains)
        return gains

    monkeypatch.setattr(beamlife.lifetime, "sample_channel", channel)
    with pytest.raises(ValueError, match="squares") as engine:
        run_lifetime(cfg, rng_for(cfg.master_seed))
    link = drawn[0][0 :: cfg.links]
    with pytest.raises(ValueError) as solver:
        if kind == "centralized_min_power":
            solve_min_power(link, cfg.target_snr_linear(), db_to_linear(cfg.noise_db), cfg.p_max)
        else:
            solve_max_gain(link, cfg.p_max, cfg.p_max)
    assert str(engine.value) == str(solver.value)


def test_cb_pa_period_one_runs_every_round_on_the_normal_path(monkeypatch):
    # Continuous cb_pa reads the residuals unquantized, so each round
    # reallocates with new inputs and none is stepped.
    calls = counted_calls(monkeypatch, "gate_and_charge")
    cfg = replace(preset("pa-uniform"), strategy=StrategySpec(kind="cb_pa", levels=0, period=1))
    trace = run_lifetime(cfg, rng_for(cfg.master_seed))
    assert len(calls) == trace.lifetime > 1


def initial_residuals(cfg, seed):
    """Each node's round-1 budget, replayed in the engine's documented setup order."""
    rng = rng_for(cfg.master_seed, seed)
    rng.random((2, cfg.n))  # radii and azimuths
    for _ in range(cfg.links):
        sample_channel(cfg.n, cfg.shadowing_sigma2_db, rng)
    sample_phase_errors(cfg.n, math.radians(cfg.phase_error_deg_bound), rng)
    return sample_initial_energies(cfg.energy, cfg.n, rng)


def rounds_that_gate(cfg, trace, initial):
    """How many rounds of a period-1 quantized cb_pa run must run the gate.

    Round 1 allocates. A later round reallocates when a node died or a link
    went down in the round before it, or when its starting levels (each
    link up's alive members through quantize_weights) differ from those of
    the last allocation. Any other round repeats the last one, so it gates
    only if some node dies in it.
    """
    starts = np.vstack([initial, trace.node_residuals[:-1]])
    alive = np.vstack([np.ones(cfg.n, dtype=bool), trace.node_alive])
    alive_counts = alive.sum(axis=1)  # alive_counts[t]: after round t

    def levels(t):
        return [
            quantize_weights(
                cbpa_normalized_weights(starts[t - 1][alive[t - 1] & link_mask(cfg.n, cfg.links, l)], cfg.energy.e_max),
                cfg.strategy.levels,
            )
            for l in range(cfg.links)
            if trace.link_lifetimes[l] >= t
        ]

    gated, allocated = 1, levels(1)
    for t in range(2, trace.lifetime + 1):
        now = levels(t)
        changed = len(now) != len(allocated) or not all(map(np.array_equal, now, allocated))
        if alive_counts[t - 1] < alive_counts[t - 2] or t - 1 in trace.link_lifetimes or changed:
            gated, allocated = gated + 1, now
        elif alive_counts[t] < alive_counts[t - 1]:
            gated += 1
    return gated


@pytest.mark.parametrize("case", ["pa-uniform", "two-links-deaths"])
@pytest.mark.parametrize("seed", range(3))
def test_quantized_cb_pa_gates_only_rounds_with_new_levels(case, seed, monkeypatch):
    # The levels only fall, so a round whose levels all repeat those of the
    # last allocation, with no death or link down since, is stepped.
    calls = counted_calls(monkeypatch, "gate_and_charge")
    cfg = preset("pa-uniform") if case == "pa-uniform" else deaths_on_two_links()
    trace = run_lifetime(cfg, rng_for(cfg.master_seed, seed), record_nodes=True)
    assert len(calls) == rounds_that_gate(cfg, trace, initial_residuals(cfg, seed))
    if case == "pa-uniform" or seed == 0:
        assert len(calls) < trace.lifetime
    if case != "pa-uniform" and seed == 0:
        first_down = trace.link_lifetimes.min()
        assert trace.node_alive[first_down - 2].sum() < cfg.n and first_down < trace.lifetime


def test_a_death_reallocates_although_the_levels_repeat(monkeypatch):
    # Node 0 (level 7 of 8) cannot pay round 1 and dies; nodes 1 and 2 stay
    # at level 1, so round 2 finds every level as round 1 left it. It must
    # reallocate for the two nodes left, whose new cost neither can pay.
    monkeypatch.setattr(beamlife.lifetime, "sample_initial_energies", lambda spec, n, rng: np.array([0.825, 0.175, 0.175]))
    cfg = ScenarioConfig(
        n=3,
        links=1,
        target_snr_db=6.0,
        shadowing_sigma2_db=0.0,
        phase_error_deg_bound=0.0,
        energy=EnergySpec(kind="gaussian", e_max=1.0, mean=0.5, sigma=0.0),
        strategy=StrategySpec(kind="cb_pa", levels=8, period=1),
        death=DeathSpec(max_dead_fraction=1.0, snr_drop_db=60.0),
        p_max=1.0,
        max_rounds=20,
    )
    # round 1's level-1 cost is target * noise * slot / 105: 0.02, and node 0's 49 times it
    cfg = replace(cfg, t_slot_s=2.1 / (cfg.target_snr_linear() * db_to_linear(cfg.noise_db)))
    trace = run_lifetime(cfg, rng_for(1), record_nodes=True)
    assert trace.node_alive.sum(axis=1).tolist() == [2, 0]
    assert trace.node_residuals[0] == pytest.approx([0.825, 0.155, 0.155], abs=1e-12)
    assert_rows_match_round_charges(cfg, trace, np.array([0.825, 0.175, 0.175]))


def test_repeated_levels_that_a_node_cannot_pay_run_the_gate(monkeypatch):
    # One node's level repeats in round 2, but its residual no longer covers
    # the unchanged cost: the round gates the unchanged weight and the node
    # dies, as when the weight is reallocated.
    cfg = ScenarioConfig(
        n=1,
        links=1,
        target_snr_db=6.0,
        shadowing_sigma2_db=0.0,
        phase_error_deg_bound=0.0,
        energy=EnergySpec(kind="gaussian", e_max=1.0, mean=0.7, sigma=0.0),
        strategy=StrategySpec(kind="cb_pa", levels=2, period=1),
        p_max=1.0,
        max_rounds=10,
    )
    # round 1 sends u = 1/2 at scale 2 * sqrt(target * noise): weight sqrt(target * noise)
    cfg = replace(cfg, t_slot_s=0.36 / (cfg.target_snr_linear() * db_to_linear(cfg.noise_db)))
    calls = counted_calls(monkeypatch, "gate_and_charge")
    trace = run_lifetime(cfg, rng_for(1), record_nodes=True)
    assert len(calls) == trace.lifetime == 2 and trace.causes == ("nodes",)
    assert trace.residual_total.tolist() == pytest.approx([0.34, 0.34], abs=1e-12)
    assert np.floor(0.34 * 2 + 0.5) == np.floor(0.7 * 2 + 0.5) == 1  # the level repeated
    assert_rows_match_round_charges(cfg, trace, np.full(1, 0.7))


@pytest.mark.parametrize("kind", ["cb_pa", "centralized_min_power"])
def test_gate_sees_one_weights_array_per_run(kind, monkeypatch):
    # gate_and_charge zeroes the unfunded nodes' weights in place, so every
    # round of a run, before and after deaths, gates the same array, whose
    # per-link views are made once. Both runs have two links, and nodes die
    # before the last round: the slot is sized for n nodes on one link.
    seen = []
    gate = beamlife.lifetime.gate_and_charge

    def recording(residual, weights, slot):
        charge, unfunded, paid = gate(residual, weights, slot)
        seen.append((weights, unfunded is not None))
        return charge, unfunded, paid

    monkeypatch.setattr(beamlife.lifetime, "gate_and_charge", recording)
    if kind == "cb_pa":
        cfg = small_scenario(n=100, links=2)
    else:
        cfg = small_scenario(links=2, strategy=StrategySpec(kind=kind, levels=0, period=1))
        cfg = replace(cfg, t_slot_s=0.3 * cfg.t_slot_s)
    trace = run_lifetime(cfg, rng_for(cfg.master_seed))
    assert any(died for _, died in seen[:-1])
    assert all(weights is seen[0][0] for weights, _ in seen)
    if kind != "cb_pa":
        assert len(seen) < trace.lifetime  # stretches stepped the gate's charge


def test_stretch_stops_where_the_node_cannot_pay():
    # One node on an equal weight gets a budget for which residual / cost,
    # the estimate that sizes a stretch's walk at period 1, promises one
    # round more than repeated subtraction leaves. The walk, not the
    # estimate, decides: one-shot or at period 1, the node must die in the
    # first round it cannot pay, with every residual exact.
    for period in (10**9, 1):
        cfg, cost = one_node(period)
        budgets = np.nextafter(20 * cost, np.inf) + cost * np.arange(-8, 9) * 2.0**-45
        overshoot = [b for b in budgets if int((b - cost) / cost) > len(residual_rows(b - cost, cost)) - 1]
        assert overshoot
        budget = float(overshoot[0])
        trace = run_lifetime(replace(cfg, energy=replace(cfg.energy, mean=budget)), rng_for(1), record_nodes=True)
        rows = residual_rows(budget, cost)
        assert trace.lifetime == len(rows)
        assert trace.causes == ("nodes",)
        assert trace.node_residuals[:, 0].tolist() == rows[1:] + [rows[-1]]
        assert_residual_curve_within_bound(trace)


def all_rows_stretch(residual, cost, rounds):
    """Each node's rounds paid and residual after a stretch of ``rounds``
    rounds at ``cost``, testing every row as ``gate_and_charge`` does: a node
    pays while its residual covers its cost and stops at the first round it
    cannot pay."""
    x = residual.copy()
    paid = np.zeros(residual.size, dtype=np.int64)
    paying = np.ones(residual.size, dtype=bool)
    for _ in range(rounds):
        paying &= x >= cost
        if not paying.any():
            break
        np.subtract(x, cost, out=x, where=paying)
        paid += paying
    return paid, x


TINY = 2.0**-1074  # the smallest subnormal


def stretch_inputs(rng, n, longest):
    """A residual/cost pair of ``n`` nodes whose stretches run up to about
    ``longest`` rounds, and the engine's estimate of its length. Nodes draw
    zero costs, ties (costs an odd number of half-ulps of the residual's
    binade), exact multiples, costs too small to move the residual, whole
    ratios, residuals at and just above powers of two, subnormal residuals
    and costs, zero residuals, residuals that cannot pay round 1 and
    stretches that end on the bottom of a binade."""
    residual = rng.random(n)
    lengths = rng.integers(1, longest + 1) * rng.uniform(1.0, 4.0, n)  # rounds each node can pay, about
    cost = residual / lengths
    picks = rng.choice(12, size=int(rng.integers(1, 5)), replace=False)  # this case's kinds of node
    for i in rng.choice(n, size=min(n, int(rng.choice([1, 3, 40]))), replace=False):
        pick = rng.choice(picks)
        length = int(lengths[i])
        if pick == 0:
            cost[i] = 0.0
        elif pick == 1:
            cost[i] = residual[i]  # r == c: one round, then nothing left
        elif pick == 2:
            cost[i] = 2.0 ** -int(rng.integers(2, 12))
            residual[i] = cost[i] * int(rng.integers(0, min(length, 2000) + 1))  # ties after every exact step
        elif pick == 3:
            cost[i] = residual[i] * 2.0**-60  # fl(r - c) == r
        elif pick == 4:
            cost[i] = residual[i] / length  # near a whole ratio
        elif pick == 5:
            ulp = np.spacing(residual[i])
            cost[i] = (2 * int(residual[i] / ulp / length / 2) + 1) * ulp / 2  # a tie in every round
        elif pick == 6:
            residual[i] = 2.0 ** -int(rng.integers(0, 60))  # a power of two, or just above it
            residual[i] += np.spacing(residual[i]) * int(rng.integers(0, 3))
            cost[i] = residual[i] / length * rng.choice([1.0, 2.0**-52, 2.0**-53, 3 * 2.0**-54])
        elif pick == 7:
            residual[i] = TINY * int(rng.integers(0, 2**20))  # subnormal
            cost[i] = TINY * int(rng.integers(0, 2**12)) if rng.random() < 0.5 else residual[i] / length
        elif pick == 8:
            residual[i] = 0.0
            cost[i] = 0.0 if rng.random() < 0.5 else TINY
        elif pick == 9:
            cost[i] = np.nextafter(residual[i], np.inf) if rng.random() < 0.5 else residual[i] * 1.5  # cannot pay
        elif pick == 10:
            residual[i] = 2.0**-1022 + TINY * int(rng.integers(0, 3))  # the smallest normal binade
            cost[i] = TINY * int(rng.integers(1, 4))
        elif pick == 11:
            # k ulps a round, from k + 1/4, k + 1/2 or k + 3/4 of them, for up
            # to ``longest`` rounds down to the bottom of the binade
            ulp, k = 2.0 ** -int(rng.integers(53, 80)), int(rng.integers(1, 2**20))
            residual[i] = 2.0**52 * ulp + int(rng.integers(1, longest + 1)) * k * ulp
            cost[i] = (k + rng.choice([0.25, 0.5, 0.75])) * ulp
    charged = cost > 0
    estimate = int((residual[charged] / cost[charged]).min()) if charged.any() else longest
    return residual, cost, min(estimate, longest)


def test_stretch_ends_like_a_test_of_every_row(monkeypatch):
    # _walk steps short stretches row by row and jumps longer ones across a
    # binade per pass, in blocks of nodes; each node's count of rounds paid
    # and its final residual must be those of testing every row, byte for
    # byte, whether the horizon ends before the first node stops, at it or
    # long after, for horizons of 0 to 10**5 rounds on up to 1000 nodes.
    # Small blocks make one walk span several.
    rng = np.random.default_rng(2024)
    cut, to_horizon, horizons, jumps, wide = 0, 0, set(), 0, 0
    for i in range(2500):
        n, longest = (int(rng.integers(1, 7)), 40) if i % 10 < 6 else (int(rng.integers(1, 1001)), 60)
        if i % 20 == 19:
            n, longest = int(rng.integers(1, 9)), 5000
        if i % 500 == 0:
            n, longest = 1000, 5000
        if i % 500 == 250:
            n, longest = int(rng.integers(1, 5)), 10**5
        residual, cost, estimate = stretch_inputs(rng, n, longest)
        if i % 50 in (1, 2):
            rounds = i % 50
        elif i % 4:
            rounds = max(estimate + int(rng.integers(-2, 6)), 0)
        else:
            rounds = int(rng.integers(0, longest + 1))
        paid, final = all_rows_stretch(residual, cost, rounds)
        start = residual.copy()
        monkeypatch.setattr(beamlife.lifetime, "_BLOCK", int(rng.choice([1, 3, 64, 2**14])))
        fewest, counts, walked = beamlife.lifetime._walk(residual, cost, rounds)
        assert residual.tobytes() == start.tobytes(), i
        if counts is None:
            counts = np.full(n, rounds)
        else:
            assert counts.dtype == np.int64, i
        assert counts.tolist() == paid.tolist() and fewest == paid.min(), i
        assert walked.tobytes() == final.tobytes(), i
        cut += int(paid.min()) < rounds
        to_horizon += rounds > beamlife.lifetime._SHORT and int(paid.max()) == rounds
        horizons.add(rounds)
        # a node that paid a long walk and ended two binades below its start
        jumps += rounds > beamlife.lifetime._SHORT and bool(np.any(np.frexp(start)[1] - np.frexp(final)[1] >= 2))
        wide += n >= 500 and rounds > beamlife.lifetime._SHORT
    assert {0, 1, 2} <= horizons and max(horizons) > 5 * 10**4
    assert cut > 1000 and to_horizon > 300 and jumps > 200 and wide > 100


def test_a_static_million_rounds_take_one_walk(monkeypatch):
    # The 1-link, zero-target, one-shot probe pays nothing in any round, so
    # every round after the first is one stretch, walked in a single call.
    calls = counted_calls(monkeypatch, "_walk")
    cfg = replace(preset("epa-uniform"), target_snr_db=None, target_rate_bits=0.0, max_rounds=10**6)
    trace = run_lifetime(cfg, rng_for(cfg.master_seed))
    assert len(calls) == 1
    assert trace.lifetime == 10**6 and trace.causes == ("max_rounds",)
    assert trace.consumed_j == 0.0 and trace.residual_total[-1] == trace.initial_j == trace.wasted_j


@pytest.mark.parametrize("levels", [1, 2, 8, 2**20, 2**52, 2**53])
def test_one_division_quantizes_like_divide_then_scale(levels):
    # The engine divides the residuals by e_max / levels; the grid points
    # must be those of dividing by e_max and multiplying by levels, for every
    # e_max that validate accepts at these levels (e_max / levels normal,
    # down to the boundary e_max = levels * 2**-1022), tiny residuals and
    # half-way ties included.
    def accepted(e_max):
        energy = EnergySpec(kind="gaussian", e_max=e_max, mean=e_max, sigma=0.0)
        try:
            return ScenarioConfig(n=1, energy=energy, strategy=StrategySpec(levels=levels)) is not None
        except ConfigError:
            return False

    rng = np.random.default_rng(levels % 1009)
    boundary = levels * 2.0**-1022
    e_maxes = [5e-324, 2.0**-1070, 1e-310, 2.0**-1022, 1e-300, 3e-10, 1.0, 3.7, 1e300, np.finfo(float).max]
    e_maxes += list(10.0 ** rng.uniform(-323, 308, 100)) + [boundary]
    e_maxes = [e_max for e_max in e_maxes if accepted(e_max)]
    assert boundary in e_maxes and not accepted(np.nextafter(boundary, 0.0)) and len(e_maxes) > 80
    for e_max in e_maxes:
        ties = (np.arange(min(levels, 64)) + 0.5) / levels * e_max
        r = np.concatenate([
            [0.0, e_max, e_max / 2, 5e-324],
            rng.random(40) * e_max,
            rng.random(40) * e_max * 2.0 ** -rng.integers(0, 1100, 40).astype(float),
            ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
        ])
        r = np.clip(r, 0.0, e_max)
        expected = r / e_max
        expected *= levels
        u = beamlife.lifetime._cbpa_units(np.empty_like(r), r, e_max / levels, levels)
        assert u.tobytes() == np.floor(expected + 0.5).tobytes(), e_max


@pytest.mark.parametrize("seed", range(3))
def test_levels_at_the_exact_sum_bound_match_the_helper_chain(seed):
    # n * levels == 2**53, the largest grid validate accepts on two nodes; the
    # cap that small_scenario sets keeps round 1 feasible
    cfg = small_scenario(n=2, strategy=StrategySpec(kind="cb_pa", levels=2**52, period=1))
    with pytest.raises(ConfigError, match=r"^strategy\.levels: "):
        replace(cfg, n=3)
    trace = run_lifetime(cfg, rng_for(cfg.master_seed, seed), record_nodes=True)
    assert trace.lifetime >= 3
    assert_charges_match_helper_chain(cfg, trace)
