"""Energy accounting tests."""

import numpy as np
import pytest

from beamlife import lifetime
from beamlife.allocation import cbepa_weight, lognormal_channel_stats
from beamlife.config import ConfigError, EnergySpec, ScenarioConfig, StrategySpec
from beamlife.energy import LinkBudget, gate_and_charge, required_tx_power_db, sample_initial_energies
from beamlife.geometry import db_to_linear
from beamlife.lifetime import run_lifetime

from test_lifetime import rng_for, small_scenario


class TestInitialEnergies:
    def test_uniform_mean(self):
        spec = EnergySpec(kind="uniform", e_max=1.0, mean=0.5)
        draws = sample_initial_energies(spec, 1_000_000, np.random.default_rng(1))
        assert abs(draws.mean() - 0.5) < 0.0025  # half capacity within 0.5%
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_gaussian_zero_sigma_is_exact(self):
        spec = EnergySpec(kind="gaussian", e_max=1.0, mean=0.4, sigma=0.0)
        draws = sample_initial_energies(spec, 100, np.random.default_rng(2))
        np.testing.assert_array_equal(draws, np.full(100, 0.4))

    def test_clamped_gaussian(self):
        spec = EnergySpec(kind="gaussian", e_max=1.0, mean=0.5, sigma=0.15)
        draws = sample_initial_energies(spec, 1_000_000, np.random.default_rng(3))
        clamped = np.mean((draws == 0.0) | (draws == 1.0))
        assert clamped < 0.01
        assert abs(draws.mean() - 0.5) < 0.005

    def test_validation(self):
        # Distribution checks run when the config is built; the rejected
        # values are listed key by key in test_config_cli.
        with pytest.raises(ConfigError, match="energy.mean"):
            ScenarioConfig(energy=EnergySpec(kind="uniform", e_max=1.0, mean=0.7))
        with pytest.raises(ValueError):
            sample_initial_energies(EnergySpec(), 0, np.random.default_rng(0))


class TestSlotEnergy:
    def test_values(self):
        # a slot at amplitude w for slot_length T costs w^2 * T joules
        for w, slot, cost in ((0.0, 1.0, 0.0), (0.1, 1.0, 0.01), (0.05, 2.0, 0.005)):
            residual = np.array([1.0])
            _, _, consumed = gate_and_charge(residual, np.array([w]), slot)
            assert consumed == pytest.approx(cost)
            assert residual[0] == pytest.approx(1.0 - cost)


class TestLinkBudget:
    def test_headline_operating_point_exact(self):
        budget = LinkBudget(pl0_db=40.0, alpha=2.0, distance_m=1000.0, d0_m=1.0, noise_db=-100.0)
        assert abs(required_tx_power_db(budget, 11.76) - 11.76) < 1e-9

    def test_reference_distance(self):
        budget = LinkBudget(pl0_db=0.0, alpha=2.0, distance_m=1.0, d0_m=1.0, noise_db=-20.0)
        assert required_tx_power_db(budget, 20.0) == pytest.approx(0.0, abs=1e-12)

    def test_cubic_exponent(self):
        # -90 received + 40 reference + 10*3*log10(100) = 10 dB
        budget = LinkBudget(pl0_db=40.0, alpha=3.0, distance_m=100.0, d0_m=1.0, noise_db=-100.0)
        assert required_tx_power_db(budget, 10.0) == pytest.approx(10.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(pl0_db=40.0, alpha=0.0, distance_m=10.0)
        with pytest.raises(ValueError):
            LinkBudget(pl0_db=40.0, alpha=2.0, distance_m=0.5, d0_m=1.0)


class TestChargeRound:
    def test_funded_nodes_pay_squared_weight(self):
        residual = np.array([1.0, 1.0])
        funded, _, consumed = gate_and_charge(residual, np.array([0.1, 0.2]), 1.0)
        np.testing.assert_allclose(residual, [0.99, 0.96])
        assert funded.all()
        assert consumed == pytest.approx(0.05)

    def test_unfundable_node_keeps_residual_and_dies(self):
        residual = np.array([0.005])
        funded, funded_w, consumed = gate_and_charge(residual, np.array([0.1]), 1.0)
        np.testing.assert_array_equal(residual, [0.005])
        np.testing.assert_array_equal(np.flatnonzero(~funded), [0])
        np.testing.assert_array_equal(funded_w, [0.0])
        assert consumed == 0.0

    def test_all_funded_returns_the_weights_array_itself(self):
        # The round loop takes "funded_w is weights" to mean nobody died.
        weights = np.array([0.1, 0.0, 0.2])
        funded, funded_w, _ = gate_and_charge(np.ones(3), weights, 1.0)
        assert funded.all()
        assert funded_w is weights

    def test_unfunded_node_gets_a_fresh_weights_array(self):
        # The round loop keeps this array as its zero-at-the-dead weights,
        # so it must not share memory with the input, which stays unchanged.
        weights = np.array([0.1, 0.5, 0.2])
        funded, funded_w, _ = gate_and_charge(np.array([1.0, 0.1, 1.0]), weights, 1.0)
        np.testing.assert_array_equal(funded, [True, False, True])
        assert funded_w is not weights and not np.shares_memory(funded_w, weights)
        np.testing.assert_array_equal(funded_w, [0.1, 0.0, 0.2])
        np.testing.assert_array_equal(weights, [0.1, 0.5, 0.2])

    def test_zero_weights_leave_state_unchanged(self):
        residual = np.array([0.3, 0.7])
        funded, _, consumed = gate_and_charge(residual, np.zeros(2), 1.0)
        np.testing.assert_array_equal(residual, [0.3, 0.7])
        assert funded.all()
        assert consumed == 0.0

    def test_conservation(self):
        rng = np.random.default_rng(23)
        residual = rng.uniform(0.1, 1.0, 20)
        total0 = residual.sum()
        consumed = 0.0
        for _ in range(10):
            consumed += gate_and_charge(residual, rng.uniform(0.0, 0.2, 20), 1.0)[2]
        assert total0 == pytest.approx(residual.sum() + consumed, rel=1e-12)

    def test_state_invariants_enforced(self):
        # 0 <= residual <= previous residual, and a gated node pays nothing
        rng = np.random.default_rng(29)
        residual = rng.uniform(0.0, 0.05, 50)
        for _ in range(10):
            before = residual.copy()
            funded, _, _ = gate_and_charge(residual, rng.uniform(0.0, 0.2, 50), 1.0)
            assert np.all(residual >= 0.0) and np.all(residual <= before)
            np.testing.assert_array_equal(residual[~funded], before[~funded])


class TestWastedEnergy:
    def test_fully_drained(self, monkeypatch):
        # Every node starts with exactly one equal-power slot of energy, so
        # round 1 drains the whole cluster and round 2 gates every node out.
        cfg = small_scenario(strategy=StrategySpec(kind="cb_epa", levels=0, period=1))
        w = cbepa_weight(
            cfg.target_snr_linear(),
            cfg.n,
            lognormal_channel_stats(cfg.shadowing_sigma2_db),
            db_to_linear(cfg.noise_db),
        )
        monkeypatch.setattr(lifetime, "sample_initial_energies", lambda spec, n, rng: np.full(n, w * w * cfg.t_slot_s))
        trace = run_lifetime(cfg, rng_for(cfg.master_seed, 0))
        assert trace.lifetime == 2
        assert trace.consumed_j == pytest.approx(trace.initial_j)
        assert (trace.wasted_j, trace.wasted_pct) == (0.0, 0.0)

    def test_partial(self):
        # Stranded energy is what the nodes hold at death, referenced to n
        # times the configured mean.
        cfg = small_scenario()
        trace = run_lifetime(cfg, rng_for(cfg.master_seed, 0))
        assert trace.wasted_j == pytest.approx(trace.residual_total[-1])
        assert trace.wasted_pct == pytest.approx(100.0 * trace.wasted_j / (cfg.n * cfg.energy.mean))
