"""Weight-selection tests: closed forms, quantization, centralized solvers.

The centralized solvers are checked against an exhaustive grid search over
the feasible set; the closed-form scale is checked against an independent
high-precision evaluation and against Monte Carlo averages of the realized
SNR.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from beamlife.allocation import (
    ChannelStats,
    InfeasibleAllocationError,
    ReiStats,
    analytic_average_snr,
    cbepa_weight,
    cbpa_normalized_weights,
    compute_wmax,
    lognormal_channel_stats,
    quantize_weights,
    solve_max_gain,
    solve_min_power,
)

NOISE = 1e-10
TARGET = 10 ** 1.176  # 11.76 dB


def hp_channel_stats(sigma2_db, divisor):
    """Independent high-precision evaluation of the log-normal moments."""
    mp.mp.dps = 40
    s2 = mp.mpf(sigma2_db) * (mp.log(10) / divisor) ** 2
    mean = mp.e ** (s2 / 2)
    variance = (mp.e**s2 - 1) * mp.e**s2
    return float(mean), float(variance)


class TestChannelStats:
    @pytest.mark.parametrize("divisor", [10, 20])
    def test_matches_high_precision(self, divisor):
        stats = lognormal_channel_stats(16.0, divisor)
        mean, variance = hp_channel_stats(16.0, divisor)
        assert stats.mean == pytest.approx(mean, rel=1e-14)
        assert stats.variance == pytest.approx(variance, rel=1e-14)

    def test_frozen_values_divisor_10(self):
        stats = lognormal_channel_stats(16.0, 10)
        assert stats.mean == pytest.approx(1.5282936457798481, rel=1e-12)
        assert stats.variance == pytest.approx(3.1197264509712586, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            lognormal_channel_stats(-1.0)
        with pytest.raises(ValueError):
            ChannelStats(mean=0.0, variance=1.0)


class TestNormalizedWeights:
    def test_direct_ratio(self):
        u = cbpa_normalized_weights(np.array([1.0, 0.5, 0.0]), 1.0)
        np.testing.assert_allclose(u, [1.0, 0.5, 0.0])

    def test_equal_residuals_equal_weights(self):
        u = cbpa_normalized_weights(np.full(7, 0.3), 1.0)
        assert np.all(u == u[0])

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(31)
        residuals = rng.uniform(0, 2.0, 50)
        u = cbpa_normalized_weights(residuals, 2.0)
        for i in range(50):
            assert u[i] == residuals[i] / 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            cbpa_normalized_weights(np.array([0.5]), 0.0)
        with pytest.raises(ValueError):
            cbpa_normalized_weights(np.array([1.5]), 1.0)


class TestReiStats:
    # The engine builds ReiStats from the alive nodes' normalized weights u
    # as mean(u) * e_max and the population variance var(u) * e_max^2.
    @staticmethod
    def from_residuals(residuals, capacity):
        u = np.asarray(residuals, dtype=float) / capacity
        return ReiStats(mean=float(u.mean()) * capacity, variance=float(u.var()) * capacity**2, capacity=capacity)

    def test_constant_residuals(self):
        stats = self.from_residuals(np.full(10, 0.5), 1.0)
        assert stats.mean_normalized == pytest.approx(0.5)
        assert stats.variance_normalized == 0.0

    def test_two_point(self):
        stats = self.from_residuals(np.array([0.0, 2.0]), 2.0)
        assert stats.mean_normalized == pytest.approx(0.5)
        assert stats.variance_normalized == pytest.approx(0.25)

    def test_two_pass_variance_oracle(self):
        rng = np.random.default_rng(37)
        residuals = rng.uniform(0, 1, 200)
        stats = self.from_residuals(residuals, 1.0)
        mean = sum(residuals) / len(residuals)
        var = sum((x - mean) ** 2 for x in residuals) / len(residuals)
        assert stats.mean == pytest.approx(mean, rel=1e-12)
        assert stats.variance == pytest.approx(var, rel=1e-12)


def uniform_rei():
    return ReiStats(mean=0.5, variance=1.0 / 12.0, capacity=1.0)


class TestAnalyticAverageSnr:
    def test_deterministic_array_gain(self):
        rei = ReiStats(mean=1.0, variance=0.0, capacity=1.0)
        ch = ChannelStats(mean=1.0, variance=0.0)
        snr = analytic_average_snr(0.01, 50, rei, ch, NOISE)
        assert snr == pytest.approx(0.01**2 * 50**2 / NOISE, rel=1e-12)

    def test_zero_scale(self):
        assert analytic_average_snr(0.0, 10, uniform_rei(), lognormal_channel_stats(16.0), NOISE) == 0.0

    def test_monte_carlo_oracle(self):
        # Empirical mean of the realized SNR over independent energy and
        # gain draws must track the closed form within 2%.
        n, draws = 100, 100_000
        ch = lognormal_channel_stats(16.0, 10)
        scale = 5e-7
        expected = analytic_average_snr(scale, n, uniform_rei(), ch, NOISE)
        rng = np.random.default_rng(41)
        total = 0.0
        for _ in range(10):
            u = rng.uniform(0, 1, (draws // 10, n))
            gains = 10 ** (rng.normal(0, 4.0, (draws // 10, n)) / 10)
            amplitude = (scale * u * gains).sum(axis=1)
            total += float((amplitude**2).sum())
        empirical = total / draws / NOISE
        assert abs(empirical / expected - 1.0) < 0.02


class TestComputeWmax:
    def test_inverse_of_average_snr(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(1, 200))
            rei = ReiStats(mean=rng.uniform(0.05, 1.0), variance=rng.uniform(0, 0.08), capacity=1.0)
            ch = ChannelStats(mean=rng.uniform(0.2, 3.0), variance=rng.uniform(0, 4.0))
            target = rng.uniform(0.1, 100.0)
            scale = compute_wmax(target, n, rei, ch, NOISE)
            assert analytic_average_snr(scale, n, rei, ch, NOISE) == pytest.approx(target, rel=1e-12)

    def test_deterministic_reduction(self):
        rei = ReiStats(mean=1.0, variance=0.0, capacity=1.0)
        ch = ChannelStats(mean=1.0, variance=0.0)
        scale = compute_wmax(4.0, 20, rei, ch, NOISE)
        assert scale == pytest.approx(math.sqrt(4.0 * NOISE) / 20, rel=1e-12)

    def test_headline_operating_point_high_precision(self):
        # Frozen from a 40-digit evaluation of the closed form at the
        # headline operating point (uniform energies, 16 dB^2 shadowing
        # mapped with divisor 10, 100 nodes, 11.76 dB target).
        ch = lognormal_channel_stats(16.0, 10)
        scale = compute_wmax(TARGET, 100, uniform_rei(), ch, NOISE)
        assert scale == pytest.approx(5.015104990745574e-07, rel=1e-12)

    def test_depleted_cluster_is_infeasible(self):
        rei = ReiStats(mean=0.0, variance=0.0, capacity=1.0)
        with pytest.raises(InfeasibleAllocationError):
            compute_wmax(TARGET, 100, rei, lognormal_channel_stats(16.0), NOISE)

    def test_cap_flagging(self):
        # compute_wmax returns the uncapped scale; the engine raises when the
        # first round needs more than the cap amplitude and clips to it later.
        from beamlife.lifetime import _strategy_weights

        residuals = np.linspace(0.1, 1.0, 100)
        everyone = np.ones(100, dtype=bool)
        args = ("cb_pa", everyone, everyone, residuals, None, TARGET, NOISE,
                lognormal_channel_stats(16.0, 10), 1.0, 0, 1e-20)
        with pytest.raises(InfeasibleAllocationError):
            _strategy_weights(*args, first_round=True)
        np.testing.assert_allclose(_strategy_weights(*args, first_round=False), 1e-10 * residuals, rtol=1e-12)

    def test_zero_target(self):
        assert compute_wmax(0.0, 10, uniform_rei(), lognormal_channel_stats(16.0), NOISE) == 0.0


class TestEqualPowerWeight:
    def test_deterministic_reduction(self):
        w = cbepa_weight(4.0, 20, ChannelStats(mean=1.0, variance=0.0), NOISE)
        assert w == pytest.approx(math.sqrt(4.0 * NOISE) / 20, rel=1e-12)

    def test_consistent_with_average_snr_at_unit_weights(self):
        ch = lognormal_channel_stats(16.0, 10)
        w = cbepa_weight(TARGET, 100, ch, NOISE)
        rei = ReiStats(mean=1.0, variance=0.0, capacity=1.0)
        assert analytic_average_snr(w, 100, rei, ch, NOISE) == pytest.approx(TARGET, rel=1e-12)

    def test_monte_carlo_oracle(self):
        n, draws = 100, 100_000
        ch = lognormal_channel_stats(16.0, 10)
        w = cbepa_weight(TARGET, n, ch, NOISE)
        rng = np.random.default_rng(47)
        total = 0.0
        for _ in range(10):
            gains = 10 ** (rng.normal(0, 4.0, (draws // 10, n)) / 10)
            total += float(((w * gains.sum(axis=1)) ** 2).sum())
        empirical = total / draws / NOISE
        assert abs(empirical / TARGET - 1.0) < 0.02


class TestQuantizeWeights:
    def test_two_level_rounding(self):
        assert quantize_weights(np.array([0.4]), 2)[0] == pytest.approx(0.5)

    def test_grid_endpoint(self):
        assert quantize_weights(np.array([1.0]), 8)[0] == 1.0

    def test_error_bound(self):
        rng = np.random.default_rng(53)
        for levels in (1, 2, 4, 8, 16):
            u = rng.uniform(0, 1, 1000)
            q = quantize_weights(u, levels)
            assert np.max(np.abs(q - u)) <= 0.5 / levels + 1e-12

    def test_ties_round_up(self):
        assert quantize_weights(np.array([0.25]), 2)[0] == pytest.approx(0.5)
        assert quantize_weights(np.array([0.0625]), 8)[0] == pytest.approx(0.125)

    def test_validation(self):
        with pytest.raises(ValueError):
            quantize_weights(np.array([0.5]), 0)
        with pytest.raises(ValueError):
            quantize_weights(np.array([1.5]), 2)


def grid_best_max_gain(gains, total_power, cap, resolution):
    """Exhaustive grid search of the gain-maximization problem.

    Scans every weight combination on the grid inside the total-power ball
    and the per-node caps, and returns the best coherent-gain objective.
    """
    s = math.sqrt(cap)
    axis = np.arange(0.0, s + resolution / 2, resolution)
    mesh = np.meshgrid(*([axis] * len(gains)), indexing="ij")
    w = np.stack([m.ravel() for m in mesh], axis=1)
    feasible = (w**2).sum(axis=1) <= total_power + 1e-15
    assert feasible.any()
    return float(((w[feasible] @ gains) ** 2).max())


def grid_best_min_power(gains, target_snr, noise, cap, resolution):
    """Exhaustive grid search of the power-minimization problem."""
    s = math.sqrt(cap)
    axis = np.arange(0.0, s + resolution / 2, resolution)
    mesh = np.meshgrid(*([axis] * len(gains)), indexing="ij")
    w = np.stack([m.ravel() for m in mesh], axis=1)
    feasible = (w @ gains) ** 2 >= target_snr * noise - 1e-18
    assert feasible.any()
    return float(((w[feasible] ** 2).sum(axis=1)).min())


class TestSolveMaxGain:
    def test_uncapped_matched_filter(self):
        gains = np.array([1.0, 2.0, 3.0])
        w = solve_max_gain(gains, 4.0, cap=1e6)
        np.testing.assert_allclose(w, 2.0 * gains / np.linalg.norm(gains), rtol=1e-9)

    def test_equal_gains_split_evenly(self):
        w = solve_max_gain(np.full(4, 1.7), 1.0, cap=10.0)
        np.testing.assert_allclose(w, np.full(4, 0.5), rtol=1e-9)

    def test_total_power_met_exactly(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            gains = rng.uniform(0.2, 3.0, n)
            cap = rng.uniform(0.05, 0.5)
            total = rng.uniform(0.1, 0.95) * n * cap
            w = solve_max_gain(gains, total, cap)
            assert float((w**2).sum()) == pytest.approx(total, rel=1e-9)
            assert np.all(w**2 <= cap * (1 + 1e-12))

    def test_dominates_equal_power(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            gains = 10 ** (rng.normal(0, 4.0, n) / 20)
            cap = 0.4
            total = rng.uniform(0.1, 0.9) * n * cap
            w = solve_max_gain(gains, total, cap)
            equal = np.full(n, math.sqrt(total / n))
            assert float(gains @ w) ** 2 >= float(gains @ equal) ** 2 - 1e-12

    def test_matches_grid_search(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            gains = rng.uniform(0.5, 1.2, n)
            cap = 0.0004  # amplitude cap 0.02
            total = rng.uniform(0.3, 0.9) * n * cap
            w = solve_max_gain(gains, total, cap)
            solver_obj = float(gains @ w) ** 2
            grid_obj = grid_best_max_gain(gains, total, cap, resolution=1e-3)
            assert solver_obj >= grid_obj - 1e-12
            assert solver_obj - grid_obj <= 1e-3

    def test_literal_three_node_instance_vs_grid(self):
        # all three caps bind here, so the optimum sits on a grid point
        gains = np.array([1.0, 2.0, 4.0])
        total, cap, h = 3.0, 1.0, 1e-3
        w = solve_max_gain(gains, total, cap)
        solver_obj = float(gains @ w) ** 2
        axis = np.arange(0.0, math.sqrt(cap) + h / 2, h)
        w2, w3 = np.meshgrid(axis, axis, indexing="ij")
        inner = (gains[1] * w2 + gains[2] * w3).ravel()
        power23 = (w2**2 + w3**2).ravel()
        best = -np.inf
        for w1 in axis:  # chunk the 1001^3 grid over the first axis
            mask = power23 <= total - w1 * w1 + 1e-15
            if mask.any():
                best = max(best, gains[0] * w1 + float(inner[mask].max()))
        assert abs(solver_obj - best**2) <= 1e-3

    def test_infeasible_total(self):
        with pytest.raises(InfeasibleAllocationError):
            solve_max_gain(np.array([1.0, 1.0]), 3.0, cap=1.0)


class TestSolveMinPower:
    def test_single_node(self):
        w = solve_min_power(np.array([1.0]), 0.04, noise_power=1.0, cap=0.05)
        np.testing.assert_allclose(w, [0.2], rtol=1e-9)

    def test_uncapped_minimum_norm(self):
        gains = np.array([1.0, 2.0, 4.0])
        target, noise = 4.0, 1.0
        w = solve_min_power(gains, target, noise, cap=1e6)
        c = math.sqrt(target * noise)
        np.testing.assert_allclose(w, c * gains / (gains @ gains), rtol=1e-9)

    def test_constraint_met(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            gains = rng.uniform(0.2, 3.0, n)
            cap = rng.uniform(0.05, 0.5)
            c = rng.uniform(0.1, 0.8) * math.sqrt(cap) * gains.sum()
            w = solve_min_power(gains, c**2, 1.0, cap)
            assert float(gains @ w) >= c * (1 - 1e-9)
            assert np.all(w**2 <= cap * (1 + 1e-12))

    def test_no_worse_than_equal_power_meeting_same_target(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            gains = 10 ** (rng.normal(0, 4.0, n) / 20)
            cap = 1.0
            c = 0.3 * gains.sum()  # realized amplitude target
            equal = np.full(n, c / gains.sum())  # equal weights meeting it exactly
            w = solve_min_power(gains, c**2, 1.0, cap)
            assert float((w**2).sum()) <= float((equal**2).sum()) + 1e-12

    def test_matches_grid_search(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            gains = rng.uniform(0.5, 1.2, n)
            cap = 0.0004
            c = rng.uniform(0.2, 0.8) * math.sqrt(cap) * gains.sum()
            w = solve_min_power(gains, c**2, 1.0, cap)
            solver_obj = float((w**2).sum())
            grid_obj = grid_best_min_power(gains, c**2, 1.0, cap, resolution=1e-3)
            assert grid_obj >= solver_obj - 1e-12
            assert grid_obj - solver_obj <= 1e-3

    def test_literal_three_node_instance_vs_grid(self):
        gains = np.array([1.0, 2.0, 4.0])
        target, cap, h = 4.0, 0.5, 1e-3  # required amplitude 2.0
        w = solve_min_power(gains, target, 1.0, cap)
        solver_obj = float((w**2).sum())
        axis = np.arange(0.0, math.sqrt(cap) + h / 2, h)
        w2, w3 = np.meshgrid(axis, axis, indexing="ij")
        amp23 = (gains[1] * w2 + gains[2] * w3).ravel()
        power23 = (w2**2 + w3**2).ravel()
        best = np.inf
        amplitude = math.sqrt(target * 1.0)
        for w1 in axis:
            mask = amp23 >= amplitude - gains[0] * w1
            if mask.any():
                best = min(best, w1 * w1 + float(power23[mask].min()))
        assert solver_obj <= best + 1e-12
        assert best - solver_obj <= 1e-3

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleAllocationError):
            solve_min_power(np.array([1.0]), 100.0, 1.0, cap=0.01)
