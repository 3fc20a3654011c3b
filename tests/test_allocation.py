"""Weight-selection tests: closed forms, quantization, centralized solvers.

The centralized solvers are checked against an exhaustive grid search over
the feasible set, literal edge cases and a bisection reference; the
closed-form scale is checked against an independent high-precision
evaluation and against Monte Carlo averages of the realized SNR.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from beamlife.allocation import (
    ChannelStats,
    InfeasibleAllocationError,
    ReiStats,
    _capped_matched_filter,
    analytic_average_snr,
    cbepa_weight,
    cbpa_normalized_weights,
    compute_wmax,
    lognormal_channel_stats,
    quantize_weights,
    solve_max_gain,
    solve_min_power,
)
from beamlife.geometry import sample_channel, sample_phase_errors
from beamlife.lifetime import bit_rate

NOISE = 1e-10
TARGET = 10 ** 1.176  # 11.76 dB


def hp_channel_stats(sigma2_db):
    """Independent high-precision evaluation of the log-normal moments."""
    mp.mp.dps = 40
    s2 = mp.mpf(sigma2_db) * (mp.log(10) / 20) ** 2
    mean = mp.e ** (s2 / 2)
    variance = (mp.e**s2 - 1) * mp.e**s2
    return float(mean), float(variance)


# A 16 dB² spread quoted on the amplitude (id "10": gain 10**(A/10)) is
# 64 dB² of power shadowing; quoted on the power (id "20") it is 16 dB².
SPREADS = pytest.mark.parametrize("sigma2", [64.0, 16.0], ids=["10", "20"])


class TestChannelStats:
    @SPREADS
    def test_matches_high_precision(self, sigma2):
        stats = lognormal_channel_stats(sigma2)
        mean, variance = hp_channel_stats(sigma2)
        assert stats.mean == pytest.approx(mean, rel=1e-14)
        assert stats.variance == pytest.approx(variance, rel=1e-14)

    def test_frozen_values_divisor_10(self):
        stats = lognormal_channel_stats(64.0)
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
    # The engine builds ReiStats from the alive nodes' normalized weights
    # u = residual / e_max: their mean and population variance.
    @staticmethod
    def from_residuals(residuals, e_max):
        u = np.asarray(residuals, dtype=float) / e_max
        return ReiStats(mean=float(u.mean()), variance=float(u.var()))

    def test_constant_residuals(self):
        stats = self.from_residuals(np.full(10, 0.5), 1.0)
        assert stats.mean == pytest.approx(0.5)
        assert stats.variance == 0.0

    def test_two_point(self):
        stats = self.from_residuals(np.array([0.0, 2.0]), 2.0)
        assert stats.mean == pytest.approx(0.5)
        assert stats.variance == pytest.approx(0.25)

    def test_two_pass_variance_oracle(self):
        rng = np.random.default_rng(37)
        residuals = rng.uniform(0, 1, 200)
        stats = self.from_residuals(residuals, 1.0)
        mean = sum(residuals) / len(residuals)
        var = sum((x - mean) ** 2 for x in residuals) / len(residuals)
        assert stats.mean == pytest.approx(mean, rel=1e-12)
        assert stats.variance == pytest.approx(var, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReiStats(mean=0.5, variance=-1e-3)
        with pytest.raises(ValueError):
            ReiStats(mean=1.01, variance=0.0)
        with pytest.raises(ValueError):
            ReiStats(mean=-0.01, variance=0.0)


def uniform_rei():
    return ReiStats(mean=0.5, variance=1.0 / 12.0)


class TestAnalyticAverageSnr:
    def test_deterministic_array_gain(self):
        rei = ReiStats(mean=1.0, variance=0.0)
        ch = ChannelStats(mean=1.0, variance=0.0)
        snr = analytic_average_snr(0.01, 50, rei, ch, NOISE)
        assert snr == pytest.approx(0.01**2 * 50**2 / NOISE, rel=1e-12)

    def test_zero_scale(self):
        assert analytic_average_snr(0.0, 10, uniform_rei(), lognormal_channel_stats(64.0), NOISE) == 0.0

    def test_monte_carlo_oracle(self):
        # Empirical mean of the realized SNR over independent energy and
        # gain draws must track the closed form within 2%.
        n, draws = 100, 100_000
        ch = lognormal_channel_stats(64.0)
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
            rei = ReiStats(mean=rng.uniform(0.05, 1.0), variance=rng.uniform(0, 0.08))
            ch = ChannelStats(mean=rng.uniform(0.2, 3.0), variance=rng.uniform(0, 4.0))
            target = rng.uniform(0.1, 100.0)
            scale = compute_wmax(target, n, rei, ch, NOISE)
            assert analytic_average_snr(scale, n, rei, ch, NOISE) == pytest.approx(target, rel=1e-12)

    def test_deterministic_reduction(self):
        rei = ReiStats(mean=1.0, variance=0.0)
        ch = ChannelStats(mean=1.0, variance=0.0)
        scale = compute_wmax(4.0, 20, rei, ch, NOISE)
        assert scale == pytest.approx(math.sqrt(4.0 * NOISE) / 20, rel=1e-12)

    def test_headline_operating_point_high_precision(self):
        # Frozen from a 40-digit evaluation of the closed form at the
        # headline operating point (uniform energies, 16 dB^2 shadowing
        # on the amplitude, i.e. 64 dB^2 on the power, 100 nodes, 11.76 dB
        # target).
        ch = lognormal_channel_stats(64.0)
        scale = compute_wmax(TARGET, 100, uniform_rei(), ch, NOISE)
        assert scale == pytest.approx(5.015104990745574e-07, rel=1e-12)

    def test_depleted_cluster_is_infeasible(self):
        rei = ReiStats(mean=0.0, variance=0.0)
        with pytest.raises(InfeasibleAllocationError):
            compute_wmax(TARGET, 100, rei, lognormal_channel_stats(64.0), NOISE)

    def test_cap_flagging(self):
        # compute_wmax returns the uncapped scale; the engine raises when the
        # first round needs more than the cap amplitude and clips to it later.
        # Equal budgets keep every weight equal, so the uncapped scale grows
        # as the residuals drain and passes a cap set just above round 1's.
        from dataclasses import replace

        from beamlife.config import EnergySpec, ScenarioConfig, StrategySpec
        from beamlife.geometry import db_to_linear
        from beamlife.lifetime import run_lifetime

        n, e_max, e0 = 20, 1.0, 0.5
        ch = lognormal_channel_stats(16.0)
        cfg = ScenarioConfig(
            n=n,
            energy=EnergySpec(kind="gaussian", e_max=e_max, mean=e0, sigma=0.0),
            strategy=StrategySpec(kind="cb_pa", levels=0, period=1),
            t_slot_s=e0 / (30 * cbepa_weight(TARGET, n, ch, NOISE) ** 2),
            max_rounds=200,
        )
        gamma, noise = cfg.target_snr_linear(), db_to_linear(cfg.noise_db)

        def scale(u):
            rei = ReiStats(mean=float(u.mean()), variance=float(u.var()))
            return compute_wmax(gamma, u.size, rei, ch, noise)

        def rng():
            return np.random.default_rng(np.random.SeedSequence([cfg.master_seed, 0]))

        with pytest.raises(InfeasibleAllocationError):
            run_lifetime(replace(cfg, p_max=1e-30), rng())
        capped = replace(cfg, p_max=(1.05 * scale(np.full(n, e0 / e_max))) ** 2)
        trace = run_lifetime(capped, rng(), record_nodes=True)
        clipped = 0
        for t in range(2, trace.lifetime + 1):
            prev = trace.node_residuals[t - 2]
            u = prev / e_max
            if trace.node_alive[t - 2].all() and scale(u) > math.sqrt(capped.p_max):
                clipped += 1
                paid = prev - trace.node_residuals[t - 1]
                np.testing.assert_allclose(paid, capped.p_max * u**2 * capped.t_slot_s, rtol=1e-12)
        assert clipped

    def test_zero_target(self):
        assert compute_wmax(0.0, 10, uniform_rei(), lognormal_channel_stats(64.0), NOISE) == 0.0


class TestEqualPowerWeight:
    def test_deterministic_reduction(self):
        w = cbepa_weight(4.0, 20, ChannelStats(mean=1.0, variance=0.0), NOISE)
        assert w == pytest.approx(math.sqrt(4.0 * NOISE) / 20, rel=1e-12)

    def test_consistent_with_average_snr_at_unit_weights(self):
        ch = lognormal_channel_stats(64.0)
        w = cbepa_weight(TARGET, 100, ch, NOISE)
        rei = ReiStats(mean=1.0, variance=0.0)
        assert analytic_average_snr(w, 100, rei, ch, NOISE) == pytest.approx(TARGET, rel=1e-12)

    @pytest.mark.parametrize("sigma2_db", [0.0, 16.0, 64.0, 350.0])
    @pytest.mark.parametrize("n", [1, 7, 100, 2**26 + 1])
    @pytest.mark.parametrize("target", [0.0, TARGET])
    def test_is_compute_wmax_at_unit_weights(self, sigma2_db, n, target):
        # CB-EPA is CB-PA with every normalized weight equal to 1, bit for bit
        ch = lognormal_channel_stats(sigma2_db)
        assert cbepa_weight(target, n, ch, NOISE) == compute_wmax(target, n, ReiStats(1.0, 0.0), ch, NOISE)

    def test_monte_carlo_oracle(self):
        n, draws = 100, 100_000
        ch = lognormal_channel_stats(64.0)
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
        # The 1001^3 grid, one w1 at a time: the (w2, w3) points within the
        # power left are a prefix of the points sorted by power, so the best
        # of them is a running max, read at one searchsorted per w1.
        by_power = np.argsort(power23)
        running = np.maximum.accumulate(inner[by_power])
        within = np.searchsorted(power23[by_power], total - axis * axis + 1e-15, side="right")
        fits = within > 0
        best = float(np.max(gains[0] * axis[fits] + running[within[fits] - 1]))
        assert abs(solver_obj - best**2) <= 1e-3

    def test_gains_whose_squares_underflow_are_rejected(self):
        # the capped scan divides by sums of squared gains, which would be zero
        with pytest.raises(ValueError, match="squares"):
            solve_max_gain(np.array([1e-200, 1e-201]), 1e-300, 1.0)
        with pytest.raises(ValueError, match="squares"):
            solve_min_power(np.array([1.0, 1e-201]), 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("gains", [[1e200, 1.0], [1e154, 1e154], [1.0, 1e-160]])
    def test_gains_whose_squares_overflow_or_are_subnormal_are_rejected(self, gains):
        # An infinite sum of squares zeroes the scan's mu (weights [0, 0]); a
        # subnormal square overflows it (weights [1, 1], power 2 for 1.5).
        with pytest.raises(ValueError, match="squares"):
            solve_max_gain(np.array(gains), 1.5, 1.0)
        with pytest.raises(ValueError, match="squares"):
            solve_min_power(np.array(gains), 1.0, 1.0, 1.0)
        # the smallest normal square is still solved
        w = solve_max_gain(np.array([1.0, 2.0**-511]), 1.5, 1.0)
        assert w[0] == 1.0 and float(w @ w) == pytest.approx(1.5, rel=1e-15)

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
        amplitude = math.sqrt(target * 1.0)
        # The (w2, w3) points that reach the amplitude left by w1 are a
        # suffix of the points sorted by amplitude: a running min from the end.
        by_amp = np.argsort(amp23)
        running = np.minimum.accumulate(power23[by_amp][::-1])[::-1]
        first = np.searchsorted(amp23[by_amp], amplitude - gains[0] * axis, side="left")
        fits = first < amp23.size
        best = float(np.min(axis[fits] * axis[fits] + running[first[fits]]))
        assert solver_obj <= best + 1e-12
        assert best - solver_obj <= 1e-3

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleAllocationError):
            solve_min_power(np.array([1.0]), 100.0, 1.0, cap=0.01)


def bisect_capped_matched_filter(gains, cap, power, target):
    """Reference solver: bisect mu so the increasing total of min(mu·g, s) meets ``target``.

    Each row of the 2-D ``gains``, ``cap`` and ``target`` is one instance,
    padded with zero gains, whose weights are zero and add nothing to either
    total: the transmit power sum(w²) when ``power`` is set, else the
    coherent amplitude sum(g·w). The rows bisect together.
    """
    s = np.sqrt(cap)
    lo = np.zeros_like(s)
    hi = s / np.min(np.where(gains > 0, gains, np.inf), axis=1, keepdims=True)  # every node capped: total is maximal
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        w = np.minimum(mid * gains, s)
        below = np.sum(w * w if power else gains * w, axis=1, keepdims=True) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(target == 0, 0.0, np.minimum(hi * gains, s))


class TestCappedMatchedFilterCases:
    # max-gain is given a total power, min-power an amplitude (target SNR = amplitude², noise 1)
    @pytest.mark.parametrize(
        "gains, cap, total, amplitude, expected",
        [
            ([1.0, 2.0, 4.0], 1.0, 2.25, 6.5, [0.5, 1.0, 1.0]),  # node 2 exactly on its breakpoint
            ([1.0, 2.0, 4.0], 1.0, 3.0, 7.0, [1.0, 1.0, 1.0]),  # every node at the cap
            ([2.0], 1.0, 0.25, 1.0, [0.5]),  # n = 1, uncapped
            ([2.0], 1.0, 1.0, 2.0, [1.0]),  # n = 1, at the cap
            ([2.0, 1.0, 2.0], 1.0, 2.36, 4.6, [1.0, 0.6, 1.0]),  # tied gains, both capped
            ([2.0, 2.0, 2.0, 2.0], 1.0, 1.0, 4.0, [0.5, 0.5, 0.5, 0.5]),  # all tied, none capped
            ([1.0, 2.0, 4.0], 1.0, 0.0, 0.0, [0.0, 0.0, 0.0]),  # zero targets
        ],
    )
    def test_literal_values(self, gains, cap, total, amplitude, expected):
        gains = np.array(gains)
        np.testing.assert_allclose(solve_max_gain(gains, total, cap), expected, rtol=1e-14, atol=0)
        np.testing.assert_allclose(solve_min_power(gains, amplitude**2, 1.0, cap), expected, rtol=1e-14, atol=0)

    def test_agrees_with_bisection(self):
        rng = np.random.default_rng(83)
        instances = []
        for k in range(1000):
            n = int(rng.integers(1, 121))
            gains = 10 ** (rng.normal(0, 4.0, n) / 20)
            if k % 3 == 0:  # ties: redraw from a few distinct gains
                gains = rng.choice(gains[: max(1, n // 4)], n)
            cap = float(rng.uniform(0.01, 2.0))
            fraction = 1.0 if k % 10 == 0 else float(rng.uniform(0.0, 1.0))  # 1.0: every node at the cap
            total = fraction * n * cap
            snr = (fraction * math.sqrt(cap) * float(gains.sum())) ** 2  # noise power 1
            instances.append((gains, cap, total, snr))
        padded = np.zeros((len(instances), 120))
        for row, (gains, *_) in zip(padded, instances):
            row[: gains.size] = gains
        caps, totals, snrs = (np.array(column)[:, None] for column in list(zip(*instances))[1:])
        by_power = bisect_capped_matched_filter(padded, caps, True, totals)
        by_amplitude = bisect_capped_matched_filter(padded, caps, False, np.sqrt(snrs))
        for k, (gains, cap, total, snr) in enumerate(instances):
            tol = 1e-12 * math.sqrt(cap)
            ref = by_power[k, : gains.size]
            np.testing.assert_allclose(solve_max_gain(gains, total, cap), ref, rtol=0, atol=tol)
            ref = by_amplitude[k, : gains.size]
            np.testing.assert_allclose(solve_min_power(gains, snr, 1.0, cap), ref, rtol=0, atol=tol)


def scan_rows(gains, s, targets, power):
    """Reference: the plain scan over capped counts, without the overflow
    guard, one row per target.

    Each target's row is formed by elementwise operations only, so it has
    the bits of the scan run on that target alone.
    """
    g = np.sort(gains)[::-1]
    tail = np.cumsum(g[::-1] ** 2)[::-1]
    t = np.array(targets, dtype=float)[:, None]
    if power:
        mu = np.sqrt(np.maximum(t - np.arange(g.size) * (s * s), 0.0) / tail)
    else:
        head = np.concatenate(([0.0], np.cumsum(g[:-1])))
        mu = np.maximum(t - s * head, 0.0) / tail
    fits = mu * g <= s
    j = np.where(fits.any(axis=1), fits.argmax(axis=1), g.size - 1)
    return np.minimum(mu[np.arange(t.shape[0]), j][:, None] * gains, s)


def scan_capped_matched_filter(gains, s, target, power):
    """``scan_rows`` at a single target."""
    return scan_rows(gains, s, [target], power)[0]


def uncapped_limit(gains, s, power):
    """The largest target at which the largest gain's weight is still at the cap."""
    g0, t0 = float(gains.max()), float(np.sum(gains**2))
    return (s / g0) ** 2 * t0 if power else s / g0 * t0


class TestIndexZeroExit:
    """The capped scan returns the bits of the tests' independent
    ``scan_rows``, from the uncapped matched filter (j = 0) and the edge of
    the cap to every node capped."""

    def assert_same_bits(self, gains, s, targets, power):
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero tail[0] divides by zero
            rows = scan_rows(gains, s, targets, power)
            for target, expected in zip(targets, rows):
                got = _capped_matched_filter(gains, s, target, power)
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), (gains, s, target, power)

    def test_random_instances(self):
        rng = np.random.default_rng(2020)
        for k in range(3000):
            n = int(rng.integers(1, 151))
            spread_db = float(rng.uniform(1.0, 200.0))
            gains = 10 ** (rng.uniform(-spread_db / 2, spread_db / 2, n) / 20)
            if k % 4 == 0:  # ties: redraw from a few distinct gains
                gains = rng.choice(gains[: max(1, n // 4)], n)
            s = math.sqrt(float(rng.uniform(0.01, 2.0)))
            for power in (True, False):
                full = n * s * s if power else s * float(gains.sum())  # every node at the cap
                edge = uncapped_limit(gains, s, power)
                targets = (
                    0.0,
                    full,
                    full * (1 - 1e-15),
                    edge,
                    edge * (1 - 2e-16),
                    edge * (1 + 2e-16),
                    float(rng.uniform(0.0, 1.0)) * min(edge, full),
                    float(rng.uniform(0.0, 1.0)) * full,
                )
                self.assert_same_bits(gains, s, [min(target, full) for target in targets], power)

    @pytest.mark.parametrize("power", [True, False], ids=["power", "amplitude"])
    @pytest.mark.parametrize(
        "gains, s, target",
        [
            ([1.0, 2.0, 4.0], 1.0, 2.25),  # power: j = 1, node 1 on its breakpoint; amplitude: j = 0
            ([1.0, 2.0, 4.0], 1.0, 6.5),  # power: every node capped; amplitude: j = 1
            ([4.0, 4.0, 1.0], 1.0, 2.5),  # power: tied largest gains both capped, j = 2
            ([1e-200, 1e-201], 1.0, 1e-300),  # g² underflows: tail[0] is 0
            ([1e-200], 1.0, 0.0),  # zero tail and zero target: 0/0
            ([3.0, 1.0], 1.0, -0.0),  # negative zero target
            ([3.0, 1.0], 1e154, 1e300),  # huge cap, s² finite: power j = 0
            ([3.0, 1.0], 2e154, 1e300),  # s² overflows: the power remainder at j = 0 is nan
        ],
    )
    def test_hand_made_cases(self, gains, s, target, power):
        self.assert_same_bits(np.array(gains), s, [target], power)


class TestOverflowingScan:
    """A remainder over a tiny tail of squared gains overflows the scan's mu."""

    @pytest.mark.parametrize(
        "gains, total, expected",
        [
            # node 0 at the cap; mu = sqrt(5e299 / 1e-200) overflows at j = 1
            ([1.0, 1e-100], 1.5e300, [1e150, math.sqrt(5e299)]),
            ([1e-100, 1.0, 0.5e-100], 1.5e300, [math.sqrt(4e299), 1e150, math.sqrt(1e299)]),
            # no node capped, but mu overflows at j = 0
            ([1e-100, 1e-100], 1e300, [math.sqrt(5e299), math.sqrt(5e299)]),
        ],
    )
    def test_max_gain_spends_the_budget(self, gains, total, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = solve_max_gain(np.array(gains), total, 1e300)
        np.testing.assert_allclose(w, expected, rtol=1e-15, atol=0)
        assert float(np.sum(w**2)) == pytest.approx(total, rel=1e-15)

    @pytest.mark.parametrize(
        "power, target",
        [(True, 1.5e300), (False, 1.4e150)],
        ids=["max_gain", "min_power"],
    )
    def test_finite_mu_keeps_the_scan_bits(self, power, target):
        # target / tail[-1] overflows, so the overflow-safe scan runs, but
        # the capped count it picks has a finite mu: the plain scan's bits
        gains, cap = np.array([1.0, 0.5, 1e-150]), 1e300
        assert target / float(gains.min()) ** 2 == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if power:
                got = solve_max_gain(gains, target, cap)
            else:
                got = solve_min_power(gains, target**2, 1.0, cap)
            expected = scan_capped_matched_filter(gains, math.sqrt(cap), target, power)
        assert got.tobytes() == expected.tobytes()
        assert 0.0 < got.min() and got[0] == 1e150 > got[1]
        total = float(np.sum(got**2)) if power else float(gains @ got)
        assert total == pytest.approx(target, rel=1e-15)


CH = ChannelStats(mean=1.2, variance=0.3)
REI = ReiStats(mean=0.5, variance=1 / 12)

# each public helper with one argument replaced by x; the others are valid
ONE_ARGUMENT = {
    "solve_max_gain-gains": lambda x: solve_max_gain(np.array([1.0, x]), 0.5, 1.0),
    "solve_max_gain-total_power": lambda x: solve_max_gain(np.array([1.0, 2.0]), x, 1.0),
    "solve_max_gain-cap": lambda x: solve_max_gain(np.array([1.0, 2.0]), 0.5, x),
    "solve_min_power-gains": lambda x: solve_min_power(np.array([1.0, x]), 1.0, 1.0, 1.0),
    "solve_min_power-target_snr": lambda x: solve_min_power(np.array([1.0, 2.0]), x, 1.0, 1.0),
    "solve_min_power-noise_power": lambda x: solve_min_power(np.array([1.0, 2.0]), 1.0, x, 1.0),
    "solve_min_power-cap": lambda x: solve_min_power(np.array([1.0, 2.0]), 1.0, 1.0, x),
    "compute_wmax-target_snr": lambda x: compute_wmax(x, 10, REI, CH, NOISE),
    "compute_wmax-n": lambda x: compute_wmax(TARGET, x, REI, CH, NOISE),
    "compute_wmax-noise_power": lambda x: compute_wmax(TARGET, 10, REI, CH, x),
    "cbepa_weight-target_snr": lambda x: cbepa_weight(x, 10, CH, NOISE),
    "cbepa_weight-n": lambda x: cbepa_weight(TARGET, x, CH, NOISE),
    "cbepa_weight-noise_power": lambda x: cbepa_weight(TARGET, 10, CH, x),
    "analytic_average_snr-n": lambda x: analytic_average_snr(1.0, x, REI, CH, NOISE),
    "analytic_average_snr-noise_power": lambda x: analytic_average_snr(1.0, 10, REI, CH, x),
    "cbpa_normalized_weights-residuals": lambda x: cbpa_normalized_weights(np.array([0.5, x]), 1.0),
    "cbpa_normalized_weights-capacity": lambda x: cbpa_normalized_weights(np.array([0.5, 0.25]), x),
    "quantize_weights-u": lambda x: quantize_weights(np.array([0.5, x]), 8),
    "quantize_weights-levels": lambda x: quantize_weights(np.array([0.5, 0.25]), x),
    "ChannelStats-mean": lambda x: ChannelStats(mean=x, variance=1.0),
    "ChannelStats-variance": lambda x: ChannelStats(mean=1.0, variance=x),
    "ReiStats-mean": lambda x: ReiStats(mean=x, variance=0.0),
    "ReiStats-variance": lambda x: ReiStats(mean=0.5, variance=x),
    "lognormal_channel_stats": lambda x: lognormal_channel_stats(x),
    "analytic_average_snr-scale": lambda x: analytic_average_snr(x, 10, REI, CH, NOISE),
    "sample_channel-sigma2_db": lambda x: sample_channel(3, x, np.random.default_rng(0)),
    "sample_phase_errors-bound_rad": lambda x: sample_phase_errors(3, x, np.random.default_rng(0)),
    "bit_rate": lambda x: bit_rate(x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", ONE_ARGUMENT.values(), ids=ONE_ARGUMENT.keys())
def test_non_finite_argument_is_rejected(call, value):
    call(1.0)  # valid at a finite value, so the error is the argument's
    with pytest.raises(ValueError):
        call(value)
