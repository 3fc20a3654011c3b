"""Geometry, phasing and shadowed-channel tests."""

import math

import numpy as np
import pytest

from beamlife.geometry import (
    Destination,
    FarFieldWarning,
    PolarPoint,
    carrier_phase,
    deploy_cluster,
    far_field_distance,
    propagation_phase,
    sample_channel,
    sample_phase_errors,
)
from beamlife.allocation import lognormal_channel_stats

from test_allocation import SPREADS


def test_polar_point_wraps_and_validates():
    p = PolarPoint(1.0, 2 * math.pi + 0.5)
    assert abs(p.phi - 0.5) < 1e-12
    with pytest.raises(ValueError):
        PolarPoint(-1.0, 0.0)


class TestDeployCluster:
    def test_headline_scale_layout(self):
        points = deploy_cluster(100, 250.0, np.random.default_rng(1))
        assert len(points) == 100
        assert all(0 <= p.rho <= 250.0 for p in points)

    def test_degenerate_disk(self):
        (point,) = deploy_cluster(1, 0.0, np.random.default_rng(2))
        assert point.rho == 0.0

    def test_radial_second_moment(self):
        # Uniform-over-area law: E[rho^2] = integral of r^2 * (2r/R^2) dr = R^2/2.
        points = deploy_cluster(100_000, 1.0, np.random.default_rng(3))
        rho2 = np.array([p.rho**2 for p in points])
        assert abs(rho2.mean() - 0.5) < 0.005

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            deploy_cluster(0, 10.0, np.random.default_rng(0))

    def test_deterministic_for_seed(self):
        a = deploy_cluster(50, 10.0, np.random.default_rng(7))
        b = deploy_cluster(50, 10.0, np.random.default_rng(7))
        assert all(pa == pb for pa, pb in zip(a, b))


class TestFarFieldDistance:
    def test_origin_node(self):
        assert far_field_distance(PolarPoint(0.0, 1.3), 0.0, 1000.0) == 1000.0

    def test_colinear_node(self):
        # ratio 4 is below the far-field comfort margin, so this also warns
        with pytest.warns(FarFieldWarning):
            assert far_field_distance(PolarPoint(250.0, 0.0), 0.0, 1000.0) == pytest.approx(750.0)

    def test_oblique_node(self):
        # 1000 - 100*cos(pi/3) = 950
        d = far_field_distance(PolarPoint(100.0, math.pi / 3), 0.0, 1000.0)
        assert d == pytest.approx(950.0, abs=1e-9)

    def test_close_destination_warns(self):
        with pytest.warns(FarFieldWarning):
            far_field_distance(PolarPoint(100.0, 0.0), 0.0, 500.0)


class TestCarrierPhase:
    def test_origin_node_full_turns(self):
        dest = Destination(PolarPoint(1000.0, 0.0))
        psi = carrier_phase(PolarPoint(0.0, 0.0), dest)
        assert psi == pytest.approx(-2000 * math.pi)
        assert math.cos(psi) == pytest.approx(1.0, abs=1e-9)

    def test_equal_path_length_equal_phase(self):
        dest = Destination(PolarPoint(1000.0, 0.0))
        a = carrier_phase(PolarPoint(50.0, 0.3), dest)
        b = carrier_phase(PolarPoint(50.0, -0.3), dest)
        assert a == pytest.approx(b, abs=1e-12)

    def test_cancels_propagation_phase(self):
        # Coherence by construction: setting the carrier to the negated
        # propagation phase leaves zero residual toward the destination.
        rng = np.random.default_rng(11)
        dest = Destination(PolarPoint(5000.0, 1.1))
        for point in deploy_cluster(200, 250.0, rng):
            total = carrier_phase(point, dest) + propagation_phase(point, dest.location.phi, dest.location.rho)
            assert abs(math.remainder(total, 2 * math.pi)) < 1e-9


class TestSampleChannel:
    def test_zero_variance_gives_unit_gains(self):
        gains = sample_channel(64, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(gains, np.ones(64))

    def test_log_gain_statistics(self):
        # ln(gain) = A * ln(10)/20 with A zero-mean Gaussian of variance 64.
        gains = sample_channel(1_000_000, 64.0, np.random.default_rng(5))
        log_gains = np.log(gains)
        expected_var = 64.0 * (math.log(10.0) / 20.0) ** 2
        assert abs(log_gains.mean()) < 0.01 * math.sqrt(expected_var)
        assert abs(log_gains.var() / expected_var - 1.0) < 0.01

    @SPREADS
    def test_analytic_moments_match_monte_carlo(self, sigma2):
        gains = sample_channel(1_000_000, sigma2, np.random.default_rng(6))
        stats = lognormal_channel_stats(sigma2)
        assert abs(gains.mean() / stats.mean - 1.0) < 0.02
        assert abs(gains.var() / stats.variance - 1.0) < 0.02

    @pytest.mark.parametrize("sigma2", [0.5, 4.0, 9.0, 16.0, 100.0])
    def test_amplitude_db_spread_is_four_times_the_power_spread(self, sigma2):
        # A spread quoted on the amplitude, gain 10**(A/10), is the same
        # channel as sample_channel at four times the variance, draw for draw.
        amplitude_db = np.random.default_rng(12).normal(0.0, math.sqrt(sigma2), 500)
        gains = sample_channel(500, 4.0 * sigma2, np.random.default_rng(12))
        np.testing.assert_array_equal(gains, 10.0 ** (amplitude_db / 10.0))

    def test_deterministic_for_seed(self):
        a = sample_channel(100, 64.0, np.random.default_rng(9))
        b = sample_channel(100, 64.0, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_channel(10, -1.0, rng)
        # a 2·10^4 dB shadowing spread underflows some gains to zero
        with pytest.raises(ValueError, match="positive"), np.errstate(over="ignore"):
            sample_channel(1000, 4e8, rng)


def test_sample_phase_errors_bounded():
    errors = sample_phase_errors(10_000, math.radians(5.0), np.random.default_rng(2))
    assert np.all(np.abs(errors) <= math.radians(5.0))
    zero = sample_phase_errors(10, 0.0, np.random.default_rng(2))
    np.testing.assert_array_equal(zero, np.zeros(10))
    with pytest.raises(ValueError):
        sample_phase_errors(10, -0.1, np.random.default_rng(2))
