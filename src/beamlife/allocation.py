"""Beamforming weight selection.

Two families live here. The semi-distributed rule scales each node's
weight by its own normalized residual energy, with a common scale chosen
in closed form so the ensemble-average SNR at the receiver meets a target.
The centralized baselines solve the corresponding small optimization
problems exactly through their capped matched-filter structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN10 = math.log(10.0)

__all__ = [
    "InfeasibleAllocationError",
    "ChannelStats",
    "ReiStats",
    "lognormal_channel_stats",
    "cbpa_normalized_weights",
    "analytic_average_snr",
    "compute_wmax",
    "cbepa_weight",
    "quantize_weights",
    "solve_max_gain",
    "solve_min_power",
]

# bisection tolerance for the scalar searches in the centralized solvers
_BISECT_ITERS = 200


class InfeasibleAllocationError(RuntimeError):
    """No weight assignment can satisfy the request under the power cap."""


@dataclass(frozen=True)
class ChannelStats:
    """First two moments of the per-node channel gain distribution."""

    mean: float
    variance: float

    def __post_init__(self):
        if self.mean <= 0:
            raise ValueError(f"gain mean must be positive, got {self.mean}")
        if self.variance < 0:
            raise ValueError(f"gain variance must be non-negative, got {self.variance}")


def lognormal_channel_stats(sigma2_db, amplitude_divisor=10):
    """Analytic amplitude-gain moments for log-normal shadowing.

    The log-amplitude is Gaussian with standard deviation
    sqrt(sigma2_db) * ln(10) / amplitude_divisor.
    """
    if sigma2_db < 0:
        raise ValueError(f"shadowing variance must be non-negative, got {sigma2_db}")
    if amplitude_divisor not in (10, 20):
        raise ValueError(f"amplitude divisor must be 10 or 20, got {amplitude_divisor}")
    s2 = sigma2_db * (LN10 / amplitude_divisor) ** 2
    mean = math.exp(s2 / 2.0)
    variance = (math.exp(s2) - 1.0) * math.exp(s2)
    return ChannelStats(mean=mean, variance=variance)


@dataclass(frozen=True)
class ReiStats:
    """Residual-energy moments over alive nodes, plus the normalized view."""

    mean: float
    variance: float
    capacity: float

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.variance < 0:
            raise ValueError(f"variance must be non-negative, got {self.variance}")
        if not 0 <= self.mean <= self.capacity * (1 + 1e-12):
            raise ValueError(f"mean energy {self.mean} outside [0, capacity]")

    @property
    def mean_normalized(self):
        return self.mean / self.capacity

    @property
    def variance_normalized(self):
        return self.variance / self.capacity**2


def cbpa_normalized_weights(residuals, capacity):
    """Fully distributed normalized weights: each node's residual over capacity."""
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    residuals = np.asarray(residuals, dtype=float)
    if np.any(residuals < 0) or np.any(residuals > capacity * (1 + 1e-12)):
        raise ValueError("residuals must lie in [0, capacity]")
    return residuals / capacity


def analytic_average_snr(scale, n, rei, ch, noise_power):
    """Ensemble-average received SNR for scaled residual-proportional weights.

    Averages over both the weight distribution (via the normalized residual
    moments) and the gain distribution, treating them as independent across
    nodes and of each other. The coherent cross terms carry the n*(n-1)
    factor; the self terms carry the second moments.
    """
    if n < 1:
        raise ValueError(f"need at least 1 node, got {n}")
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    m_u, var_u = rei.mean_normalized, rei.variance_normalized
    m_a, var_a = ch.mean, ch.variance
    self_terms = n * (var_u + m_u**2) * (var_a + m_a**2)
    cross_terms = n * (n - 1) * m_u**2 * m_a**2
    return scale**2 / noise_power * (self_terms + cross_terms)


def _scale_denominator(n, rei, ch):
    m_u, var_u = rei.mean_normalized, rei.variance_normalized
    m_a, var_a = ch.mean, ch.variance
    return n * (var_u * var_a + var_a * m_u**2 + var_u * m_a**2) + n**2 * m_u**2 * m_a**2


def compute_wmax(target_snr, n, rei, ch, noise_power):
    """Closed-form common scale that meets ``target_snr`` on ensemble average.

    Exact inverse of :func:`analytic_average_snr` in the scale. Raises
    :class:`InfeasibleAllocationError` when the cluster statistics are all
    zero (nothing can transmit); the caller applies the per-node power cap.
    """
    if n < 1:
        raise ValueError(f"need at least 1 node, got {n}")
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    if target_snr < 0:
        raise ValueError(f"target SNR must be non-negative, got {target_snr}")
    if target_snr == 0:
        return 0.0
    denom = _scale_denominator(n, rei, ch)
    if denom <= 0:
        raise InfeasibleAllocationError(
            "residual-energy statistics are all zero; the cluster cannot transmit"
        )
    return math.sqrt(target_snr * noise_power / denom)


def cbepa_weight(target_snr, n, ch, noise_power):
    """Closed-form common amplitude when every alive node transmits equally."""
    if n < 1:
        raise ValueError(f"need at least 1 node, got {n}")
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    if target_snr < 0:
        raise ValueError(f"target SNR must be non-negative, got {target_snr}")
    m_a, var_a = ch.mean, ch.variance
    return math.sqrt(target_snr * noise_power / (n * var_a + n**2 * m_a**2))


def quantize_weights(u, levels):
    """Round normalized weights to an equispaced grid with ``levels`` steps.

    The grid is {j/levels : j = 0..levels}; ties round up, and a weight
    below half a step rounds to zero, which silences the node.
    """
    if levels < 1:
        raise ValueError(f"need at least 1 quantization level, got {levels}")
    u = np.asarray(u, dtype=float)
    if np.any(u < -1e-12) or np.any(u > 1 + 1e-12):
        raise ValueError("normalized weights must lie in [0, 1]")
    q = np.floor(u * levels + 0.5) / levels
    return np.clip(q, 0.0, 1.0)


def _capped_matched_filter(gains, cap_amplitude, total_of, total_target):
    """Bisect the matched-filter gain so an increasing total meets its target."""
    lo = 0.0
    hi = cap_amplitude / float(gains.min())  # every node capped: total is maximal
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if total_of(mid) < total_target:
            lo = mid
        else:
            hi = mid
    return hi


def solve_max_gain(gains, total_power, cap):
    """Maximize the coherent gain under total and per-node power limits.

    The optimum is a matched filter clipped at the per-node cap; the only
    unknown is the matched-filter gain, found by bisection so the total
    transmit power meets ``total_power`` exactly.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValueError("gains must be a non-empty 1-D vector")
    if np.any(gains <= 0):
        raise ValueError("all channel gains must be positive")
    if cap <= 0:
        raise ValueError(f"per-node power cap must be positive, got {cap}")
    if total_power < 0:
        raise ValueError(f"total power must be non-negative, got {total_power}")
    n = gains.size
    if total_power > n * cap * (1 + 1e-12):
        raise InfeasibleAllocationError(
            f"total power {total_power:.3e} exceeds {n} nodes at cap {cap:.3e}"
        )
    s = math.sqrt(cap)
    if total_power == 0:
        return np.zeros(n)

    def total_of(mu):
        return float(np.sum(np.minimum(mu * gains, s) ** 2))

    mu = _capped_matched_filter(gains, s, total_of, total_power)
    return np.minimum(mu * gains, s)


def solve_min_power(gains, target_snr, noise_power, cap):
    """Minimize total transmit power subject to a realized-SNR floor.

    Same capped matched-filter structure as :func:`solve_max_gain`, with
    the bisection driven by the coherent amplitude instead of the total
    power. Infeasible when even all-nodes-at-cap cannot reach the floor.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValueError("gains must be a non-empty 1-D vector")
    if np.any(gains <= 0):
        raise ValueError("all channel gains must be positive")
    if cap <= 0:
        raise ValueError(f"per-node power cap must be positive, got {cap}")
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    if target_snr < 0:
        raise ValueError(f"target SNR must be non-negative, got {target_snr}")
    n = gains.size
    s = math.sqrt(cap)
    amplitude_target = math.sqrt(target_snr * noise_power)
    if s * float(gains.sum()) < amplitude_target:
        raise InfeasibleAllocationError(
            f"even all {n} nodes at the cap reach amplitude "
            f"{s * float(gains.sum()):.3e} < required {amplitude_target:.3e}"
        )
    if amplitude_target == 0:
        return np.zeros(n)

    def amplitude_of(mu):
        return float(np.sum(gains * np.minimum(mu * gains, s)))

    mu = _capped_matched_filter(gains, s, amplitude_of, amplitude_target)
    return np.minimum(mu * gains, s)
