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

from .geometry import AMPLITUDE_DB_DIVISOR

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


def lognormal_channel_stats(sigma2_db):
    """Analytic amplitude-gain moments for log-normal shadowing.

    The log-amplitude is Gaussian with standard deviation
    sqrt(sigma2_db) * ln(10) / 20, as :func:`beamlife.geometry.sample_channel`
    draws it.
    """
    if sigma2_db < 0:
        raise ValueError(f"shadowing variance must be non-negative, got {sigma2_db}")
    s2 = sigma2_db * (LN10 / AMPLITUDE_DB_DIVISOR) ** 2
    mean = math.exp(s2 / 2.0)
    variance = (math.exp(s2) - 1.0) * math.exp(s2)
    return ChannelStats(mean=mean, variance=variance)


@dataclass(frozen=True)
class ReiStats:
    """Moments over alive nodes of the normalized weights u = residual / e_max."""

    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"variance must be non-negative, got {self.variance}")
        if not 0 <= self.mean <= 1 + 1e-12:
            raise ValueError(f"mean normalized weight {self.mean} outside [0, 1]")


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
    m_u, var_u = rei.mean, rei.variance
    m_a, var_a = ch.mean, ch.variance
    self_terms = n * (var_u + m_u**2) * (var_a + m_a**2)
    cross_terms = n * (n - 1) * m_u**2 * m_a**2
    return scale**2 / noise_power * (self_terms + cross_terms)


def _scale_denominator(n, m_u, var_u, ch):
    """Denominator of the closed-form scale, from the normalized weight moments."""
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
    denom = _scale_denominator(n, rei.mean, rei.variance, ch)
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


def _capped_matched_filter(gains, s, target, power):
    """Weights ``min(mu·g, s)`` whose total meets ``target``, solved exactly.

    The total is the transmit power sum(w²) when ``power`` is set, else the
    coherent amplitude sum(g·w). With the gains in descending order and the
    first j nodes at the cap, it is linear in mu² (power) or mu (amplitude):
        power:     mu² = (P − j·s²) / sum_{i≥j} g_(i)²
        amplitude: mu  = (A − s·sum_{i<j} g_(i)) / sum_{i≥j} g_(i)²
    with a negative remainder read as 0. The optimum's j is the first whose
    node j stays at or below the cap; if there is none, every node is capped.
    """
    g = np.sort(gains)[::-1]
    tail = np.cumsum(g[::-1] ** 2)[::-1]
    if power:
        mu = np.sqrt(np.maximum(target - np.arange(g.size) * (s * s), 0.0) / tail)
    else:
        head = np.concatenate(([0.0], np.cumsum(g[:-1])))
        mu = np.maximum(target - s * head, 0.0) / tail
    fits = np.flatnonzero(mu * g <= s)
    j = fits[0] if fits.size else g.size - 1  # none fits: mu·g > s at every node
    return np.minimum(mu[j] * gains, s)


def solve_max_gain(gains, total_power, cap):
    """Maximize the coherent gain under total and per-node power limits.

    The optimum is a matched filter clipped at the per-node cap; the only
    unknown is the matched-filter gain, solved in closed form so the total
    transmit power meets ``total_power`` to within rounding.
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
    return _capped_matched_filter(gains, math.sqrt(cap), total_power, power=True)


def solve_min_power(gains, target_snr, noise_power, cap):
    """Minimize total transmit power subject to a realized-SNR floor.

    Same capped matched-filter structure as :func:`solve_max_gain`, with
    the matched-filter gain solved for the coherent amplitude instead of
    the total power; the floor is met to within rounding (a relative
    shortfall of order 1e-15 is possible). Infeasible when even
    all-nodes-at-cap cannot reach the floor.
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
    s = math.sqrt(cap)
    amplitude_target = math.sqrt(target_snr * noise_power)
    if s * float(gains.sum()) < amplitude_target:
        raise InfeasibleAllocationError(
            f"even all {gains.size} nodes at the cap reach amplitude "
            f"{s * float(gains.sum()):.3e} < required {amplitude_target:.3e}"
        )
    return _capped_matched_filter(gains, s, amplitude_target, power=False)
