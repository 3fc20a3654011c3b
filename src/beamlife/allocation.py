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

from .geometry import AMPLITUDE_DB_DIVISOR, _at_least, _finite, _gains, _positive

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
        _positive(self.mean, "gain mean must be positive")
        _at_least(self.variance, 0, "gain variance must be non-negative")


def lognormal_channel_stats(sigma2_db):
    """Analytic amplitude-gain moments for log-normal shadowing.

    The log-amplitude is Gaussian with standard deviation
    sqrt(sigma2_db) * ln(10) / 20, as :func:`beamlife.geometry.sample_channel`
    draws it.
    """
    _at_least(sigma2_db, 0, "shadowing variance must be non-negative")
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
        _at_least(self.variance, 0, "variance must be non-negative")
        _finite(self.mean, f"mean normalized weight {self.mean} outside [0, 1]", 0.0, 1 + 1e-12)


def cbpa_normalized_weights(residuals, capacity):
    """Fully distributed normalized weights: each node's residual over capacity."""
    _positive(capacity, "capacity must be positive and finite")
    return _finite(residuals, "residuals must lie in [0, capacity]", 0.0, capacity * (1 + 1e-12)) / capacity


def analytic_average_snr(scale, n, rei, ch, noise_power):
    """Ensemble-average received SNR for scaled residual-proportional weights.

    Averages over both the weight distribution (via the normalized residual
    moments) and the gain distribution, treating them as independent across
    nodes and of each other. The coherent cross terms carry the n*(n-1)
    factor; the self terms carry the second moments.
    """
    _at_least(scale, 0, "scale must be non-negative and finite")
    _at_least(n, 1, "need a finite count of at least 1 node")
    _positive(noise_power, "noise power must be positive and finite")
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
    _at_least(n, 1, "need a finite count of at least 1 node")
    _positive(noise_power, "noise power must be positive and finite")
    _at_least(target_snr, 0, "target SNR must be non-negative and finite")
    if target_snr == 0:
        return 0.0
    denom = _scale_denominator(n, rei.mean, rei.variance, ch)
    if denom <= 0:
        raise InfeasibleAllocationError(
            "residual-energy statistics are all zero; the cluster cannot transmit"
        )
    return math.sqrt(target_snr * noise_power / denom)


def cbepa_weight(target_snr, n, ch, noise_power):
    """Closed-form common amplitude when every alive node transmits equally:
    the CB-PA scale with every normalized weight equal to 1."""
    _at_least(n, 1, "need a finite count of at least 1 node")
    _positive(noise_power, "noise power must be positive and finite")
    _at_least(target_snr, 0, "target SNR must be non-negative and finite")
    return math.sqrt(target_snr * noise_power / _scale_denominator(n, 1.0, 0.0, ch))


def quantize_weights(u, levels):
    """Round normalized weights to an equispaced grid with ``levels`` steps.

    The grid is {j/levels : j = 0..levels}; ties round up, and a weight
    below half a step rounds to zero, which silences the node.
    """
    _at_least(levels, 1, "need a finite number of quantization levels, at least 1")
    u = _finite(u, "normalized weights must lie in [0, 1]", -1e-12, 1 + 1e-12)
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

    A remainder over a tiny ``tail`` can overflow mu. Where mu is infinite,
    mu·g <= s is tested as rem·(g^p / tail) <= s^p, with p = 2 for power
    and 1 for amplitude, whose ratio is at most 1 or 1/g and so finite, and
    an infinite mu's weights are formed the same way; a product that still
    overflows exceeds the cap. Where mu is finite the scan keeps its bits.
    """
    g = np.sort(gains)[::-1]
    tail = np.cumsum(g[::-1] ** 2)[::-1]
    if power:
        rem = np.maximum(target - np.arange(g.size) * (s * s), 0.0)
    else:
        head = np.concatenate(([0.0], np.cumsum(g[:-1])))
        rem = np.maximum(target - s * head, 0.0)
    p, bound = (2, s * s) if power else (1, s)
    with np.errstate(over="ignore"):
        mu = np.sqrt(rem / tail) if power else rem / tail
        big = np.isinf(mu)
        fits = np.flatnonzero(np.where(big, rem * (g**p / tail) <= bound, mu * g <= s))
        j = fits[0] if fits.size else g.size - 1  # none fits: mu·g > s at every node
        if not big[j]:
            return np.minimum(mu[j] * gains, s)
        w = rem[j] * (gains**p / tail[j])
    return np.minimum(np.sqrt(w) if power else w, s)


def solve_max_gain(gains, total_power, cap):
    """Maximize the coherent gain under total and per-node power limits.

    The optimum is a matched filter clipped at the per-node cap; the only
    unknown is the matched-filter gain, solved in closed form so the total
    transmit power meets ``total_power`` to within rounding.
    """
    gains = _gains(gains)
    _positive(cap, "per-node power cap must be positive and finite")
    _at_least(total_power, 0, "total power must be non-negative and finite")
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
    gains = _gains(gains)
    _positive(cap, "per-node power cap must be positive and finite")
    _positive(noise_power, "noise power must be positive and finite")
    _at_least(target_snr, 0, "target SNR must be non-negative and finite")
    s = math.sqrt(cap)
    amplitude_target = math.sqrt(target_snr * noise_power)
    if s * float(gains.sum()) < amplitude_target:
        raise InfeasibleAllocationError(
            f"even all {gains.size} nodes at the cap reach amplitude "
            f"{s * float(gains.sum()):.3e} < required {amplitude_target:.3e}"
        )
    return _capped_matched_filter(gains, s, amplitude_target, power=False)
