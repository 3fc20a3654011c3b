"""Node energy accounting: initial budgets, slot costs and the link budget.

Only the amplifier energy of a transmission slot is modeled; transceiver
electronics draw the same for every strategy and are left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkBudget",
    "sample_initial_energies",
    "required_tx_power_db",
    "gate_and_charge",
]


def sample_initial_energies(spec, n, rng):
    """Draw initial energies in joules for ``n`` nodes from an ``EnergySpec``.

    kind "uniform" draws from [0, e_max]; "gaussian" draws from
    N(mean, sigma^2) clamped into [0, e_max].
    """
    if n < 1:
        raise ValueError(f"need at least 1 node, got {n}")
    if spec.kind == "uniform":
        return rng.uniform(0.0, spec.e_max, n)
    draws = rng.normal(spec.mean, spec.sigma, n) if spec.sigma > 0 else np.full(n, spec.mean)
    return np.clip(draws, 0.0, spec.e_max)


@dataclass(frozen=True)
class LinkBudget:
    """Free-space link budget parameters (dB bookkeeping)."""

    pl0_db: float       # path loss at the reference distance
    alpha: float        # path loss exponent
    distance_m: float   # link distance
    d0_m: float = 1.0   # reference distance
    noise_db: float = -100.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"path loss exponent must be positive, got {self.alpha}")
        if not self.distance_m >= self.d0_m > 0:
            raise ValueError(
                f"need distance >= d0 > 0, got distance {self.distance_m}, d0 {self.d0_m}"
            )


def required_tx_power_db(budget, target_snr_db):
    """Total transmit power (dB) that compensates path loss for a target SNR.

    The received power is target SNR plus noise power, then the reference
    path loss and the distance term are added back.
    """
    p_rx = target_snr_db + budget.noise_db
    return p_rx + budget.pl0_db + 10.0 * budget.alpha * math.log10(budget.distance_m / budget.d0_m)


def gate_and_charge(residual, weights, slot_length):
    """Gate out the nodes that cannot fund their slot; charge the rest.

    ``residual`` and ``weights`` are writable float64 arrays of one shape,
    updated in place: a node whose residual cannot cover its slot energy
    ``w * w * slot_length`` gets weight zero, keeps its residual and pays
    nothing (as zero-weight nodes pay nothing). Returns (charge, unfunded,
    consumed): the per-node charge, zero where unfunded; the unfunded
    mask, or None when every node paid; and the charge's total.
    The all-funded test counts the mask: on the engine's 100-node arrays
    that is faster than ``funded.all()``.
    """
    charge = weights * weights
    charge *= slot_length
    funded = residual >= charge
    unfunded = None
    if np.count_nonzero(funded) < funded.size:
        unfunded = ~funded
        weights[unfunded] = 0.0
        charge[unfunded] = 0.0
    residual -= charge
    return charge, unfunded, float(np.add.reduce(charge))
