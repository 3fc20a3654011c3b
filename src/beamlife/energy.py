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
    """In-place fundability gating and charging on a raw residual vector.

    Returns (funded_mask, funded_weights, consumed). A node whose residual
    cannot cover its assigned slot energy transmits nothing and pays
    nothing; zero-weight nodes are trivially funded at zero cost. When
    every node is funded, ``funded_weights`` is ``weights`` itself (given as
    a float array); otherwise it is a new array, zero at the unfunded nodes,
    and ``weights`` is left as it was. The round loop relies on both, as
    its per-link views of the weights stay valid until a node cannot pay.
    The all-funded test counts the mask: on the engine's 100-node arrays
    that is faster than ``funded.all()``.
    """
    w = np.asarray(weights, dtype=float)
    cost = w * w
    cost *= slot_length
    funded = residual >= cost
    if np.count_nonzero(funded) == funded.size:
        residual -= cost
        return funded, w, float(np.add.reduce(cost))
    funded_w = np.where(funded, w, 0.0)
    pay = np.where(funded, cost, 0.0)
    residual -= pay
    return funded, funded_w, float(pay.sum())
