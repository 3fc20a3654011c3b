"""Node energy accounting: initial budgets and slot costs.

Only the amplifier energy of a transmission slot is modeled; transceiver
electronics draw the same for every strategy and are left out.
"""

from __future__ import annotations

import numpy as np

from .geometry import _at_least

__all__ = ["sample_initial_energies", "gate_and_charge"]


def sample_initial_energies(spec, n, rng):
    """Draw initial energies in joules for ``n`` nodes from an ``EnergySpec``.

    kind "uniform" draws from [0, e_max]; "gaussian" draws from
    N(mean, sigma^2) clamped into [0, e_max].
    """
    _at_least(n, 1, "need at least 1 node")
    if spec.kind == "uniform":
        return rng.uniform(0.0, spec.e_max, n)
    draws = rng.normal(spec.mean, spec.sigma, n) if spec.sigma > 0 else np.full(n, spec.mean)
    return np.clip(draws, 0.0, spec.e_max)


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
