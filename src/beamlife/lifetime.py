"""Time-slotted cluster lifetime engine.

Each round, weights are (re)computed for alive nodes per the configured
strategy, nodes that cannot fund their slot are gated out and die, the
realized SNR at each destination is evaluated on the funded weights, and
the per-link death criteria are checked. A link stops transmitting when
its criterion fires; the run ends when every link is down.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .allocation import (
    InfeasibleAllocationError,
    ReiStats,
    cbepa_weight,
    cbpa_normalized_weights,
    compute_wmax,
    lognormal_channel_stats,
    quantize_weights,
    solve_max_gain,
    solve_min_power,
)
from .energy import gate_and_charge, sample_initial_energies
from .geometry import (
    Destination,
    PolarPoint,
    carrier_phase,
    db_to_linear,
    deploy_cluster,
    propagation_phase,
    sample_channel,
    sample_phase_errors,
)

__all__ = [
    "LifetimeTrace",
    "partition_cluster",
    "evaluate_death",
    "bit_rate",
    "run_lifetime",
]


def partition_cluster(n, k):
    """Split ``n`` nodes round-robin into ``k`` disjoint link groups.

    Returns the link index of each node. Group sizes are n/k when k
    divides n; otherwise sizes differ by one and a warning flags the
    uneven split.
    """
    if k < 1:
        raise ValueError(f"need at least 1 link, got {k}")
    if k > n:
        raise ValueError(f"cannot split {n} nodes into {k} links")
    if n % k:
        warnings.warn(f"{n} nodes do not split evenly into {k} links", stacklevel=2)
    return np.arange(n) % k


def evaluate_death(dead_fraction, realized_snr_db, criteria, nominal_snr_db):
    """Return None while alive, else the death cause ("nodes" or "snr").

    ``criteria`` is the scenario's ``DeathSpec``.
    """
    if dead_fraction > criteria.max_dead_fraction:
        return "nodes"
    if realized_snr_db < nominal_snr_db - criteria.snr_drop_db:
        return "snr"
    return None


def bit_rate(snr_linear):
    """Spectral efficiency of one link in bits/s/Hz."""
    if snr_linear < 0:
        raise ValueError(f"SNR must be non-negative, got {snr_linear}")
    return math.log2(1.0 + snr_linear)


@dataclass(frozen=True)
class LifetimeTrace:
    """Per-round records of one run plus its terminal summary.

    Row t (0-based index t-1) describes round t; the trace ends with the
    round in which the last link died, so its length equals the lifetime.
    """

    alive_fraction: np.ndarray     # (rounds,)
    snr_db: np.ndarray             # (rounds, links), NaN once a link is down
    rate_total: np.ndarray         # (rounds,) summed over links, bits/s/Hz
    residual_total: np.ndarray     # (rounds,) joules left in the whole cluster
    lifetime: int                  # rounds until the last link died
    link_lifetimes: np.ndarray     # (links,)
    causes: tuple                  # per-link death cause
    wasted_j: float
    wasted_pct: float
    consumed_j: float
    initial_j: float               # realized total initial energy
    nominal_snr_db: np.ndarray     # (links,) first-round SNR, the SNR criterion's reference
    node_residuals: np.ndarray = None  # (rounds, n) when recorded
    node_alive: np.ndarray = None      # (rounds, n) when recorded


def _strategy_weights(
    kind,
    alive_mask,
    member_mask,
    residuals,
    gains,
    target_snr,
    noise_power,
    ch_stats,
    e_max,
    levels,
    p_max,
    first_round,
):
    """Assigned amplitude per node of one link (zeros elsewhere)."""
    weights = np.zeros(residuals.size)
    active = alive_mask & member_mask
    n_alive = int(active.sum())
    if n_alive == 0 or target_snr == 0.0:
        return weights
    cap_amp = math.sqrt(p_max)

    if kind == "cb_epa":
        w = cbepa_weight(target_snr, n_alive, ch_stats, noise_power)
        if w > cap_amp:
            if first_round:
                raise InfeasibleAllocationError(
                    f"equal-power weight {w:.3e} exceeds the cap amplitude {cap_amp:.3e} "
                    f"for {n_alive} nodes; target SNR unreachable"
                )
            w = cap_amp
        weights[active] = w
        return weights

    if kind == "cb_pa":
        u = cbpa_normalized_weights(residuals[active], e_max)
        if levels > 0:
            u = quantize_weights(u, levels)
        # The scale targets the weights actually transmitted, so the
        # moments fed to the closed form are those of the (possibly
        # quantized) normalized weights.
        stats = ReiStats(mean=float(u.mean()) * e_max, variance=float(u.var()) * e_max**2, capacity=e_max)
        try:
            scale = compute_wmax(target_snr, n_alive, stats, ch_stats, noise_power)
        except InfeasibleAllocationError:
            if first_round:
                raise
            return weights  # every weight quantized to zero: nothing can transmit
        if scale > cap_amp:
            if first_round:
                raise InfeasibleAllocationError(
                    f"required scale {scale:.3e} exceeds the cap amplitude {cap_amp:.3e} "
                    f"for {n_alive} nodes; target SNR unreachable"
                )
            scale = cap_amp
        weights[active] = scale * u
        return weights

    if kind == "centralized_min_power":
        try:
            weights[active] = solve_min_power(gains[active], target_snr, noise_power, p_max)
        except InfeasibleAllocationError:
            if first_round:
                raise
            weights[active] = cap_amp  # best effort: everyone at the cap
        return weights

    # centralized_max_gain: spend the equal-power budget optimally
    budget = min(n_alive * cbepa_weight(target_snr, n_alive, ch_stats, noise_power) ** 2, n_alive * p_max)
    weights[active] = solve_max_gain(gains[active], budget, p_max)
    return weights


def run_lifetime(scenario, rng, record_nodes=False):
    """Simulate one cluster lifetime under a ScenarioConfig.

    Setup draws happen in a fixed order (positions, per-link channels,
    phase errors, initial energies), so identical rng seeds yield
    bit-identical traces and scenarios sharing a seed share realizations.
    """
    n = scenario.n
    k = scenario.links
    e_max = scenario.energy.e_max
    slot = scenario.t_slot_s
    noise_power = db_to_linear(scenario.noise_db)
    target_snr = scenario.target_snr_linear()
    ch_stats = lognormal_channel_stats(scenario.shadowing_sigma2_db, scenario.amplitude_divisor)
    strategy = scenario.strategy

    # fixed draw order
    points = deploy_cluster(n, scenario.disk_radius_wavelengths, rng)
    link_of = partition_cluster(n, k)
    range_wl = scenario.destinations.range_m / scenario.wavelength_m
    dests = [
        Destination(PolarPoint(range_wl, math.radians(az)), i)
        for i, az in enumerate(scenario.destinations.azimuths_deg)
    ]
    channels = [
        sample_channel(n, scenario.shadowing_sigma2_db, rng, scenario.amplitude_divisor)
        for _ in range(k)
    ]
    phase_errors = sample_phase_errors(n, math.radians(scenario.phase_error_deg_bound), rng)

    # Residual phase toward each node's own destination: the carrier phase
    # cancels the propagation phase by construction, leaving the error.
    total_phase = np.empty(n)
    for i, point in enumerate(points):
        dest = dests[link_of[i]]
        total_phase[i] = (
            carrier_phase(point, dest)
            + propagation_phase(point, dest.location.phi, dest.location.rho)
            + phase_errors[i]
        )

    members = [link_of == l for l in range(k)]
    member_idx = [np.flatnonzero(m) for m in members]
    link_sizes = np.array([m.sum() for m in members])
    coherent = [channels[l] * np.exp(1j * total_phase) for l in range(k)]

    residual = sample_initial_energies(scenario.energy, n, rng)
    initial_total = float(residual.sum())
    alive = np.ones(n, dtype=bool)
    link_alive = np.ones(k, dtype=bool)
    link_lifetimes = np.zeros(k, dtype=int)
    causes = [None] * k
    nominal_db = np.empty(k)  # every link is up in round 1, which sets it
    assigned = np.zeros(n)
    consumed = 0.0

    alive_rows, snr_rows, rate_rows, residual_rows = [], [], [], []
    node_rows = [] if record_nodes else None
    node_alive_rows = [] if record_nodes else None

    for t in range(1, scenario.max_rounds + 1):
        reallocate = (t - 1) % strategy.period == 0
        if reallocate:
            assigned[:] = 0.0
            for l in range(k):
                if not link_alive[l]:
                    continue
                assigned += _strategy_weights(
                    strategy.kind,
                    alive,
                    members[l],
                    residual,
                    channels[l],
                    target_snr,
                    noise_power,
                    ch_stats,
                    e_max,
                    strategy.levels,
                    scenario.p_max,
                    first_round=(t == 1),
                )

        w = np.where(alive, assigned, 0.0)
        funded, funded_w, paid = gate_and_charge(residual, w, slot)
        alive &= funded
        consumed += paid

        snr_row = np.full(k, np.nan)
        rate_total = 0.0
        for l in range(k):
            if not link_alive[l]:
                continue
            idx = member_idx[l]
            snr = float(abs(np.sum(funded_w[idx] * coherent[l][idx])) ** 2) / noise_power
            snr_db = 10.0 * math.log10(snr) if snr > 0 else -math.inf
            if t == 1:
                nominal_db[l] = snr_db
            snr_row[l] = snr_db
            rate_total += bit_rate(snr)
            dead_fraction = 1.0 - float((alive & members[l]).sum()) / link_sizes[l]
            cause = evaluate_death(dead_fraction, snr_db, scenario.death, nominal_db[l])
            if cause is not None:
                link_alive[l] = False
                link_lifetimes[l] = t
                causes[l] = cause
                assigned[idx] = 0.0

        alive_rows.append(float(alive.sum()) / n)
        snr_rows.append(snr_row)
        rate_rows.append(rate_total)
        residual_rows.append(float(residual.sum()))
        if record_nodes:
            node_rows.append(residual.copy())
            node_alive_rows.append(alive.copy())
        if not link_alive.any():
            break

    for l in range(k):
        if link_alive[l]:
            link_lifetimes[l] = t
            causes[l] = "max_rounds"

    wasted_j = float(residual.sum())
    wasted_pct = 100.0 * wasted_j / (n * scenario.energy.mean)

    return LifetimeTrace(
        alive_fraction=np.array(alive_rows),
        snr_db=np.array(snr_rows),
        rate_total=np.array(rate_rows),
        residual_total=np.array(residual_rows),
        lifetime=len(alive_rows),
        link_lifetimes=link_lifetimes,
        causes=tuple(causes),
        wasted_j=wasted_j,
        wasted_pct=wasted_pct,
        consumed_j=consumed,
        initial_j=initial_total,
        nominal_snr_db=nominal_db.copy(),
        node_residuals=np.array(node_rows) if record_nodes else None,
        node_alive=np.array(node_alive_rows) if record_nodes else None,
    )
