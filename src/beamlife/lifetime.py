"""Time-slotted cluster lifetime engine.

Each round, weights are (re)computed for alive nodes per the configured
strategy, nodes that cannot fund their slot are gated out and die, the
realized SNR at each destination is evaluated on the funded weights, and
the per-link death criteria are checked. A link stops transmitting when
its criterion fires; the run ends when every link is down.

The round loop checks no input; the config is validated once, when it is
built. The loop relies on these invariants:

- residuals stay in [0, e_max]: initial draws are clamped into it and a
  node pays only what it holds, so normalized weights lie in [0, 1];
- ``strategy.levels`` is 0 or a power of two, so quantized weights need
  no clip;
- ``partition_cluster`` gives each link's members as a strided slice;
- a down link's members carry zero weight, so they stay funded and alive.

Between reallocations the loop steps static stretches in bulk. After a
round in which every node was funded and no link went down, the next round
sees the same ``alive``, ``assigned`` and funded weights, so its slot costs,
SNR, rate and death test repeat exactly and only the residuals move. Such
rounds are advanced together in a buffer whose rows are the residuals that
in-place ``residual -= cost`` steps give, bit for bit, and whose row sums
are the per-round ``residual.sum()``. A stretch ends before the first round
in which some node's residual is below its cost, before the next
reallocation and at ``max_rounds``; every round that changes state runs the
normal path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .allocation import (
    InfeasibleAllocationError,
    _scale_denominator,
    cbepa_weight,
    lognormal_channel_stats,
    solve_max_gain,
    solve_min_power,
)

from .energy import gate_and_charge, sample_initial_energies
from .geometry import db_to_linear, sample_channel, sample_phase_errors

# The engine calls none of these: the round loop inlines the three cb_pa
# helpers, and the carrier phase cancels the propagation phase, so neither
# node positions nor destination ranges reach the SNR. The benchmark tracer
# (perfbench/tracer.py) still wraps them in this module's namespace, and
# tests/test_tracer_contract.py checks that they resolve here.
from .allocation import cbpa_normalized_weights, compute_wmax, quantize_weights  # noqa: F401
from .geometry import carrier_phase, deploy_cluster, propagation_phase  # noqa: F401

__all__ = [
    "LifetimeTrace",
    "partition_cluster",
    "evaluate_death",
    "bit_rate",
    "run_lifetime",
]


def partition_cluster(n, k):
    """Split ``n`` nodes round-robin into ``k`` disjoint link groups.

    Node i serves link i % k, so link l's members are the strided slice
    ``slice(l, None, k)``; returns one slice per link. Group sizes are n/k
    when k divides n; otherwise sizes differ by one and a warning flags
    the uneven split.
    """
    if k < 1:
        raise ValueError(f"need at least 1 link, got {k}")
    if k > n:
        raise ValueError(f"cannot split {n} nodes into {k} links")
    if n % k:
        warnings.warn(f"{n} nodes do not split evenly into {k} links", stacklevel=2)
    return [slice(l, None, k) for l in range(k)]


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
    node_residuals: np.ndarray = None  # (rounds, n) when recorded
    node_alive: np.ndarray = None      # (rounds, n) when recorded


def _strategy_weights(
    kind,
    active,
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
    """Assigned amplitude per node of one link, zero for its dead nodes.

    The engine passes the link's own views of the alive mask (``active``),
    the residuals and the gains. This runs every round, so the ``cb_pa``
    branch inlines the public helpers without their input checks, on the
    invariants the module docstring lists.
    """
    weights = np.zeros(residuals.size)
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
        # cbpa_normalized_weights, then quantize_weights, in place
        u = residuals[active]
        u /= e_max
        if levels > 0:
            u *= levels
            u += 0.5
            np.floor(u, out=u)
            u /= levels
        # The scale targets the weights actually transmitted, so the
        # moments fed to the closed form are those of the (possibly
        # quantized) normalized weights. These are the float operations of
        # u.mean() and u.var(), and of compute_wmax on a ReiStats built
        # from them.
        m = float(u.sum() / n_alive)
        d = u - m
        v = float((d * d).sum() / n_alive)
        denom = _scale_denominator(n_alive, m, v, ch_stats)
        if denom <= 0:
            if first_round:
                raise InfeasibleAllocationError(
                    "residual-energy statistics are all zero; the cluster cannot transmit"
                )
            return weights  # every weight quantized to zero: nothing can transmit
        scale = math.sqrt(target_snr * noise_power / denom)
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


# Elements of the bulk-step buffer (1 MB of float64). It bounds the rounds
# one stretch steps, so memory grows with neither n nor the stretch length.
_STRETCH_ELEMENTS = 2**17


def _static_stretch(residual, cost, rounds, buf):
    """Step up to ``rounds`` rounds in which every node pays ``cost``.

    Returns the residual rows after each stepped round, a view into ``buf``,
    and leaves ``residual`` at the last one. Stepping stops before the first
    round whose starting residuals do not cover ``cost`` everywhere (the test
    of ``gate_and_charge``), so that round runs the normal path.
    """
    charged = cost > 0
    if charged.any():
        # Only sizes the stretch; the stepped rows decide which rounds count.
        rounds = min(rounds, int((residual[charged] / cost[charged]).min()))
    if rounds < 1:
        return buf[:0]
    acc = buf[: rounds + 1]
    acc[0] = residual
    # Row by row, as ``residual -= cost`` would: np.subtract.accumulate
    # along axis 0 gives the same bits but walks the buffer column by
    # column, 2-4x slower per row at n = 500-1000.
    for prev, row in zip(acc[:-1], acc[1:]):
        np.subtract(prev, cost, out=row)
    funded = (acc[:-1] >= cost).all(axis=1)
    stepped = rounds if funded.all() else int(funded.argmin())
    residual[:] = acc[stepped]
    return acc[1 : stepped + 1]


def run_lifetime(scenario, rng, record_nodes=False):
    """Simulate one cluster lifetime under a ScenarioConfig.

    Setup draws happen in a fixed order (node positions, which nothing
    reads, per-link channels, phase errors, initial energies), so identical
    rng seeds yield bit-identical traces and scenarios sharing a seed share
    realizations.
    """
    n = scenario.n
    k = scenario.links
    e_max = scenario.energy.e_max
    slot = scenario.t_slot_s
    noise_power = db_to_linear(scenario.noise_db)
    target_snr = scenario.target_snr_linear()
    ch_stats = lognormal_channel_stats(scenario.shadowing_sigma2_db)
    strategy = scenario.strategy

    # fixed draw order. The node layout's radius and azimuth draws stay,
    # unused, so that every seed keeps its channel, phase-error and energy
    # streams; one (2, n) draw takes the same numbers as two of n.
    rng.random((2, n))
    member_idx = partition_cluster(n, k)
    channels = [sample_channel(n, scenario.shadowing_sigma2_db, rng) for _ in range(k)]
    phase_errors = sample_phase_errors(n, math.radians(scenario.phase_error_deg_bound), rng)

    # The round loop reads each link's members through its slice as views
    # (all nodes on a single link) instead of fancy-index copies. Each node
    # pre-compensates its propagation phase toward its link's destination,
    # so only the phase error is left in its channel.
    link_sizes = [len(range(n)[idx]) for idx in member_idx]
    phasors = np.exp(1j * phase_errors)
    coherent = [(channels[l] * phasors)[member_idx[l]].copy() for l in range(k)]

    residual = sample_initial_energies(scenario.energy, n, rng)
    initial_total = float(residual.sum())
    alive = np.ones(n, dtype=bool)
    # Alive members per link, counted once per round after gating. A down
    # link's last count stands, so the counts also sum to the alive total.
    up_counts = list(link_sizes)
    link_alive = [True] * k
    link_lifetimes = np.zeros(k, dtype=int)
    causes = [None] * k
    nominal_db = np.empty(k)  # every link is up in round 1, which sets it
    assigned = np.zeros(n)
    consumed = 0.0

    alive_rows, snr_rows, rate_rows, residual_rows = [], [], [], []
    node_rows = [] if record_nodes else None
    node_alive_rows = [] if record_nodes else None
    # Only a reallocation period above 1 leaves rounds to step in bulk.
    stretch_buf = np.empty((_STRETCH_ELEMENTS // n + 1, n)) if strategy.period > 1 else None

    t = 0
    while t < scenario.max_rounds:
        t += 1
        reallocate = (t - 1) % strategy.period == 0
        if reallocate:
            # Each link up writes all its members; a down link's members
            # were zeroed when it went down.
            for l in range(k):
                if not link_alive[l]:
                    continue
                idx = member_idx[l]
                assigned[idx] = _strategy_weights(
                    strategy.kind,
                    alive[idx],
                    residual[idx],
                    channels[l][idx],
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

        snr_row = [math.nan] * k
        rate_total = 0.0
        link_down = False
        for l in range(k):
            if not link_alive[l]:
                continue
            idx = member_idx[l]
            snr = float(abs((funded_w[idx] * coherent[l]).sum()) ** 2) / noise_power
            snr_db = 10.0 * math.log10(snr) if snr > 0 else -math.inf
            if t == 1:
                nominal_db[l] = snr_db
            snr_row[l] = snr_db
            rate_total += bit_rate(snr)
            up_counts[l] = int(alive[idx].sum())
            dead_fraction = 1.0 - up_counts[l] / link_sizes[l]
            cause = evaluate_death(dead_fraction, snr_db, scenario.death, nominal_db[l])
            if cause is not None:
                link_alive[l] = False
                link_lifetimes[l] = t
                causes[l] = cause
                assigned[idx] = 0.0
                link_down = True

        alive_rows.append(sum(up_counts) / n)
        snr_rows.append(snr_row)
        rate_rows.append(rate_total)
        residual_rows.append(float(residual.sum()))
        if record_nodes:
            node_rows.append(residual.copy())
            node_alive_rows.append(alive.copy())
        if not any(link_alive):
            break

        # A round that funded every node and took no link down leaves the
        # next one static until a node cannot pay or weights are reallocated
        # (module docstring): step those rounds in bulk and repeat this row.
        if stretch_buf is not None and t % strategy.period != 0 and not link_down and funded.all():
            rounds = min(
                strategy.period - t % strategy.period,  # rounds before the next reallocation
                scenario.max_rounds - t,
                len(stretch_buf) - 1,
            )
            # the slot costs gate_and_charge just charged, computed as it does
            stepped = _static_stretch(residual, funded_w * funded_w * slot, rounds, stretch_buf)
            m = len(stepped)
            for _ in range(m):
                consumed += paid  # one addition per round: m * paid rounds differently
            alive_rows.extend([alive_rows[-1]] * m)
            snr_rows.extend([snr_row] * m)
            rate_rows.extend([rate_total] * m)
            residual_rows.extend(stepped.sum(axis=1).tolist())
            if record_nodes:
                node_rows.extend(stepped.copy())
                node_alive_rows.extend([alive.copy()] * m)
            t += m

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
        node_residuals=np.array(node_rows) if record_nodes else None,
        node_alive=np.array(node_alive_rows) if record_nodes else None,
    )
