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
  no clip, with ``n * levels <= 2**53`` and ``e_max / levels`` normal, so
  level sums are exact integers and ``e_max / levels`` is exact;
- node i serves link i % k, so link l's members are the strided slice
  ``slice(l, None, k)`` (on an uneven split, link sizes differ by one);
- the assigned weights are zero at every dead node and at every member
  of a down link, so the round gates them as they are and those nodes
  stay funded at zero cost. ``gate_and_charge`` zeroes, in place, the
  weights of the nodes that cannot pay, and the loop marks them dead;
- the alive set changes only in a round in which some node cannot pay,
  so the per-link alive counts are taken then and handed to the
  allocation, not recounted in every round. The per-link views of the
  alive mask, gains, assigned weights and the unscaled weights below
  are made once per run. The allocation writes each link's weights into its view of the
  assigned array; a closed-form link with every member alive writes them
  there from its view of a per-run buffer, with no gather and no copy.

The allocation has two families, as in ``allocation.py``. The closed-form
one (``_cbpa_weights``) scales a per-run buffer of unscaled weights by
``compute_wmax``'s scale, which above the cap is refused in round 1 and
clipped later: ``cb_pa`` fills the buffer with its normalized residuals at
each allocation, and ``cb_epa`` is the same rule at unit weights, a buffer
of ones set once. Their mean is exactly 1 and their variance 0, so
``cb_epa``'s amplitude has the bits of ``cbepa_weight``. The centralized
baselines are the other family (``_strategy_weights``). Their gains are
fixed, so each run checks each link's drawn gains once, as the solvers
check them, and sorts them once (``_rank_gains``); a reallocation gathers
the alive gains and applies the float operations of ``solve_min_power`` or
``solve_max_gain``, so the weights have the solvers' bits: it forms their
capped scan's j = 0 candidate, the uncapped matched filter, from the sorted
alive gains and runs the scan only where the cap binds. The round loop
itself zeroes a link with no alive member or a zero target.

One integer holds the reallocation schedule: ``realloc``, the next round
that reallocates with new inputs (quantized ``cb_pa`` first checks that
they are new, below); a round past ``max_rounds`` means none is due.
Round 1 allocates, as does every round ``t == realloc``. Only ``cb_pa``
reads the residuals, so its allocation sets ``realloc`` to the next period
boundary, ``t + period``. The ``cb_epa`` weight depends on the
alive count and the centralized baselines on the alive nodes' fixed gains,
and the alive set only shrinks, so their allocation sets none due; a round
in which a node dies sets ``realloc`` to the next boundary,
``t + 1 + (-t % period)``, which is where ``cb_pa``'s already is.

Quantized ``cb_pa`` changes its weights only when a level changes. At each
boundary it first quantizes every node's residual, ``q = floor(levels * r
/ e_max + 0.5)``, into a per-run buffer and sums each link's levels. A
residual never rises and ``q`` is monotone in it, so no level rises, and
unchanged sums mean that every level repeated. If no node has died and no
link has gone down since the last allocation either, that allocation's
weights stand bit for bit, ``realloc`` moves on a period, and the round
opens a static stretch (below) that runs from it to ``realloc - 1``.
Otherwise each link up allocates from its view of ``q`` in level units:
the moments of ``q`` scaled by ``levels`` and ``levels**2``, and ``q *
(scale / levels)``, have the bits of the moments of ``q / levels`` and of
``(q / levels) * scale`` (the invariants above).

Each run has one buffer of at most ``_ROW_ELEMENTS`` residuals: row j
holds the residual vector after a round, written by the normal path and
by the stretches below alike. When it is full, and when the run ends, it
is flushed: ``np.add.reduce(rows, axis=1)`` gives the rounds'
``residual_total`` (axis-1 row sums have the bits of the 1-D
``residual.sum()``), and a recorded run keeps a copy of the rows.

The loop steps static stretches in bulk. After a round t in which no link
went down, the next round's assigned weights equal this round's funded
weights bit for bit, unless it reallocates with new inputs; its slot
costs, payment, SNR, rate and death test then repeat exactly and only the
residuals move. Rounds t + 1 to ``realloc - 1`` (at a boundary whose
levels repeated, t is the round before it) are stepped into the row buffer
with the charge that the last ``gate_and_charge`` returned: their rows are
the residuals that in-place ``residual -= charge`` steps give, bit for
bit, and a stretch that fills the buffer flushes it and goes on, so no
bound on its length is needed. A stretch also ends at ``max_rounds`` and
before the first round in which some node's residual is below its cost;
for ``cb_pa`` at period 1 only repeated levels open one. A one-round
stretch is stepped as it stands; a longer one is cut to ``min(due) - t``
rounds: ``due`` holds each node's estimated last payable round,
``t + residual / cost`` (inf at zero cost), from the first such stretch
after a reallocation until a link goes down or a normal round has neither
a death nor a reallocation (the estimate fell short); a death sets the
dying node's entry to inf. Near a whole ratio the estimate can promise a
round too many. A residual never rises (``fl(r - c) <= r`` for ``c >= 0``),
so the rounds that can pay are a prefix of the stepped ones: the stretch
tests the last stepped round's start and, only if that fails, searches
back, instead of testing every row. A round that is not stepped runs the
normal path, as does every round that changes state.

A normal round records its alive fraction, SNR row and rate (and, when
nodes are recorded, its alive mask) once. The m stepped rounds after it
repeat that record exactly, so they add m to the record's count of rounds
instead of copying it; the trace's per-round arrays are expanded by one
``np.repeat`` per field when the run ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import (
    InfeasibleAllocationError,
    _capped_matched_filter,
    _scale_denominator,
    lognormal_channel_stats,
)

from .energy import gate_and_charge, sample_initial_energies
from .geometry import _gains, db_to_linear, sample_channel, sample_phase_errors

# The engine calls none of these: the round loop inlines the three cb_pa
# helpers, which cb_epa runs at unit weights, ``_strategy_weights`` inlines
# the two centralized solvers and ``cbepa_weight`` on gains checked and
# sorted once per run, and the carrier phase cancels the propagation phase,
# so neither node positions nor destination ranges reach the SNR. The
# benchmark tracer (perfbench/tracer.py) still wraps them in this module's
# namespace, and tests/test_tracer_contract.py checks that they resolve here.
from .allocation import cbepa_weight, cbpa_normalized_weights, compute_wmax, quantize_weights  # noqa: F401
from .allocation import solve_max_gain, solve_min_power  # noqa: F401
from .geometry import carrier_phase, deploy_cluster, propagation_phase  # noqa: F401

__all__ = [
    "LifetimeTrace",
    "evaluate_death",
    "bit_rate",
    "run_lifetime",
]


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
    if not 0 <= snr_linear < math.inf:  # inline: the engine calls it every round
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


def _cbpa_units(out, residual, divisor, levels):
    """Every node's ``cb_pa`` weight before scaling, written into ``out``:
    the normalized residuals, or with ``levels`` the levels ``floor(levels
    * r / e_max + 0.5)``, as ``cbpa_normalized_weights`` and then
    ``quantize_weights`` give them (times ``levels``) without their checks.

    ``divisor`` is ``e_max / levels``, exact (module docstring), or ``e_max``
    at 0 levels: one division gives ``(r / e_max) * levels`` rounded once,
    as a power-of-two factor scales without rounding, unless ``r / e_max``
    is subnormal, where both are below 2**-969 and quantize to 0.
    """
    u = np.divide(residual, divisor, out=out)
    if levels:
        u += 0.5
        np.floor(u, out=u)
    return u


def _cbpa_weights(out, u, total, active, n_alive, unit, target_snr, noise_power, ch_stats, p_max, first_round):
    """Write one closed-form link's amplitudes into its view ``out``, for a
    link with alive members and a nonzero target.

    ``u`` is the link's view of the unscaled weights, in units of
    ``1 / unit``: ``_cbpa_units``' for ``cb_pa``, ones for ``cb_epa``
    (module docstring), and ``total`` its sum or None. The closed-form scale
    targets the weights actually transmitted, ``u / unit`` at the alive
    members, so it is fed their mean and variance. ``unit`` is 1 or a power
    of two with ``n * unit <= 2**53`` (``validate``), so the moments of
    ``u`` divided by ``unit`` and ``unit**2`` have the bits of ``(u /
    unit).mean()`` and ``.var()``, and ``u * (scale / unit)`` those of
    ``(u / unit) * scale``: scaling by a power of two rounds nothing inside
    the normal range, and ``scale``, a square root, is 0 or above 1e-162.
    These are the float operations of ``compute_wmax`` on a ``ReiStats``
    built from them; the divisions are Python's, as numpy scalar ones are
    slow. ``out`` is zero at the link's dead nodes (module docstring), so
    only the alive ones are written: with every member alive straight from
    ``u``, else through a gather.
    """
    everyone = n_alive == u.size
    if not everyone:
        u = u[active]
        total = None
    m = (float(np.add.reduce(u)) if total is None else total) / n_alive
    d = u - m
    d *= d
    v = float(np.add.reduce(d)) / n_alive
    denom = _scale_denominator(n_alive, m / unit, v / (unit * unit), ch_stats)
    if denom <= 0:
        if first_round:
            raise InfeasibleAllocationError(
                "residual-energy statistics are all zero; the cluster cannot transmit"
            )
        out.fill(0.0)  # every weight quantized to zero: nothing can transmit
        return
    scale = math.sqrt(target_snr * noise_power / denom)
    cap_amp = math.sqrt(p_max)
    if scale > cap_amp:
        if first_round:
            raise InfeasibleAllocationError(
                f"required scale {scale:.3e} exceeds the cap amplitude {cap_amp:.3e} "
                f"for {n_alive} nodes; target SNR unreachable"
            )
        scale = cap_amp
    if everyone:
        np.multiply(u, scale / unit, out=out)
    else:
        u *= scale / unit
        out[active] = u


def _rank_gains(gains):
    """A centralized link's gains, checked as the solvers check them, and
    their stable ascending order and sorted values, set once per run.

    Any alive subset of gains that pass ``_gains`` passes it too, so the
    solvers' ``ValueError`` comes here, before the first round.
    """
    _gains(gains)
    order = np.argsort(gains, kind="stable")
    return order, gains[order]


def _strategy_weights(out, kind, active, n_alive, gains, rank, target_snr, noise_power, ch_stats, p_max, first_round):
    """Write one link's centralized-solver amplitudes into ``out``, for a
    link with alive members and a nonzero target.

    The engine passes the link's own views of the assigned weights
    (``out``), the alive mask (``active``) and the gains, the link's alive
    count and its ``_rank_gains``. ``out`` is zero at the link's dead nodes
    (module docstring), so only the alive ones are written. These are the
    float operations of ``solve_min_power`` and ``solve_max_gain``, and of
    ``cbepa_weight`` in the max-gain budget, without their checks. The j = 0
    candidate of ``_capped_matched_filter``'s scan, the uncapped matched
    filter, is formed in scalar arithmetic on the alive gains in ascending
    order, whose squares' running sum ends in the bits of ``tail[0]``; where
    it fits, the scan would pick it. The scan runs where it does not, or
    where ``t0`` or the remainder is not positive: scalar Python would
    divide by zero or read max(-0.0, 0.0) and NaN unlike numpy.
    """
    order, ranked = rank
    if n_alive < gains.size:
        ranked = ranked[active[order]]
        gains = gains[active]
    s = math.sqrt(p_max)
    if kind == "centralized_min_power":
        target = math.sqrt(target_snr * noise_power)
        reach = s * float(np.add.reduce(gains))
        if reach < target:
            if first_round:
                raise InfeasibleAllocationError(
                    f"even all {gains.size} nodes at the cap reach amplitude {reach:.3e} < required {target:.3e}"
                )
            out[active] = s  # best effort: everyone at the cap
            return
        power, rem0 = False, target - s * 0.0
    else:
        # centralized_max_gain: spend the equal-power budget optimally
        w = math.sqrt(target_snr * noise_power / _scale_denominator(n_alive, 1.0, 0.0, ch_stats))
        target = min(n_alive * w**2, n_alive * p_max)
        power, rem0 = True, target - 0.0 * (s * s)
    t0 = float(np.add.accumulate(ranked * ranked)[-1])  # np.cumsum's bits, without its wrapper
    if t0 > 0 and rem0 > 0:
        mu0 = math.sqrt(rem0 / t0) if power else rem0 / t0
        if mu0 * float(ranked[-1]) <= s:
            out[active] = np.minimum(mu0 * gains, s)
            return
    out[active] = _capped_matched_filter(gains, s, target, power)


# Elements of a run's residual-row buffer (512 KB of float64), so its memory
# grows with neither n nor the run length.
_ROW_ELEMENTS = 2**16


def _static_stretch(residual, cost, rows):
    """Step up to ``len(rows) >= 1`` rounds in which every node pays ``cost``.

    Writes the residuals after each stepped round into ``rows``, leaves
    ``residual`` at the last one and returns how many rounds were stepped.
    Stepping stops before the first round whose starting residuals do not
    cover ``cost`` everywhere (the test of ``gate_and_charge``), so that
    round runs the normal path.
    """
    # Row by row, as ``residual -= cost`` would: np.subtract.accumulate
    # along axis 0 gives the same bits but walks the buffer column by
    # column, 2-4x slower per row at n = 500-1000. Rows listed once per run
    # and a positional ``out`` cost less per row than a 2-D slice's rows.
    prev = residual
    for row in rows:
        prev = np.subtract(prev, cost, row)
    # A residual never rises (fl(r - c) <= r for c >= 0), so the rounds whose
    # starting residuals cover the cost are a prefix: if the last stepped
    # round's start does, all do; otherwise search back from it. Counting
    # the mask is faster than ``.all()``, as in ``gate_and_charge``.
    stepped = len(rows)
    while stepped > 1 and np.count_nonzero(rows[stepped - 2] >= cost) < residual.size:
        stepped -= 1
    if stepped == 1 and np.count_nonzero(residual >= cost) < residual.size:
        return 0
    residual[:] = rows[stepped - 1]
    return stepped


def run_lifetime(scenario, rng, record_nodes=False):
    """Simulate one cluster lifetime under a ScenarioConfig.

    Setup draws happen in a fixed order (node positions, which nothing
    reads, per-link channels, phase errors, initial energies), so identical
    rng seeds yield bit-identical traces and scenarios sharing a seed share
    realizations.
    """
    n = scenario.n
    k = scenario.links
    slot = scenario.t_slot_s
    noise_power = db_to_linear(scenario.noise_db)
    target_snr = scenario.target_snr_linear()
    target_db = scenario.resolved_target_snr_db()  # the reference of a link silent in round 1
    ch_stats = lognormal_channel_stats(scenario.shadowing_sigma2_db)
    strategy = scenario.strategy

    # fixed draw order. The node layout's radius and azimuth draws stay,
    # unused, so that every seed keeps its channel, phase-error and energy
    # streams; one (2, n) draw takes the same numbers as two of n.
    rng.random((2, n))
    member_idx = [slice(l, None, k) for l in range(k)]
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
    # Alive members per link, recounted only after a round in which some node
    # could not pay: nothing else changes the alive set. A down link's
    # members keep zero weight and so stay alive, and the counts always sum
    # to the alive total.
    up_counts = list(link_sizes)
    link_lifetimes = np.zeros(k, dtype=int)
    causes = [None] * k  # a link is up while its cause is None
    nominal_db = [math.nan] * k  # every link is up in round 1, which sets it
    assigned = np.zeros(n)  # zero at dead nodes and at down links' members
    consumed = 0.0

    alive_at = [alive[idx] for idx in member_idx]
    gains_at = [channels[l][idx] for l, idx in enumerate(member_idx)]
    assigned_at = [assigned[idx] for idx in member_idx]
    products = [np.empty(size, dtype=complex) for size in link_sizes]

    # residual rows, flushed into their sums (module docstring)
    rows = np.empty((max(min(scenario.max_rounds, _ROW_ELEMENTS // n), 1), n))
    j = 0
    row_sums = []
    node_chunks = [] if record_nodes else None

    def flush():
        nonlocal j
        row_sums.append(np.add.reduce(rows[:j], axis=1))
        if record_nodes:
            node_chunks.append(rows[:j].copy())
        j = 0

    # one record per normal round, and how many rounds it stands for: its own
    # and the stepped ones after it (module docstring)
    alive_rows, snr_rows, rate_rows, counts = [], [], [], []
    node_alive_rows = [] if record_nodes else None
    period = strategy.period
    reads_residuals = strategy.kind == "cb_pa"
    closed_form = strategy.kind in ("cb_pa", "cb_epa")  # the rest run the solvers
    # The centralized kinds' gains, checked and sorted once; a zero target
    # never allocates, so it leaves them unchecked.
    ranks = None if closed_form or target_snr == 0.0 else [_rank_gains(g) for g in gains_at]
    never = scenario.max_rounds + 1
    realloc = 1  # the next round that reallocates with new inputs
    due = None  # each node's estimated last payable round (module docstring)
    row_list = None  # the buffer's rows, listed at the first stretch of more than one round
    # The closed-form kinds' unscaled weights: cb_epa's ones, set here, or
    # cb_pa's, in level units where quantized; each link's sum of levels, and
    # that sum at the last allocation, kept until a node dies or a link goes
    # down: a boundary that finds them again opens a stretch (module docstring)
    levels = strategy.levels
    unit = float(levels) if reads_residuals and levels else 1.0
    divisor = scenario.energy.e_max / (levels or 1)
    units = np.ones(n)
    units_at = [units[idx] for idx in member_idx]
    sums = [None] * k
    level_sums = None

    t = 0
    while t < scenario.max_rounds:
        t += 1
        repeat = False
        if t == realloc:
            realloc = t + period if reads_residuals else never
            if reads_residuals:
                _cbpa_units(units, residual, divisor, levels)
                if levels:
                    sums = [float(np.add.reduce(u)) for u in units_at]
                    repeat = sums == level_sums  # every level repeated: the round opens a stretch
                    level_sums = sums
            if not repeat:
                due = None
                # Each link up writes all its members; a down link's members
                # were zeroed when it went down.
                for l in range(k):
                    if causes[l] is not None:
                        continue
                    if up_counts[l] == 0 or target_snr == 0.0:
                        assigned_at[l].fill(0.0)
                    elif closed_form:
                        _cbpa_weights(
                            assigned_at[l],
                            units_at[l],
                            sums[l],
                            alive_at[l],
                            up_counts[l],
                            unit,
                            target_snr,
                            noise_power,
                            ch_stats,
                            scenario.p_max,
                            first_round=(t == 1),
                        )
                    else:
                        _strategy_weights(
                            assigned_at[l],
                            strategy.kind,
                            alive_at[l],
                            up_counts[l],
                            gains_at[l],
                            ranks[l],
                            target_snr,
                            noise_power,
                            ch_stats,
                            scenario.p_max,
                            first_round=(t == 1),
                        )

        if repeat:
            t -= 1  # the stretch below starts at this round
        else:
            charge, unfunded, paid = gate_and_charge(residual, assigned, slot)
            consumed += paid
            if unfunded is None:
                due = None  # reallocated, or the estimate fell short
            else:
                alive[unfunded] = False
                level_sums = None
                up_counts = [int(np.count_nonzero(view)) for view in alive_at]
                realloc = t + 1 + (-t % period)  # the next period boundary
                if due is not None:
                    due[unfunded] = math.inf

            snr_row = [math.nan] * k
            rate_total = 0.0
            link_down = False
            for l in range(k):
                if causes[l] is not None:
                    continue
                product = np.multiply(assigned_at[l], coherent[l], out=products[l])
                snr = float(abs(np.add.reduce(product)) ** 2) / noise_power
                snr_db = 10.0 * math.log10(snr) if snr > 0 else -math.inf
                if t == 1:
                    nominal_db[l] = snr_db if snr > 0 else target_db
                snr_row[l] = snr_db
                rate_total += bit_rate(snr)
                dead_fraction = 1.0 - up_counts[l] / link_sizes[l]
                cause = evaluate_death(dead_fraction, snr_db, scenario.death, nominal_db[l])
                if cause is not None:
                    link_lifetimes[l] = t
                    causes[l] = cause
                    assigned_at[l].fill(0.0)
                    link_down = True
                    due = None
                    level_sums = None

            alive_rows.append(sum(up_counts) / n)
            snr_rows.append(snr_row)
            rate_rows.append(rate_total)
            counts.append(1)
            if j == len(rows):
                flush()
            rows[j] = residual
            j += 1
            if record_nodes:
                node_alive_rows.append(alive.copy())
            if None not in causes:
                break
            if link_down:
                continue

        # Rounds t + 1 to realloc - 1 are static until a node cannot pay
        # (module docstring): step them in bulk and repeat the last record.
        rounds = realloc - 1 - t
        if rounds < 1:
            continue
        rounds = min(rounds, scenario.max_rounds - t)
        if rounds > 1:
            # Only sizes the stretch; the stepped rows decide which rounds count.
            if due is None:
                with np.errstate(over="ignore"):  # a tiny charge gives inf, the right estimate
                    due = np.divide(residual, charge, out=np.full(n, np.inf), where=charge > 0)
                due += t
                row_list = row_list or list(rows)
            ratio = due.min() - t
            if ratio < rounds:
                rounds = int(ratio)
        m = 0
        while m < rounds:
            if j == len(rows):
                flush()
            room = min(rounds - m, len(rows) - j)
            # rows are listed only for stretches that may run more than one round
            stepped = _static_stretch(residual, charge, row_list[j : j + room] if row_list else [rows[j]])
            j += stepped
            m += stepped
            if stepped < room:
                break
        for _ in range(m):
            consumed += paid  # one addition per round: m * paid rounds differently
        counts[-1] += m
        t += m
    flush()
    counts = np.array(counts)

    for l in range(k):
        if causes[l] is None:
            link_lifetimes[l] = t
            causes[l] = "max_rounds"

    wasted_j = float(residual.sum())
    wasted_pct = 100.0 * wasted_j / (n * scenario.energy.mean)

    return LifetimeTrace(
        alive_fraction=np.array(alive_rows).repeat(counts),
        snr_db=np.array(snr_rows).repeat(counts, axis=0),
        rate_total=np.array(rate_rows).repeat(counts),
        residual_total=np.concatenate(row_sums),
        lifetime=t,
        link_lifetimes=link_lifetimes,
        causes=tuple(causes),
        wasted_j=wasted_j,
        wasted_pct=wasted_pct,
        consumed_j=consumed,
        initial_j=initial_total,
        node_residuals=np.concatenate(node_chunks) if record_nodes else None,
        node_alive=np.array(node_alive_rows).repeat(counts, axis=0) if record_nodes else None,
    )
