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
  stay funded at zero cost. ``gate_and_charge``, or a walked round (below),
  zeroes in place the weights of the nodes that cannot pay, and the loop
  marks them dead;
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

The loop walks static stretches. After a round t in which no link went
down, the next round's assigned weights equal this round's funded weights
bit for bit, unless it reallocates with new inputs: each node pays the
charge that the last ``gate_and_charge`` returned, round after round,
until it cannot. For every node, ``_walk`` gives how many of rounds t + 1
to ``realloc - 1`` (at a boundary whose levels repeated, t is the round
before it), and at most to ``max_rounds``, it can pay, and its residual
after them. The rounds before the first node runs out are stepped: their
payment, SNR, rate and death test repeat round t's exactly. In the round
in which some nodes run out, those nodes die: their weights and charges
are zeroed as ``gate_and_charge`` would zero them, the round pays
``np.add.reduce`` of the charges left, the gate's bits, and it runs the
SNR, rate and death block of a normal round. The survivors' charges have
not changed, so their counts still hold, and the stretch runs on through
the deaths to the next reallocation boundary, which a death may bring
forward, or to ``max_rounds``. A link that goes down ends it, and the next
round runs the normal path, as does a round that some node cannot pay
right after a normal one (``_walk`` at a horizon of 0 makes every round
normal). At period 1 a death reallocates in the next round, so the stretch
ends at its first death: its walk's horizon is ``int(min(residual /
charge)) + 1`` rounds, the estimated first death, and a walk that ends
short of any death is followed by another from where it ended.

Residuals are materialized only where the run reads them: at a ``cb_pa``
allocation, where a link goes down, at a stretch's end and for
``wasted_j``. In a stretch, a walk from its start (or its walk's final
residuals, at its horizon) gives them, stopping each node where it died.

``_walk`` has the bits of the gate's test ``residual >= cost``, followed
by ``residual -= cost``, round by round (Goldberg, "What every computer
scientist should know about floating-point arithmetic", ACM Computing
Surveys 23(1), 1991, gives the rounding model). A residual never rises,
``fl(r - c) <= r`` for ``c >= 0``, so a node's paid rounds are a prefix,
and ``fl(r - c) < 0`` exactly when ``r < c``. A walk of at most ``_SHORT``
rounds steps its rows: after ``horizon - 1`` of them a node that is not
negative paid them all, so only the last round's test is left. A longer
walk, or one in which some node stops before the last round, crosses one
binade per pass. In a binade [2**e, 2**(e+1)) a float is a multiple of u =
2**(e-52), so ``fl(r - c)`` is ``r - d`` with d the cost rounded to a
multiple of u, as long as the exact difference stays in the binade. On a
tie (c / u ends in exactly one half) the rounding goes to the even
multiple; a residual that a step brought into the binade is even, so every
later step takes the same d. A pass therefore takes two explicit steps, x1
and x2, and reads ``d = x1 - x2``. The bottom of x2's binade is x2's
exponent bits, read from the int64 view; below the normal range it is
+0.0, so the subnormals form one binade whose u is the smallest subnormal.
The pass then jumps to ``x2 - j * d`` for the most rounds j that stay
above the bottom: ``j = floor((x2 - bottom) / d)``, less one where j * d
reaches the gap (j * d is exact there). The node pays all of them,
as a cost above the bottom leaves no such round. A node whose steps do not
move it, at a zero charge or one below half an ulp (``d == 0``), pays to
the horizon. A node that could not pay one of the two steps, or that
reached the horizon, leaves the walk, and the rest go on from just above
the bottom into the next binade: 15 or 16 passes on ``epa-long``'s
one-shot runs. Nodes are walked in blocks of ``_BLOCK``, which bounds the
walk's temporaries.

The trace's ``residual_total`` is the realized initial energy less the
energy paid so far: ``initial_j - np.add.accumulate(paid)`` over the
rounds' payments, each record's payment repeated for its stepped rounds.
That accumulation has the bits of a per-round ``consumed += paid``, so a
stepped round and a normal round give the same value, and ``consumed_j``
is its last element. It differs from the exact sum of the node residuals
only by rounding (README states the bound). A recorded run's node rows
are the initial residuals less its charge rows, one
``np.subtract.accumulate`` with the bits of ``residual -= charge``.

A normal round records its alive fraction, SNR row and rate (and, when
nodes are recorded, its charge and alive mask) once. The m stepped rounds
after it repeat that record exactly, so they add m to the record's count
of rounds instead of copying it; the trace's per-round arrays are
expanded by one ``np.repeat`` per field when the run ends.
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
    residual_total: np.ndarray     # (rounds,) initial_j less the joules paid through each round
    lifetime: int                  # rounds until the last link died
    link_lifetimes: np.ndarray     # (links,)
    causes: tuple                  # per-link death cause
    wasted_j: float
    wasted_pct: float
    consumed_j: float
    initial_j: float               # realized total initial energy
    node_residuals: np.ndarray = None  # (rounds, n) when recorded: the initial residuals less each round's charges
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


# A walk of at most ``_SHORT`` rounds steps its rows unless a node stops early:
# a binade pass costs about as many array operations as 30 rows.
_SHORT = 32
_BLOCK = 2**14  # nodes that jump together, which bounds a walk's temporaries
_EXPONENT = np.int64(0x7FF0000000000000)  # the exponent field of a float64's bits


def _walk(residual, cost, horizon):
    """Each node's payable rounds at its fixed ``cost``, up to ``horizon``, and its residual after them.

    Node i pays a round while its residual covers ``cost[i]``, each payment
    is ``residual -= cost``, and it stops at the first round it cannot pay:
    the test and the bits of ``gate_and_charge``, round by round. Returns
    ``(fewest, paid, final)``: the fewest rounds any node paid, each node's
    count (None when every node paid all ``horizon``) and its residual after
    them. ``residual`` is left as it is. A walk of at most ``_SHORT`` rounds
    in which no node stops before the last steps its rows; any other jumps
    across one binade per pass (module docstring).
    """
    n = residual.size
    if horizon == 0:
        return 0, None, residual
    if horizon <= _SHORT:
        # fl(x - c) < 0 exactly when x < c, and residuals never rise: a node whose
        # residual after horizon - 1 rounds is not negative paid all of them
        x = residual
        for _ in range(horizon - 1):
            x = x - cost
        if horizon == 1 or np.count_nonzero(x >= 0.0) == n:
            last = x >= cost
            if np.count_nonzero(last) == n:
                return horizon, None, x - cost
            return horizon - 1, last + (horizon - 1), np.where(last, x - cost, x)
        # some node stops before the last round
    paid = np.empty(n, dtype=np.int64)
    final = np.empty(n)
    with np.errstate(divide="ignore", invalid="ignore"):  # d == 0: the node pays to the horizon
        for lo in range(0, n, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            x, c, rounds, at = residual[block], cost[block], float(horizon), None
            paid_at, final_at = paid[block], final[block]
            while True:
                x1 = x - c
                x2 = x1 - c
                d = x1 - x2
                bottom = np.bitwise_and(x2.view(np.int64), _EXPONENT).view(np.float64)
                gap = np.subtract(x2, bottom, out=bottom)
                # the most further rounds j with x2 - j * d above the bottom of x2's binade
                j = np.floor(gap / d)
                j -= j * d >= gap
                del gap, bottom
                np.fmin(j, rounds - 2, out=j)
                np.fmax(j, 0.0, out=j)
                once = x >= c
                twice = x1 >= c
                twice &= rounds >= 2
                j *= twice
                np.copyto(x1, x, where=~once)  # x1 becomes the node's residual after this pass
                d *= j
                np.subtract(x2, d, out=x1, where=twice)
                del x2, d
                j += once
                j += twice
                rounds = rounds - j
                on = twice & (rounds > 0)  # at the bottom of a binade with rounds to go
                going = np.count_nonzero(on)
                if going == on.size:
                    x = x1
                    continue
                off = ~on
                done = off if at is None else at[off]
                paid_at[done] = horizon - rounds[off]
                final_at[done] = x1[off]
                if not going:
                    break
                at = on.nonzero()[0] if at is None else at[on]
                x, c, rounds = x1[on], c[on], rounds[on]
    return int(paid.min()), paid, final


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
    first_row = residual[None].copy() if record_nodes else None  # gate_and_charge pays from residual in place
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

    alive_at = [alive[idx] for idx in member_idx]
    gains_at = [channels[l][idx] for l, idx in enumerate(member_idx)]
    assigned_at = [assigned[idx] for idx in member_idx]
    products = [np.empty(size, dtype=complex) for size in link_sizes]

    # one record per normal round, and how many rounds it stands for: its own
    # and the stepped ones after it (module docstring)
    alive_rows, snr_rows, rate_rows, paids, counts = [], [], [], [], []
    charge_rows, node_alive_rows = ([], []) if record_nodes else (None, None)
    period = strategy.period
    reads_residuals = strategy.kind == "cb_pa"
    closed_form = strategy.kind in ("cb_pa", "cb_epa")  # the rest run the solvers
    # The centralized kinds' gains, checked and sorted once; a zero target
    # never allocates, so it leaves them unchecked.
    ranks = None if closed_form or target_snr == 0.0 else [_rank_gains(g) for g in gains_at]
    never = scenario.max_rounds + 1
    realloc = 1  # the next round that reallocates with new inputs
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

    # The stretch under way (module docstring): it started after round t0,
    # from the residuals ``start`` at the charge ``cost``, and its walk of
    # ``horizon`` rounds gave each node's payable rounds and final residual.
    # Between stretches t0 is None and ``residual`` holds the residuals.
    t0 = None

    def walked_to_t():
        """The residuals after round t of the stretch."""
        return final if t - t0 == horizon else _walk(start, cost, t - t0)[2]

    t = 0
    while t < scenario.max_rounds:
        t += 1
        repeat = False
        if t0 is not None:
            # a round of the stretch: the nodes whose payable rounds ran out cannot
            # pay it, and gate_and_charge would zero their weights and charges
            unfunded = (payable == t - 1 - t0).nonzero()[0]
            assigned[unfunded] = 0.0
            charge = charge.copy()
            charge[unfunded] = 0.0
            paid = float(np.add.reduce(charge))
            payable[unfunded] = horizon  # they pay nothing from now on
        elif t == realloc:
            realloc = t + period if reads_residuals else never
            if reads_residuals:
                _cbpa_units(units, residual, divisor, levels)
                if levels:
                    sums = [float(np.add.reduce(u)) for u in units_at]
                    repeat = sums == level_sums  # every level repeated: the round opens a stretch
                    level_sums = sums
            if not repeat:
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
            if t0 is None:
                charge, unfunded, paid = gate_and_charge(residual, assigned, slot)
            if unfunded is not None:
                alive[unfunded] = False
                level_sums = None
                up_counts = [int(np.count_nonzero(view)) for view in alive_at]
                realloc = t + 1 + (-t % period)  # the next period boundary

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
                    level_sums = None

            alive_rows.append(sum(up_counts) / n)
            snr_rows.append(snr_row)
            rate_rows.append(rate_total)
            paids.append(paid)
            counts.append(1)
            if record_nodes:
                charge_rows.append(charge)
                node_alive_rows.append(alive.copy())
            if link_down:
                if t0 is not None:
                    residual, t0 = walked_to_t(), None
                if None not in causes:
                    break
                continue

        # Rounds t + 1 to realloc - 1 repeat round t's charge (module docstring):
        # walk them, step to the first round in which some node cannot pay, and
        # repeat the last record for the stepped rounds.
        while t0 is not None or t < realloc - 1:
            end = realloc - 1 if realloc <= scenario.max_rounds else scenario.max_rounds
            if t0 is None:
                horizon = end - t
                if horizon < 1:
                    break
                if period == 1 and horizon > _SHORT:
                    # a death reallocates at the next round, so the stretch ends at the first
                    with np.errstate(all="ignore"):
                        first = np.fmin.reduce(residual / charge)
                    if first < horizon:
                        horizon = int(first) + 1
                m, payable, final = _walk(residual, charge, horizon)
                if m == 0:
                    break  # some node cannot pay round t + 1, which runs the normal path
                t0, start, cost = t, residual, charge
            else:
                m = int(payable.min())
            stop = t0 + m if t0 + m < end else end
            counts[-1] += stop - t
            t = stop
            if m < horizon and t < end:
                break  # round t + 1 is a round of the stretch in which nodes die
            residual, t0 = walked_to_t(), None
            if t == end:
                break
    counts = np.array(counts)
    # the energy paid through each round, summed round by round (module docstring)
    consumed = np.add.accumulate(np.array(paids).repeat(counts))

    for l in range(k):
        if causes[l] is None:
            link_lifetimes[l] = t
            causes[l] = "max_rounds"

    wasted_j = float(residual.sum())
    wasted_pct = 100.0 * wasted_j / (n * scenario.energy.mean)
    node_rows = None
    if record_nodes:  # the initial residuals less each round's charges (module docstring)
        node_rows = np.concatenate((first_row, np.array(charge_rows).repeat(counts, axis=0)))
        node_rows = np.subtract.accumulate(node_rows, out=node_rows)[1:]

    return LifetimeTrace(
        alive_fraction=np.array(alive_rows).repeat(counts),
        snr_db=np.array(snr_rows).repeat(counts, axis=0),
        rate_total=np.array(rate_rows).repeat(counts),
        residual_total=initial_total - consumed,
        lifetime=t,
        link_lifetimes=link_lifetimes,
        causes=tuple(causes),
        wasted_j=wasted_j,
        wasted_pct=wasted_pct,
        consumed_j=float(consumed[-1]),
        initial_j=initial_total,
        node_residuals=node_rows,
        node_alive=np.array(node_alive_rows).repeat(counts, axis=0) if record_nodes else None,
    )
