"""Seeded ensembles of lifetime runs and cross-scenario comparisons.

The run count and the master seed are scenario settings
(``ScenarioConfig.runs`` and ``.master_seed``), validated with the rest of
the scenario. Run i draws its generator from
SeedSequence([master_seed, i]), so results are reproducible for a fixed
master seed no matter how many workers execute the runs.
Round t of each curve averages the runs still alive in round t, and the
SNR is averaged in the linear domain. Each run's curves are added into
round-indexed sums in run order as the run finishes, which is the sum
``np.nanmean(axis=0)`` takes over the NaN-padded ``(runs, rounds)``
matrix (a finished run's pad adds +0.0), divided by the same count, so
the means have nanmean's bits whenever the longest run lasts more than
one round. With a single round nanmean sums the one column pairwise,
which can differ in the last bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import ConfigError, _check, _echo
from .geometry import linear_to_db
from .lifetime import run_lifetime

__all__ = ["EnsembleResult", "ComparisonResult", "run_ensemble", "compare_strategies"]


@dataclass(frozen=True)
class EnsembleResult:
    """Round-aligned ensemble averages plus per-run terminal statistics."""

    rounds: int
    alive_fraction: np.ndarray   # (rounds,)
    snr_db: np.ndarray           # (rounds,) link-average
    rate_total: np.ndarray       # (rounds,)
    residual_total: np.ndarray   # (rounds,)
    surviving_runs: np.ndarray   # (rounds,) runs still alive at each round
    lifetimes: np.ndarray        # (runs,)
    wasted_j: np.ndarray         # (runs,)
    wasted_pct: np.ndarray       # (runs,)
    causes: tuple                # per run, per link

    def summary(self):
        """Lifetime mean, spread and quantiles (``np.quantile``'s bits), and mean waste, as floats."""
        lifetimes = sorted(self.lifetimes.tolist())
        q = [_quantile(lifetimes, p) for p in (0.1, 0.25, 0.5, 0.75, 0.9)]
        return {
            "runs": int(self.lifetimes.size),
            "lifetime_mean_rounds": float(self.lifetimes.mean()),
            "lifetime_std_rounds": float(self.lifetimes.std()),
            "lifetime_q10": q[0],
            "lifetime_q25": q[1],
            "lifetime_q50": q[2],
            "lifetime_q75": q[3],
            "lifetime_q90": q[4],
            "wasted_j_mean": float(self.wasted_j.mean()),
            "wasted_pct_mean": float(self.wasted_pct.mean()),
        }


def _quantile(values, p):
    """``np.quantile(values, p)`` of a sorted list, as numpy's "linear" method computes it.

    ``np.quantile`` calls ``np.unique``, which imports ``numpy.ma``: about
    19 ms and 1.2 MB of peak RSS in every ``run`` and ``compare`` (2-core Xeon).
    """
    v = (len(values) - 1) * p
    i = int(v)  # floor, as v >= 0
    if i >= len(values) - 1:
        return float(values[-1])
    g = v - i
    a, b = values[i], values[i + 1]
    # numpy's _lerp, which interpolates from the nearer end
    if g < 0.5:
        return a + (b - a) * g
    return b - (b - a) * (1 - g)


def _run_indexed(scenario, index):
    rng = np.random.default_rng(np.random.SeedSequence([scenario.master_seed, index]))
    return run_lifetime(scenario, rng)


def _per_run_link_mean_snr(trace):
    """Per-round linear SNR for one run, averaged over the links still up."""
    return np.nanmean(10.0 ** (trace.snr_db / 10.0), axis=1)


def run_ensemble(scenario, workers=1):
    """Run the scenario's ``runs`` seeded lifetimes and align the traces.

    Run i draws from SeedSequence([scenario.master_seed, i]); change the
    run count or the seed with ``dataclasses.replace``. Round t of each
    curve averages the runs whose cluster was still alive in round t; the
    surviving-run count is reported alongside. ``workers``, an integer of
    at least 1, runs the seeds in that many processes with the same result.
    """
    integral = isinstance(workers, numbers.Integral) and not isinstance(workers, bool)
    _check(integral and workers >= 1, "workers", f"must be an integer of at least 1, got {_echo(workers)}")
    runs = scenario.runs
    run = partial(_run_indexed, scenario)
    # Workers beyond the run count would sit idle, and a fork-based pool
    # starts every one of them at the first submit.
    workers = min(workers, runs)
    if workers > 1:
        # imported here: the pool's modules add to every command's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _fold(pool.map(run, range(runs), chunksize=max(1, runs // (4 * workers))))
    return _fold(map(run, range(runs)))


def _fold(traces):
    """Fold the runs' traces into an ``EnsembleResult`` in run order, as they come."""
    # surviving-run count, alive fraction, linear SNR, rate and residual sums,
    # grown to the longest lifetime so far
    sums = [np.zeros(0, dtype=int)] + [np.zeros(0) for _ in range(4)]
    terminal = []
    for trace in traces:
        rounds_i = trace.lifetime
        if rounds_i > sums[0].size:
            sums = [np.concatenate((a, np.zeros(rounds_i - a.size, a.dtype))) for a in sums]
        snr = _per_run_link_mean_snr(trace)
        for total, curve in zip(sums, (1, trace.alive_fraction, snr, trace.rate_total, trace.residual_total)):
            total[:rounds_i] += curve
        terminal.append((rounds_i, trace.wasted_j, trace.wasted_pct, trace.causes))
        del trace, snr, curve  # no run's curves are held while the next one computes

    surviving, alive, snr, rate, residual = sums
    lifetimes, wasted_j, wasted_pct, causes = zip(*terminal)
    return EnsembleResult(
        rounds=surviving.size,
        alive_fraction=alive / surviving,
        snr_db=linear_to_db(snr / surviving),
        rate_total=rate / surviving,
        residual_total=residual / surviving,
        surviving_runs=surviving,
        lifetimes=np.array(lifetimes),
        wasted_j=np.array(wasted_j),
        wasted_pct=np.array(wasted_pct),
        causes=causes,
    )


@dataclass(frozen=True)
class ComparisonResult:
    """Paired-seed ensembles for several scenarios plus headline deltas."""

    labels: tuple
    ensembles: tuple
    lifetime_means: np.ndarray
    lifetime_ratios: np.ndarray    # versus the first scenario
    wasted_pct_means: np.ndarray
    wasted_pct_deltas: np.ndarray  # versus the first scenario


def compare_strategies(scenarios, workers=1, labels=None):
    """Run paired-seed ensembles over scenarios of one size, run count and seed.

    All scenarios share ``n``, ``runs`` and ``master_seed``, so run i sees
    the same channel, phase-error and energy draws everywhere and the
    comparison isolates the strategy and target differences. Scenarios
    that differ in one of them raise ConfigError (a ValueError) naming the
    key and both labels.
    """
    scenarios = list(scenarios)
    if len(scenarios) < 2:
        raise ValueError("need at least 2 scenarios to compare")
    if labels is None:
        labels = tuple(f"scenario_{i}" for i in range(len(scenarios)))
    if len(labels) != len(scenarios):
        raise ValueError(f"got {len(labels)} labels for {len(scenarios)} scenarios")
    for label, s in zip(labels[1:], scenarios[1:]):
        for key in ("n", "runs", "master_seed"):
            a, b = getattr(scenarios[0], key), getattr(s, key)
            if a != b:
                raise ConfigError(
                    f"{key}: paired scenarios must share it, got {a} for {labels[0]!r} and {b} for {label!r}"
                )
    ensembles = tuple(run_ensemble(s, workers=workers) for s in scenarios)
    means = np.array([e.lifetimes.mean() for e in ensembles])
    wasted = np.array([e.wasted_pct.mean() for e in ensembles])
    return ComparisonResult(
        labels=tuple(labels),
        ensembles=ensembles,
        lifetime_means=means,
        lifetime_ratios=means / means[0],
        wasted_pct_means=wasted,
        wasted_pct_deltas=wasted - wasted[0],
    )
