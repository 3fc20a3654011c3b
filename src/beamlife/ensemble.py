"""Seeded ensembles of lifetime runs and cross-scenario comparisons.

Run i draws its generator from SeedSequence([master_seed, i]), so results
are reproducible for a fixed master seed no matter how many workers
execute the runs; the reduction is a fixed-order fold over run indices.
Round t of each curve averages the runs still alive in round t, and the
SNR is averaged in the linear domain.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
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
        q = np.quantile(self.lifetimes, [0.1, 0.25, 0.5, 0.75, 0.9])
        return {
            "runs": int(self.lifetimes.size),
            "lifetime_mean_rounds": float(self.lifetimes.mean()),
            "lifetime_std_rounds": float(self.lifetimes.std()),
            "lifetime_q10": float(q[0]),
            "lifetime_q25": float(q[1]),
            "lifetime_q50": float(q[2]),
            "lifetime_q75": float(q[3]),
            "lifetime_q90": float(q[4]),
            "wasted_j_mean": float(self.wasted_j.mean()),
            "wasted_pct_mean": float(self.wasted_pct.mean()),
        }


def _run_indexed(args):
    scenario, master_seed, index = args
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, index]))
    return run_lifetime(scenario, rng)


def _per_run_link_mean_snr(trace):
    """Per-round scalar SNR for one run: linear average over links still up."""
    with np.errstate(invalid="ignore"):
        return linear_to_db(np.nanmean(10.0 ** (trace.snr_db / 10.0), axis=1))


def run_ensemble(scenario, runs=None, master_seed=None, workers=1):
    """Run an ensemble of independent seeded lifetimes and align the traces.

    Round t of each curve averages the runs whose cluster was still alive
    in round t; the surviving-run count is reported alongside.
    """
    runs = scenario.runs if runs is None else int(runs)
    master_seed = scenario.master_seed if master_seed is None else int(master_seed)
    if runs < 1:
        raise ValueError(f"need at least 1 run, got {runs}")

    jobs = [(scenario, master_seed, i) for i in range(runs)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_run_indexed, jobs, chunksize=max(1, runs // (4 * workers))))
    else:
        traces = [_run_indexed(job) for job in jobs]

    lifetimes = np.array([t.lifetime for t in traces])
    max_rounds = int(lifetimes.max())
    alive = np.full((runs, max_rounds), np.nan)
    snr = np.full((runs, max_rounds), np.nan)
    rate = np.full((runs, max_rounds), np.nan)
    residual = np.full((runs, max_rounds), np.nan)
    for i, trace in enumerate(traces):
        rounds_i = trace.lifetime
        alive[i, :rounds_i] = trace.alive_fraction
        snr[i, :rounds_i] = _per_run_link_mean_snr(trace)
        rate[i, :rounds_i] = trace.rate_total
        residual[i, :rounds_i] = trace.residual_total

    surviving = np.sum(lifetimes[:, None] >= np.arange(1, max_rounds + 1)[None, :], axis=0)
    with np.errstate(invalid="ignore"):
        mean_alive = np.nanmean(alive, axis=0)
        mean_rate = np.nanmean(rate, axis=0)
        mean_residual = np.nanmean(residual, axis=0)
        mean_snr = linear_to_db(np.nanmean(10.0 ** (snr / 10.0), axis=0))

    return EnsembleResult(
        rounds=max_rounds,
        alive_fraction=mean_alive,
        snr_db=mean_snr,
        rate_total=mean_rate,
        residual_total=mean_residual,
        surviving_runs=surviving,
        lifetimes=lifetimes,
        wasted_j=np.array([t.wasted_j for t in traces]),
        wasted_pct=np.array([t.wasted_pct for t in traces]),
        causes=tuple(t.causes for t in traces),
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


def compare_strategies(scenarios, runs=None, master_seed=None, workers=1, labels=None):
    """Run paired-seed ensembles over several scenarios of equal cluster size.

    All scenarios share the master seed and per-run seeds, so run i sees
    the same channel, phase-error and energy draws everywhere and the
    comparison isolates the strategy and target differences. Scenarios of
    different cluster sizes raise ConfigError (a ValueError) naming both
    labels.
    """
    scenarios = list(scenarios)
    if len(scenarios) < 2:
        raise ValueError("need at least 2 scenarios to compare")
    if labels is None:
        labels = tuple(f"scenario_{i}" for i in range(len(scenarios)))
    n = scenarios[0].n
    for label, s in zip(labels[1:], scenarios[1:]):
        if s.n != n:
            raise ConfigError(
                f"n: paired comparison needs one cluster size, got {n} for {labels[0]!r} "
                f"and {s.n} for {label!r}"
            )
    if master_seed is None:
        master_seed = scenarios[0].master_seed
    ensembles = tuple(
        run_ensemble(s, runs=runs, master_seed=master_seed, workers=workers) for s in scenarios
    )
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
