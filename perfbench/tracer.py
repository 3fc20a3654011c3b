"""Span tracer for beamlife, installed from outside the package.

``lifetime.py``, ``ensemble.py`` and ``cli.py`` bind names with
``from .x import y``, so patching ``beamlife.allocation.compute_wmax`` would
record nothing: each function is wrapped in the namespace where its caller
looks it up (``beamlife.lifetime.compute_wmax``, ``beamlife.cli.run_ensemble``).

Spans (name, start, end, parent) are kept in memory and saved once the command
has returned. A span's self time is its duration minus the durations of its
child spans; spans of one process nest without overlap, so that is the time
its children do not cover. With ``--workers`` above 1 the runs execute in
worker processes whose spans are not captured: only the parent's spans
(``cli``, ``config``, ``ensemble``) are measured there.
"""

import importlib
import time

import numpy as np

# (span name, layer, module whose global is replaced, attribute)
SPANS = [
    ("config.load_config", "config", "beamlife.cli", "load_config"),
    ("config.preset", "config", "beamlife.cli", "preset"),
    ("ensemble.run_ensemble", "ensemble", "beamlife.cli", "run_ensemble"),
    ("ensemble.compare_strategies", "ensemble", "beamlife.cli", "compare_strategies"),
    ("ensemble.run_ensemble", "ensemble", "beamlife.ensemble", "run_ensemble"),
    ("lifetime.run_lifetime", "lifetime", "beamlife.ensemble", "run_lifetime"),
    ("allocation.cbpa_normalized_weights", "allocation", "beamlife.lifetime", "cbpa_normalized_weights"),
    ("allocation.quantize_weights", "allocation", "beamlife.lifetime", "quantize_weights"),
    ("allocation.compute_wmax", "allocation", "beamlife.lifetime", "compute_wmax"),
    ("allocation.cbepa_weight", "allocation", "beamlife.lifetime", "cbepa_weight"),
    ("allocation.solve_min_power", "allocation", "beamlife.lifetime", "solve_min_power"),
    ("allocation.solve_max_gain", "allocation", "beamlife.lifetime", "solve_max_gain"),
    ("energy.gate_and_charge", "energy", "beamlife.lifetime", "gate_and_charge"),
    ("energy.sample_initial_energies", "energy", "beamlife.lifetime", "sample_initial_energies"),
    ("geometry.deploy_cluster", "geometry", "beamlife.lifetime", "deploy_cluster"),
    ("geometry.sample_channel", "geometry", "beamlife.lifetime", "sample_channel"),
    ("geometry.sample_phase_errors", "geometry", "beamlife.lifetime", "sample_phase_errors"),
    ("geometry.carrier_phase", "geometry", "beamlife.lifetime", "carrier_phase"),
    ("geometry.propagation_phase", "geometry", "beamlife.lifetime", "propagation_phase"),
]

# Death bookkeeping and the rate formula are counted but get no span, so
# their time stays in lifetime.self_s with the rest of the round loop.
COUNTED = [
    ("lifetime.evaluate_death", "beamlife.lifetime", "evaluate_death"),
    ("lifetime.bit_rate", "beamlife.lifetime", "bit_rate"),
]

ROOT = "cli.main"
SOLVERS = ("allocation.solve_min_power", "allocation.solve_max_gain")
GEOMETRY_SETUP = ("geometry.deploy_cluster", "geometry.sample_channel", "geometry.sample_phase_errors")
GEOMETRY_PHASE = ("geometry.carrier_phase", "geometry.propagation_phase")


class Tracer:
    """Records spans and call counts of the wrapped beamlife functions."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.counts = {name: 0 for name, _, _ in COUNTED}
        self.run_rounds = 0  # sum of LifetimeTrace.lifetime over traced runs
        self.rounds_out = 0  # sum of EnsembleResult.rounds over ensembles
        self._stack = []

    def install(self):
        """Replace each traced global in the beamlife modules that look it up."""
        observers = {"lifetime.run_lifetime": self._observe_run, "ensemble.run_ensemble": self._observe_ensemble}
        for name, _, module, attr in SPANS:
            target = importlib.import_module(module)
            setattr(target, attr, self.wrap(name, getattr(target, attr), observers.get(name)))
        for name, module, attr in COUNTED:
            target = importlib.import_module(module)
            setattr(target, attr, self._count(name, getattr(target, attr)))

    def _observe_run(self, trace):
        self.run_rounds += trace.lifetime

    def _observe_ensemble(self, result):
        self.rounds_out += result.rounds

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped in a span named ``name``."""
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name_index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def save(self, path):
        table = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez(
            path,
            names=np.array(self.names),
            name=table[:, 0].astype(np.int64),
            start=table[:, 1],
            end=table[:, 2],
            parent=table[:, 3].astype(np.int64),
        )


def self_times(spans_path):
    """Return {span name: (calls, total seconds, self seconds)} from a saved trace."""
    data = np.load(spans_path)
    names, name, parent = data["names"], data["name"], data["parent"]
    duration = data["end"] - data["start"]
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    own = duration - children
    out = {}
    for i, label in enumerate(names):
        mask = name == i
        out[str(label)] = (int(mask.sum()), float(duration[mask].sum()), float(own[mask].sum()))
    return out


def layer_metrics(spans_path, counts, run_rounds, rounds_out, bytes_written):
    """Per-layer metrics of one traced command; names as in BENCHMARK.json."""
    by_name = self_times(spans_path)

    def calls(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[2] for n in names)

    def per_call_us(seconds, n):
        return 1e6 * seconds / n if n else 0.0

    wall = by_name[ROOT][1]
    alloc = [n for n, layer, _, _ in SPANS if layer == "allocation"]
    alloc_s, solver_s = self_s(*alloc), self_s(*SOLVERS)
    lifetime_s = self_s("lifetime.run_lifetime")
    gate_s, sample_s = self_s("energy.gate_and_charge"), self_s("energy.sample_initial_energies")
    geometry_s = self_s(*GEOMETRY_SETUP, *GEOMETRY_PHASE)
    ensemble_s = self_s("ensemble.run_ensemble", "ensemble.compare_strategies")
    gate_calls = calls("energy.gate_and_charge")
    return {
        "allocation.calls": calls(*alloc),
        "allocation.self_s": alloc_s,
        "allocation.us_per_call": per_call_us(alloc_s, calls(*alloc)),
        "allocation.solver_calls": calls(*SOLVERS),
        "allocation.solver_us_per_call": per_call_us(solver_s, calls(*SOLVERS)),
        "allocation.share": alloc_s / wall,
        "lifetime.run_rounds": run_rounds,
        "lifetime.runs": calls("lifetime.run_lifetime"),
        "lifetime.self_s": lifetime_s,
        "lifetime.us_per_round": per_call_us(by_name.get("lifetime.run_lifetime", (0, 0.0, 0.0))[1], run_rounds),
        "lifetime.evaluate_death_calls": counts["lifetime.evaluate_death"],
        "lifetime.bit_rate_calls": counts["lifetime.bit_rate"],
        "lifetime.share": lifetime_s / wall,
        "energy.gate_calls": gate_calls,
        "energy.gate_self_s": gate_s,
        "energy.gate_us_per_call": per_call_us(gate_s, gate_calls),
        "energy.sample_self_s": sample_s,
        "energy.share": (gate_s + sample_s) / wall,
        "geometry.setup_calls": calls(*GEOMETRY_SETUP),
        "geometry.phase_calls": calls(*GEOMETRY_PHASE),
        "geometry.self_s": geometry_s,
        "geometry.share": geometry_s / wall,
        "ensemble.self_s": ensemble_s,
        "ensemble.rounds_out": rounds_out,
        "ensemble.share": ensemble_s / wall,
        "cli.self_s": self_s(ROOT),
        "cli.bytes_written": bytes_written,
        "config.self_s": self_s("config.load_config", "config.preset"),
    }


# Counts that must repeat exactly across traced commands with the same inputs.
EXACT_COUNTS = (
    "lifetime.run_rounds",
    "lifetime.runs",
    "allocation.calls",
    "allocation.solver_calls",
    "energy.gate_calls",
    "geometry.setup_calls",
    "geometry.phase_calls",
    "lifetime.evaluate_death_calls",
    "lifetime.bit_rate_calls",
    "ensemble.rounds_out",
    "cli.bytes_written",
)
