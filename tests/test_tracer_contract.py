"""The benchmark tracer wraps beamlife functions by module and name.

``perfbench/tracer.py`` replaces each listed attribute in the module where
its caller looks it up; a name that is renamed or deleted there makes every
traced benchmark run fail. This checks that the names resolve, without
installing the tracer, and that an ensemble returns each run's trace
through the name the tracer counts run-rounds at.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import beamlife.ensemble
import beamlife.lifetime
from beamlife.config import preset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, attr) for _, _, module, attr in tracer.SPANS]
    targets += [(module, attr) for _, module, attr in tracer.COUNTED]
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"traced names missing: {missing}"


def counted_ensemble(name, runs, monkeypatch):
    """Run a preset's ensemble; return it with each traced run's lifetime."""
    lifetimes = []
    engine = beamlife.ensemble.run_lifetime

    def counting(*args, **kwargs):
        trace = engine(*args, **kwargs)
        lifetimes.append(trace.lifetime)
        return trace

    monkeypatch.setattr(beamlife.ensemble, "run_lifetime", counting)
    return beamlife.ensemble.run_ensemble(replace(preset(name), runs=runs)), lifetimes


def test_one_run_lifetime_return_per_run(monkeypatch):
    # The tracer sums lifetime.run_rounds from each beamlife.ensemble.run_lifetime
    # return and checks it against the lifetimes in the outputs, so every run
    # must come back through that name as one trace with its own .lifetime.
    result, lifetimes = counted_ensemble("pa-uniform", 3, monkeypatch)
    assert len(lifetimes) == 3
    assert sum(lifetimes) == result.surviving_runs.sum()


def test_one_run_lifetime_return_per_stepped_run(monkeypatch):
    # One-shot allocation lets the engine step most rounds in bulk; those runs
    # still return one trace each, and their rounds all count.
    gate_calls = []
    gate = beamlife.lifetime.gate_and_charge

    def counting_gate(*args):
        gate_calls.append(1)
        return gate(*args)

    monkeypatch.setattr(beamlife.lifetime, "gate_and_charge", counting_gate)
    result, lifetimes = counted_ensemble("epa-uniform", 3, monkeypatch)
    assert len(lifetimes) == 3
    assert sum(lifetimes) == result.surviving_runs.sum()
    assert len(gate_calls) < sum(lifetimes)
