"""The benchmark tracer wraps beamlife functions by module and name.

``perfbench/tracer.py`` replaces each listed attribute in the module where
its caller looks it up; a name that is renamed or deleted there makes every
traced benchmark run fail. This checks that the names resolve, without
installing the tracer, and that an ensemble returns each run's trace
through the name the tracer counts run-rounds at.
"""

import importlib
import importlib.util
from pathlib import Path

import beamlife.ensemble
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


def test_one_run_lifetime_return_per_run(monkeypatch):
    # The tracer sums lifetime.run_rounds from each beamlife.ensemble.run_lifetime
    # return and checks it against the lifetimes in the outputs, so every run
    # must come back through that name as one trace with its own .lifetime.
    lifetimes = []
    engine = beamlife.ensemble.run_lifetime

    def counting(*args, **kwargs):
        trace = engine(*args, **kwargs)
        lifetimes.append(trace.lifetime)
        return trace

    monkeypatch.setattr(beamlife.ensemble, "run_lifetime", counting)
    result = beamlife.ensemble.run_ensemble(preset("pa-uniform"), runs=3)
    assert len(lifetimes) == 3
    assert sum(lifetimes) == result.surviving_runs.sum()
