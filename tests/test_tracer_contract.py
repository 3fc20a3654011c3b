"""The benchmark tracer wraps beamlife functions by module and name.

``perfbench/tracer.py`` replaces each listed attribute in the module where
its caller looks it up; a name that is renamed or deleted there makes every
traced benchmark run fail. This checks that the names resolve, without
installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

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
