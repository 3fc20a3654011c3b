"""Run one beamlife CLI command in this fresh interpreter and record its cost.

Usage: python3 perfbench/cmd.py SPEC_JSON RESULT_JSON

SPEC_JSON holds ``src`` (the directory holding the beamlife package), ``argv``
(passed to ``beamlife.cli.main``) and ``spans`` (a path to save a trace to,
or null for an untraced command). RESULT_JSON receives the exit code,
``setup_s`` (from the top of this script, through importing beamlife and
resolving the scenario, to the first call into the ensemble layer),
``wall_s`` (the call to ``cli.main``), ``probe_before_s`` and ``probe_s`` (the
time of a fixed kernel run just before that call, and its mean with a second
run just after), the peak RSS of this process and of its largest worker
child, and, when traced, the tracer's counts. The probe runs outside both
timed intervals, and the whole command is pinned to one CPU.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

PROBE_ITERATIONS = 24000


def probe(np):
    """Time a fixed kernel shaped like the engine's round loop: small numpy
    operations driven from Python. Run next to the command, it measures how
    fast this CPU is at that moment."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 100)
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        y = x * 1.0001 + i
        total += float(y.sum()) + float(np.abs(y).max()) + sum(range(50))
    return time.perf_counter() - t0


def main(spec_path, result_path):
    # One CPU for the command and its probes: the two vCPUs of a shared
    # machine change speed independently, so a probe on the other one would
    # calibrate nothing.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import beamlife.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"beamlife was imported from {cli.__file__}, not from {src}")

    tracer = None
    entry = cli.main
    if spec["spans"] is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(ROOT, cli.main)

    marks = {}
    for attr in ("run_ensemble", "compare_strategies"):
        inner = getattr(cli, attr)

        def first_run(*args, _inner=inner, **kwargs):
            marks.setdefault("setup_end", time.perf_counter())
            return _inner(*args, **kwargs)

        setattr(cli, attr, first_run)

    imported = time.perf_counter()
    probe_before = probe(numpy)
    t0 = time.perf_counter()
    code = entry(spec["argv"])
    wall = time.perf_counter() - t0
    probe_after = probe(numpy)

    result = {
        "code": code,
        "wall_s": wall,
        "setup_s": imported - START + marks["setup_end"] - t0 if "setup_end" in marks else None,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "numpy": numpy.__version__,
        "probe_before_s": probe_before,
        "probe_s": (probe_before + probe_after) / 2,
    }
    if tracer is not None:
        tracer.save(spec["spans"])
        result.update(counts=tracer.counts, run_rounds=tracer.run_rounds, rounds_out=tracer.rounds_out)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
