"""End-to-end and per-layer benchmark of the beamlife CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs the workload's command again and again for
``--seconds`` seconds, one command at a time, each in a fresh interpreter
(``cmd.py``) that calls ``beamlife.cli.main`` on the sources under ``src/``.
Every command's outputs are checked against ``reference.json`` and against
the other commands' bytes. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones; README.md defines them.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, each metric's sample count and quartiles, and ``failed_frac``.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MIN_COMMANDS = 3
MIN_TRACED_PAIRS = 2
DEADLINE_S = 170.0  # the whole run, set-up included, ends well inside 180 s
# End-to-end times are rescaled to a CPU on which cmd.probe takes this long,
# about its median on the 2-core machine the benchmark was tuned on.
PROBE_REF_S = 0.2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    if bad or len(set(names)) != len(names):
        fail(f"metric names must be unique and use only letters, digits, '_', '.' and '-': {bad}")
    return spec


def environment(numpy_version):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def spawn(args, work, deadline):
    """Run a child to completion or until ``deadline``; return (exit code, stderr)."""
    env = dict(os.environ, TMPDIR=str(work))
    proc = subprocess.Popen(
        args, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the command and its worker processes
        proc.communicate()
        return None, "timed out"
    return proc.returncode, err


def run_command(argv, work, index, traced, reference, deadline):
    """Run one CLI command in a fresh interpreter and check its outputs."""
    out, spans = work / f"out{index}", work / f"spans{index}.npz"
    spec_path, result_path = work / f"spec{index}.json", work / f"result{index}.json"
    spec = {"src": str(ROOT / "src"), "argv": [*argv, "--out", str(out)], "spans": str(spans) if traced else None}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, err = spawn([sys.executable, str(HERE / "cmd.py"), str(spec_path), str(result_path)], work, deadline)
    rep = {"traced": traced, "errors": []}
    try:
        if code != 0:
            rep["errors"].append(f"exit code {code}: {err.strip()[-400:]}")
            return rep
        rep.update(json.loads(result_path.read_text(encoding="utf-8")))
        try:
            fp = check.fingerprint(out)
        except (OSError, KeyError, ValueError) as exc:
            rep["errors"].append(f"unreadable outputs: {exc!r}")
            return rep
        rep["errors"] += check.mismatches(fp, reference)
        rep["run_rounds_out"] = check.run_rounds(fp)
        rep["rows_out"] = sum(e["rows"] for e in fp["ensembles"].values())
        files = sorted(p for p in out.rglob("*") if p.is_file())
        rep["hashes"] = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        rep["bytes"] = sum(p.stat().st_size for p in files)
        if traced:
            rep["layers"] = tracer.layer_metrics(
                spans, rep["counts"], rep["run_rounds"], rep["rounds_out"], rep["bytes"]
            )
        return rep
    finally:
        shutil.rmtree(out, ignore_errors=True)
        for path in (spans, spec_path, result_path):
            path.unlink(missing_ok=True)


def describe(values):
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g}, max {max(values):.6g}"


def end_to_end(reps):
    """Declared end-to-end samples, plus the uncalibrated figures for the log.

    Times are rescaled to a CPU on which the probe takes ``PROBE_REF_S``: the
    set-up time by the probe run right after set-up, the command's time by
    the mean of that probe and one run right after the command.
    """
    wall = [r["wall_s"] * PROBE_REF_S / r["probe_s"] for r in reps]
    raw = [r["wall_s"] for r in reps]
    declared = {
        "wall_s": wall,
        "run_rounds_per_s": [r["run_rounds_out"] / w for r, w in zip(reps, wall)],
        "setup_s": [r["setup_s"] * PROBE_REF_S / r["probe_before_s"] for r in reps],
        "peak_rss_mb": [(r["rss_self_kb"] + r["rss_children_kb"]) / 1024.0 for r in reps],
    }
    logged = {
        "wall_raw_s": (raw, "s"),
        "run_rounds_per_raw_s": ([r["run_rounds_out"] / w for r, w in zip(reps, raw)], "1/s"),
        "setup_raw_s": ([r["setup_s"] for r in reps], "s"),
        "probe_s": ([r["probe_s"] for r in reps], "s"),
    }
    return declared, logged


def per_layer(reps, self_errors):
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    if not traced or not plain:
        self_errors.append("a traced run needs both traced and untraced commands")
        return {}, {}
    for key in tracer.EXACT_COUNTS:
        if len({r["layers"][key] for r in traced}) != 1:
            self_errors.append(f"{key} does not repeat across traced commands")
    first = traced[0]
    if first["layers"]["ensemble.rounds_out"] != first["rows_out"]:
        self_errors.append("ensemble.rounds_out does not match the rows written")
    if first["layers"]["lifetime.run_rounds"] != first["run_rounds_out"]:
        self_errors.append("lifetime.run_rounds does not match the lifetimes in the outputs")
    samples = {key: [r["layers"][key] for r in traced] for key in first["layers"]}
    samples["trace.overhead_frac"] = [calibrated_median(traced) / calibrated_median(plain) - 1]
    # Logged, not declared: it reads exactly 0 on every run of a workload
    # without solver calls.
    return samples, {"allocation.solver_us_per_call": (samples.pop("allocation.solver_us_per_call"), "us")}


def calibrated_median(reps):
    return statistics.median(r["wall_s"] / r["probe_s"] for r in reps)


def measure(args, work, deadline):
    argv = workloads.command(args.workload, args.seed, work)
    master_seed = workloads.master_seed(args.seed)
    references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    reference = references["workloads"][args.workload][str(master_seed)]

    # Warm-up: compiles bytecode and fills the page cache before anything is timed.
    warm = work / "warm.json"
    warm.write_text(json.dumps({"src": str(ROOT / "src"), "argv": ["presets"], "spans": None}), encoding="utf-8")
    code, err = spawn([sys.executable, str(HERE / "cmd.py"), str(warm), str(work / "warm-result.json")], work, deadline)
    if code != 0:
        print(f"perfbench: warm-up failed ({code}): {err.strip()[-400:]}", file=sys.stderr)

    reps, longest = [], 0.0
    minimum = 2 * MIN_TRACED_PAIRS if args.trace else MIN_COMMANDS
    started = time.monotonic()
    while len(reps) < minimum or time.monotonic() - started < args.seconds:
        if time.monotonic() + 1.5 * longest > deadline:
            break
        t0 = time.monotonic()
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_command(argv, work, len(reps), traced, reference, deadline))
        longest = max(longest, time.monotonic() - t0)
    return master_seed, reps


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec = load_spec()
    if not (ROOT / "src" / "beamlife" / "cli.py").is_file():
        fail(f"no beamlife sources under {ROOT / 'src'}")
    if args.workload not in workloads.WORKLOADS or args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        master_seed, reps = measure(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for i, rep in enumerate(reps):
        for error in rep["errors"]:
            print(f"command {i}: {error}", file=sys.stderr)
    failed = sum(bool(r["errors"]) for r in reps)
    # Commands that ran to completion are measured even when their outputs
    # are wrong; the result then reads "correct": false.
    done = [r for r in reps if "hashes" in r]
    if not done:
        fail("no command ran to completion; nothing to report")

    self_errors = []
    if any(r["hashes"] != done[0]["hashes"] for r in done):
        self_errors.append("outputs differ between commands with the same inputs")
    if args.trace:
        samples, logged = per_layer(done, self_errors)
        declared = spec["per_layer"]
    else:
        samples, logged = end_to_end(done)
        declared = spec["end_to_end"]
    if set(samples) != {m["name"] for m in declared}:
        self_errors.append(f"metrics {sorted(samples)} differ from BENCHMARK.json")
    for error in self_errors:
        print(f"self-check: {error}", file=sys.stderr)

    print("env " + json.dumps(environment(done[0]["numpy"]), sort_keys=True))
    traced = sum(r["traced"] for r in reps)
    print(
        f"workload {args.workload}: seed {args.seed} -> master seed {master_seed} "
        f"(held-out seed: {workloads.HELD_OUT_SEED}); "
        f"{len(reps)} commands ({traced} traced); failed_frac {failed / len(reps):g} ({failed} of {len(reps)})"
    )
    metrics = {}
    for m in declared:
        values = samples.get(m["name"])
        if values:
            exact = all(isinstance(v, int) for v in values)
            median = statistics.median_low(values) if exact else statistics.median(values)
            metrics[m["name"]] = {"value": median, "unit": m["unit"]}
            print(f"{m['name']} {median:.6g} {m['unit']} (median; {describe(values)})")
    for name, (values, unit) in logged.items():
        print(f"{name} {statistics.median(values):.6g} {unit} (median, logged only; {describe(values)})")
    print(
        json.dumps(
            {
                "correct": not self_errors and failed == 0,
                "attempted": len(reps),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
