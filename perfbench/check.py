"""Output checks: compare a command's CSV and manifest files with a reference.

A fingerprint keeps, per ensemble directory, what the check compares:

- exactly: the run count and master seed in ``manifest.json``, the lifetime
  mean and quantiles in ``summary.csv`` (functions of integer lifetimes, so
  summation order cannot move them), the row count of ``rounds.csv``, and
  its integer ``surviving_runs`` column;
- within ``REL_TOL``/``ABS_TOL``: the lifetime standard deviation and the
  wasted-energy means, and, per float column of ``rounds.csv``, its sum and
  the values at ``SAMPLES`` evenly spaced rows. A change of reduction order
  moves these by a few units in the last place of a double, far inside the
  tolerance; a change of any simulated quantity moves them far outside it.

``comparison.csv`` of a ``compare`` command is checked the same way: lifetime
means and ratios exactly, wasted-energy figures within the tolerance.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-9
SAMPLES = 33

EXACT_SUMMARY = (
    "runs",
    "lifetime_mean_rounds",
    "lifetime_q10",
    "lifetime_q25",
    "lifetime_q50",
    "lifetime_q75",
    "lifetime_q90",
)
CLOSE_SUMMARY = ("lifetime_std_rounds", "wasted_j_mean", "wasted_pct_mean")
FLOAT_COLUMNS = ("alive_fraction", "snr_db", "rate_bits", "residual_total_j")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _ensemble(directory):
    [summary] = _read_csv(directory / "summary.csv")
    rows = _read_csv(directory / "rounds.csv")
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    surviving = [int(r["surviving_runs"]) for r in rows]
    picks = sorted({round(i * (len(rows) - 1) / (SAMPLES - 1)) for i in range(SAMPLES)}) if rows else []
    return {
        "manifest": {"runs": manifest["runs"], "master_seed": manifest["master_seed"]},
        "summary_exact": {k: summary[k] for k in EXACT_SUMMARY},
        "summary_close": {k: float(summary[k]) for k in CLOSE_SUMMARY},
        "rows": len(rows),
        "surviving_sha256": hashlib.sha256(",".join(map(str, surviving)).encode()).hexdigest(),
        "run_rounds": sum(surviving),
        "column_sums": {c: math.fsum(float(r[c]) for r in rows) for c in FLOAT_COLUMNS},
        "samples": [[float(rows[i][c]) for c in FLOAT_COLUMNS] for i in picks],
    }


def fingerprint(out_dir):
    """Fingerprint of one command's output directory (``run`` or ``compare``)."""
    out_dir = Path(out_dir)
    if (out_dir / "comparison.csv").is_file():
        rows = _read_csv(out_dir / "comparison.csv")
        return {
            "comparison_exact": [[r["scenario"], r["lifetime_mean_rounds"], r["lifetime_ratio"]] for r in rows],
            "comparison_close": [[float(r["wasted_pct_mean"]), float(r["wasted_pct_delta"])] for r in rows],
            "ensembles": {r["scenario"]: _ensemble(out_dir / r["scenario"]) for r in rows},
        }
    return {"ensembles": {".": _ensemble(out_dir)}}


def run_rounds(fp):
    """Simulated run-rounds behind the outputs: the sum of per-run lifetimes."""
    return sum(e["run_rounds"] for e in fp["ensembles"].values())


def _close(a, b):
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def mismatches(fp, ref):
    """Return a list of differences between a fingerprint and its reference."""
    found = []
    exact_keys = ("manifest", "summary_exact", "rows", "surviving_sha256", "run_rounds")
    close_keys = ("summary_close", "column_sums", "samples")
    if fp.get("comparison_exact") != ref.get("comparison_exact"):
        found.append("comparison.csv lifetimes differ")
    if "comparison_close" in ref and not _close(fp.get("comparison_close", []), ref["comparison_close"]):
        found.append("comparison.csv wasted energy outside tolerance")
    if fp["ensembles"].keys() != ref["ensembles"].keys():
        return found + [f"ensembles {sorted(fp['ensembles'])} != {sorted(ref['ensembles'])}"]
    for label, ens in fp["ensembles"].items():
        want = ref["ensembles"][label]
        found += [f"{label}: {k} differs" for k in exact_keys if ens[k] != want[k]]
        found += [f"{label}: {k} outside tolerance" for k in close_keys if not _close(ens[k], want[k])]
    return found
