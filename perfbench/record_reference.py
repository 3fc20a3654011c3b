"""Record the output fingerprints that ``run.py`` checks every command against.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload's command once per master seed of the pool and writes
``perfbench/reference.json``. Record at a commit whose outputs are trusted;
a later commit must reproduce them (see ``check.py`` for what is compared).
"""

import json
import sys
import tempfile
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(names):
    sys.path.insert(0, str(ROOT / "src"))
    import beamlife.cli

    path = HERE / "reference.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"workloads": {}}
    data["tolerance"] = {"rel": check.REL_TOL, "abs": check.ABS_TOL, "samples": check.SAMPLES}
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        table = data["workloads"].setdefault(name, {})
        for seed in range(workloads.SEED_POOL):
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                argv = workloads.command(name, seed, tmp)
                if beamlife.cli.main([*argv, "--out", str(Path(tmp) / "out")]) != 0:
                    raise SystemExit(f"{name} seed {seed}: command failed")
                table[str(workloads.master_seed(seed))] = check.fingerprint(Path(tmp) / "out")
            print(f"{name} seed {seed}: recorded", flush=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
