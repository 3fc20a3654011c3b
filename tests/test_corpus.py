"""The byte-identity corpus generator on a slice small enough for tier-1.

``python tests/corpus.py --out DIR`` writes the corpus itself, and CI compares
two such runs with ``diff -r``; here the generator's first cases must cover
every value of every dimension and either run or fail with one of the two
errors that a valid-looking config may raise.
"""

from collections import defaultdict

import beamlife.lifetime

from corpus import CENTRALIZED, DIMENSIONS, cases, run_case

SLICE = 20


def test_generator_slice_covers_every_dimension(monkeypatch):
    scans = []
    scan = beamlife.lifetime._capped_matched_filter
    monkeypatch.setattr(beamlife.lifetime, "_capped_matched_filter", lambda *args: scans.append(1) or scan(*args))
    seen, outcomes = defaultdict(set), set()
    scanned = {cap: 0 for cap in DIMENSIONS["cap"]}  # centralized runs that reached the capped scan
    for dims, data in cases(SLICE):
        for name, value in dims.items():
            seen[name].add(value)
        before = len(scans)
        outcome, _ = run_case(data)  # any other error propagates
        outcomes.add(outcome.split(":")[0])
        if dims["kind"] in CENTRALIZED and outcome == "ran":
            scanned[dims["cap"]] += len(scans) > before
    assert dict(seen) == {name: set(values) for name, values in DIMENSIONS.items()}
    assert "ran" in outcomes and outcomes <= {"ran", "ConfigError", "InfeasibleAllocationError"}
    # a tight cap binds in some centralized run, a loose one in none
    assert scanned["tight"] and not scanned["loose"]
