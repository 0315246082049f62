"""The checked-in bench baseline and the registered suite agree.

``repro bench --gate benchmarks/baselines/bench.json`` runs the whole
registered suite, so a case added without a pin, or a pin left behind by
a deleted case, would only surface when the gate runs.  These checks
read the baseline and the registry catalog; they run no benchmark.
"""

import json
import pathlib

from repro import registry

BENCH_BASELINE = (pathlib.Path(__file__).resolve().parents[2]
                  / "benchmarks" / "baselines" / "bench.json")
REFERENCE_SUFFIXES = ("-naive", "-scan")


def _baseline() -> dict:
    return json.loads(BENCH_BASELINE.read_text())


def test_pinned_cases_are_exactly_the_registered_suite():
    pinned = set(_baseline()["pinned"])
    registered = set(registry.catalog()["benchmark"])
    assert pinned == registered, {
        "registered but not pinned": sorted(registered - pinned),
        "pinned but not registered": sorted(pinned - registered),
    }


def test_every_speedup_floor_names_a_pinned_pair():
    baseline = _baseline()
    pinned = set(baseline["pinned"])
    for name in baseline["min_speedup"]:
        assert name in pinned, name
        assert any(name + suffix in pinned for suffix in REFERENCE_SUFFIXES), name
