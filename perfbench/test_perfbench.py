"""The benchmark's own tests: seeded inputs, percentiles, self time, pins.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import specs
from perfbench.checks import Tally, canonical_digest, check_pin
from perfbench.layers import Span, self_times
from perfbench.measure import PROBE_REFERENCE_S, percentile, speed_factor, tail_percentile

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("make", [
    specs.compute_spec, specs.bulk_spec, lambda seed: specs.serve_job_spec(seed, 3),
])
def test_specs_are_deterministic_per_seed_and_move_with_it(make):
    assert json.dumps(make(7)) == json.dumps(make(7))
    assert make(7) != make(8)
    # The seed moves graph seeds only, never the workload's shape.
    assert specs.spec_runs(make(7)) == specs.spec_runs(make(8))


def test_workload_shapes():
    assert specs.spec_runs(specs.compute_spec(0)) >= 100
    assert specs.spec_runs(specs.bulk_spec(0)) > 1000
    assert specs.spec_runs(specs.serve_job_spec(0, 1)) == 24
    # Serve jobs draw fresh seeds, so no two jobs share a grid point.
    first, second = specs.serve_job_spec(0, 1), specs.serve_job_spec(0, 2)
    assert {s for sc in first["scenarios"] for s in sc["seeds"]}.isdisjoint(
        {s for sc in second["scenarios"] for s in sc["seeds"]})


def test_compute_classes_are_interleaved():
    names = [s["name"].split("-", 1)[1] for s in specs.compute_spec(0)["scenarios"]]
    sparse = [i for i, name in enumerate(names) if name.startswith("sparse-")]
    assert len(sparse) == 16 and len(names) == 100
    # No stretch of the campaign without a sparse run for long.
    assert max(b - a for a, b in zip(sparse, sparse[1:])) <= 13
    assert sparse[0] < 13 and sparse[-1] > 86


def test_speed_factor_restates_timings_at_the_reference_speed():
    assert speed_factor([PROBE_REFERENCE_S] * 3) == pytest.approx(1.0)
    assert speed_factor([PROBE_REFERENCE_S, 3 * PROBE_REFERENCE_S]) == pytest.approx(0.5)


@pytest.mark.parametrize("count, expected", [
    (1, None), (10, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond_it(count, expected):
    q = tail_percentile(count)
    assert q == expected
    if q is not None:
        values = list(range(count))
        assert sum(v > percentile(values, q) for v in values) >= 10


def test_percentile_nearest_rank():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([5.0], 99) == 5.0
    assert percentile(list(range(1, 101)), 90) == 90


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "run", "r", None, 0.0, 10.0),
        Span(1, "local", "r", 0, 1.0, 4.0),
        Span(2, "global", "r", 0, 3.0, 6.0),   # overlaps its sibling
        Span(3, "decode", "r", 2, 3.5, 5.0),
        Span(4, "late", "r", 0, 9.0, 12.0),    # overhangs its parent
        Span(5, "run", "s", None, 20.0, 21.0),
    ]
    got = self_times(spans)
    # Children cover [1, 6] and, clipped, [9, 10]: 4 s of self time, plus
    # the second run's 1 s.
    assert got["run"] == pytest.approx((5.0, 2))
    assert got["local"] == pytest.approx((3.0, 1))
    assert got["global"] == pytest.approx((1.5, 1))
    assert got["decode"] == pytest.approx((1.5, 1))
    assert got["late"] == pytest.approx((3.0, 1))


def test_canonical_digest_ignores_timing_cache_flag_and_order():
    a = {"spec": {"n": 1}, "result": {"status": "ok"}, "timing": {"wall_seconds": 1.0},
         "cached": False}
    b = {"spec": {"n": 2}, "result": {"status": "ok"}, "timing": {"wall_seconds": 2.0},
         "cached": True}
    moved = [dict(b, timing={"wall_seconds": 9.0}, cached=False), dict(a, cached=True)]
    assert canonical_digest([a, b]) == canonical_digest(moved)
    changed = [a, dict(b, result={"status": "error"})]
    assert canonical_digest([a, b]) != canonical_digest(changed)


def test_tampered_pin_is_a_failure_not_a_crash():
    tally = Tally()
    tally.op(True, "campaign")
    pins = {"bulk": {"4": "0" * 32}}
    assert check_pin(tally, pins, "bulk", 4, "f" * 32) == "pinned-MISMATCH"
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "pinned" in tally.reasons[0]
    # A malformed pin (not even a string) fails the same way.
    assert check_pin(tally, {"bulk": {"4": 17}}, "bulk", 4, "f" * 32) == "pinned-MISMATCH"
    assert tally.failed == 2
    assert check_pin(tally, pins, "bulk", 5, "f" * 32) == "unpinned"
    assert tally.failed == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
