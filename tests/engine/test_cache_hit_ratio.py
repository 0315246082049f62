"""Pins the definition of the ``cache_hit_ratio`` gauge.

The contract (referenced from the gauge site in
``repro/engine/campaign.py``): the ratio is **hits over landed runs** —
``runs_cached / (runs_cached + runs_started)`` — so it is always
derivable from the additive counters in the same snapshot.  Resumed
replays appear in neither term, exactly as the PR 6 progress reporter
excludes cached+resumed records from its rate.

Because the ratio is counter-derived, a fleet-level registry that merges
per-shard snapshots must *recompute* it rather than trust the merged
gauge (gauge merges are last-write-wins, which would report whichever
shard landed last).  ``Scheduler.metrics_snapshot`` is pinned to do so.
"""

import pytest

from repro.api import Session
from repro.obs.metrics import MetricsRegistry
from repro.serve.queue import Scheduler
from repro.serve.jobs import JobStore


def _session(tmp_path):
    return (Session("hit-ratio")
            .graphs("random_forest", n=12, seeds=(0, 1, 2))
            .protocol("forest")
            .persist(tmp_path / "results", use_cache=True))


class TestCampaignGauge:
    def test_cold_run_is_zero_and_counter_derived(self, tmp_path):
        result = _session(tmp_path).run().result
        snap = result.metrics
        assert snap["gauges"]["cache_hit_ratio"] == 0.0
        assert snap["counters"]["runs_started"] == 3
        assert "runs_cached" not in snap["counters"]

    def test_warm_run_is_one_and_counter_derived(self, tmp_path):
        _session(tmp_path).run()
        snap = _session(tmp_path).run().result.metrics
        hits = snap["counters"]["runs_cached"]
        started = snap["counters"].get("runs_started", 0)
        assert (hits, started) == (3, 0)
        assert snap["gauges"]["cache_hit_ratio"] == 1.0

    def test_mixed_run_matches_counter_formula(self, tmp_path):
        (Session("hit-ratio")
         .graphs("random_forest", n=12, seeds=(0,))
         .protocol("forest")
         .persist(tmp_path / "results", use_cache=True)
         .run())
        snap = _session(tmp_path).run().result.metrics  # 1 hit, 2 misses
        hits = snap["counters"]["runs_cached"]
        started = snap["counters"]["runs_started"]
        assert (hits, started) == (1, 2)
        assert snap["gauges"]["cache_hit_ratio"] == pytest.approx(hits / (hits + started))


class TestFleetRecompute:
    @staticmethod
    def _shard_snapshot(started: int, cached: int) -> dict:
        reg = MetricsRegistry()
        if started:
            reg.inc("runs_started", started)
        if cached:
            reg.inc("runs_cached", cached)
        landed = started + cached
        reg.set_gauge("cache_hit_ratio", (cached / landed) if landed else 0.0)
        return reg.to_dict()

    def test_merged_gauge_is_recomputed_not_last_write_wins(self, tmp_path):
        sched = Scheduler(JobStore(tmp_path), workers=0, executor="serial")
        sched.metrics.merge(self._shard_snapshot(started=4, cached=0))  # ratio 0.0
        sched.metrics.merge(self._shard_snapshot(started=0, cached=4))  # ratio 1.0
        snap = sched.metrics_snapshot()
        # last-write-wins would report 1.0; the fleet landed 4 hits / 8 runs
        assert snap["gauges"]["cache_hit_ratio"] == pytest.approx(0.5)
        assert snap["counters"]["runs_cached"] == 4
        assert snap["counters"]["runs_started"] == 4

    def test_no_landed_runs_reports_zero(self, tmp_path):
        sched = Scheduler(JobStore(tmp_path), workers=0, executor="serial")
        assert sched.metrics_snapshot()["gauges"]["cache_hit_ratio"] == 0.0
