"""JobStore unit battery: durability, recovery, and state discipline."""

import json

import pytest

from repro.errors import JobNotFound, ServeError
from repro.serve.jobs import JOB_STATES, PRIORITIES, TERMINAL_STATES, JobStore

PAYLOAD = {"builtin": "smoke"}


def _create(store, **kwargs):
    defaults = dict(campaign=PAYLOAD, name="smoke")
    defaults.update(kwargs)
    return store.create(**defaults)


def test_create_assigns_sequential_ids_and_persists(tmp_path):
    store = JobStore(tmp_path)
    a = _create(store)
    b = _create(store, shards=3, priority="high")
    assert (a["id"], b["id"]) == ("j000001", "j000002")
    assert a["state"] == "queued" and a["shards_done"] == [False]
    assert b["shards_done"] == [False, False, False]
    # the state file on disk is the source of truth for a restart
    on_disk = json.loads((tmp_path / "jobs" / "j000002" / "job.json").read_text())
    assert on_disk["priority"] == "high" and on_disk["shards"] == 3
    assert store.results_dir("j000001").is_dir()


def test_create_validates_priority_and_shards(tmp_path):
    store = JobStore(tmp_path)
    with pytest.raises(ServeError, match="priority"):
        _create(store, priority="urgent")
    with pytest.raises(ServeError, match="shards"):
        _create(store, shards=0)


def test_get_unknown_raises_job_not_found(tmp_path):
    store = JobStore(tmp_path)
    with pytest.raises(JobNotFound, match="j999999"):
        store.get("j999999")


def test_counts_cover_every_state_and_active(tmp_path):
    store = JobStore(tmp_path)
    a = _create(store)
    _create(store)
    counts = store.counts()
    assert set(counts) == set(JOB_STATES)  # zero-valued states stay present
    assert counts["queued"] == 2 and store.active() == 2
    store.update(a["id"], state="done")
    assert store.active() == 1 and store.counts()["done"] == 1


def test_mark_shard_done_accumulates(tmp_path):
    store = JobStore(tmp_path)
    job = _create(store, shards=2)
    store.mark_shard_done(job["id"], 0, records=5, resumed=2, cache_hits=1)
    job = store.mark_shard_done(job["id"], 1, records=3, resumed=0)
    assert job["shards_done"] == [True, True]
    assert (job["records"], job["resumed"], job["cache_hits"]) == (8, 2, 1)


def test_recover_demotes_running_and_resets_progress(tmp_path):
    store = JobStore(tmp_path)
    running = _create(store, shards=2)
    done = _create(store)
    store.update(running["id"], state="running", records=7, resumed=3,
                 shards_done=[True, False])
    store.update(done["id"], state="done", records=8)

    fresh = JobStore(tmp_path)  # a new daemon process
    queued = fresh.recover()
    assert [j["id"] for j in queued] == [running["id"]]
    revived = fresh.get(running["id"])
    assert revived["state"] == "queued"
    assert revived["shards_done"] == [False, False]
    assert revived["records"] == 0 and revived["resumed"] == 0
    # terminal jobs survive recovery untouched
    assert fresh.get(done["id"])["state"] == "done"
    assert fresh.get(done["id"])["records"] == 8
    # the demotion itself is durable, not memory-only
    on_disk = json.loads(
        (tmp_path / "jobs" / running["id"] / "job.json").read_text()
    )
    assert on_disk["state"] == "queued"


def test_recover_continues_the_id_sequence(tmp_path):
    store = JobStore(tmp_path)
    _create(store)
    _create(store)
    fresh = JobStore(tmp_path)
    fresh.recover()
    assert _create(fresh)["id"] == "j000003"  # never reuses an existing ID


def test_recover_skips_unreadable_state_files(tmp_path):
    store = JobStore(tmp_path)
    good = _create(store)
    bad_dir = tmp_path / "jobs" / "j000099"
    bad_dir.mkdir(parents=True)
    (bad_dir / "job.json").write_text("{torn")
    fresh = JobStore(tmp_path)
    fresh.recover()
    assert [j["id"] for j in fresh.list()] == [good["id"]]
    assert (bad_dir / "job.json").exists()  # left for post-mortem


def test_module_constants_are_consistent():
    assert TERMINAL_STATES < set(JOB_STATES)
    assert "queued" not in TERMINAL_STATES and "running" not in TERMINAL_STATES
    assert list(PRIORITIES) == ["high", "normal", "low"]
    assert sorted(PRIORITIES.values()) == list(PRIORITIES.values())
