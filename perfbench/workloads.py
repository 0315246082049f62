"""The untraced end-to-end runs: ``compute``, ``bulk`` and ``serve``.

Each run talks to the program only through its user surfaces —
``python -m repro …`` subprocesses and the daemon's HTTP API through
:class:`repro.serve.client.ServeClient` — and feeds it only the spec
files and payloads :mod:`perfbench.specs` generates from the seed.

Every workload reports the same end-to-end metric names (see
``README.md``); what each one times on a given workload is:

==============  =========================  ============================
metric          compute / bulk             serve
==============  =========================  ============================
setup_s         ``repro --version``        daemon spawn → ``/healthz``
campaign_s      fresh ``repro campaign``   submit → terminal job view
run_p50/90_ms   record ``wall_seconds``    record ``wall_seconds``
report_s        ``repro report --json``    ``GET …/summary``
peak_rss_mb     campaign subprocess        daemon, after 100 jobs
==============  =========================  ============================
"""

from __future__ import annotations

import json
import pathlib
import shutil
import statistics
import time
from dataclasses import dataclass, field

from perfbench import specs
from perfbench.checks import (
    Tally,
    canonical_digest,
    check_exact,
    check_pin,
    load_jsonl,
    load_pins,
    strip_timing,
)
from perfbench.measure import (
    PROBE_REFERENCE_S,
    Daemon,
    Result,
    Series,
    host_probe,
    percentile,
    spawn,
    speed_factor,
)

#: ``repro --version`` spawns per run; setup_s is their median.  Short
#: operations get repeats because host noise swings a single sub-second
#: sample by ±20%.
SETUP_REPEATS = 9
#: Daemon start-ups per serve run; the last one serves the loop.
DAEMON_STARTS = 5
#: ``repro report`` invocations per iteration; report_s is their median.
REPORT_REPEATS = 5
#: Closed-loop poll interval of the serve client.
POLL_SECONDS = 0.005
#: A serve job not terminal after this long fails and ends the loop.
JOB_TIMEOUT_SECONDS = 30.0
#: Serve jobs always run, however short ``--seconds`` is; the serve
#: digest pin covers exactly these first jobs.
PINNED_JOBS = 8
#: The daemon's memory grows with the jobs it has seen, so its peak RSS
#: is read after this many jobs (or at the end of a shorter loop).
RSS_AT_JOB = 100


@dataclass
class Context:
    """One benchmark run: where it works, what it measured, what failed."""

    root: pathlib.Path
    work: pathlib.Path
    workload: str
    seed: int
    seconds: float
    python: str
    env: dict[str, str]
    tally: Tally = field(default_factory=Tally)
    series: dict[str, Series] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: :func:`host_probe` seconds, taken around every program invocation.
    probes: list[float] = field(default_factory=list)
    _logs: int = 0

    def add(self, name: str, unit: str, value: float) -> None:
        self.series.setdefault(name, Series(name, unit)).add(value)

    def repro(self, *args: str) -> Result:
        """``python -m repro <args>`` in the work dir, timed, host probed."""
        self._logs += 1
        self.probes.append(host_probe())
        result = spawn([self.python, "-m", "repro", *map(str, args)],
                       cwd=str(self.work), env=self.env,
                       log_dir=str(self.work / "logs" / str(self._logs)))
        self.probes.append(host_probe())
        return result

    def note_failure(self, result: Result) -> str:
        return (f"`{' '.join(result.argv[2:])}` exited {result.returncode}: "
                f"{result.stderr.strip()[-300:]}")


def measure_setup(ctx: Context) -> None:
    for _ in range(SETUP_REPEATS):
        r = ctx.repro("--version")
        if ctx.tally.op(r.ok, ctx.note_failure(r)):
            ctx.add("setup_s", "s", r.seconds)


def _record_walls(ctx: Context, records: list[dict]) -> None:
    for r in records:
        ctx.add("run_ms", "ms", r["timing"]["wall_seconds"] * 1000.0)


def _campaign(ctx: Context, spec_path: pathlib.Path, results: pathlib.Path,
              *extra: str) -> tuple[Result, list[dict] | None]:
    r = ctx.repro("campaign", spec_path, "--results-dir", results,
                  "--no-progress", "--json", *extra)
    if not ctx.tally.op(r.ok, ctx.note_failure(r)):
        return r, None
    name = json.loads(spec_path.read_text())["name"]
    return r, load_jsonl(results / f"{name}.jsonl")


def run_cli(ctx: Context, spec: dict, *, chain: bool) -> None:
    """compute (``chain=False``) and bulk (``chain=True``).

    One iteration is a fresh campaign into an empty dir, then — bulk only
    — the same campaign with ``--trace`` into a second empty dir and a
    warm-cache re-run, then ``repro report`` on the records, five times.
    Iterations repeat until ``--seconds`` have passed; at least one runs.
    """
    measure_setup(ctx)
    spec_path = ctx.work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    name, expected = spec["name"], specs.spec_runs(spec)
    pins = load_pins()
    deadline = time.perf_counter() + ctx.seconds
    it = 0
    while it == 0 or time.perf_counter() < deadline:
        base = ctx.work / f"iter{it}"
        fresh = base / "fresh"
        r, records = _campaign(ctx, spec_path, fresh)
        if records is not None:
            ctx.add("campaign_s", "s", r.seconds)
            ctx.add("peak_rss_mb", "MB", r.peak_rss_mb)
            _record_walls(ctx, records)
            ctx.tally.check(len(records) == expected,
                            f"fresh campaign wrote {len(records)} records, "
                            f"expected {expected}")
            digest = canonical_digest(records)
            ctx.notes.append(f"iteration {it}: digest {digest} "
                             f"{check_pin(ctx.tally, pins, ctx.workload, ctx.seed, digest)}")
            check_exact(ctx.tally, records, "fresh campaign")
            if chain:
                r, traced = _campaign(ctx, spec_path, base / "traced", "--trace")
                if traced is not None:
                    ctx.add("traced_campaign_s", "s", r.seconds)
                    ctx.tally.check(canonical_digest(traced) == digest,
                                    "--trace campaign records differ from the fresh run")
                r, warm = _campaign(ctx, spec_path, fresh)
                if warm is not None:
                    ctx.add("rerun_s", "s", r.seconds)
                    ctx.tally.check(canonical_digest(warm) == digest,
                                    "warm re-run records differ from the fresh run")
                    ctx.tally.check(all(w["cached"] for w in warm),
                                    "warm re-run recomputed cached runs")
            for _ in range(REPORT_REPEATS):
                r = ctx.repro("report", fresh / f"{name}.jsonl", "--json")
                if ctx.tally.op(r.ok, ctx.note_failure(r)):
                    ctx.add("report_s", "s", r.seconds)
                    counted = sum(g["runs"] for g in json.loads(r.stdout)["groups"])
                    ctx.tally.check(counted == len(records),
                                    f"report --json counted {counted} of "
                                    f"{len(records)} records")
        shutil.rmtree(base, ignore_errors=True)
        it += 1


def _start_daemon(ctx: Context, root: pathlib.Path) -> Daemon | None:
    daemon = Daemon(
        [ctx.python, "-m", "repro", "serve", "--port", "0", "--workers", "1",
         "--executor", "serial", "--root", str(root)],
        cwd=str(ctx.work), env=ctx.env, log_dir=str(root.with_suffix(".log")),
    )
    ctx.probes.append(host_probe())
    ready = daemon.wait_ready(timeout=60.0)
    ctx.probes.append(host_probe())
    if not ctx.tally.op(ready is not None, f"daemon did not answer /healthz: "
                                           f"{daemon.stderr_tail()}"):
        daemon.stop()
        return None
    ctx.add("setup_s", "s", ready)
    return daemon


def run_serve(ctx: Context) -> None:
    """Closed loop: one client, submit → poll until terminal → summary."""
    from repro.errors import ReproError
    from repro.serve.client import ServeClient

    daemon = None
    for start in range(DAEMON_STARTS):
        if daemon is not None:
            daemon.stop()
        daemon = _start_daemon(ctx, ctx.work / f"serve{start}")
        if daemon is None:
            return
    client = ServeClient(daemon.url, timeout=30.0)
    clock = time.perf_counter
    finished: list[tuple[int, dict, float, int]] = []
    deadline = clock() + ctx.seconds
    job_no = 0
    rss = None
    try:
        while job_no < PINNED_JOBS or clock() < deadline:
            if job_no == RSS_AT_JOB:
                rss = daemon.peak_rss_mb()
            job_no += 1
            t0 = clock()
            try:
                job = client.submit(spec=specs.serve_job_spec(ctx.seed, job_no),
                                    shards=2, executor="serial", use_cache=False)
            except ReproError as exc:
                ctx.tally.op(False, f"submit job {job_no}: {exc}")
                continue
            ctx.tally.op(True, "submit")
            ctx.add("submit_ms", "ms", (clock() - t0) * 1000.0)
            view, polls = _follow(ctx, client, job.id, t0)
            if view is None:
                break  # a daemon that fails a poll or wedges a job is broken
            latency = clock() - t0
            ctx.add("campaign_s", "s", latency)
            ctx.add("job_ms", "ms", latency * 1000.0)
            if not ctx.tally.op(view["state"] == "done",
                                f"job {job.id} ended {view['state']}: {view.get('error')}"):
                continue
            finished.append((job_no, view, latency, polls))
            ts = clock()
            try:
                summary = client.summary(job.id)
            except ReproError as exc:
                ctx.tally.op(False, f"summary {job.id}: {exc}")
                continue
            ctx.tally.op(True, "summary")
            ctx.add("report_s", "s", clock() - ts)
            counted = sum(g["runs"] for g in summary["groups"])
            ctx.tally.check(counted == view["records"] == 24,
                            f"job {job.id}: summary counted {counted}, "
                            f"view says {view['records']} records")
        ctx.add("peak_rss_mb", "MB", daemon.peak_rss_mb() if rss is None else rss)
    finally:
        daemon.stop()
    _check_serve_records(ctx, finished)


def _follow(ctx: Context, client, job_id: str, t0: float) -> tuple[dict | None, int]:
    """Poll until the job is terminal; ``(None, polls)`` on error or timeout."""
    from repro.errors import ReproError

    polls = 0
    while True:
        time.sleep(POLL_SECONDS)
        tp = time.perf_counter()
        if tp - t0 > JOB_TIMEOUT_SECONDS:
            ctx.tally.op(False, f"job {job_id} not terminal after {JOB_TIMEOUT_SECONDS} s")
            return None, polls
        try:
            view = client.job(job_id)
        except ReproError as exc:
            ctx.tally.op(False, f"poll {job_id}: {exc}")
            return None, polls
        ctx.tally.op(True, "poll")
        ctx.add("poll_ms", "ms", (time.perf_counter() - tp) * 1000.0)
        polls += 1
        if view["state"] in ("done", "failed", "cancelled"):
            return view, polls


def _check_serve_records(ctx: Context, finished: list) -> None:
    """Every job's merged JSONL ≡ a direct ``repro campaign`` of its spec.

    One direct campaign runs every finished job's scenarios (their names
    are unique per job and each job has its own block of graph seeds, so
    nothing dedups across jobs); each job's records must equal, in order and
    ignoring timing, the direct records of its own scenarios.
    """
    if not finished:
        ctx.tally.fail("serve loop finished no job")
        return
    job_specs = {no: specs.serve_job_spec(ctx.seed, no) for no, *_ in finished}
    combined = {"name": "perfbench-serve-direct",
                "scenarios": [s for no, *_ in finished for s in job_specs[no]["scenarios"]]}
    spec_path = ctx.work / "direct.json"
    spec_path.write_text(json.dumps(combined))
    _, direct = _campaign(ctx, spec_path, ctx.work / "direct", "--no-cache")
    if direct is None:
        return
    by_scenario: dict[str, list[dict]] = {}
    for r in direct:
        by_scenario.setdefault(r["spec"]["scenario"], []).append(strip_timing(r))
    pinned: list[dict] = []
    for no, view, latency, polls in finished:
        records = load_jsonl(view["jsonl"])
        _record_walls(ctx, records)
        if no <= PINNED_JOBS:
            pinned.extend(records)
        want = [r for s in job_specs[no]["scenarios"] for r in by_scenario.get(s["name"], [])]
        ctx.tally.check([strip_timing(r) for r in records] == want,
                        f"job {view['id']}: merged records differ from the direct run")
        check_exact(ctx.tally, records, f"job {view['id']}")
        # The view's wall_seconds is rounded to 1 ms; the timestamps are not.
        queue_wait = view["started_at"] - view["submitted_at"]
        job_wall = view["finished_at"] - view["started_at"]
        ctx.add("queue_wait_ms", "ms", queue_wait * 1000.0)
        ctx.add("job_wall_ms", "ms", job_wall * 1000.0)
        ctx.add("poll_overhead_ms", "ms", (latency - queue_wait - job_wall) * 1000.0)
        ctx.add("polls_per_job", "count", polls)
    if len({no for no, *_ in finished} & set(range(1, PINNED_JOBS + 1))) == PINNED_JOBS:
        digest = canonical_digest(pinned)
        ctx.notes.append(f"jobs 1-{PINNED_JOBS}: digest {digest} "
                         f"{check_pin(ctx.tally, load_pins(), 'serve', ctx.seed, digest)}")


def end_to_end(ctx: Context) -> dict[str, tuple[float, str]]:
    """The gated metrics, identical names on every workload.

    Timings are restated at the reference host speed (:func:`speed_factor`
    of the run's probes); the human table above the result line keeps
    them as measured.
    """
    factor = speed_factor(ctx.probes)
    ctx.notes.append(f"host probe: mean {statistics.fmean(ctx.probes) * 1e3:.2f} ms "
                     f"over {len(ctx.probes)} probes; timings scaled by {factor:.4f} "
                     f"to the {PROBE_REFERENCE_S * 1e3:g} ms reference")
    runs = ctx.series["run_ms"].values
    return {
        "setup_s": (ctx.series["setup_s"].median() * factor, "s"),
        "campaign_s": (ctx.series["campaign_s"].median() * factor, "s"),
        "run_p50_ms": (percentile(runs, 50) * factor, "ms"),
        "run_p90_ms": (percentile(runs, 90) * factor, "ms"),
        "report_s": (ctx.series["report_s"].median() * factor, "s"),
        "peak_rss_mb": (ctx.series["peak_rss_mb"].median(), "MB"),
    }
