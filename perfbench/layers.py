"""The traced run: the workload's inputs through each layer, in process.

Spans are recorded here, in the benchmark, around calls into the
program's public functions — nothing inside ``src/`` is instrumented.
Each span has a name, start, end, parent span and run id; they stay in
memory and are written out as JSONL when the run ends.  A layer's metric
is the summed *self time* of its spans: duration minus the part of it
that child spans cover.

Counts come from wrappers that stay out of every timed span: ``os.fsync``
calls are counted around the in-process ``Campaign.run`` pass (a few
per record, next to an fsync's own cost), and bit reader/writer calls in
a second, untimed layer pass over the same runs.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import random
import statistics
import time
from dataclasses import dataclass, field, replace

from perfbench import specs
from perfbench.checks import (
    Tally,
    canonical_digest,
    check_pin,
    is_connected,
    load_jsonl,
    load_pins,
)
from perfbench.workloads import Context, run_serve

#: Protocols that live in ``repro.sketching`` (the rest are ``protocols``).
SKETCHING = frozenset({"agm_connectivity", "sketch_bipartiteness"})
#: Spans whose summed self time is the ``<name>_s`` layer metric.
LAYER_SPANS = (
    "engine.expand", "engine.cache_replay", "engine.merge", "graphs.build",
    "model.referee", "protocols.local", "protocols.global", "sketching.local",
    "sketching.global", "sketching.local_numpy", "results.load",
    "results.aggregate",
)
#: Serve job specs the in-process layer pass covers.
SERVE_TRACE_JOBS = 8
#: Spawns of ``python -c`` per side of the ``cli.import_s`` difference.
IMPORT_REPEATS = 5

#: (metric, unit) for every per-layer metric; each ``_s``/``_ms`` time
#: metric is followed by its ``.calls`` count.
TIME_METRICS = [
    ("cli.import_s", "s"), ("engine.expand_s", "s"), ("engine.overhead_s", "s"),
    ("engine.cache_replay_s", "s"), ("engine.merge_s", "s"),
    ("graphs.build_s", "s"), ("model.referee_s", "s"),
    ("protocols.local_s", "s"), ("protocols.global_s", "s"),
    ("sketching.local_s", "s"), ("sketching.global_s", "s"),
    ("sketching.local_numpy_s", "s"), ("results.load_s", "s"),
    ("results.aggregate_s", "s"), ("obs.trace_overhead_s", "s"),
    ("store.compact_s", "s"), ("serve.queue_wait_ms", "ms"),
    ("serve.job_wall_ms", "ms"), ("serve.poll_overhead_ms", "ms"),
]
OTHER_METRICS = [
    ("cli.modules_loaded", "count"), ("engine.campaign_s", "s"),
    ("engine.run_wall_s", "s"), ("engine.fsync_calls", "count"),
    ("engine.bytes_written", "bytes"), ("bits.read_calls", "count"),
    ("bits.write_calls", "count"), ("obs.fsync_calls", "count"),
    ("serve.polls_per_job", "count"), ("sketching.verdict_ok_share", "ratio"),
    ("sketching.numpy_over_pure", "ratio"), ("bench.trace_overhead_s", "s"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name → unit, in report order."""
    units: dict[str, str] = {}
    for name, unit in TIME_METRICS:
        units[name] = unit
        units[f"{name}.calls"] = "count"
    units.update(OTHER_METRICS)
    return units


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class SpanRecorder:
    """In-memory span store; one stack, because the traced run is serial."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, run: str = ""):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, run, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def self_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Σ self time and span count per span name.

    Self time is a span's duration minus the union of its children's
    intervals, each clipped to the parent, so overlapping or overhanging
    children are never subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, tuple[float, int]] = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        total, calls = out.get(s.name, (0.0, 0))
        out[s.name] = (total + (s.end - s.start) - covered, calls + 1)
    return out


# --------------------------------------------------------------------- #
# counting wrappers
# --------------------------------------------------------------------- #


@contextlib.contextmanager
def counting(counts: dict[str, int], *, bits: bool = False):
    """Count ``os.fsync`` (``bits=False``) or bit reader/writer calls.

    ``BitReader.read_bit`` delegates to ``read_bits``, so wrapping
    ``read_bits`` alone counts every read once.
    """
    from repro.bits.reader import BitReader
    from repro.bits.writer import BitWriter

    targets = [(BitReader, "read_bits", "read"), (BitWriter, "write_bit", "write"),
               (BitWriter, "write_bits", "write"), (BitWriter, "write_many", "write")] \
        if bits else [(os, "fsync", "fsync")]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]

    def wrap(fn, key):
        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    try:
        for (owner, attr, key), (_, _, fn) in zip(targets, saved):
            setattr(owner, attr, wrap(fn, key))
        yield counts
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# --------------------------------------------------------------------- #
# passes
# --------------------------------------------------------------------- #


@dataclass
class Layers:
    """Accumulates the traced run's measurements across passes."""

    ctx: Context
    rec: SpanRecorder = field(default_factory=SpanRecorder)
    values: dict[str, float] = field(default_factory=dict)
    verdicts: list[bool] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + value


def cli_import(layers: Layers) -> None:
    """Fresh ``import repro.cli`` minus a bare interpreter, as spawned."""
    from perfbench.measure import spawn

    ctx = layers.ctx
    sides: dict[str, list[float]] = {"pass": [], "cli": []}
    modules = 0
    for i in range(IMPORT_REPEATS):
        for side, code in (("pass", "pass"),
                           ("cli", "import sys, repro.cli; print(len(sys.modules))")):
            r = spawn([ctx.python, "-c", code], cwd=str(ctx.work), env=ctx.env,
                      log_dir=str(ctx.work / "logs" / f"import-{side}-{i}"))
            if ctx.tally.op(r.ok, f"python -c {code!r} exited {r.returncode}"):
                sides[side].append(r.seconds)
                if side == "cli":
                    modules = int(r.stdout.split()[-1])
    if sides["pass"] and sides["cli"]:
        layers.add("cli.import_s", statistics.median(sides["cli"])
                   - statistics.median(sides["pass"]))
        layers.add("cli.import_s.calls", len(sides["cli"]))
    layers.add("cli.modules_loaded", modules)


def engine_pass(layers: Layers, spec: dict) -> list[dict]:
    """Expand, run, replay and run with the program's tracing: one spec."""
    from repro.engine.campaign import Campaign
    from repro.engine.executor import SerialExecutor
    from repro.results import DEFAULT_AXES, Aggregator, iter_records

    ctx, rec = layers.ctx, layers.rec
    base = ctx.work / "engine" / spec["name"]
    with rec.span("engine.expand"):
        Campaign.from_dict(spec, results_dir=None).specs()
    campaign = Campaign.from_dict(spec, results_dir=base / "plain")
    counts: dict[str, int] = {}
    with counting(counts):
        t0 = time.perf_counter()
        result = campaign.run(SerialExecutor(), progress=False)
        wall = time.perf_counter() - t0
    run_wall = sum(r.timing["wall_seconds"] for r in result.records)
    layers.add("engine.campaign_s", wall)
    layers.add("engine.run_wall_s", run_wall)
    layers.add("engine.overhead_s", wall - run_wall)
    layers.add("engine.overhead_s.calls", 1)
    plain_fsyncs = counts.get("fsync", 0)
    layers.add("engine.fsync_calls", plain_fsyncs)
    layers.add("engine.bytes_written", _dir_bytes(base / "plain"))
    with rec.span("engine.cache_replay"):
        campaign.run(SerialExecutor(), progress=False)
    counts = {}
    with counting(counts):
        t0 = time.perf_counter()
        Campaign.from_dict(spec, results_dir=base / "traced").run(
            SerialExecutor(), trace=True, progress=False)
        traced_wall = time.perf_counter() - t0
    layers.add("obs.trace_overhead_s", traced_wall - wall)
    layers.add("obs.trace_overhead_s.calls", 1)
    layers.add("obs.fsync_calls", counts.get("fsync", 0) - plain_fsyncs)
    jsonl = result.jsonl_path
    with rec.span("results.load"):
        loaded = list(iter_records(jsonl))
    with rec.span("results.aggregate"):
        agg = Aggregator(by=DEFAULT_AXES)
        agg.feed_many(loaded)
        agg.groups()
    return load_jsonl(jsonl)


def layer_pass(layers: Layers, records: list[dict]) -> None:
    """Every recorded run phase by phase, as ``Referee.run`` orders them.

    The outputs must match the records the engine pass wrote.
    """
    from repro.engine.scenario import RunSpec, output_digest
    from repro.errors import DecodeError, ReproError

    rec, tally = layers.rec, layers.ctx.tally
    for run in records:
        rs = RunSpec.from_dict(run["spec"])
        h = rs.content_hash()
        layer = "sketching" if rs.protocol in SKETCHING else "protocols"
        with rec.span("run", h):
            with rec.span("graphs.build", h):
                g = rs.build_graph()
            protocol = rs.build_protocol()
            output, status = None, "ok"
            try:
                with rec.span(f"{layer}.local", h):
                    tagged = [(i, protocol.local(g.n, i, g.neighbors(i)))
                              for i in g.vertices()]
                with rec.span("model.referee", h):
                    if rs.faults is not None and not rs.faults.is_noop:
                        tagged, _ = rs.faults.injector(rs.seed).apply(tagged)
                    if rs.shuffle_delivery:
                        random.Random(rs.seed).shuffle(tagged)
                        tagged.sort(key=lambda pair: pair[0])
                    messages = [m for _, m in tagged]
                with rec.span(f"{layer}.global", h):
                    output = protocol.global_(g.n, messages)
            except (DecodeError, ReproError, TypeError):
                status = "error"
        want = run["result"]
        got = output_digest(output)[1] if status == "ok" else ""
        tally.check(status == want["status"] and got == want["output_digest"],
                    f"layer pass of run {h} gave {status}/{got}, record says "
                    f"{want['status']}/{want['output_digest']}")
        if rs.protocol == "agm_connectivity" and status == "ok":
            layers.verdicts.append(output == is_connected(g.vertices(), g.neighbors))


def count_pass(layers: Layers, records: list[dict]) -> None:
    """Bit reader/writer calls: the layer pass again, wrapped, spans dropped.

    Its checks repeat the timed pass's, so they go to a throwaway tally.
    """
    counts: dict[str, int] = {}
    with counting(counts, bits=True):
        layer_pass(Layers(replace(layers.ctx, tally=Tally())), records)
    layers.add("bits.read_calls", counts.get("read", 0))
    layers.add("bits.write_calls", counts.get("write", 0))


def numpy_pass(layers: Layers, records: list[dict]) -> None:
    """``sketching.local_s`` under the numpy backend on one run per family."""
    from repro.engine.scenario import RunSpec
    from repro.errors import ReproError

    try:
        from repro.sketching.kernels import use_kernels

        with use_kernels("numpy"):
            pass
    except (ImportError, ReproError):
        return  # the numpy backend is gone or numpy is missing: stays 0
    firsts: dict[str, dict] = {}
    for r in records:
        if r["spec"]["protocol"] in SKETCHING:
            firsts.setdefault(r["spec"]["family"], r)
    if not firsts:
        return
    pure = numpy_s = 0.0
    pure_local = {s.run: s for s in layers.rec.spans if s.name == "sketching.local"}
    for r in firsts.values():
        rs = RunSpec.from_dict(r["spec"])
        g, protocol = rs.build_graph(), rs.build_protocol()
        h = rs.content_hash()
        with use_kernels("numpy"), layers.rec.span("sketching.local_numpy", h) as s:
            for i in g.vertices():
                protocol.local(g.n, i, g.neighbors(i))
        numpy_s += s.end - s.start
        pure += pure_local[h].end - pure_local[h].start
    layers.add("sketching.numpy_over_pure", numpy_s / pure)


def serve_pass(layers: Layers, job_specs: list[dict]) -> None:
    """Two-shard runs of serve job specs: plain merge vs merge + compact."""
    from repro.engine.campaign import Campaign
    from repro.engine.executor import SerialExecutor
    from repro.engine.shard import merge_shards

    rec, tally = layers.rec, layers.ctx.tally
    for spec in job_specs:
        results = layers.ctx.work / "merge" / spec["name"]
        campaign = Campaign.from_dict(spec, results_dir=results, use_cache=False)
        for index in range(2):
            campaign.run(SerialExecutor(), shards=2, shard_index=index, progress=False)
        with rec.span("engine.merge", spec["name"]) as plain:
            merge_shards(results, spec["name"])
        with rec.span("engine.merge_compact", spec["name"]) as compact:
            merge_shards(results, spec["name"], compact=True)
        extra = (compact.end - compact.start) - (plain.end - plain.start)
        tally.check((results / f"{spec['name']}.columns").exists(),
                    f"merge --compact of {spec['name']} wrote no columnar sibling")
        layers.add("store.compact_s", extra)
        layers.add("store.compact_s.calls", 1)
        if extra <= 0:
            layers.ctx.notes.append(f"{spec['name']}: compact cost {extra:.6f} s <= 0")


def serve_layers(layers: Layers) -> None:
    """``engine.merge_s``, ``store.compact_s`` and the ``serve.*`` split.

    Only serve jobs reach these layers, so every traced run measures them
    on the serve job specs of its seed: the merge pass in process, the
    ``serve.*`` medians from a 1 s closed loop against a real daemon.
    """
    ctx = layers.ctx
    serve_pass(layers, [specs.serve_job_spec(ctx.seed, j)
                        for j in range(1, SERVE_TRACE_JOBS + 1)])
    loop = replace(ctx, work=ctx.work / "loop", workload="serve", seconds=1.0,
                   series={})
    loop.work.mkdir(parents=True)
    run_serve(loop)
    for name in ("queue_wait_ms", "job_wall_ms", "poll_overhead_ms"):
        series = loop.series.get(name)
        if series is not None:
            layers.add(f"serve.{name}", series.median())
            layers.add(f"serve.{name}.calls", len(series.values))
    if "polls_per_job" in loop.series:
        layers.add("serve.polls_per_job", loop.series["polls_per_job"].median())


def run_traced(ctx: Context) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of ``ctx.workload``; every metric, 0 if unused."""
    layers = Layers(ctx)
    cli_import(layers)
    if ctx.workload == "serve":
        job_specs = [specs.serve_job_spec(ctx.seed, j)
                     for j in range(1, SERVE_TRACE_JOBS + 1)]
    else:
        job_specs = [specs.compute_spec(ctx.seed) if ctx.workload == "compute"
                     else specs.bulk_spec(ctx.seed)]
    pins = load_pins()
    all_records: list[dict] = []
    for spec in job_specs:
        records = engine_pass(layers, spec)
        layer_pass(layers, records)
        count_pass(layers, records)
        all_records.extend(records)
    if ctx.workload != "serve":
        digest = canonical_digest(all_records)
        ctx.notes.append(f"in-process records: digest {digest} "
                         f"{check_pin(ctx.tally, pins, ctx.workload, ctx.seed, digest)}")
    if ctx.workload == "compute":
        numpy_pass(layers, all_records)
    serve_layers(layers)
    if layers.verdicts:
        layers.add("sketching.verdict_ok_share",
                   sum(layers.verdicts) / len(layers.verdicts))

    spans = self_times(layers.rec.spans)
    for span_name in LAYER_SPANS:
        total, calls = spans.get(span_name, (0.0, 0))
        layers.add(f"{span_name}_s", total)
        layers.add(f"{span_name}_s.calls", calls)
    run_spans = sum(s.end - s.start for s in layers.rec.spans if s.name == "run")
    layers.add("bench.trace_overhead_s", run_spans - layers.values["engine.run_wall_s"])

    out_dir = ctx.root / ".perfbench-out"
    layers.rec.write(out_dir / f"spans-{ctx.workload}-seed{ctx.seed}.jsonl")
    units = metric_units()
    return {name: (layers.values.get(name, 0.0), unit) for name, unit in units.items()}
