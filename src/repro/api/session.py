"""The fluent pipeline: graph grid → protocol → referee options → run → report.

:class:`Session` is the front door to the whole system — one chainable
builder that assembles the same :class:`~repro.engine.scenario.Scenario` /
:class:`~repro.engine.campaign.Campaign` objects the engine always ran, so
its records are *identical* (same spec content hashes, same output
digests) to hand-wired campaigns.  The canonical chain::

    from repro.api import Session

    check = (
        Session("planar-study")
        .graphs("random_planar", n=[64, 256], seeds=range(5))
        .protocol("degeneracy", k=5)
        .faults(drop=0.01)
        .executor("process")
        .run()
        .aggregate(by=["n"])
        .gate(baseline="smoke")
    )

Every builder method returns a *new* session (copy-on-write), so partial
chains are reusable prefixes::

    base = Session().protocol("forest")
    a = base.graphs("random_forest", n=64)
    b = base.graphs("random_tree", n=[32, 64])

Names resolve through :mod:`repro.registry` at call time, so typos fail
fast with a did-you-mean suggestion instead of surfacing mid-campaign.

Scale-out rides the same chain: ``.persist(dir).shard(3, index=1)`` runs
one worker's slice of the campaign (durable stream + completion mark),
``.shard(3)`` runs every shard in-process with checkpoints and
auto-merges, and ``.resume()`` replays the durable prefix of an
interrupted run — see :mod:`repro.engine.shard`.  ``.submit(url)`` ships
the same campaign to a running ``repro serve`` daemon instead and returns
a :class:`~repro.serve.client.RemoteJob` handle — see :mod:`repro.serve`.
"""

from __future__ import annotations

import pathlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro import registry
from repro.errors import BaselineError, ProtocolError, ShardError
from repro.engine.campaign import Campaign, CampaignResult
from repro.engine.executor import EXECUTOR_KINDS, Executor, make_executor
from repro.engine.faults import FaultSpec
from repro.engine.scenario import RunRecord, Scenario
from repro.results.aggregate import DEFAULT_AXES, aggregate, aggregate_table
from repro.results.baseline import (
    DEFAULT_BASELINES_DIR,
    BaselineCheck,
    check as baseline_check,
    freeze as baseline_freeze,
)
from repro.tables import format_table

__all__ = ["Session", "SessionRun", "SessionAggregate"]


@dataclass(frozen=True)
class _GraphBlock:
    """One ``graphs()`` call: a family swept over sizes × seeds."""

    family: str
    sizes: tuple[int, ...]
    seeds: tuple[int, ...]
    params: tuple[tuple[str, Any], ...]


def _as_tuple(value: int | Iterable[int], what: str) -> tuple[int, ...]:
    if isinstance(value, int):
        return (value,)
    if isinstance(value, (str, bytes)):
        # iterating "64" would silently run sizes (6, 4)
        raise ProtocolError(
            f"Session: {what} must be an int or an iterable of ints, "
            f"got the string {value!r}"
        )
    out = tuple(int(v) for v in value)
    if not out:
        raise ProtocolError(f"Session: {what} must be non-empty")
    return out


class Session:
    """Chainable builder over the graph → protocol → campaign pipeline.

    Builder methods never mutate; each returns a derived session.  The
    terminal :meth:`run` builds a :class:`Campaign` (also reachable via
    :meth:`build` for inspection) and executes it.  By default nothing is
    written to disk — chain :meth:`persist` to stream JSONL records and
    enable the content-hash cache, exactly like the CLI's
    ``--results-dir``.
    """

    def __init__(self, name: str = "session") -> None:
        self._name = name
        self._blocks: list[_GraphBlock] = []
        self._protocol: str | None = None
        self._protocol_params: dict[str, Any] = {}
        self._faults: FaultSpec | None = None
        self._budget_bits: int | None = None
        self._shuffle: bool = False
        self._executor_kind: str = "serial"
        self._jobs: int | None = None
        self._results_dir: str | pathlib.Path | None = None
        self._use_cache: bool = True
        self._shards: int | None = None
        self._shard_index: int | None = None
        self._resume: bool = False
        self._trace: bool = False
        self._progress: Any = None

    # ------------------------------------------------------------------ #
    # builder steps (copy-on-write)
    # ------------------------------------------------------------------ #

    def _clone(self) -> "Session":
        clone = Session.__new__(Session)
        clone.__dict__.update(self.__dict__)
        clone._blocks = list(self._blocks)
        clone._protocol_params = dict(self._protocol_params)
        return clone

    def graphs(
        self,
        family: str,
        *,
        n: int | Iterable[int],
        seeds: int | Iterable[int] = (0,),
        **family_params: Any,
    ) -> "Session":
        """Add a graph block: ``family`` swept over ``n`` × ``seeds``.

        ``n`` and ``seeds`` take a single value or any iterable (lists,
        tuples, ``range``).  Repeated calls add further blocks, all run
        under the session's one protocol and referee configuration.
        """
        family = registry.GRAPH_FAMILY.resolve(family)  # fail fast on typos
        registry.GRAPH_FAMILY.validate_params(family, family_params)
        clone = self._clone()
        clone._blocks.append(_GraphBlock(
            family=family,
            sizes=_as_tuple(n, "n"),
            seeds=_as_tuple(seeds, "seeds"),
            params=tuple(sorted(family_params.items())),
        ))
        return clone

    def protocol(self, name: str, **protocol_params: Any) -> "Session":
        """Select the one-round protocol every block runs (last call wins)."""
        name = registry.PROTOCOL.resolve(name)
        registry.PROTOCOL.validate_params(name, protocol_params)
        clone = self._clone()
        clone._protocol = name
        clone._protocol_params = dict(protocol_params)
        return clone

    def faults(
        self,
        *,
        drop: float = 0.0,
        duplicate: float = 0.0,
        flip: float = 0.0,
        seed: int = 0,
    ) -> "Session":
        """Inject transit faults on the node→referee link."""
        clone = self._clone()
        clone._faults = FaultSpec(drop=drop, duplicate=duplicate, flip=flip, seed=seed)
        return clone

    def budget(self, bits: int | None) -> "Session":
        """Hard per-message frugality cap (``None`` removes it)."""
        clone = self._clone()
        clone._budget_bits = bits
        return clone

    def shuffle(self, enabled: bool = True) -> "Session":
        """Deliver messages in adversarial order (re-indexed by ID)."""
        clone = self._clone()
        clone._shuffle = bool(enabled)
        return clone

    def executor(self, kind: str, *, jobs: int | None = None) -> "Session":
        """Execution backend for :meth:`run`: serial, thread, or process."""
        if kind not in EXECUTOR_KINDS:
            raise ProtocolError(
                f"unknown executor {kind!r}; known: {', '.join(EXECUTOR_KINDS)}"
            )
        clone = self._clone()
        clone._executor_kind = kind
        clone._jobs = jobs
        return clone

    def persist(
        self,
        results_dir: str | pathlib.Path | None = "results",
        *,
        use_cache: bool = True,
    ) -> "Session":
        """Stream JSONL records under ``results_dir`` and enable the cache."""
        clone = self._clone()
        clone._results_dir = results_dir
        clone._use_cache = use_cache
        return clone

    def shard(self, shards: int, index: int | None = None) -> "Session":
        """Split the campaign into ``shards`` by spec content hash.

        With ``index`` this session runs only that shard (the scale-out
        form: one worker per index, :meth:`SessionRun` pointing at the
        shard stream); with ``index=None`` :meth:`run` executes every
        shard in-process and merges them into the canonical JSONL —
        the checkpointed single-machine form.  Requires :meth:`persist`
        (shard streams and the manifest are durable artifacts).
        """
        if shards < 1:
            raise ShardError(f"shards must be >= 1, got {shards}")
        if index is not None and not 0 <= index < shards:
            raise ShardError(
                f"shard index {index} out of range for {shards} shard(s) "
                f"(valid: 0..{shards - 1})"
            )
        clone = self._clone()
        clone._shards = shards
        clone._shard_index = index
        return clone

    def resume(self, enabled: bool = True) -> "Session":
        """Replay the durable prefix of an interrupted run, execute the rest.

        Requires the checkpoint manifest a previous persisted :meth:`run`
        wrote; a manifest whose grid, shard count, or ``SPEC_VERSION`` no
        longer matches is refused with an actionable error.
        """
        clone = self._clone()
        clone._resume = bool(enabled)
        return clone

    def trace(self, enabled: bool = True) -> "Session":
        """Stream span/mark/metrics events next to the records.

        :meth:`run` writes ``<results_dir>/<name>[.shard-…].events.jsonl``
        (DESIGN.md §8) — requires :meth:`persist`, like every durable
        artifact.  Read it back with ``repro trace`` or
        :func:`repro.obs.load_events`.
        """
        clone = self._clone()
        clone._trace = bool(enabled)
        return clone

    def progress(self, enabled: Any = True) -> "Session":
        """Live progress (rate, ETA, per-shard completion) on stderr.

        Pass ``True`` for a default
        :class:`~repro.obs.progress.ProgressReporter`, an instance to
        control the stream/TTY mode, or ``False`` to turn it back off.
        Works without :meth:`persist` — the event bus stays in-process.
        """
        clone = self._clone()
        clone._progress = enabled
        return clone

    # ------------------------------------------------------------------ #
    # terminal steps
    # ------------------------------------------------------------------ #

    def scenarios(self) -> list[Scenario]:
        """The scenario blocks this session describes (one per ``graphs()``)."""
        if not self._blocks:
            raise ProtocolError(
                "Session has no graph blocks; chain .graphs(family, n=...) first"
            )
        if self._protocol is None:
            raise ProtocolError(
                "Session has no protocol; chain .protocol(name, ...) first"
            )
        return [
            Scenario(
                name=f"{self._name}-{i}-{block.family}",
                family=block.family,
                sizes=block.sizes,
                protocol=self._protocol,
                seeds=block.seeds,
                family_params=block.params,
                protocol_params=self._protocol_params,
                budget_bits=self._budget_bits,
                shuffle_delivery=self._shuffle,
                faults=self._faults,
            )
            for i, block in enumerate(self._blocks)
        ]

    def build(self) -> Campaign:
        """The equivalent hand-wired :class:`Campaign` (records are identical)."""
        return Campaign(
            self.scenarios(),
            name=self._name,
            results_dir=self._results_dir,
            use_cache=self._use_cache,
        )

    def run(self, executor: Executor | None = None) -> "SessionRun":
        """Execute the campaign and return the chainable result."""
        campaign = self.build()
        kwargs = dict(
            shards=self._shards, shard_index=self._shard_index,
            resume=self._resume, trace=self._trace, progress=self._progress,
        )
        if executor is not None:
            result = campaign.run(executor, **kwargs)
        else:
            with make_executor(self._executor_kind, self._jobs) as ex:
                result = campaign.run(ex, **kwargs)
        return SessionRun(session=self, result=result)

    def submit(self, url: str | None = None, *, priority: str = "normal"):
        """Submit this session's campaign to a running daemon (DESIGN.md §9).

        The builder state maps straight onto the submission: the built
        campaign travels as an inline spec, ``.shard(n)`` becomes the
        job's shard count (each shard independently scheduled on the
        daemon's worker pool), ``.executor(kind, jobs=...)`` its
        per-shard backend, and ``.persist(use_cache=...)`` its cache
        flag.  Results live under the daemon's job store, not this
        process's ``results_dir``.  Returns the
        :class:`~repro.serve.client.RemoteJob` handle — ``wait()`` it,
        stream its ``records()``, fetch its ``summary()``, or
        ``cancel()`` it::

            job = (Session("sweep")
                   .graphs("random_forest", n=[32, 64], seeds=range(4))
                   .protocol("forest")
                   .shard(2)
                   .submit("http://127.0.0.1:7341"))
            print(job.wait()["state"])          # "done"
        """
        from repro.serve.client import DEFAULT_URL, ServeClient

        campaign = self.build()  # validates blocks/protocol before the wire
        return ServeClient(url or DEFAULT_URL).submit(
            spec=campaign.to_dict(),
            shards=self._shards or 1,
            priority=priority,
            executor=self._executor_kind,
            jobs=self._jobs,
            use_cache=self._use_cache,
        )

    def __repr__(self) -> str:  # pragma: no cover
        blocks = ", ".join(b.family for b in self._blocks) or "(no graphs)"
        return (f"Session({self._name!r}, graphs=[{blocks}], "
                f"protocol={self._protocol!r}, executor={self._executor_kind!r})")


@dataclass
class SessionRun:
    """A finished session run: records plus the chainable read side."""

    session: Session
    result: CampaignResult
    _json_dicts: list[dict] | None = field(default=None, repr=False)

    @property
    def records(self) -> list[RunRecord]:
        """The run records, in deterministic spec order."""
        return self.result.records

    def to_json_dicts(self) -> list[dict]:
        """The records in JSONL-object form (the results-layer currency).

        Serialized once and cached — chained ``aggregate``/``gate``/
        ``freeze`` calls on a large campaign reuse the same list.
        """
        if self._json_dicts is None:
            self._json_dicts = [r.to_json_dict() for r in self.records]
        return self._json_dicts

    def summary(self) -> dict[str, Any]:
        """The campaign summary (same shape as ``repro campaign --json``)."""
        return self.result.summary()

    @property
    def metrics(self) -> dict[str, Any] | None:
        """The run's metrics snapshot (counters/gauges/histograms)."""
        return self.result.metrics

    def aggregate(
        self,
        *,
        by: Sequence[str] = DEFAULT_AXES,
        include_timing: bool = False,
    ) -> "SessionAggregate":
        """Group-by over spec axes (``repro report`` as a method)."""
        groups = aggregate(self.to_json_dicts(), by=tuple(by),
                           include_timing=include_timing)
        return SessionAggregate(run=self, by=tuple(by), groups=groups,
                                include_timing=include_timing)

    def gate(
        self,
        *,
        baseline: str | pathlib.Path | Mapping,
        bits_tolerance: float = 0.0,
        baselines_dir: str | pathlib.Path = DEFAULT_BASELINES_DIR,
    ) -> BaselineCheck:
        """Check this run against a frozen baseline (``repro baseline check``).

        ``baseline`` is a baseline *name* (a bare string: resolved to
        ``<baselines_dir>/<name>.json``), a path to a frozen JSON file
        (anything with a suffix or a directory part), or an
        already-loaded baseline mapping.
        """
        if isinstance(baseline, str):
            as_path = pathlib.Path(baseline)
            if len(as_path.parts) == 1 and not as_path.suffix:
                # a bare name always means the baselines directory — a
                # stray cwd file with the same name must not shadow it
                candidate = pathlib.Path(baselines_dir) / f"{baseline}.json"
                if not candidate.exists():
                    raise BaselineError(
                        f"baseline {baseline!r} does not exist under "
                        f"{baselines_dir} (expected {candidate})"
                    )
                baseline = candidate
        return baseline_check(self.to_json_dicts(), baseline,
                              bits_tolerance=bits_tolerance)

    def freeze(
        self,
        name: str,
        *,
        baselines_dir: str | pathlib.Path = DEFAULT_BASELINES_DIR,
    ) -> pathlib.Path:
        """Freeze this run as a named baseline for future :meth:`gate` calls."""
        return baseline_freeze(self.to_json_dicts(), name,
                               baselines_dir=baselines_dir)


@dataclass
class SessionAggregate:
    """Aggregated groups, still chainable into the regression gate."""

    run: SessionRun
    by: tuple[str, ...]
    groups: list[dict] = field(repr=False, default_factory=list)
    include_timing: bool = False

    def table(self, *, title: str | None = None) -> str:
        """The aligned plain-text report table."""
        t, headers, rows = aggregate_table(
            self.groups, self.by,
            title=title or f"session {self.run.result.name} — "
                           f"{self.run.result.summary()['runs']} runs "
                           f"by {', '.join(self.by)}",
            include_timing=self.include_timing,
        )
        return format_table(t, headers, rows)

    def gate(self, **kwargs: Any) -> BaselineCheck:
        """Gate the *underlying run* (all records, not just these groups)."""
        return self.run.gate(**kwargs)

    def __iter__(self):
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)
