"""Declarative scenarios: what to run, expanded into picklable run specs.

A :class:`Scenario` names a graph family, a size grid, a protocol, a seed
list, and the referee options (``budget_bits``, ``shuffle_delivery``,
faults).  :meth:`Scenario.expand` multiplies the grid out into
:class:`RunSpec` values — small frozen records that fully determine one
run.  A ``RunSpec`` deliberately carries *names and parameters*, never
graph or protocol objects: process-pool workers rebuild both locally from
the :mod:`repro.registry` registries, so fanning out a campaign ships a
few hundred bytes per run instead of a pickled adjacency structure.

Names are validated at construction time against the registries
(:data:`repro.registry.GRAPH_FAMILY` / :data:`repro.registry.PROTOCOL`);
a typo raises :class:`~repro.errors.UnknownRegistryEntry` naming the
nearest known entry (``unknown protocol 'degenracy'; did you mean
'degeneracy'?``).

Determinism contract (the SciLLM/APEX seed discipline from SNIPPETS.md):
every random choice in a run is a pure function of the spec — the graph
from ``(family, n, seed, family_params)``, protocol randomness from
``protocol_params`` (e.g. the AGM sketch seed), shuffle delivery from
``seed``, faults from ``(faults.seed, seed)``.  Nothing reads or writes the
global ``random`` state, so identical specs yield identical
:class:`RunRecord` payloads on any machine, in any worker, in any order.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro import registry
from repro.errors import DecodeError, FrugalityViolation, ProtocolError, ReproError
from repro.graphs.labeled import LabeledGraph
from repro.model.protocol import OneRoundProtocol
from repro.model.referee import Referee, RunReport, monotonic_clock
from repro.engine.faults import FaultCounters, FaultSpec
from repro.schema import SPEC_VERSION

__all__ = [
    "Scenario",
    "RunSpec",
    "RunRecord",
    "execute_run",
    "output_digest",
    "SPEC_VERSION",
]

Params = tuple[tuple[str, Any], ...]


def _as_params(value: Mapping[str, Any] | Params | None) -> Params:
    """Normalize a params mapping to a sorted, hashable tuple of pairs."""
    if value is None:
        return ()
    items = value.items() if isinstance(value, Mapping) else value
    return tuple(sorted((str(k), v) for k, v in items))


# --------------------------------------------------------------------- #
# scenario
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Scenario:
    """One axis-aligned block of a campaign grid.

    ``sizes`` × ``seeds`` runs of ``protocol`` on ``family`` graphs, under
    one referee configuration.  Hashable (params are normalized to sorted
    tuples) and JSON round-trippable via :meth:`to_dict`/:meth:`from_dict`.
    """

    name: str
    family: str
    sizes: tuple[int, ...]
    protocol: str
    seeds: tuple[int, ...] = (0,)
    family_params: Params = ()
    protocol_params: Params = ()
    budget_bits: int | None = None
    shuffle_delivery: bool = False
    faults: FaultSpec | None = None

    def __post_init__(self) -> None:
        # Canonicalize names eagerly (aliases resolve here, so specs,
        # content hashes, and cache keys always carry canonical names);
        # unknown names raise UnknownRegistryEntry with a did-you-mean.
        object.__setattr__(self, "family", registry.GRAPH_FAMILY.resolve(self.family))
        object.__setattr__(self, "protocol", registry.PROTOCOL.resolve(self.protocol))
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "family_params", _as_params(self.family_params))
        object.__setattr__(self, "protocol_params", _as_params(self.protocol_params))
        registry.GRAPH_FAMILY.validate_params(self.family, dict(self.family_params))
        registry.PROTOCOL.validate_params(self.protocol, dict(self.protocol_params))
        if not self.sizes:
            raise ProtocolError(f"scenario {self.name!r}: sizes must be non-empty")
        if not self.seeds:
            raise ProtocolError(f"scenario {self.name!r}: seeds must be non-empty")

    def expand(self) -> Iterator["RunSpec"]:
        """The grid, sizes-major then seeds, in declaration order."""
        for n in self.sizes:
            for seed in self.seeds:
                yield RunSpec(
                    scenario=self.name,
                    family=self.family,
                    n=n,
                    seed=seed,
                    protocol=self.protocol,
                    family_params=self.family_params,
                    protocol_params=self.protocol_params,
                    budget_bits=self.budget_bits,
                    shuffle_delivery=self.shuffle_delivery,
                    faults=self.faults,
                )

    def to_dict(self) -> dict:
        """JSON object form (inverse of :meth:`from_dict`)."""
        d: dict[str, Any] = {
            "name": self.name,
            "family": self.family,
            "sizes": list(self.sizes),
            "protocol": self.protocol,
            "seeds": list(self.seeds),
        }
        if self.family_params:
            d["family_params"] = dict(self.family_params)
        if self.protocol_params:
            d["protocol_params"] = dict(self.protocol_params)
        if self.budget_bits is not None:
            d["budget_bits"] = self.budget_bits
        if self.shuffle_delivery:
            d["shuffle_delivery"] = True
        if self.faults is not None:
            d["faults"] = self.faults.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Scenario":
        """Build from a JSON object; unknown keys are rejected."""
        known = {
            "name", "family", "sizes", "protocol", "seeds", "family_params",
            "protocol_params", "budget_bits", "shuffle_delivery", "faults",
        }
        unknown = set(d) - known
        if unknown:
            raise ProtocolError(f"unknown Scenario keys: {sorted(unknown)}")
        kwargs = dict(d)
        for req in ("name", "family", "sizes", "protocol"):
            if req not in kwargs:
                raise ProtocolError(f"Scenario is missing required key {req!r}")
        kwargs["sizes"] = tuple(kwargs["sizes"])
        if "seeds" in kwargs:
            kwargs["seeds"] = tuple(kwargs["seeds"])
        if kwargs.get("faults") is not None:
            kwargs["faults"] = FaultSpec.from_dict(kwargs["faults"])
        return cls(**kwargs)


# --------------------------------------------------------------------- #
# run specs and records
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one run; small, hashable, picklable."""

    scenario: str
    family: str
    n: int
    seed: int
    protocol: str
    family_params: Params = ()
    protocol_params: Params = ()
    budget_bits: int | None = None
    shuffle_delivery: bool = False
    faults: FaultSpec | None = None

    def build_graph(self) -> LabeledGraph:
        """Instantiate the input graph from the family registry."""
        return registry.GRAPH_FAMILY.get(self.family)(
            self.n, self.seed, **dict(self.family_params)
        )

    def build_protocol(self) -> OneRoundProtocol:
        """Instantiate the protocol from the protocol registry."""
        return registry.PROTOCOL.get(self.protocol)(
            self.n, **dict(self.protocol_params)
        )

    def to_dict(self) -> dict:
        """Canonical JSON object form — the input to :meth:`content_hash`."""
        return {
            "scenario": self.scenario,
            "family": self.family,
            "n": self.n,
            "seed": self.seed,
            "protocol": self.protocol,
            "family_params": dict(self.family_params),
            "protocol_params": dict(self.protocol_params),
            "budget_bits": self.budget_bits,
            "shuffle_delivery": self.shuffle_delivery,
            "faults": self.faults.to_dict() if self.faults else None,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(d)
        kwargs["family_params"] = _as_params(kwargs.get("family_params"))
        kwargs["protocol_params"] = _as_params(kwargs.get("protocol_params"))
        if kwargs.get("faults") is not None:
            kwargs["faults"] = FaultSpec.from_dict(kwargs["faults"])
        return cls(**kwargs)

    def content_hash(self) -> str:
        """Stable digest of the *physical* run (plus :data:`SPEC_VERSION`).

        The ``scenario`` label is provenance, not identity — two scenarios
        (or two campaigns) sweeping the same (family, n, seed, protocol,
        params, referee options) grid must share cache entries and
        deduplicate, which is the whole point of the content hash.

        Memoized on the (frozen) instance: the shard orchestration path
        hashes every spec several times per run — dedup, shard
        assignment, the manifest, stream replay, merge ownership.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is not None:
            return cached
        physical = self.to_dict()
        physical.pop("scenario")
        payload = json.dumps(
            {"v": SPEC_VERSION, "spec": physical}, sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(payload.encode()).hexdigest()[:24]
        object.__setattr__(self, "_content_hash", digest)
        return digest


def output_digest(output: Any) -> tuple[str, str]:
    """``(kind, digest)`` of a global-phase output, stable across processes."""
    if isinstance(output, LabeledGraph):
        body = f"{output.n};" + ";".join(f"{u},{v}" for u, v in output.edges())
        return "graph", hashlib.sha256(body.encode()).hexdigest()[:16]
    if isinstance(output, bool):
        return "bool", str(output)
    body = repr(output)
    return type(output).__name__, hashlib.sha256(body.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """One JSONL record: spec + deterministic result + timing sidecar.

    Everything except :attr:`timing` is a pure function of the spec; the
    determinism test strips ``timing`` (and ``cached``) and compares bytes.
    """

    spec: RunSpec
    status: str  # "ok" | "violation" | "error"
    output_kind: str = ""
    output_digest: str = ""
    exact: bool | None = None
    graph_n: int = 0
    graph_m: int = 0
    max_message_bits: int = 0
    total_message_bits: int = 0
    faults: FaultCounters = field(default_factory=FaultCounters)
    error: str = ""
    timing: dict[str, float] = field(default_factory=dict)
    cached: bool = False

    def to_json_dict(self) -> dict:
        """The JSONL object: ``spec`` / ``result`` / ``timing`` sections.

        Stamped with ``spec_version`` so downstream readers
        (:mod:`repro.results.records`) can validate and migrate streams
        written by older engines.
        """
        return {
            "spec_version": SPEC_VERSION,
            "spec": self.spec.to_dict(),
            "result": {
                "status": self.status,
                "output_kind": self.output_kind,
                "output_digest": self.output_digest,
                "exact": self.exact,
                "graph_n": self.graph_n,
                "graph_m": self.graph_m,
                "max_message_bits": self.max_message_bits,
                "total_message_bits": self.total_message_bits,
                "faults": {
                    "dropped": self.faults.dropped,
                    "duplicated": self.faults.duplicated,
                    "flipped": self.faults.flipped,
                },
                "error": self.error,
            },
            "timing": dict(self.timing),
            "cached": self.cached,
        }

    @classmethod
    def from_json_dict(cls, d: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a record from its JSONL object (cache replay)."""
        res = d["result"]
        return cls(
            spec=RunSpec.from_dict(d["spec"]),
            status=res["status"],
            output_kind=res["output_kind"],
            output_digest=res["output_digest"],
            exact=res["exact"],
            graph_n=res["graph_n"],
            graph_m=res["graph_m"],
            max_message_bits=res["max_message_bits"],
            total_message_bits=res["total_message_bits"],
            faults=FaultCounters(**res["faults"]),
            error=res["error"],
            timing=dict(d.get("timing", {})),
            cached=bool(d.get("cached", False)),
        )


def execute_run(spec: RunSpec) -> RunRecord:
    """Build the graph and protocol named by ``spec``, run one round, record.

    Module-level and argument-picklable, so process pools fan it out
    directly.  Library-level failures are part of the measurement —
    a frugality violation or a decode failure under fault injection becomes
    a ``status`` of ``"violation"``/``"error"``, never a crashed campaign.
    """
    t0 = monotonic_clock()
    record = RunRecord(spec=spec, status="ok")
    try:
        g = spec.build_graph()
        protocol = spec.build_protocol()
        # Stamped before the round so violation/error records keep the
        # setup cost they actually paid (DESIGN.md §8 span taxonomy).
        record.timing["setup_seconds"] = monotonic_clock() - t0
        record.graph_n, record.graph_m = g.n, g.m
        referee = Referee(
            budget_bits=spec.budget_bits,
            shuffle_delivery=spec.shuffle_delivery,
            shuffle_seed=spec.seed,
            faults=spec.faults,
            fault_seed=spec.seed,
        )
        report: RunReport = referee.run(protocol, g)
    except FrugalityViolation as exc:
        record.status = "violation"
        record.error = str(exc)
    except (DecodeError, ReproError, TypeError) as exc:
        # Library failures *and* unsatisfiable specs (e.g. a hypercube
        # size that is not a power of two, bad builder params) become
        # recorded statuses — one bad grid point must not kill a campaign.
        record.status = "error"
        record.error = f"{type(exc).__name__}: {exc}"
    else:
        kind, digest = output_digest(report.output)
        record.output_kind = kind
        record.output_digest = digest
        record.exact = (report.output == g) if isinstance(report.output, LabeledGraph) else None
        record.max_message_bits = report.max_message_bits
        record.total_message_bits = report.total_message_bits
        if report.fault_counters is not None:
            record.faults = report.fault_counters
        # update(), not replace: setup_seconds is already in the dict.
        record.timing.update(
            local_seconds=report.local_seconds,
            referee_seconds=report.referee_seconds,
            global_seconds=report.global_seconds,
        )
    record.timing["wall_seconds"] = monotonic_clock() - t0
    return record
