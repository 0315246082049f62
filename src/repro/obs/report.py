"""Trace analysis for ``repro trace``: phase times, critical path, top-k.

Consumes a validated event list (see :mod:`repro.obs.events`) and
produces three read-outs:

* **phase-time breakdown** — spans grouped by name: count, total, mean,
  max seconds, and share of the traced total.  Durations are summed from
  the authoritative ``dur`` fields, so the ``local`` / ``referee`` /
  ``global`` rows reconcile exactly with the ``*_seconds`` sums in the
  campaign's records (same clock, same floats).
* **critical path** — the chain of heaviest children from the root span
  down: at each level, the child with the largest duration.  With
  synthetic offsets (retro spans from pool workers) overlap information
  is gone, so this is the *attribution* chain — where the time lives —
  not a scheduling-theoretic longest path.
* **slowest runs** — the top-k ``run`` spans by duration, labelled by
  spec hash and scenario, pointing straight at the grid points worth
  profiling.

All pure functions over the event list; the CLI wires them to files.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.errors import ObsError
from repro.tables import format_table

__all__ = [
    "phase_breakdown",
    "critical_path",
    "slowest_runs",
    "trace_report_data",
    "render_trace_report",
]


def _spans(events: list[dict]) -> list[dict]:
    return [e for e in events if e.get("kind") == "span"]


def phase_breakdown(events: list[dict]) -> list[dict[str, Any]]:
    """Per-span-name rollup, heaviest total first.

    ``share`` is each name's fraction of the root total when a root span
    exists (the ``campaign`` span), else of the all-span sum — so nested
    spans can legitimately sum past 1.0 of themselves but read sensibly
    against the run's wall time.
    """
    spans = _spans(events)
    totals: dict[str, dict[str, Any]] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "max": 0.0}
    )
    for s in spans:
        agg = totals[s["name"]]
        agg["count"] += 1
        agg["total"] += s["dur"]
        agg["max"] = max(agg["max"], s["dur"])
    roots = [s for s in spans if s.get("parent") is None]
    denom = (sum(s["dur"] for s in roots) or
             sum(s["dur"] for s in spans) or 1.0)
    out = []
    for name, agg in sorted(totals.items(), key=lambda kv: -kv[1]["total"]):
        out.append({
            "name": name,
            "count": agg["count"],
            "total_seconds": agg["total"],
            "mean_seconds": agg["total"] / agg["count"],
            "max_seconds": agg["max"],
            "share": agg["total"] / denom,
        })
    return out


def critical_path(events: list[dict]) -> list[dict[str, Any]]:
    """The heaviest-child chain from the root span down (see module doc)."""
    spans = _spans(events)
    if not spans:
        return []
    children: dict[int | None, list[dict]] = defaultdict(list)
    for s in spans:
        children[s.get("parent")].append(s)
    roots = children.get(None, [])
    if not roots:
        return []
    node = max(roots, key=lambda s: s["dur"])
    path = []
    while node is not None:
        path.append({
            "name": node["name"],
            "span": node["span"],
            "dur_seconds": node["dur"],
            "attrs": node.get("attrs", {}),
        })
        kids = children.get(node["span"], [])
        node = max(kids, key=lambda s: s["dur"]) if kids else None
    return path


def slowest_runs(events: list[dict], *, top: int = 10) -> list[dict[str, Any]]:
    """The top-k ``run`` spans by duration, slowest first."""
    runs = [s for s in _spans(events) if s["name"] == "run"]
    runs.sort(key=lambda s: -s["dur"])
    out = []
    for s in runs[:top]:
        attrs = s.get("attrs", {})
        out.append({
            "spec": attrs.get("spec", ""),
            "scenario": attrs.get("scenario", ""),
            "protocol": attrs.get("protocol", ""),
            "n": attrs.get("n"),
            "seed": attrs.get("seed"),
            "status": attrs.get("status", ""),
            "cached": bool(attrs.get("cached", False)),
            "dur_seconds": s["dur"],
        })
    return out


def trace_report_data(events: list[dict], *, top: int = 10) -> dict[str, Any]:
    """The full ``repro trace --json`` payload."""
    spans = _spans(events)
    marks = [e for e in events if e.get("kind") == "mark"]
    return {
        "events": len(events),
        "spans": len(spans),
        "marks": {name: sum(1 for m in marks if m["name"] == name)
                  for name in sorted({m["name"] for m in marks})},
        "phases": phase_breakdown(events),
        "critical_path": critical_path(events),
        "slowest_runs": slowest_runs(events, top=top),
    }


def _fmt_s(seconds: float) -> str:
    return f"{seconds:.6f}"


def render_trace_report(
    events: list[dict], *, top: int = 10, source: str = "trace"
) -> str:
    """The human-readable ``repro trace`` report (aligned tables)."""
    if not events:
        raise ObsError(f"{source}: no events to report on (empty stream)")
    data = trace_report_data(events, top=top)
    blocks = []

    phase_rows = [
        [p["name"], p["count"], _fmt_s(p["total_seconds"]),
         _fmt_s(p["mean_seconds"]), _fmt_s(p["max_seconds"]),
         f"{100 * p['share']:.1f}%"]
        for p in data["phases"]
    ]
    blocks.append(format_table(
        f"{source} — phase-time breakdown ({data['spans']} spans, "
        f"{data['events']} events)",
        ["phase", "count", "total s", "mean s", "max s", "share"],
        phase_rows,
    ))

    if data["critical_path"]:
        path_rows = []
        for depth, node in enumerate(data["critical_path"]):
            label = node["name"]
            attrs = node["attrs"]
            tag = attrs.get("spec") or attrs.get("campaign") or \
                (f"shard {attrs['shard']}" if "shard" in attrs else "")
            path_rows.append(["  " * depth + label, str(tag),
                              _fmt_s(node["dur_seconds"])])
        blocks.append(format_table(
            "critical path (heaviest child at each level)",
            ["span", "which", "dur s"], path_rows,
        ))

    if data["slowest_runs"]:
        run_rows = [
            [r["spec"], r["scenario"], r["protocol"],
             r["n"] if r["n"] is not None else "", r["status"],
             "yes" if r["cached"] else "", _fmt_s(r["dur_seconds"])]
            for r in data["slowest_runs"]
        ]
        blocks.append(format_table(
            f"slowest runs (top {len(run_rows)})",
            ["spec", "scenario", "protocol", "n", "status", "cached", "dur s"],
            run_rows,
        ))
    return "\n\n".join(blocks)
