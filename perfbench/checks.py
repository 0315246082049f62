"""Output checks and the failure tally behind ``attempted``/``failed``.

The checks read the program's outputs as plain JSON and never call the
program's own loaders or hashes, so a bug in those cannot hide itself.

* :func:`canonical_digest` — a record stream's identity: every record
  without ``timing``/``cached``, ordered by a hash of its spec.  Fresh,
  traced and warm re-runs of one spec must agree on it, and it must equal
  the digest pinned for the (workload, seed) in ``pins.json`` when one is
  pinned.
* fault-free reconstruction records must be ``exact: true``;
* AGM connectivity verdicts are compared with a BFS ground truth — a
  measurement (the sketch has one-sided error), not a failure.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from collections import deque

PINS_PATH = pathlib.Path(__file__).with_name("pins.json")

#: Protocols whose output is the reconstructed graph.
RECONSTRUCTION = frozenset({"forest", "degeneracy", "bounded_degree"})


class Tally:
    """Operations attempted and failed, with the reason for each failure.

    An operation is a CLI invocation, an HTTP request or a job.  A failed
    output check marks the operation whose output it read as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        self.reasons.append(what)

    def check(self, ok: bool, what: str) -> bool:
        """An output check on an operation already counted."""
        if not ok:
            self.fail(what)
        return ok

    @property
    def failed_share(self) -> float:
        return min(self.failed, self.attempted) / max(self.attempted, 1)


def load_jsonl(path: str | pathlib.Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def strip_timing(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in ("timing", "cached")}


def _spec_key(record: dict) -> str:
    body = json.dumps(record["spec"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def canonical_digest(records: list[dict]) -> str:
    """sha256 over the timing-free records, in spec-hash order."""
    h = hashlib.sha256()
    for record in sorted(records, key=_spec_key):
        h.update(json.dumps(strip_timing(record), sort_keys=True,
                            separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()[:32]


def load_pins(path: pathlib.Path = PINS_PATH) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def check_pin(tally: Tally, pins: dict, workload: str, seed: int,
              digest: str) -> str:
    """Compare ``digest`` with the pin for (workload, seed); returns a label.

    A seed without a pin is reported as ``unpinned`` — the other checks
    (run-to-run agreement, exactness, counts) still apply to it.
    """
    pinned = pins.get(workload, {}).get(str(seed))
    if pinned is None:
        return "unpinned"
    tally.check(pinned == digest,
                f"{workload} seed {seed}: record digest {digest} != pinned {pinned}")
    return "pinned-ok" if pinned == digest else "pinned-MISMATCH"


def check_exact(tally: Tally, records: list[dict], what: str) -> None:
    """Every fault-free reconstruction record must rebuild G exactly."""
    bad = [r for r in records
           if r["spec"]["protocol"] in RECONSTRUCTION and r["spec"]["faults"] is None
           and r["result"]["exact"] is not True]
    tally.check(not bad, f"{what}: {len(bad)} fault-free reconstruction "
                         "record(s) without exact: true")


def is_connected(vertices, neighbors) -> bool:
    """BFS ground truth for the AGM connectivity verdict."""
    vertices = list(vertices)
    if len(vertices) <= 1:
        return True
    seen = {vertices[0]}
    queue = deque(seen)
    while queue:
        for v in neighbors(queue.popleft()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(vertices)
