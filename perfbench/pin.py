"""Pin the canonical record digest of every workload for a range of seeds.

Usage, from the root of a checkout::

    python3 perfbench/pin.py FIRST LAST [WORKLOAD ...]   # updates perfbench/pins.json

Runs each workload's specs in process (serial executor, default kernels)
and records :func:`perfbench.checks.canonical_digest` of the records per
(workload, seed); for ``serve`` the digest covers the first
:data:`perfbench.workloads.PINNED_JOBS` jobs.  Re-pin only when a change
to the program is meant to change records, and say so with the change.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def digest_of(specs_: list[dict]) -> str:
    from perfbench.checks import canonical_digest, load_jsonl
    from repro.engine.campaign import Campaign

    records: list[dict] = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for spec in specs_:
            result = Campaign.from_dict(spec, results_dir=tmp, use_cache=False).run(
                progress=False)
            records.extend(load_jsonl(result.jsonl_path))
    return canonical_digest(records)


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import specs
    from perfbench.checks import PINS_PATH, load_pins
    from perfbench.workloads import PINNED_JOBS

    first, last = int(argv[0]), int(argv[1])
    only = set(argv[2:])
    pins = load_pins()
    for seed in range(first, last + 1):
        inputs = {
            "compute": [specs.compute_spec(seed)],
            "bulk": [specs.bulk_spec(seed)],
            "serve": [specs.serve_job_spec(seed, j) for j in range(1, PINNED_JOBS + 1)],
        }
        for workload, specs_ in inputs.items():
            if not only or workload in only:
                pins.setdefault(workload, {})[str(seed)] = digest_of(specs_)
                print(f"seed {seed}: {workload}={pins[workload][str(seed)]}", flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
