"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compute|bulk|serve --seed N \\
        --seconds S --trace 0|1

``--trace 0`` drives the program through its user surfaces for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` sends the
same inputs once through each layer in process and reports the per-layer
metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is run from ``src/`` of the checkout; without
it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("compute", "bulk", "serve")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(src)]
    from perfbench import layers, specs, workloads

    if args.workload != "serve":
        # One CPU for the benchmark and every child: the host probes then
        # see the core the program runs on (cores slow down independently).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # Per process, so two runs in one checkout never share scratch files.
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    ctx = workloads.Context(ROOT, work, args.workload, args.seed, args.seconds,
                            sys.executable, env)
    try:
        if args.trace:
            metrics = layers.run_traced(ctx)
        else:
            if args.workload == "serve":
                workloads.run_serve(ctx)
            else:
                spec = (specs.compute_spec if args.workload == "compute"
                        else specs.bulk_spec)(args.seed)
                workloads.run_cli(ctx, spec, chain=args.workload == "bulk")
            metrics = workloads.end_to_end(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for series in ctx.series.values():
        print(series.line())
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:<32} {value:.6g} {unit}")
    for note in ctx.notes:
        print(f"note: {note}")
    for reason in ctx.tally.reasons:
        print(f"FAILED: {reason}")
    print(f"failed_share {ctx.tally.failed_share:.6g} "
          f"({ctx.tally.failed} of {ctx.tally.attempted} operations)")
    print(json.dumps({
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
