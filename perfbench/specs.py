"""Seeded workload inputs: campaign spec JSON and serve job payloads.

Every input the program receives is built here from the workload seed
alone, through a private :class:`random.Random`, so the same seed yields
byte-identical specs on every machine.  The *shape* of each workload
(scenario list, sizes, run counts) is fixed; the seed only moves graph
seeds, sketch seeds and fault streams, so run cost stays comparable
across seeds while the records differ.
"""

from __future__ import annotations

import random

#: Graph seeds are drawn from this range.
_SEED_SPACE = 10**9


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _seeds(rng: random.Random, count: int) -> list[int]:
    # Distinct draws, so every run of a scenario is its own grid point.
    return rng.sample(range(_SEED_SPACE), count)


def compute_spec(seed: int) -> dict:
    """≥100 protocol-heavy runs: sparse and dense AGM, degeneracy decode.

    Run mix by count: 82 degeneracy (n=512), 16 sparse AGM (n=128),
    2 dense AGM (n=256).  The classes' run times are far apart, so the
    run-time p50 falls inside the degeneracy runs and p90 at the median
    of the sparse runs for every seed.

    Every run is its own one-seed scenario, and each run class (AGM per
    family, dense AGM, degeneracy per k) is spread evenly over the
    campaign: two sparse runs every ~12 runs, a dense one every 50.  The
    host's speed swings for seconds at a time; in contiguous blocks such
    a swing slows one class and moves its percentile, interleaved it
    slows the same share of every class.
    """
    rng = _rng("compute", seed)
    classes: dict[str, list[dict]] = {}
    for family in ("random_tree", "two_components"):
        for half in range(2):
            sketch_seed = rng.randrange(_SEED_SPACE)
            for graph_seed in _seeds(rng, 4):
                classes.setdefault(family, []).append({
                    "name": f"sparse-{family}-{half}", "family": family,
                    "sizes": [128], "protocol": "agm_connectivity",
                    "seeds": [graph_seed],
                    "protocol_params": {"sketch_seed": sketch_seed},
                })
    sketch_seed = rng.randrange(_SEED_SPACE)
    for graph_seed in _seeds(rng, 2):
        classes.setdefault("dense", []).append({
            "name": "dense-gnp", "family": "erdos_renyi", "sizes": [256],
            "protocol": "agm_connectivity", "seeds": [graph_seed],
            "family_params": {"p": 0.05},
            "protocol_params": {"sketch_seed": sketch_seed},
        })
    for k in (2, 3):
        for graph_seed in _seeds(rng, 41):
            classes.setdefault(f"k{k}", []).append({
                "name": f"degeneracy-k{k}", "family": "random_k_degenerate",
                "sizes": [512], "protocol": "degeneracy", "seeds": [graph_seed],
                "family_params": {"k": k}, "protocol_params": {"k": k},
            })
    # Each class spread evenly: item i of a class of c sits at (i + ½) / c.
    slots = [((i + 0.5) / len(runs), order, scenario)
             for order, runs in enumerate(classes.values())
             for i, scenario in enumerate(runs)]
    scenarios = [{**scenario, "name": f"{pos:03d}-{scenario['name']}"}
                 for pos, (*_, scenario) in enumerate(sorted(slots, key=lambda s: s[:2]))]
    return {"name": "perfbench-compute", "scenarios": scenarios}


def _faults(rng: random.Random) -> dict:
    rate = rng.choice((0.02, 0.05, 0.1))
    return {"drop": rate, "duplicate": rate, "flip": rate,
            "seed": rng.randrange(_SEED_SPACE)}


def _tiny_scenarios(rng: random.Random, prefix: str, sizes: list[int],
                    per_size: int) -> list[dict]:
    """forest, degeneracy k=2 and bounded_degree blocks on n ≤ 32 graphs."""
    # max_degree = n - 1 bounds every degree, so fault-free runs are exact.
    return [
        {"name": f"{prefix}forest", "family": "random_forest", "sizes": sizes,
         "protocol": "forest", "seeds": _seeds(rng, per_size)},
        {"name": f"{prefix}degeneracy", "family": "random_k_degenerate",
         "sizes": sizes, "protocol": "degeneracy", "seeds": _seeds(rng, per_size),
         "family_params": {"k": 2}, "protocol_params": {"k": 2}},
        {"name": f"{prefix}bounded", "family": "random_tree", "sizes": sizes,
         "protocol": "bounded_degree", "seeds": _seeds(rng, per_size),
         "protocol_params": {"max_degree": max(sizes) - 1}},
    ]


def bulk_spec(seed: int) -> dict:
    """2016 tiny runs; a quarter under faults, a quarter shuffled."""
    rng = _rng("bulk", seed)
    sizes = [12, 20, 32]
    scenarios = _tiny_scenarios(rng, "plain-", sizes, 112)
    for block in _tiny_scenarios(rng, "shuffled-", sizes, 56):
        scenarios.append({**block, "shuffle_delivery": True})
    for block in _tiny_scenarios(rng, "faulty-", sizes, 56):
        scenarios.append({**block, "faults": _faults(rng)})
    return {"name": "perfbench-bulk", "scenarios": scenarios}


def serve_job_spec(seed: int, job: int) -> dict:
    """Job ``job`` (from 1) of the serve loop: 24 tiny runs, fresh seeds.

    Graph seeds are consecutive from a per-seed base, so no two jobs of
    one loop share a grid point by construction (a shared point would
    dedup in the direct run the records are checked against).
    """
    base = _rng("serve", seed).randrange(_SEED_SPACE) + (job - 1) * 6
    seeds = list(range(base, base + 6))
    scenarios = [
        {"name": f"j{job}-forest", "family": "random_forest", "sizes": [16, 24],
         "protocol": "forest", "seeds": seeds},
        {"name": f"j{job}-degeneracy", "family": "random_k_degenerate",
         "sizes": [16, 24], "protocol": "degeneracy", "seeds": seeds,
         "family_params": {"k": 2}, "protocol_params": {"k": 2}},
    ]
    return {"name": f"perfbench-serve-{job}", "scenarios": scenarios}


def spec_runs(spec: dict) -> int:
    """Grid size before dedup (sizes × seeds summed over scenarios)."""
    return sum(len(s["sizes"]) * len(s.get("seeds", [0])) for s in spec["scenarios"])
