"""End-to-end benchmark of the referee-model campaign system.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>``; see ``perfbench/README.md`` for the workloads, the
metrics and the layer predictions.
"""
