"""The repository benchmark: absolute end-to-end and per-layer timings.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see
``perfbench/README.md`` for the workloads, the metrics and which layer
metric is expected to move which end-to-end metric.
"""
