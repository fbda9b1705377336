"""The poslab benchmark: seeded workloads, a correctness gate and a tracer.

Run it with ``python3 perfbench/run.py`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
