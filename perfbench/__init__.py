"""End-to-end clip benchmark for the standing-long-jump pose pipeline.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the code under ``src/`` and prints one JSON
result line.  ``BENCHMARK.json`` at the repository root lists the
workloads and metrics; the benchmark never edits ``src/`` — it measures
the layers from outside by wrapping their public functions.
"""
