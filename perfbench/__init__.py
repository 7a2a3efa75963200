"""Benchmark of the regwin library: workloads, metrics and traced runs.

Run it from the repository root with ``python3 perfbench/run.py --workload
<stream|montecarlo|compile> --seed N --seconds S --trace <0|1>``.
"""
