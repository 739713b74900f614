"""The repository benchmark: seeded workloads, end-to-end and traced
per-layer metrics.  Run ``python3 perfbench/run.py --help``."""
