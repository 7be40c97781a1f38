"""The repository benchmark: four workloads, end-to-end and per-layer
metrics.  Run ``python3 perfbench/run.py --help``; see README.md."""
