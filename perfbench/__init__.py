"""The repository benchmark: four seeded workloads driven through the
``repro`` entry points.  Run ``python3 perfbench/run.py --help``; see
``perfbench/README.md`` for the workloads and metrics."""
