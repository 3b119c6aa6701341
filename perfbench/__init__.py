"""Benchmark of the infosep package; run ``python3 perfbench/run.py --help``."""
