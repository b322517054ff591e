"""Benchmark for heatlab; run it with ``python3 perfbench/run.py --help``."""
