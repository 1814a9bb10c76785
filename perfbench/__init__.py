"""Benchmark of circhad: workloads, tracing and metrics.  Run ``perfbench/run.py``."""
