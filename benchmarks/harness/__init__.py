"""Benchmark harness for glauert_bem: workloads, correctness gate and tracer."""
