"""Benchmark of flatfront: seeded workloads, output checks and a per-layer tracer."""
