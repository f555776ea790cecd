"""Benchmark of hypkin: workloads, exact output checks and per-layer tracing."""
