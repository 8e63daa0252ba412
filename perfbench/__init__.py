"""Repository benchmark: closed-loop workloads, end-to-end and per-layer metrics."""
