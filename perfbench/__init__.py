"""Repository benchmark: workloads, probes, spans and metrics (see README.md)."""
