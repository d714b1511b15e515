"""Benchmark of the shuffling DDoS defense; see METRICS.md."""
