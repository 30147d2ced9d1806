"""Benchmark harness for ddreg: time to a verified regulator, end to end and per layer."""
