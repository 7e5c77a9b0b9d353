"""Benchmark of the COSMA reproduction (see README.md in this directory)."""
