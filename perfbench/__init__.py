"""Benchmark of the simplexgates verify command; see run.py."""
