"""Served-path benchmark of the FLeet serving tier (see ``bench/README.md``).

Kept apart from ``benchmarks/`` (the pytest figure benches): this package
is the ruler named by the root ``BENCHMARK.json`` and measures the tier
from outside, through real loopback TCP, without touching ``src/``.
"""
