"""bench_e2e — the point-cost benchmark: host seconds per data point.

Measures the reproduction from outside: every number comes from timing
calls into ``repro``'s public functions from wrappers this package
installs.  See ``README.md`` for the workloads, metrics and protocol.
"""
