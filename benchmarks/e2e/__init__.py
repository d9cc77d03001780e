"""End-to-end benchmark: source -> schedule -> C -> native run, and the daemon.

Run from the repository root as ``python3 -m benchmarks.e2e`` (see
``README.md`` here and ``BENCHMARK.json`` at the root).  The parent process
(:mod:`benchmarks.e2e.cli`) spawns one fresh child per workload
(:mod:`benchmarks.e2e.child`); nothing in this package is imported by
``src/repro``.
"""
