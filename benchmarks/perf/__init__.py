"""The simulator-as-a-program benchmark (``BENCHMARK.json``).

Six frozen workloads, five end-to-end metrics and a per-layer ledger,
all measured from outside the program through its public API; see
``README.md`` in this directory.  Run ``python3 benchmarks/perf``.
"""
