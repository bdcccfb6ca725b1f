"""Experiment orchestration: sweeps, caching, and parallel fan-out.

The paper's payoff is design-space exploration — sweeping link width,
replay-buffer depth, port buffering, and root-complex latency over the
same deterministic model.  This package makes that exploration a
first-class interface:

* :mod:`repro.exp.spec` — declare a :class:`Sweep` of independent,
  JSON-parameterised :class:`SweepPoint` simulations;
* :mod:`repro.exp.cache` — memoise point results on disk, keyed by a
  canonical hash of (runner, params, schema version);
* :mod:`repro.exp.engine` — run a sweep through the cache and a
  ``multiprocessing`` pool, merging results in declaration order so
  parallel output is byte-identical to serial;
* :mod:`repro.exp.points` — the library's standard point runners
  (``dd``, MMIO, classic-PCI and stress points on any serialised
  topology spec, plus multi-flow scenarios);
* :mod:`repro.exp.bench` — per-run wall-clock records
  (``BENCH_sweeps.json``).

Quick taste::

    from repro.exp import Sweep, SweepEngine
    from repro.system import validation_spec

    sweep = Sweep("widths")
    for width in (1, 2, 4, 8):
        spec = validation_spec(root_link_width=width,
                               device_link_width=width)
        sweep.add(f"x{width}", "repro.exp.points:dd_point",
                  topology=spec.to_dict(), block_bytes=1 << 20)
    result = SweepEngine(cache_dir=".sweep-cache").run(sweep, workers=4)
    print(result.summary())
    print(result.results["x8"]["throughput_gbps"])
"""

from repro.exp.bench import append_record, load_records
from repro.exp.cache import (
    RESULT_SCHEMA_VERSION,
    ResultCache,
    cache_key,
    canonical_json,
)
from repro.exp.engine import SweepEngine, SweepResult, default_workers
from repro.exp.spec import Sweep, SweepPoint, resolve_runner, runner_path

__all__ = [
    "Sweep",
    "SweepPoint",
    "SweepEngine",
    "SweepResult",
    "ResultCache",
    "RESULT_SCHEMA_VERSION",
    "cache_key",
    "canonical_json",
    "append_record",
    "load_records",
    "default_workers",
    "resolve_runner",
    "runner_path",
]
