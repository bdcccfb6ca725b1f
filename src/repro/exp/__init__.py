"""Experiment orchestration: sweeps, caching, and parallel fan-out.

The paper's payoff is design-space exploration — sweeping link width,
replay-buffer depth, port buffering, and root-complex latency over the
same deterministic model.  This package makes that exploration a
first-class interface:

* :mod:`repro.exp.spec` — declare a :class:`Sweep` of independent,
  JSON-parameterised :class:`SweepPoint` simulations;
* :mod:`repro.exp.cache` — memoise point results on disk, keyed by a
  canonical hash of (runner, params, code fingerprint);
* :mod:`repro.exp.engine` — run a sweep through the cache and a pool
  of forked worker processes, merging results in declaration order so
  parallel output is byte-identical to serial (a worker that dies
  fails the sweep with :class:`SweepError`);
* :mod:`repro.exp.points` — the one point runner, ``run_point``: a
  serialised topology spec plus the flows it runs;
* :mod:`repro.exp.bench` — per-run wall-clock records
  (``BENCH_sweeps.json``) for an engine given a ``bench_path``.

Quick taste::

    from repro.exp import Sweep, SweepEngine
    from repro.system import validation_spec
    from repro.workloads import FlowSpec

    dd = FlowSpec("dd", "dd_read", "disk", requests=1,
                  bytes_per_request=1 << 20)
    sweep = Sweep("widths")
    for width in (1, 2, 4, 8):
        spec = validation_spec(root_link_width=width,
                               device_link_width=width)
        sweep.add(f"x{width}", "repro.exp.points:run_point",
                  topology=spec.to_dict(), flows=[dd.to_dict()],
                  metrics={"gbps": "dd_throughput_gbps"})
    result = SweepEngine(cache_dir=".sweep-cache").run(sweep, workers=4)
    print(result.summary())
    print(result.results["x8"]["gbps"])
"""

from repro.exp.bench import append_record, load_records
from repro.exp.cache import ResultCache, cache_key, canonical_json
from repro.exp.engine import (
    SweepEngine,
    SweepError,
    SweepResult,
    default_workers,
)
from repro.exp.spec import Sweep, SweepPoint, resolve_runner, runner_path

__all__ = [
    "Sweep",
    "SweepPoint",
    "SweepEngine",
    "SweepError",
    "SweepResult",
    "ResultCache",
    "cache_key",
    "canonical_json",
    "append_record",
    "load_records",
    "default_workers",
    "resolve_runner",
    "runner_path",
]
