"""The sweep engine: cache-aware, parallel, deterministically merged.

Every sweep point is an independent deterministic simulation, so a
sweep is embarrassingly parallel.  The engine exploits that in three
layers:

1. **Cache** — each point's result is looked up in a
   :class:`repro.exp.cache.ResultCache` keyed by the canonical hash of
   (runner, params, schema version); hits skip simulation entirely.
2. **Fan-out** — cache misses are executed across a
   process pool forked from the declaring process (``spawn`` only where
   there is no ``fork``), so workers start with its modules imported;
   ARCHITECTURE.md (``repro.exp``) says why what they inherit is
   harmless.  With ``workers <= 1`` misses run in-process, which is
   also the fallback when there is only one miss to run.  Each outcome
   is cached as it arrives, so a sweep that dies at point k keeps
   points 0..k-1, and a dead worker raises :class:`SweepError`
   naming point k.
3. **Merge** — results are assembled strictly in the sweep's point
   declaration order and normalised through a canonical-JSON round
   trip, so the merged output is byte-identical no matter how many
   workers produced it and whether any point came from cache.

Wall-clock accounting (per point and total) is appended to a
``BENCH_sweeps.json`` record when the engine has a bench path.
"""

import json
import multiprocessing
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.exp import bench as bench_mod
from repro.exp.cache import (
    RESULT_SCHEMA_VERSION,
    ResultCache,
    cache_key,
    canonical_json,
)
from repro.exp.spec import Sweep, SweepPoint, resolve_runner

__all__ = ["SweepEngine", "SweepError", "SweepResult", "default_workers"]

#: Environment variable consulted for the default worker count.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"


class SweepError(RuntimeError):
    """A sweep worker died (killed, out of memory); the message names
    the earliest point left without a result."""


def default_workers() -> int:
    """Worker count to use when the caller does not choose one.

    Reads :data:`WORKERS_ENV` (``REPRO_SWEEP_WORKERS``); defaults to 1
    (serial) because sweeps inside the test suite should not silently
    fork pools on small CI machines.
    """
    value = os.environ.get(WORKERS_ENV, "").strip()
    if not value:
        return 1
    try:
        workers = int(value)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV}={value!r} is not an integer") from None
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


def _normalise(result: Any) -> Any:
    """Round-trip a result through canonical JSON.

    Fresh results pass through here before being returned or cached, so
    a point served from cache is structurally indistinguishable from a
    freshly simulated one (int-vs-float identity, key order, tuples
    collapsed to lists) — the byte-identity guarantee depends on it.
    """
    return json.loads(canonical_json(result))


def _execute_point(payload: Tuple[str, Dict[str, Any]]) -> Tuple[Any, float]:
    """Worker entry point: run one (runner_path, params) sweep point and
    return the normalised result and the point's wall-clock seconds."""
    runner_path, params = payload
    runner = resolve_runner(runner_path)
    start = time.perf_counter()
    result = runner(**params)
    elapsed = time.perf_counter() - start
    return _normalise(result), elapsed


def _execute_in_order(points: List[SweepPoint], nworkers: int):
    """Yield each point's ``(result, elapsed)`` in order, as soon as it
    and every point before it have finished, on no more workers than
    points or CPUs.  A pool that stops early (a point raised, a worker
    died, the generator closed) cancels the points not started."""
    payloads = [(point.runner, point.params) for point in points]
    nworkers = min(nworkers, len(payloads), os.cpu_count() or 1)
    if nworkers <= 1:
        yield from map(_execute_point, payloads)
        return
    # Imported here: a process that never starts a pool never loads it.
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "spawn"
    pool = ProcessPoolExecutor(
        nworkers, mp_context=multiprocessing.get_context(method))
    try:
        outcomes = pool.map(_execute_point, payloads)
        for point in points:
            try:
                outcome = next(outcomes)
            except BrokenProcessPool as exc:
                raise SweepError(f"a worker died before point "
                                 f"{point.key!r} returned") from exc
            yield outcome
    finally:
        pool.shutdown(cancel_futures=True)


class SweepResult:
    """The outcome of one :meth:`SweepEngine.run`.

    Attributes:
        name: the sweep's name.
        results: ``{point key: result}`` in point declaration order;
            this mapping is what callers persist, and it is identical
            bytes-for-bytes across serial, parallel, and cached runs.
        cached: ``{point key: bool}`` — True where the point was served
            from the result cache.
        per_point_s: ``{point key: wall seconds}`` (0.0 for cache hits).
        total_wall_s: wall-clock seconds for the whole run.
        workers: worker processes used for this run's misses.
        record: the record appended to ``BENCH_sweeps.json`` (also
            built when no bench path is configured).
    """

    def __init__(self, name: str, results: Dict[str, Any],
                 cached: Dict[str, bool], per_point_s: Dict[str, float],
                 total_wall_s: float, workers: int,
                 record: Dict[str, Any]):
        self.name = name
        self.results = results
        self.cached = cached
        self.per_point_s = per_point_s
        self.total_wall_s = total_wall_s
        self.workers = workers
        self.record = record

    @property
    def cache_hits(self) -> int:
        """Number of points served from cache in this run."""
        return sum(1 for hit in self.cached.values() if hit)

    def summary(self) -> str:
        """One human line: points, cache split, workers, wall-clock."""
        total = len(self.results)
        hits = self.cache_hits
        return (f"sweep {self.name!r}: {total} points "
                f"({hits} cached, {total - hits} simulated) "
                f"with {self.workers} worker(s) in {self.total_wall_s:.2f}s")

    def __repr__(self) -> str:
        return f"<SweepResult {self.summary()}>"


class SweepEngine:
    """Runs :class:`repro.exp.spec.Sweep` objects; see the module doc.

    Args:
        cache_dir: directory for the result cache, or None to disable
            caching (every point simulates every run).
        bench_path: path of the ``BENCH_sweeps.json`` record file, or
            None to skip wall-clock persistence.
        workers: default worker count for :meth:`run`; None defers to
            :func:`default_workers` (the ``REPRO_SWEEP_WORKERS``
            environment variable, else serial).
        schema_version: cache schema version; tests override this to
            exercise invalidation, everything else should leave it at
            :data:`repro.exp.cache.RESULT_SCHEMA_VERSION`.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 bench_path: Optional[str] = None,
                 workers: Optional[int] = None,
                 schema_version: int = RESULT_SCHEMA_VERSION):
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.bench_path = bench_path
        self.workers = workers
        self.schema_version = schema_version

    def run(self, sweep: Sweep, workers: Optional[int] = None) -> SweepResult:
        """Run every point of ``sweep``; see the module doc for phases.

        Args:
            sweep: the sweep to run.
            workers: worker processes for this run's cache misses
                (overrides the engine default for this call only).

        Returns:
            A :class:`SweepResult` with results merged in point order.
        """
        nworkers = workers if workers is not None else (
            self.workers if self.workers is not None else default_workers())
        if nworkers < 1:
            raise ValueError(f"workers must be >= 1, got {nworkers}")
        start = time.perf_counter()

        points = sweep.points
        results: Dict[str, Any] = {}
        cached: Dict[str, bool] = {}
        per_point_s: Dict[str, float] = {}
        misses: List[int] = []
        keys = []
        for index, point in enumerate(points):
            digest, key_doc = cache_key(point.runner, point.params,
                                        self.schema_version)
            keys.append((digest, key_doc))
            entry = self.cache.get(digest, key_doc) if self.cache else None
            if entry is not None:
                results[point.key] = entry["result"]
                cached[point.key] = True
                per_point_s[point.key] = 0.0
            else:
                misses.append(index)

        outcomes = _execute_in_order([points[i] for i in misses], nworkers)
        try:
            for index, (result, elapsed) in zip(misses, outcomes):
                point = points[index]
                results[point.key] = result
                cached[point.key] = False
                per_point_s[point.key] = round(elapsed, 6)
                if self.cache:
                    self.cache.put(*keys[index], result, elapsed)
        finally:
            # zip stops before the generator does: shut the pool now.
            outcomes.close()

        # Re-assemble in declaration order: dict insertion order above
        # follows cache-hit-then-miss, not the sweep order.
        ordered = {p.key: results[p.key] for p in points}
        cached = {p.key: cached[p.key] for p in points}
        per_point_s = {p.key: per_point_s[p.key] for p in points}

        total_wall_s = round(time.perf_counter() - start, 6)
        record = {
            "sweep": sweep.name,
            "points": len(points),
            "cache_hits": sum(1 for hit in cached.values() if hit),
            "simulated": len(misses),
            "workers": nworkers,
            "schema_version": self.schema_version,
            "total_wall_s": total_wall_s,
            "per_point_s": per_point_s,
        }
        if self.bench_path:
            record = bench_mod.append_record(self.bench_path, record)
        return SweepResult(sweep.name, ordered, cached, per_point_s,
                           total_wall_s, nworkers, record)
