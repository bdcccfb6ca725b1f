"""Sweep-engine behaviour: ordering, caching, fan-out, bench records."""

import json
import os
import time

import pytest

from benchmarks.harness import RESULTS_DIR
from benchmarks.sweeps import FIGURE_METRICS, RUN_POINT, dd_flows, stress_sweep
from repro.exp import (
    Sweep,
    SweepEngine,
    SweepError,
    canonical_json,
    load_records,
)
from repro.system.spec import validation_spec
from tests.exp import runners


def cheap_sweep(n=4):
    sweep = Sweep("cheap")
    for x in range(n):
        sweep.add(f"p{x}", runners.quadratic, x=x)
    return sweep


def test_results_follow_declaration_order(tmp_path):
    sweep = Sweep("order")
    for x in (3, 1, 2):
        sweep.add(f"p{x}", runners.quadratic, x=x)
    result = SweepEngine().run(sweep, workers=1)
    assert list(result.results) == ["p3", "p1", "p2"]
    assert result.results["p3"]["value"] == 9


def test_uncached_engine_always_simulates():
    runners.CALLS.clear()
    engine = SweepEngine()  # no cache_dir
    engine.run(cheap_sweep(2), workers=1)
    engine.run(cheap_sweep(2), workers=1)
    assert len(runners.CALLS) == 4


def test_second_run_served_from_cache(tmp_path):
    runners.CALLS.clear()
    engine = SweepEngine(cache_dir=str(tmp_path / "cache"))
    first = engine.run(cheap_sweep(3), workers=1)
    assert first.cache_hits == 0
    second = engine.run(cheap_sweep(3), workers=1)
    assert second.cache_hits == 3
    assert "3 cached" in second.summary()
    assert len(runners.CALLS) == 3, "cached points must not re-simulate"
    assert canonical_json(first.results) == canonical_json(second.results)


def test_config_change_misses_cache(tmp_path):
    engine = SweepEngine(cache_dir=str(tmp_path / "cache"))
    engine.run(cheap_sweep(2), workers=1)
    changed = Sweep("cheap")
    changed.add("p0", runners.quadratic, x=0, scale=7)
    changed.add("p1", runners.quadratic, x=1)
    result = engine.run(changed, workers=1)
    assert result.cached == {"p0": False, "p1": True}


def test_schema_bump_invalidates_engine_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")
    SweepEngine(cache_dir=cache_dir, schema_version=1).run(
        cheap_sweep(2), workers=1)
    result = SweepEngine(cache_dir=cache_dir, schema_version=2).run(
        cheap_sweep(2), workers=1)
    assert result.cache_hits == 0


def test_corrupt_cache_entry_falls_back_to_rerun(tmp_path):
    cache_dir = tmp_path / "cache"
    engine = SweepEngine(cache_dir=str(cache_dir))
    engine.run(cheap_sweep(2), workers=1)
    for entry in cache_dir.glob("*.json"):
        entry.write_text("not json at all {{{")
    runners.CALLS.clear()
    result = engine.run(cheap_sweep(2), workers=1)
    assert result.cache_hits == 0
    assert len(runners.CALLS) == 2
    # And the rewritten entries serve the third run.
    assert engine.run(cheap_sweep(2), workers=1).cache_hits == 2


def test_runner_exception_propagates():
    sweep = Sweep("fails")
    sweep.add("bad", runners.failing, message="expected failure")
    with pytest.raises(RuntimeError, match="expected failure"):
        SweepEngine().run(sweep, workers=1)


def test_a_sweep_that_dies_keeps_its_finished_points(tmp_path):
    cache_dir = tmp_path / "cache"
    engine = SweepEngine(cache_dir=str(cache_dir))
    sweep = Sweep("dies")
    for x in range(5):
        sweep.add(f"p{x}", runners.fails_once, x=x)
    runners.CALLS.clear()
    runners.FAIL_ONCE.add(2)
    with pytest.raises(RuntimeError, match="point 2 died"):
        engine.run(sweep, workers=1)
    assert len(list(cache_dir.glob("*.json"))) == 2
    runners.CALLS.clear()
    result = engine.run(sweep, workers=1)
    assert [x for x, __ in runners.CALLS] == [2, 3, 4]
    assert result.cached == {
        "p0": True, "p1": True, "p2": False, "p3": False, "p4": False}


def test_bench_record_appended(tmp_path):
    bench_path = str(tmp_path / "BENCH_sweeps.json")
    engine = SweepEngine(cache_dir=str(tmp_path / "cache"),
                         bench_path=bench_path)
    engine.run(cheap_sweep(2), workers=1)
    engine.run(cheap_sweep(2), workers=1)
    records = load_records(bench_path)
    assert len(records) == 2
    fresh, cached = records
    assert fresh["sweep"] == "cheap"
    assert fresh["points"] == 2 and fresh["simulated"] == 2
    assert set(fresh["per_point_s"]) == {"p0", "p1"}
    assert fresh["total_wall_s"] >= 0
    assert "timestamp" in fresh
    assert cached["cache_hits"] == 2 and cached["simulated"] == 0


def test_invalid_worker_counts_rejected():
    with pytest.raises(ValueError):
        SweepEngine().run(cheap_sweep(1), workers=0)


def test_workers_clamped_to_cpu_count(monkeypatch):
    import concurrent.futures.process

    serial = SweepEngine().run(cheap_sweep(3), workers=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("one CPU must not start a worker pool")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                        no_pool)
    clamped = SweepEngine().run(cheap_sweep(3), workers=4)
    assert canonical_json(clamped.results) == canonical_json(serial.results)


def test_pooled_workers_inherit_the_declaring_process(monkeypatch):
    # Workers are forked: a module attribute set at run time, which a
    # freshly started interpreter would not see, reaches every point.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(runners, "FLAG", "set-at-run-time")
    sweep = Sweep("inherit")
    for x in range(4):
        sweep.add(f"p{x}", runners.read_flag, x=x)
    result = SweepEngine().run(sweep, workers=2)
    assert result.workers == 2
    assert [r["flag"] for r in result.results.values()] == \
        ["set-at-run-time"] * 4


def test_a_dead_worker_fails_the_sweep_fast(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    engine = SweepEngine(cache_dir=str(tmp_path / "cache"))
    sweep = Sweep("killed")
    for x in range(6):
        sweep.add(f"p{x}", runners.dies_once, x=x, die=3,
                  marker=str(tmp_path / "died"))
    start = time.monotonic()
    with pytest.raises(SweepError, match="before point 'p3' returned"):
        engine.run(sweep, workers=2)
    assert time.monotonic() - start < 10
    result = engine.run(sweep, workers=1)
    assert [hit for hit in result.cached.values()] == \
        [True, True, True, False, False, False]
    assert result.results["p5"]["value"] == 25


def test_default_workers_env(monkeypatch):
    from repro.exp import default_workers

    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "6")
    assert default_workers() == 6
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "zero")
    with pytest.raises(ValueError):
        default_workers()


# ---------------------------------------------------------------------------
# The acceptance-criterion test: a small Fig. 9(b)-style link-width sweep
# must produce byte-identical JSON from serial and 4-worker parallel runs,
# and a second invocation must be served from cache.
# ---------------------------------------------------------------------------

def small_fig9b_sweep():
    """Fig. 9(b)'s link-width sweep at a test-size block (64 KB)."""
    sweep = Sweep("fig9b_small")
    for width in (1, 2, 4, 8):
        spec = validation_spec(root_link_width=width,
                               device_link_width=width)
        sweep.add(f"x{width}", RUN_POINT, topology=spec.to_dict(),
                  flows=dd_flows(64 * 1024, 0), metrics=FIGURE_METRICS)
    return sweep


@pytest.mark.slow
def test_serial_and_parallel_fig9b_byte_identical(tmp_path):
    serial = SweepEngine(cache_dir=str(tmp_path / "serial-cache")).run(
        small_fig9b_sweep(), workers=1)
    parallel_engine = SweepEngine(cache_dir=str(tmp_path / "par-cache"))
    parallel = parallel_engine.run(small_fig9b_sweep(), workers=4)

    serial_bytes = json.dumps(serial.results, indent=2, sort_keys=True)
    parallel_bytes = json.dumps(parallel.results, indent=2, sort_keys=True)
    assert serial_bytes == parallel_bytes
    assert serial.cache_hits == 0 and parallel.cache_hits == 0

    # Second invocation: full cache hit, same bytes, and it says so.
    again = parallel_engine.run(small_fig9b_sweep(), workers=4)
    assert again.cache_hits == 4
    assert "4 cached, 0 simulated" in again.summary()
    assert json.dumps(again.results, indent=2, sort_keys=True) == serial_bytes

    # The physics survived the plumbing: x2 clearly out-runs x1.
    widths = serial.results
    assert widths["x2"]["throughput_gbps"] > 1.3 * widths["x1"]["throughput_gbps"]



def test_pooled_checked_stress_points_match_serial(monkeypatch):
    # Every fourth point of the checker-armed stress grid (the
    # multi-flow point among them) plus the non-posted storm, run in a
    # two-worker pool.  The committed payload is the serial run's bytes
    # (tests/test_artifacts.py regenerates it serially and compares).
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    full = stress_sweep().points
    sweep = Sweep("stress_sample")
    for point in full[::4] + full[-1:]:
        sweep.add(point.key, point.runner, **point.params)
    assert {"multiflow/er0.02", "np_storm/unpinned"} <= {
        point.key for point in sweep.points}
    pooled = SweepEngine().run(sweep, workers=2)
    with open(os.path.join(RESULTS_DIR, "stress_sweep.json")) as fh:
        serial = json.load(fh)
    assert canonical_json(pooled.results) == canonical_json(
        {key: serial[key] for key in pooled.results})
