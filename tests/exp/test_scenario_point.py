"""Scenarios as sweep points: shape, determinism, and caching.

A scenario point is a machine plus several flows, run by the same
``run_point`` as every other point: a flat JSON-safe metrics dict,
byte-identical results whether the sweep runs serially or fanned out
across processes, and a cache hit on re-run.
"""

import json

from benchmarks.sweeps import RUN_POINT, scenario_params
from repro.exp import Sweep, SweepEngine
from repro.exp.points import run_point
from repro.workloads.scenarios import fanout_contention


def small_params(**overrides):
    kwargs = dict(fanout=2, requests=2, block_bytes=8192)
    kwargs.update(overrides)
    return scenario_params(fanout_contention(**kwargs))


def small_sweep():
    sweep = Sweep("traffic_small")
    sweep.add("x1", RUN_POINT, **small_params(uplink_width=1))
    sweep.add("x2", RUN_POINT, **small_params(uplink_width=2))
    return sweep


def test_scenario_metric_shape_and_json_safety():
    result = run_point(**small_params())
    assert result["completed"] == 1.0
    assert result["violations"] == 0.0
    assert result["violated_rules"] == []
    assert result["fairness_index"] >= 0.98
    assert result["total_gbps"] > 0
    for flow in ("reader0", "reader1"):
        assert result[f"{flow}_gbps"] > 0
        assert result[f"{flow}_bytes"] == 2 * 8192
        assert result[f"{flow}_p99_ns"] > 0
        assert 0 < result[f"{flow}_share"] < 1
    json.dumps(result)  # must round-trip for the cache


def test_scenario_check_arms_recording_checker():
    result = run_point(**small_params(error_rate=0.05), check=True)
    assert result["completed"] == 1.0
    assert result["violations"] == 0.0


def test_serial_and_parallel_sweeps_are_byte_identical():
    serial = SweepEngine().run(small_sweep(), workers=1)
    parallel = SweepEngine().run(small_sweep(), workers=2)
    assert json.dumps(serial.results, sort_keys=True) == \
        json.dumps(parallel.results, sort_keys=True)


def test_second_run_is_served_from_cache(tmp_path):
    engine = SweepEngine(cache_dir=str(tmp_path / "cache"))
    first = engine.run(small_sweep(), workers=1)
    assert first.cache_hits == 0
    second = engine.run(small_sweep(), workers=1)
    assert second.cache_hits == 2
    assert json.dumps(first.results, sort_keys=True) == \
        json.dumps(second.results, sort_keys=True)


def test_scenario_parameter_changes_miss_the_cache(tmp_path):
    engine = SweepEngine(cache_dir=str(tmp_path / "cache"))
    sweep = Sweep("traffic_small")
    sweep.add("x1", RUN_POINT, **small_params(uplink_width=1))
    engine.run(sweep, workers=1)
    changed = Sweep("traffic_small")
    changed.add("x1", RUN_POINT, **small_params(uplink_width=2))
    result = engine.run(changed, workers=1)
    assert result.cache_hits == 0
