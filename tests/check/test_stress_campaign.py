"""The fault-injection stress campaign, via the repro.exp sweep engine.

The full 36-point grid (error_rate x dllp_error_rate x
replay_buffer_size x input_queue_size) runs in CI through
``python -m benchmarks.harness stress``; here a deterministic sample of
the grid's corners runs through the engine uncached so tier-1 proves
the campaign machinery end to end: every sampled configuration must
complete its transfer with zero invariant violations.
"""

from benchmarks.sweeps import (
    STRESS_DLLP_ERROR_RATES,
    STRESS_ERROR_RATES,
    STRESS_INPUT_QUEUES,
    STRESS_REPLAY_BUFFERS,
    stress_sweep,
)
from repro.exp import Sweep, SweepEngine

#: The corners tier-1 runs: clean baseline, the worst of each error
#: kind alone, and everything-at-once on the tightest buffers.
SAMPLED_KEYS = (
    "er0.0/dllp0.0/rb4/iq2",
    "er0.1/dllp0.0/rb1/iq2",
    "er0.0/dllp0.1/rb2/iq1",
    "er0.1/dllp0.1/rb1/iq1",
)


def test_grid_shape_and_params_are_json_safe():
    sweep = stress_sweep()
    grid = (len(STRESS_ERROR_RATES) * len(STRESS_DLLP_ERROR_RATES)
            * len(STRESS_REPLAY_BUFFERS) * len(STRESS_INPUT_QUEUES))
    # The full grid plus the checker-armed multi-flow and
    # credit-starvation scenario points.
    assert len(sweep) == grid + 2 == 38
    assert "multiflow/er0.02" in {p.key for p in sweep.points}
    assert "np_storm/unpinned" in {p.key for p in sweep.points}
    # SweepPoint construction already validated canonical-JSON-safety;
    # spot-check the campaign's swept knobs reach both links of the
    # point's machine.
    point = {p.key: p for p in sweep.points}["er0.1/dllp0.1/rb4/iq1"]
    assert set(point.params) == {"topology", "block_bytes"}
    root = point.params["topology"]["children"][0]
    for link in (root["link"], root["children"][0]["link"]):
        assert (link["error_rate"], link["dllp_error_rate"],
                link["replay_buffer_size"], link["input_queue_size"]) == (
                    0.1, 0.1, 4, 1)


def test_sampled_campaign_corners_complete_with_zero_violations():
    full = stress_sweep()
    by_key = {p.key: p for p in full.points}
    sampled = Sweep("stress_sample")
    for key in SAMPLED_KEYS:
        point = by_key[key]  # KeyError here means the grid changed
        sampled.add(key, point.runner, **point.params)

    engine = SweepEngine(cache_dir=None)  # always simulate fresh
    result = engine.run(sampled)

    assert set(result.results) == set(SAMPLED_KEYS)
    for key, metrics in result.results.items():
        assert metrics["completed"] == 1.0, f"{key} wedged"
        assert metrics["violations"] == 0.0, (
            f"{key} violated {metrics['violated_rules']}")
    # The error-injecting corners really corrupted traffic.
    assert result.results["er0.1/dllp0.1/rb1/iq1"]["tlps_corrupted"] > 0
    assert result.results["er0.1/dllp0.1/rb1/iq1"]["dllps_corrupted"] > 0
    assert result.results["er0.0/dllp0.0/rb4/iq2"]["tlps_corrupted"] == 0
