"""Scenario library: serialisation, determinism, and invariant checks.

The acceptance battery of the traffic engine: every library scenario
round-trips through JSON, runs checker-armed to completion with zero
protocol-invariant violations, and reproduces byte-identical stats and
traces from the same seeds.
"""

import json

import pytest

from repro.obs.trace import MemorySink
from repro.system.spec import SpecError
from repro.workloads.scenarios import (SCENARIOS, Scenario, main,
                                       run_scenario)
from repro.workloads.traffic import TrafficError

#: Library builders at sizes small enough for the unit-test budget but
#: still past every interesting threshold (the irq storm deliberately
#: exceeds the IOCache's 16 MSHRs).
SMALL = {
    "fanout_contention": dict(requests=2),
    "mixed_rw": dict(requests=2),
    "irq_storm": dict(requests=2, storm_interrupts=20),
    "nic_loopback": dict(frames=2),
    "accel_fanout": dict(copies=2),
    # Unpinned on purpose: the writers must run at the disk-default 64
    # outstanding DMA packets — the config that used to livelock under
    # the single shared buffer pool (retired known deviation #4).
    "np_storm": dict(requests=2),
}


def small_scenario(name):
    return SCENARIOS[name](**SMALL[name])


# ---------------------------------------------------------------------------
# Pure-data layer.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_json_roundtrip_is_exact(name):
    scenario = SCENARIOS[name]()
    clone = Scenario.from_json(scenario.to_json())
    assert clone.canonical() == scenario.canonical()
    assert clone.digest() == scenario.digest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_digest_is_stable_across_builds(name):
    assert SCENARIOS[name]().digest() == SCENARIOS[name]().digest()


def test_scenario_rejects_incomplete_documents():
    with pytest.raises(TrafficError, match="requires"):
        Scenario.from_dict({"name": "x", "flows": []})
    with pytest.raises(TrafficError, match="no flows"):
        scenario = SCENARIOS["mixed_rw"]()
        Scenario("x", scenario.topology, [])


def test_scenario_rejects_a_flow_that_is_not_a_dict():
    doc = SCENARIOS["mixed_rw"]().to_dict()
    doc["flows"] = [5]
    with pytest.raises(TrafficError, match="flow must be a dict"):
        Scenario.from_dict(doc)


def test_scenario_rejects_a_topology_that_is_not_a_dict():
    doc = SCENARIOS["mixed_rw"]().to_dict()
    doc["topology"] = 5
    with pytest.raises(SpecError, match="topology must be a dict"):
        Scenario.from_dict(doc)


def test_builder_parameters_change_the_digest():
    assert SCENARIOS["fanout_contention"]().digest() != \
        SCENARIOS["fanout_contention"](uplink_width=2).digest()


# ---------------------------------------------------------------------------
# Checker-armed runs: the whole library, zero violations.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_library_scenario_completes_checked_with_zero_violations(name):
    system, engine = run_scenario(small_scenario(name), check=True)
    assert engine.completed, f"{name} did not complete"
    violations = system.sim.checker.violations
    assert not violations, \
        f"{name} violated: {sorted({v.rule for v in violations})}"
    results = engine.results()
    for flow, record in results["flows"].items():
        assert record["requests_completed"] == record["requests_issued"], flow


# ---------------------------------------------------------------------------
# Determinism: same scenario, same seeds -> byte-identical everything.
# ---------------------------------------------------------------------------

def run_with_trace(name):
    sink = MemorySink()
    system, engine = run_scenario(small_scenario(name), sink=sink)
    assert engine.completed
    stats = json.dumps(system.sim.dump_stats(), sort_keys=True)
    results = json.dumps(engine.results(), sort_keys=True)
    return stats, results, sink.to_jsonl(meta={"scenario": name})


@pytest.mark.parametrize("name", ("fanout_contention", "irq_storm"))
def test_repeated_runs_are_byte_identical(name):
    first = run_with_trace(name)
    second = run_with_trace(name)
    assert first[0] == second[0], "stats diverged"
    assert first[1] == second[1], "results diverged"
    assert first[2] == second[2], "traces diverged"


def test_seed_changes_move_the_jittered_timing():
    base = SCENARIOS["irq_storm"](requests=2, storm_interrupts=8, seed=1)
    moved = SCENARIOS["irq_storm"](requests=2, storm_interrupts=8, seed=99)
    __, engine_a = run_scenario(base)
    __, engine_b = run_scenario(moved)
    a = engine_a.results()["flows"]["storm"]["elapsed_ticks"]
    b = engine_b.results()["flows"]["storm"]["elapsed_ticks"]
    assert a != b  # the storm's jittered gaps are drawn from the seed


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

def test_cli_list_names_every_scenario(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_cli_runs_one_scenario_checked(capsys):
    for argv, names in ((["mixed_rw"], ["mixed_rw"]),
                        (["--all"], sorted(SCENARIOS))):
        assert main(argv + ["--check"]) == 0
        out = capsys.readouterr().out
        for name in names:
            assert f"== {name} (digest" in out
        assert out.count("violations = 0") == len(names)


def test_cli_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["no_such_scenario"])
    assert "unknown scenarios" in capsys.readouterr().err
