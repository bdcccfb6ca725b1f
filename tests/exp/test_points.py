"""The point runner: a machine plus flows in, a projected record out."""

import json

import pytest

from benchmarks.sweeps import (CLASSIC_METRICS, FIGURE_METRICS, MMIO_METRICS,
                               STRESS_METRICS, dd_flows)
from repro.check import InvariantChecker, InvariantViolation
from repro.exp import points
from repro.exp.points import run_point
from repro.sim import ticks
from repro.system.spec import (SpecError, classic_pci_spec,
                               deep_hierarchy_spec, nic_spec,
                               validation_spec)
from repro.workloads.traffic import FlowSpec

SMALL = 16 * 1024  # one-IO-sized block keeps these runs fast


def _dd(**spec_kwargs):
    """A SMALL dd point on the validation fabric with ``spec_kwargs``."""
    return run_point(validation_spec(**spec_kwargs).to_dict(),
                     dd_flows(SMALL, 0), FIGURE_METRICS)


def test_figure_point_metric_shape_and_json_safety():
    result = _dd()
    assert set(result) == {"throughput_gbps", "transfer_gbps",
                           "replay_fraction", "fc_stall_ticks", "timeouts",
                           "tlps_sent", "device_level_gbps"}
    json.dumps(result)  # must round-trip for the cache
    assert result["throughput_gbps"] > 0


def test_point_translates_gen_and_latency_names():
    # Generations travel as names and latencies as ticks, in the spec.
    gen1 = _dd(gen="GEN1")
    gen3 = _dd(gen="GEN3")
    assert gen1["throughput_gbps"] < gen3["throughput_gbps"]
    slow = _dd(switch_latency=ticks.from_ns(500))
    fast = _dd(switch_latency=0)
    assert fast["throughput_gbps"] > slow["throughput_gbps"]


def test_point_rejects_unknown_generation():
    doc = validation_spec().to_dict()
    doc["children"][0]["link"]["gen"] = "GEN99"
    with pytest.raises(SpecError, match="GEN99"):
        run_point(doc, dd_flows(SMALL, 0), FIGURE_METRICS)


def test_point_topology_axis_runs_serialized_specs():
    spec = deep_hierarchy_spec(2, 1)
    result = run_point(spec.to_dict(),
                       dd_flows(SMALL, 0, device="sw2_disk0"), FIGURE_METRICS)
    assert result["throughput_gbps"] > 0
    json.dumps(result)


def test_start_delay_counts_in_dd_throughput_only():
    topology = validation_spec().to_dict()
    metrics = dict(FIGURE_METRICS, gbps="dd_gbps")
    prompt = run_point(topology, dd_flows(SMALL, 0), metrics)
    late = run_point(topology, dd_flows(SMALL, ticks.from_us(100)),
                     metrics)
    assert late["transfer_gbps"] == prompt["transfer_gbps"]
    assert late["gbps"] == prompt["gbps"]
    assert late["throughput_gbps"] < prompt["throughput_gbps"]
    assert prompt["throughput_gbps"] == prompt["transfer_gbps"]


def test_mmio_flow_latency_tracks_rc_latency():
    def mean_ns(rc_ns):
        topology = nic_spec(rc_latency=ticks.from_ns(rc_ns)).to_dict()
        flows = [FlowSpec("mmio", "mmio_read", "nic", requests=5).to_dict()]
        return run_point(topology, flows, MMIO_METRICS)

    fast, slow = mean_ns(50), mean_ns(150)
    assert set(fast) == {"mmio_read_ns"}
    assert slow["mmio_read_ns"] > fast["mmio_read_ns"]


def test_classic_pci_flow_reports_throughput():
    result = run_point(classic_pci_spec().to_dict(), dd_flows(SMALL, 0),
                       CLASSIC_METRICS)
    assert set(result) == {"throughput_gbps"}
    assert result["throughput_gbps"] > 0


def test_metrics_must_name_record_entries():
    with pytest.raises(KeyError, match="dd_bogus"):
        run_point(validation_spec().to_dict(), dd_flows(SMALL, 0),
                  {"x": "dd_bogus"})


def test_unreported_completion_raises_on_a_wedged_point(monkeypatch):
    monkeypatch.setattr(points, "_MAX_EVENTS", 200)
    topology = validation_spec().to_dict()
    with pytest.raises(RuntimeError, match="wedged"):
        run_point(topology, dd_flows(SMALL, 0), FIGURE_METRICS)
    recorded = run_point(topology, dd_flows(SMALL, 0), STRESS_METRICS)
    assert recorded["completed"] == 0.0
    assert recorded["throughput_gbps"] == 0.0


def test_armed_point_raises_unless_its_metrics_report_violations(
        monkeypatch):
    def injected(self, iface, ppkt):
        self._violate("test.injected", iface.full_name, "injected")

    monkeypatch.setattr(InvariantChecker, "link_tlp_delivered", injected)
    topology = validation_spec().to_dict()
    # A figure point is fail-loud: the first violation stops the run.
    with pytest.raises(InvariantViolation) as exc:
        run_point(topology, dd_flows(SMALL, 0), FIGURE_METRICS, check=True)
    assert exc.value.rule == "test.injected"
    # A stress or scenario point reports violations, so it records them.
    recorded = run_point(topology, dd_flows(SMALL, 0), STRESS_METRICS,
                         check=True)
    assert recorded["completed"] == 1.0
    assert recorded["violations"] > 0
    assert recorded["violated_rules"] == ["test.injected"]
