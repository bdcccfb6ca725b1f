"""Library point runners: spec documents in, metric shape out."""

import json

import pytest

from repro.exp.points import classic_pci_point, dd_point, mmio_point
from repro.sim import ticks
from repro.system.spec import (SpecError, classic_pci_spec,
                               deep_hierarchy_spec, nic_spec,
                               validation_spec)

SMALL = 16 * 1024  # one-IO-sized block keeps these runs fast


def _dd(**spec_kwargs):
    """A SMALL dd point on the validation fabric with ``spec_kwargs``."""
    return dd_point(validation_spec(**spec_kwargs).to_dict(), SMALL)


def test_dd_point_metric_shape_and_json_safety():
    result = _dd()
    assert set(result) == {"throughput_gbps", "transfer_gbps",
                           "replay_fraction", "fc_stall_ticks", "timeouts",
                           "tlps_sent", "device_level_gbps"}
    json.dumps(result)  # must round-trip for the cache
    assert result["throughput_gbps"] > 0


def test_dd_point_translates_gen_and_latency_names():
    # Generations travel as names and latencies as ticks, in the spec.
    gen1 = _dd(gen="GEN1")
    gen3 = _dd(gen="GEN3")
    assert gen1["throughput_gbps"] < gen3["throughput_gbps"]
    slow = _dd(switch_latency=ticks.from_ns(500))
    fast = _dd(switch_latency=0)
    assert fast["throughput_gbps"] > slow["throughput_gbps"]


def test_dd_point_rejects_unknown_generation():
    doc = validation_spec().to_dict()
    doc["children"][0]["link"]["gen"] = "GEN99"
    with pytest.raises(SpecError, match="GEN99"):
        dd_point(doc, SMALL)


def test_dd_point_topology_axis_runs_serialized_specs():
    spec = deep_hierarchy_spec(2, 1)
    result = dd_point(spec.to_dict(), SMALL, device="sw2_disk0")
    assert result["throughput_gbps"] > 0
    json.dumps(result)
    # Naming the sole disk runs exactly the point that leaves it implicit.
    doc = validation_spec().to_dict()
    assert dd_point(doc, SMALL, device="disk") == dd_point(doc, SMALL)


def test_mmio_point_latency_tracks_rc_latency():
    fast = mmio_point(nic_spec(rc_latency=ticks.from_ns(50)).to_dict(),
                      iterations=5)
    slow = mmio_point(nic_spec(rc_latency=ticks.from_ns(150)).to_dict(),
                      iterations=5)
    assert set(fast) == {"mmio_read_ns"}
    assert slow["mmio_read_ns"] > fast["mmio_read_ns"]


def test_classic_pci_point_reports_throughput():
    result = classic_pci_point(classic_pci_spec().to_dict(), SMALL)
    assert set(result) == {"throughput_gbps"}
    assert result["throughput_gbps"] > 0
