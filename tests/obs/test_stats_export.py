"""Unit tests for the typed statistics export."""

import json

from repro.mem.addr import AddrRange
from repro.obs.stats_export import STATS_SCHEMA, export_stats, write_stats_json
from repro.pcie.link import PcieLink
from repro.sim.simobject import SimObject, Simulator
from repro.system.spec import LinkSpec

from tests.mem.helpers import FakeMaster, FakeSlave


def build_traffic_sim():
    sim = Simulator()
    link = PcieLink.from_spec(sim, "link", LinkSpec())
    device = FakeMaster(sim, "device")
    memory = FakeSlave(sim, "memory")
    device.port.bind(link.downstream_if.slave_port)
    link.upstream_if.master_port.bind(memory.port)
    for i in range(4):
        device.write(0x1000 + i * 64, 64)
    sim.run(max_events=1_000_000)
    return sim, link


def test_export_covers_every_registered_stat():
    sim, __ = build_traffic_sim()
    doc = export_stats(sim)
    flat = sim.stats.dump()
    assert doc["schema"] == STATS_SCHEMA
    assert set(doc["stats"]) == set(flat)
    for name, record in doc["stats"].items():
        assert "type" in record and "desc" in record, name


def test_typed_records_preserve_kind_and_value():
    sim, link = build_traffic_sim()
    doc = export_stats(sim)
    sent = doc["stats"]["link.down_if.tlps_sent"]
    assert sent["type"] == "scalar"
    assert sent["value"] == link.downstream_if.tlps_sent.value() == 4
    frac = doc["stats"]["link.down_if.replay_fraction"]
    assert frac["type"] == "formula"
    assert frac["value"] == 0.0


def test_export_records_component_configs():
    sim, link = build_traffic_sim()
    doc = export_stats(sim)
    config = doc["components"]["link"]
    assert config["kind"] == "pcie_link"
    assert config["width"] == link.width
    assert config["replay_timeout"] == link.replay_timeout


def test_export_carries_run_state_and_meta():
    sim, __ = build_traffic_sim()
    doc = export_stats(sim, meta={"workload": "unit"})
    assert doc["curtick"] == sim.curtick > 0
    assert doc["events_processed"] == sim.eventq.events_processed > 0
    assert doc["meta"] == {"workload": "unit"}


def test_write_stats_json_round_trips(tmp_path):
    sim, __ = build_traffic_sim()
    path = write_stats_json(sim, str(tmp_path / "stats.json"))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc == json.loads(json.dumps(export_stats(sim)))


def test_distribution_and_average_records():
    sim = Simulator()
    obj = SimObject(sim, "obj")
    dist = obj.stats.distribution("lat", "latency")
    for v in (1, 2, 3):
        dist.sample(v)
    avg = obj.stats.average("occ", "occupancy")
    avg.sample(10)
    avg.sample(20)
    doc = export_stats(sim)
    rec = doc["stats"]["obj.lat"]
    assert rec["type"] == "distribution"
    assert rec["count"] == 3 and rec["min"] == 1 and rec["max"] == 3
    assert rec["mean"] == 2.0
    rec = doc["stats"]["obj.occ"]
    assert rec["type"] == "average"
    assert rec["value"] == 15.0 and rec["count"] == 2
