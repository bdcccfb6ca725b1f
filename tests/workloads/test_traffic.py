"""Unit tests for the multi-flow traffic engine.

Covers the pure-data layer (FlowSpec validation and serialisation),
engine binding errors (missing devices, capability mismatches,
exclusive ownership), per-kind request conservation, and the stats
tree contract (``traffic.<flow>.*``).
"""

import pytest

from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import DeviceSpec, LinkSpec, SwitchSpec, TopologySpec
from repro.system.topology import build_system
from repro.workloads.traffic import (FLOW_KINDS, FlowSpec, TrafficEngine,
                                     TrafficError, jain_fairness)


def small_spec(*device_specs):
    """A root with the given devices behind one x2 switch uplink."""
    return TopologySpec(children=[
        SwitchSpec(name="switch",
                   link=LinkSpec(name="uplink", gen="GEN2", width=2),
                   children=list(device_specs)),
    ]).finalize()


def disk_spec(name):
    return DeviceSpec("disk", name=name,
                      link=LinkSpec(name=name, gen="GEN2", width=1))


def run_engine(system, flows, max_events=50_000_000):
    engine = TrafficEngine(system, flows)
    engine.start()
    system.run(max_events=max_events)
    assert engine.completed
    return engine


# ---------------------------------------------------------------------------
# FlowSpec: validation and serialisation.
# ---------------------------------------------------------------------------

def test_flowspec_roundtrip_is_exact():
    spec = FlowSpec(name="f", kind="dd_read", device="disk0", requests=3,
                    bytes_per_request=8192, gap=100, jitter=0.25, burst=2,
                    seed=7, start_delay=50)
    doc = spec.to_dict()
    assert set(doc) == set(FlowSpec.FIELDS)
    assert FlowSpec.from_dict(doc).to_dict() == doc


@pytest.mark.parametrize("bad", [
    dict(name=""),
    dict(kind="warp_drive"),
    dict(device=""),
    dict(requests=0),
    dict(bytes_per_request=0),
    dict(gap=-1),
    dict(jitter=1.5),
    dict(burst=0),
    dict(loopback=True),  # only valid for nic_tx
])
def test_flowspec_validation_rejects(bad):
    base = dict(name="f", kind="dd_read", device="d")
    base.update(bad)
    with pytest.raises(TrafficError):
        FlowSpec(**base).validate()


@pytest.mark.parametrize("field, value", [
    ("requests", "8"),
    ("requests", 2.5),
    ("requests", True),
    ("bytes_per_request", 4096.0),
    ("gap", None),
    ("burst", "1"),
    ("seed", 1.0),
    ("start_delay", False),
    ("mmio_offset", "0x8"),
    ("jitter", "0.1"),
    ("jitter", True),
    ("loopback", 1),
    ("name", 7),
    ("kind", ["dd_read"]),
    ("device", None),
])
def test_flowspec_validation_names_the_mistyped_field(field, value):
    doc = FlowSpec(name="f", kind="dd_read", device="d").to_dict()
    doc[field] = value
    with pytest.raises(TrafficError, match=f"{field} must be"):
        FlowSpec.from_dict(doc).validate()


def test_flowspec_from_dict_rejects_unknown_and_incomplete():
    with pytest.raises(TrafficError, match="unknown"):
        FlowSpec.from_dict({"name": "f", "kind": "dd_read", "device": "d",
                            "bogus": 1})
    with pytest.raises(TrafficError, match="requires"):
        FlowSpec.from_dict({"name": "f", "kind": "dd_read"})


def test_every_flow_kind_is_validatable():
    for kind in FLOW_KINDS:
        FlowSpec(name="f", kind=kind, device="d").validate()


# ---------------------------------------------------------------------------
# Engine binding errors: a bad scenario fails before any event runs.
# ---------------------------------------------------------------------------

def test_engine_rejects_empty_and_duplicate_flows():
    system = build_system(small_spec(disk_spec("disk0")))
    with pytest.raises(TrafficError, match="at least one"):
        TrafficEngine(system, [])
    flows = [FlowSpec(name="f", kind="dd_read", device="disk0"),
             FlowSpec(name="f", kind="mmio_read", device="disk0")]
    with pytest.raises(TrafficError, match="duplicate"):
        TrafficEngine(system, flows)


def test_engine_rejects_unknown_device_and_names_alternatives():
    system = build_system(small_spec(disk_spec("disk0")))
    with pytest.raises(TrafficError, match="disk0"):
        TrafficEngine(system, [FlowSpec(name="f", kind="dd_read",
                                        device="nope")])


def test_engine_rejects_kind_capability_mismatch():
    system = build_system(small_spec(disk_spec("disk0")))
    with pytest.raises(TrafficError, match="wrong device kind"):
        TrafficEngine(system, [FlowSpec(name="f", kind="nic_tx",
                                        device="disk0")])


@pytest.mark.parametrize("kind", ["dd_read", "dd_write"])
@pytest.mark.parametrize("nbytes", [100, 1000, 4096 + 512])
def test_engine_rejects_dd_requests_that_are_not_whole_sectors(kind, nbytes):
    system = build_system(small_spec(disk_spec("disk0")))
    with pytest.raises(TrafficError, match=r"'f'.*4096-byte sector"):
        TrafficEngine(system, [FlowSpec(name="f", kind=kind, device="disk0",
                                        requests=2,
                                        bytes_per_request=nbytes)])


def test_engine_enforces_exclusive_device_ownership():
    system = build_system(small_spec(disk_spec("disk0")))
    flows = [FlowSpec(name="a", kind="dd_read", device="disk0", requests=1),
             FlowSpec(name="b", kind="dd_write", device="disk0", requests=1)]
    with pytest.raises(TrafficError, match="exclusive"):
        TrafficEngine(system, flows)


def test_mmio_probe_may_share_an_owned_device():
    system = build_system(small_spec(disk_spec("disk0")))
    engine = run_engine(system, [
        FlowSpec(name="reader", kind="dd_read", device="disk0", requests=1),
        FlowSpec(name="probe", kind="mmio_read", device="disk0", requests=2),
    ])
    results = engine.results()
    assert results["flows"]["probe"]["requests_completed"] == 2


def test_engine_cannot_start_twice():
    system = build_system(small_spec(disk_spec("disk0")))
    engine = TrafficEngine(system, [
        FlowSpec(name="f", kind="dd_read", device="disk0", requests=1)])
    engine.start()
    with pytest.raises(TrafficError, match="already started"):
        engine.start()


# ---------------------------------------------------------------------------
# Conservation: every issued request completes, bytes match the spec.
# ---------------------------------------------------------------------------

def test_dd_flows_conserve_requests_and_bytes():
    system = build_system(small_spec(disk_spec("disk0"), disk_spec("disk1")))
    requests, bpr = 3, 8192
    engine = run_engine(system, [
        FlowSpec(name="r", kind="dd_read", device="disk0",
                 requests=requests, bytes_per_request=bpr),
        FlowSpec(name="w", kind="dd_write", device="disk1",
                 requests=requests, bytes_per_request=bpr),
    ])
    results = engine.results()
    for name in ("r", "w"):
        record = results["flows"][name]
        assert record["requests_issued"] == requests
        assert record["requests_completed"] == requests
        assert record["bytes"] == requests * bpr
        assert record["throughput_gbps"] > 0
    # The disks saw exactly the flow's sectors — nothing lost, nothing
    # duplicated.
    sector = system.drivers["disk0"].sector_size
    for disk_name in ("disk0", "disk1"):
        disk = system.devices[disk_name]
        assert disk.sectors_transferred.value() == requests * bpr // sector


def test_flow_stats_land_in_the_stats_tree():
    system = build_system(small_spec(disk_spec("disk0")))
    run_engine(system, [FlowSpec(name="reader", kind="dd_read",
                                 device="disk0", requests=2)])
    dump = system.sim.dump_stats()
    assert dump["traffic.reader.requests_issued"] == 2
    assert dump["traffic.reader.requests_completed"] == 2
    assert dump["traffic.reader.bytes_moved"] == 2 * 4096
    assert dump["traffic.reader.request_ticks::count"] == 2
    assert dump["traffic.reader.request_ticks::p99"] >= \
        dump["traffic.reader.request_ticks::p50"] > 0


def test_gap_and_start_delay_shape_the_flow():
    # A gapped flow finishes strictly later than a saturating one with
    # the same request count, and start_delay offsets the first issue.
    def elapsed(gap, start_delay):
        system = build_system(small_spec(disk_spec("disk0")))
        engine = TrafficEngine(system, [
            FlowSpec(name="f", kind="dd_read", device="disk0", requests=3,
                     gap=gap, start_delay=start_delay)])
        engine.start()
        system.run(max_events=50_000_000)
        assert engine.completed
        state = engine._states["f"]
        return state.first_issue_tick, state.last_complete_tick

    first_a, last_a = elapsed(0, 0)
    first_b, last_b = elapsed(ticks.from_us(50), 0)
    first_c, __ = elapsed(0, ticks.from_us(10))
    assert last_b - first_b > last_a - first_a
    assert first_c >= first_a + ticks.from_us(10)


def test_jitter_draws_are_deterministic_per_seed():
    def run(seed):
        system = build_system(small_spec(disk_spec("disk0")))
        engine = run_engine(system, [
            FlowSpec(name="f", kind="dd_read", device="disk0", requests=4,
                     gap=ticks.from_us(20), jitter=0.5, seed=seed)])
        return engine.results()["flows"]["f"]

    assert run(3) == run(3)
    # A different seed draws different gaps, so the timing moves.
    assert run(3)["elapsed_ticks"] != run(4)["elapsed_ticks"]


# ---------------------------------------------------------------------------
# Interrupt-storm flows: every raised MSI is delivered (the IOCache
# posted-write regression of the irq_storm scenario).
# ---------------------------------------------------------------------------

def test_irq_storm_delivers_every_msi_past_the_iocache():
    # More interrupts than the IOCache has MSHRs: a posted MSI write
    # leaking an MSHR wedges the fabric after 16 of these.
    topology = TopologySpec(enable_msi=True, children=[
        SwitchSpec(name="switch",
                   link=LinkSpec(name="uplink", gen="GEN2", width=2),
                   children=[
                       DeviceSpec("nic", name="nic0",
                                  link=LinkSpec(name="nic0", gen="GEN2",
                                                width=1)),
                   ]),
    ]).finalize()
    system = build_system(topology)
    n = 24
    engine = run_engine(system, [
        FlowSpec(name="storm", kind="irq_storm", device="nic0", requests=n,
                 gap=ticks.from_us(2))])
    results = engine.results()
    assert results["flows"]["storm"]["requests_completed"] == n
    assert results["flows"]["storm"]["bytes"] == 0


# ---------------------------------------------------------------------------
# Jain's fairness index arithmetic.
# ---------------------------------------------------------------------------

def test_jain_fairness_arithmetic():
    assert jain_fairness([]) == 0.0
    assert jain_fairness([0.0, 0.0]) == 0.0
    assert jain_fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0)
    assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    assert 0.25 < jain_fairness([4.0, 1.0, 1.0, 1.0]) < 1.0
