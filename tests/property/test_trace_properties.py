"""Property-based tests of trace well-formedness.

Whatever the topology, link width, buffer sizing or injected error
rate, a TLP-lifecycle trace must tell a coherent story: transmissions
precede deliveries, nothing is delivered twice, per-component
timestamps never run backwards, and every TLP that suffered a refusal
or corruption is eventually delivered anyway.  Hypothesis drives
randomized scenarios and checks exactly that — the same invariants the
golden files pin exactly, but over the whole configuration space.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import (
    reconcile_trace_with_link,
    trace_latency_breakdown,
)
from repro.obs.trace import MemorySink
from repro.pcie.link import PcieLink
from repro.pcie.timing import PcieGen
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import validation_spec
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload

from tests.mem.helpers import FakeMaster, FakeSlave


def check_wellformed_lifecycles(events):
    """The invariants every ``link``-category trace must satisfy."""
    last_tick = {}
    first_kind = {}
    deliveries = {}
    troubled = set()
    for ev in events:
        # Per-component time never runs backwards.
        comp = ev["comp"]
        assert ev["t"] >= last_tick.get(comp, 0), (comp, ev)
        last_tick[comp] = ev["t"]
        if "tlp" not in ev:
            continue
        key = (ev["tlp"], ev.get("resp", False))
        if ev["ev"] in ("tlp_tx", "tlp_deliver"):
            first_kind.setdefault(key, ev["ev"])
        if ev["ev"] == "tlp_deliver":
            # A TLP crossing several links is delivered once *per link*,
            # so exactly-once is a per-component property.
            deliveries[key + (comp,)] = deliveries.get(key + (comp,), 0) + 1
        elif ev["ev"] in ("tlp_refused", "tlp_corrupt"):
            # Refusal/corruption events carry no direction flag.
            troubled.add(ev["tlp"])
    # A TLP is transmitted before it is delivered anywhere.
    for key, kind in first_kind.items():
        assert kind == "tlp_tx", f"TLP {key} delivered before any tx"
    # Exactly-once delivery, even across replays and duplicates.
    for key, n in deliveries.items():
        assert n == 1, f"TLP {key} delivered {n} times"
    # Every troubled TLP was eventually delivered anyway.
    delivered_ids = {tlp for (tlp, __, __c) in deliveries}
    assert troubled <= delivered_ids
    return deliveries


@settings(max_examples=20, deadline=None)
@given(
    n_packets=st.integers(min_value=1, max_value=16),
    width=st.sampled_from([1, 4, 8]),
    replay_buffer=st.integers(min_value=1, max_value=4),
    error_rate=st.floats(min_value=0.0, max_value=0.3),
    dllp_error_rate=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**16),
    receiver_outstanding=st.integers(min_value=1, max_value=4),
)
def test_link_traces_are_wellformed_under_adversity(
        n_packets, width, replay_buffer, error_rate, dllp_error_rate,
        seed, receiver_outstanding):
    sim = Simulator()
    link = PcieLink(
        sim, "link",
        gen=PcieGen.GEN2, width=width,
        replay_buffer_size=replay_buffer,
        error_rate=error_rate, dllp_error_rate=dllp_error_rate,
        error_seed=seed,
    )
    device = FakeMaster(sim, "device")
    memory = FakeSlave(sim, "memory", latency=ticks.from_ns(200),
                       max_outstanding=receiver_outstanding)
    device.port.bind(link.downstream_if.slave_port)
    link.upstream_if.master_port.bind(memory.port)
    sink = sim.tracer.attach(MemorySink())
    for i in range(n_packets):
        device.write(0x80000000 + i * 64, 64)
    sim.run(max_events=3_000_000)

    assert len(memory.requests) == n_packets  # traffic actually completed
    deliveries = check_wellformed_lifecycles(sink.events)
    # Each write is a request TLP plus a response TLP, delivered once each.
    assert len(deliveries) == 2 * n_packets

    # The trace reconciles with the link statistics on both interfaces,
    # and the breakdown closes its books (nothing left in flight).
    breakdown = trace_latency_breakdown(
        [ev for ev in sink.events if ev["cat"] == "link"])
    for counts in reconcile_trace_with_link(breakdown, link).values():
        for stat_name, pair in counts.items():
            assert pair["stat"] == pair["trace"], stat_name
    # At quiescence nothing is genuinely in flight; anything unresolved
    # is a wasted retransmission of an already-delivered TLP, of which
    # there can be at most one per replayed transmission.
    assert breakdown["totals"]["unresolved"] <= breakdown["totals"]["replays"]
    if error_rate == 0 and dllp_error_rate == 0:
        assert breakdown["totals"]["unresolved"] == 0
    assert breakdown["totals"]["link_ticks"] > 0


@settings(max_examples=5, deadline=None)
@given(
    root_width=st.sampled_from([1, 2, 4]),
    device_width=st.sampled_from([1, 2]),
    error_rate=st.sampled_from([0.0, 0.15]),
)
def test_system_traces_are_wellformed_across_topologies(
        root_width, device_width, error_rate):
    system = build_system(validation_spec(root_link_width=root_width,
                                          device_link_width=device_width,
                                          error_rate=error_rate))
    system.sim.tracer.categories = frozenset(("link", "engine"))
    sink = system.sim.tracer.attach(MemorySink())
    dd = DdWorkload(system.kernel, system.disk_driver, 4096,
                    startup_overhead=0)
    process = system.kernel.spawn("dd", dd.run())
    system.run(max_events=10_000_000)
    assert process.done

    link_events = [ev for ev in sink.events if ev["cat"] == "link"]
    check_wellformed_lifecycles(link_events)
    # Engine residencies pair up too: the only open items at the end
    # are wasted retransmissions of already-delivered TLPs.
    breakdown = trace_latency_breakdown(sink.events)
    assert breakdown["totals"]["unresolved"] <= breakdown["totals"]["replays"]
    if error_rate == 0:
        assert breakdown["totals"]["unresolved"] == 0
    # And both PCIe links reconcile trace counts against statistics.
    for link in (system.links["root"], system.links["disk"]):
        for counts in reconcile_trace_with_link(breakdown, link).values():
            for stat_name, pair in counts.items():
                assert pair["stat"] == pair["trace"], (link.full_name,
                                                       stat_name)
