"""Unit tests for the reporting helpers."""

from repro.analysis.report import Series, Table, format_table


def test_series_accumulates_points():
    s = Series("phys")
    s.add(64, 3.1)
    s.add(128, 3.2)
    assert s[64] == 3.1
    assert s.xs() == [64, 128]


def test_table_collects_xs_across_series():
    t = Table("Fig 9(a)", "block_MB", "Gbps")
    a = t.new_series("phys")
    b = t.new_series("L150")
    a.add(64, 3.1)
    b.add(128, 2.6)
    assert t.xs() == [64, 128]


def test_format_table_renders_missing_as_dash():
    t = Table("demo", "x", "y")
    a = t.new_series("a")
    a.add(1, 1.0)
    b = t.new_series("b")
    b.add(2, 2.0)
    text = format_table(t, "{:.1f}")
    assert "demo" in text
    lines = text.splitlines()
    assert lines[1].split() == ["x", "a", "b"]
    assert "-" in lines[3]  # series b has no x=1 point
    assert "1.0" in text and "2.0" in text


def test_format_empty_table():
    t = Table("empty", "x", "y")
    t.new_series("a")
    assert "empty" in format_table(t)


def test_link_replay_stats_shape():
    from repro.analysis.report import link_replay_stats
    from repro.pcie.link import PcieLink
    from repro.sim.simobject import Simulator
    from repro.system.spec import LinkSpec

    link = PcieLink.from_spec(Simulator(), "l", LinkSpec())
    stats = link_replay_stats(link)
    assert stats["tlps_sent"] == 0
    assert stats["replay_fraction"] == 0.0
    assert stats["fc_stall_ticks"] == 0.0
    assert set(stats) == {
        "tlps_sent", "replays", "timeouts", "replay_fraction",
        "delivery_refused", "fc_stall_ticks",
    }


# ---------------------------------------------------------------------------
# Trace-to-latency breakdown
# ---------------------------------------------------------------------------

def synthetic_trace():
    """A hand-written lifecycle with known arithmetic: TLP 0's request
    is transmitted at 100, replayed at 300, delivered at 400, then sits
    in a root-complex port from 400 to 450."""
    return [
        {"t": 100, "cat": "link", "comp": "link.down_if", "ev": "tlp_tx",
         "tlp": 0, "seq": 0, "replay": False, "resp": False},
        {"t": 250, "cat": "link", "comp": "link.up_if", "ev": "tlp_refused",
         "tlp": 0, "seq": 0},
        {"t": 280, "cat": "link", "comp": "link.down_if", "ev": "replay_timeout",
         "pending": 1},
        {"t": 300, "cat": "link", "comp": "link.down_if", "ev": "tlp_tx",
         "tlp": 0, "seq": 0, "replay": True, "resp": False},
        {"t": 400, "cat": "link", "comp": "link.up_if", "ev": "tlp_deliver",
         "tlp": 0, "seq": 0, "resp": False},
        {"t": 400, "cat": "engine", "comp": "rc.up", "ev": "ingress",
         "tlp": 0, "resp": False, "pool": 1},
        {"t": 450, "cat": "engine", "comp": "rc.up", "ev": "egress",
         "tlp": 0, "resp": False, "pool": 0},
        {"t": 460, "cat": "link", "comp": "link.up_if", "ev": "dllp_tx",
         "kind": "ack", "seq": 0},
    ]


def test_breakdown_attributes_known_arithmetic():
    from repro.analysis.report import LATENCY_SCHEMA, trace_latency_breakdown

    breakdown = trace_latency_breakdown(synthetic_trace())
    assert breakdown["schema"] == LATENCY_SCHEMA
    rec = breakdown["tlps"]["0/req"]
    assert rec["link_ticks"] == 300           # first tx 100 -> deliver 400
    assert rec["replay_ticks"] == 200         # first tx 100 -> last tx 300
    assert rec["serialization_ticks"] == 100  # last tx 300 -> deliver 400
    assert rec["engine_ticks"] == 50          # ingress 400 -> egress 450
    assert rec["replays"] == 1
    assert rec["refusals"] == 1
    totals = breakdown["totals"]
    assert totals["tlps"] == 1
    assert totals["unresolved"] == 0
    counts = breakdown["event_counts"]
    assert counts["link.down_if"]["tlp_tx_replay"] == 1
    assert counts["link.down_if"]["replay_timeout"] == 1
    assert counts["link.up_if"]["tlp_refused"] == 1
    assert counts["link.up_if"]["dllp_tx_ack"] == 1


def test_breakdown_accepts_jsonl_path_and_lines(tmp_path):
    from repro.analysis.report import trace_latency_breakdown
    from repro.obs.trace import MemorySink

    sink = MemorySink()
    for ev in synthetic_trace():
        sink.record(ev)
    text = sink.to_jsonl(meta={"scenario": "synthetic"})
    path = tmp_path / "trace.jsonl"
    path.write_text(text)
    from_events = trace_latency_breakdown(sink.events)
    from_path = trace_latency_breakdown(str(path))
    from_lines = trace_latency_breakdown(text.splitlines())
    assert from_events == from_path == from_lines


def test_breakdown_reconciles_with_live_link_stats():
    from repro.analysis.report import (
        reconcile_trace_with_link,
        trace_latency_breakdown,
    )
    from repro.obs.trace import MemorySink
    from repro.pcie.link import PcieLink
    from repro.sim.simobject import Simulator
    from repro.system.spec import LinkSpec
    from tests.mem.helpers import FakeMaster, FakeSlave

    sim = Simulator()
    link = PcieLink.from_spec(sim, "link",
                              LinkSpec(error_rate=0.2, error_seed=11))
    device = FakeMaster(sim, "device")
    memory = FakeSlave(sim, "memory")
    device.port.bind(link.downstream_if.slave_port)
    link.upstream_if.master_port.bind(memory.port)
    sink = sim.tracer.attach(MemorySink())
    for i in range(8):
        device.write(0x1000 + i * 64, 64)
    sim.run(max_events=3_000_000)
    assert len(memory.requests) == 8

    breakdown = trace_latency_breakdown(sink.events)
    recon = reconcile_trace_with_link(breakdown, link)
    for interface, counts in recon.items():
        for stat_name, pair in counts.items():
            assert pair["stat"] == pair["trace"], (interface, stat_name)


def test_format_latency_breakdown_is_one_screen():
    from repro.analysis.report import (
        format_latency_breakdown,
        trace_latency_breakdown,
    )

    text = format_latency_breakdown(trace_latency_breakdown(synthetic_trace()))
    assert "TLP latency breakdown" in text
    assert "replay/recovery : 200 ticks" in text
    assert len(text.splitlines()) <= 10


# ---------------------------------------------------------------------------
# Flow-level helpers (traffic engine reporting).
# ---------------------------------------------------------------------------

def test_engine_residency_summarises_port_queueing():
    from repro.analysis.report import trace_latency_breakdown

    breakdown = trace_latency_breakdown(synthetic_trace())
    residency = breakdown["engine_residency"]
    assert residency == {"rc.up": {"count": 1, "ticks": 50, "max": 50}}


def test_percentile_nearest_rank():
    from repro.analysis.report import percentile

    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 0.50) == 50
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 1.0) == 100
    assert percentile([7], 0.999) == 7
    assert percentile([], 0.5) == 0.0


def test_jain_fairness_reexported_from_analysis():
    from repro.analysis import jain_fairness

    assert jain_fairness([2.0, 2.0]) == 1.0


def test_flow_table_renders_per_flow_rows():
    from repro.analysis.report import flow_table, format_table

    results = {
        "flows": {
            "reader1": {"throughput_gbps": 1.0, "share": 0.4,
                        "p50_ns": 1000.0, "p99_ns": 2000.0,
                        "p999_ns": 2500.0},
            "reader0": {"throughput_gbps": 1.5, "share": 0.6,
                        "p50_ns": 900.0, "p99_ns": 1800.0,
                        "p999_ns": 2400.0},
        },
        "fairness_index": 0.96,
        "total_gbps": 2.5,
        "completed": True,
    }
    table = flow_table(results)
    text = format_table(table)
    lines = text.splitlines()
    # Rows are sorted by flow name; latency columns are microseconds.
    assert lines[3].split()[0] == "reader0"
    assert lines[4].split()[0] == "reader1"
    assert "gbps" in lines[1] and "p99_us" in lines[1]
    assert "2.000" in text  # reader1 p99: 2000 ns -> 2.000 us
