"""The label-classing and module-bucketing tables are total."""

import pytest

from benchmarks.perf import layers


def test_every_label_has_a_class_and_unknown_ones_are_other():
    assert layers.label_class("tx_done") == "tx_done"
    assert layers.label_class("deliver") == "deliver"
    assert layers.label_class("processed") == "processed"
    assert layers.label_class("disk_link.up_if.ack") == "ack"
    assert layers.label_class("root_link.down_if.fc_watchdog") == "fc"
    assert layers.label_class("disk_link.down_if.replay") == "timer"
    assert layers.label_class("iocache_side_respq.drain") == "drain"
    for label in ("", "dd_1.resume", "sector_access", "a label nobody wrote"):
        assert layers.label_class(label) == "other"

    counter = layers.LabelCounter()
    for label in ("tx_done", "tx_done", "x.drain", "never seen"):
        counter.record({"name": label})
    counts = counter.by_class()
    assert set(counts) == set(layers.LABEL_CLASSES)
    assert sum(counts.values()) == 4
    assert counts["tx_done"] == 2 and counts["other"] == 1


@pytest.mark.parametrize("filename, bucket", [
    ("/co/src/repro/sim/eventq.py", "sim.eventq"),
    ("/co/src/repro/sim/process.py", "sim.other"),
    ("/co/src/repro/pcie/link.py", "pcie.link"),
    ("/co/src/repro/pcie/fc.py", "pcie.fc"),
    ("/co/src/repro/pcie/root_complex.py", "pcie.routing"),
    ("/co/src/repro/mem/port.py", "mem.port"),
    ("/co/src/repro/mem/iocache.py", "mem.other"),
    ("/co/src/repro/drivers/ide.py", "endpoints"),
    ("/co/src/repro/check/checker.py", "other"),
    ("/co/src/repro/brand_new_package/thing.py", "other"),
    ("/co/repro/benchmarks/perf/runner.py", "other"),
    ("/usr/lib/python3.11/heapq.py", "other"),
    ("~", "other"),
    ("", "other"),
])
def test_every_module_has_a_bucket(filename, bucket):
    assert layers.module_bucket(filename) == bucket
    assert bucket in layers.HOST_BUCKETS


def test_host_shares_sum_to_one_and_charge_builtins_to_their_callers():
    eventq = ("/co/src/repro/sim/eventq.py", 10, "run")
    link = ("/co/src/repro/pcie/link.py", 20, "send")
    stats = {
        eventq: (1, 1, 2.0, 9.0, {}),
        link: (5, 5, 3.0, 4.0, {eventq: (5, 5, 3.0, 4.0)}),
        ("~", 0, "<built-in method heappush>"): (
            9, 9, 1.0, 1.0, {eventq: (6, 6, 0.75, 0.75),
                             link: (3, 3, 0.25, 0.25)}),
        ("/usr/lib/python3.11/json/encoder.py", 1, "x"): (1, 1, 4.0, 4.0, {}),
    }
    shares = layers.host_shares(stats)
    assert set(shares) == set(layers.HOST_BUCKETS)
    assert abs(sum(shares.values()) - 1.0) < 1e-6
    assert shares["sim.eventq"] == pytest.approx(2.75 / 10)
    assert shares["pcie.link"] == pytest.approx(3.25 / 10)
    assert shares["other"] == pytest.approx(4.0 / 10)
