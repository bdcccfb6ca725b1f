"""Unit tests for the block layer, using a stub driver."""

import pytest

from repro.kernel.blockio import BlockLayer
from repro.sim import ticks
from repro.sim.process import Process, Signal
from repro.sim.simobject import Simulator


class FreeBlockLayer(BlockLayer):
    """A block layer without software overheads: only the driver's
    request latency takes time."""

    SUBMIT_OVERHEAD = COMPLETE_OVERHEAD = PER_SECTOR_OVERHEAD = 0


class StubDriver:
    """Completes each request after a fixed simulated latency."""

    sector_size = 4096

    def __init__(self, sim, request_latency=ticks.from_us(10)):
        self.sim = sim
        self.request_latency = request_latency
        self.requests = []

    def start_request(self, lba, n_sectors, buffer_addr, is_write):
        self.requests.append((lba, n_sectors, buffer_addr, is_write))
        done = Signal("stub_done")
        self.sim.schedule_callback(self.request_latency, done.notify)
        return done
        yield  # pragma: no cover — makes this a generator


def run_read(sim, layer, driver, lba, n_sectors, buf=0x90000000):
    done = {}

    def body():
        yield from layer.read(driver, lba, n_sectors, buf)
        done["tick"] = sim.curtick

    Process(sim, "reader", body())
    sim.run()
    return done


def test_split_into_bounded_requests():
    assert FreeBlockLayer.MAX_SECTORS_PER_REQUEST == 32
    sim = Simulator()
    layer = FreeBlockLayer(sim)
    driver = StubDriver(sim)
    run_read(sim, layer, driver, lba=0, n_sectors=80)
    assert [r[1] for r in driver.requests] == [32, 32, 16]
    assert [r[0] for r in driver.requests] == [0, 32, 64]
    # Buffer advances by request bytes.
    assert driver.requests[1][2] == 0x90000000 + 32 * 4096
    assert layer.sectors_moved.value() == 80


def test_requests_serialized(monkeypatch):
    monkeypatch.setattr(FreeBlockLayer, "MAX_SECTORS_PER_REQUEST", 10)
    sim = Simulator()
    layer = FreeBlockLayer(sim)
    driver = StubDriver(sim, request_latency=ticks.from_us(10))
    done = run_read(sim, layer, driver, lba=0, n_sectors=30)
    # Three requests, each waiting 10 us, strictly one at a time.
    assert done["tick"] >= 3 * ticks.from_us(10)


def test_overheads_charged(monkeypatch):
    assert (BlockLayer.SUBMIT_OVERHEAD, BlockLayer.COMPLETE_OVERHEAD,
            BlockLayer.PER_SECTOR_OVERHEAD) == (
        ticks.from_us(4), ticks.from_us(3), ticks.from_us(1))
    monkeypatch.setattr(BlockLayer, "MAX_SECTORS_PER_REQUEST", 8)
    sim = Simulator()
    layer = BlockLayer(sim)
    driver = StubDriver(sim, request_latency=0)
    done = run_read(sim, layer, driver, lba=0, n_sectors=8)
    # 4 (submit) + 8x1 (per sector) + 3 (complete) = 15 us of software.
    assert done["tick"] == ticks.from_us(15)


def test_write_direction():
    sim = Simulator()
    layer = FreeBlockLayer(sim)
    driver = StubDriver(sim)

    def body():
        yield from layer.write(driver, 4, 2, 0xA0000000)

    Process(sim, "writer", body())
    sim.run()
    assert driver.requests == [(4, 2, 0xA0000000, True)]


def test_parameter_validation():
    sim = Simulator()
    layer = BlockLayer(sim, name="bl2")
    driver = StubDriver(sim)
    with pytest.raises(ValueError):
        list(layer.read(driver, 0, 0, 0x0))


def test_request_time_distribution(monkeypatch):
    monkeypatch.setattr(FreeBlockLayer, "MAX_SECTORS_PER_REQUEST", 4)
    sim = Simulator()
    layer = FreeBlockLayer(sim)
    driver = StubDriver(sim, request_latency=ticks.from_us(5))
    run_read(sim, layer, driver, lba=0, n_sectors=8)
    assert layer.request_ticks.count == 2
    assert layer.request_ticks.mean >= ticks.from_us(5)
