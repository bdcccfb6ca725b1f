"""Unit tests for the 8254x-pcie NIC model."""

import pytest

from repro.devices.nic import (
    CTRL_LOOPBACK,
    DESCRIPTOR_BYTES,
    ICR_RXT0,
    ICR_TXDW,
    REG_CTRL,
    REG_ICR,
    REG_IMS,
    REG_IMC,
    REG_STATUS,
    REG_TDT,
    STATUS_LINK_UP,
    Nic8254xPcie,
)
from repro.mem.packet import MemCmd
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import DeviceSpec

from tests.mem.helpers import FakeSlave


class StubIntc:
    def __init__(self):
        self.raised = 0

    def raise_irq(self, line):
        self.raised += 1


def build(sim):
    nic = Nic8254xPcie(sim, DeviceSpec("nic", name="nic"))
    nic.intc = StubIntc()
    memory = FakeSlave(sim, "memory", latency=ticks.from_ns(50))
    nic.dma_port.bind(memory.port)
    return nic, memory


def transmit(nic, desc=0x81000000, buf=0x82000000, length=1500):
    nic.post_tx_descriptor(desc, buf, length)
    nic.mmio_write(0, REG_TDT, 4, 1)


def test_identity_matches_paper():
    sim = Simulator()
    nic = Nic8254xPcie(sim, DeviceSpec("nic", name="nic"))
    assert nic.function.device_id == 0x10D3  # invokes the e1000e probe
    ids = [cap_id for cap_id, __ in nic.function.walk_capabilities()]
    assert ids == [0x01, 0x05, 0x10, 0x11]  # PM -> MSI -> PCIe -> MSI-X


def test_status_reports_link_up():
    sim = Simulator()
    nic, _ = build(sim)
    assert nic.mmio_read(0, REG_STATUS, 4) & STATUS_LINK_UP


def test_tx_dma_sequence():
    sim = Simulator()
    nic, memory = build(sim)
    transmit(nic, length=1500)
    sim.run()
    reads = [p for p in memory.requests if p.cmd is MemCmd.READ_REQ]
    writes = [p for p in memory.requests if p.cmd is MemCmd.WRITE_REQ]
    # Descriptor fetch (16B) + payload fetch (1500B chunked).
    assert reads[0].size == DESCRIPTOR_BYTES
    assert sum(p.size for p in reads[1:]) == 1500
    # Descriptor write-back.
    assert len(writes) == 1 and writes[0].size == DESCRIPTOR_BYTES
    assert nic.frames_transmitted.value() == 1
    assert nic.tx_bytes.value() == 1500


def test_icr_set_and_read_to_clear():
    sim = Simulator()
    nic, memory = build(sim)
    transmit(nic)
    sim.run()
    icr = nic.mmio_read(0, REG_ICR, 4)
    assert icr & ICR_TXDW
    assert nic.mmio_read(0, REG_ICR, 4) == 0  # cleared by the read


def test_interrupt_only_when_masked_in():
    sim = Simulator()
    nic, memory = build(sim)
    transmit(nic)
    sim.run()
    assert nic.intc.raised == 0  # IMS clear: no interrupt
    nic.mmio_write(0, REG_IMS, 4, ICR_TXDW)
    transmit(nic)
    sim.run()
    assert nic.intc.raised == 1


def test_ims_imc_set_clear_semantics():
    sim = Simulator()
    nic, _ = build(sim)
    nic.mmio_write(0, REG_IMS, 4, ICR_TXDW | ICR_RXT0)
    nic.mmio_write(0, REG_IMC, 4, ICR_TXDW)
    assert nic._regs[REG_IMS] == ICR_RXT0


def test_loopback_delivers_to_rx_ring():
    sim = Simulator()
    nic, memory = build(sim)
    nic.mmio_write(0, REG_CTRL, 4, CTRL_LOOPBACK)
    nic.post_rx_buffer(0x83000000, 0x84000000, 2048)
    transmit(nic, length=1000)
    sim.run()
    assert nic.frames_received.value() == 1
    assert nic.rx_bytes.value() == 1000
    # RX data + RX descriptor write-back landed in memory.
    rx_writes = [p for p in memory.requests
                 if p.cmd is MemCmd.WRITE_REQ and p.addr >= 0x83000000]
    assert sum(p.size for p in rx_writes) == 1000 + DESCRIPTOR_BYTES


def test_loopback_without_rx_buffer_drops():
    sim = Simulator()
    nic, memory = build(sim)
    nic.mmio_write(0, REG_CTRL, 4, CTRL_LOOPBACK)
    transmit(nic)
    sim.run()
    assert nic.frames_dropped.value() == 1
    assert nic.frames_received.value() == 0


def test_back_to_back_frames_serialize():
    sim = Simulator()
    nic, memory = build(sim)
    nic.post_tx_descriptor(0x81000000, 0x82000000, 600)
    nic.post_tx_descriptor(0x81000010, 0x82001000, 600)
    nic.mmio_write(0, REG_TDT, 4, 2)
    sim.run()
    assert nic.frames_transmitted.value() == 2
    assert nic.tx_bytes.value() == 1200


def test_empty_frame_rejected():
    sim = Simulator()
    nic, _ = build(sim)
    with pytest.raises(ValueError):
        nic.post_tx_descriptor(0x81000000, 0x82000000, 0)
