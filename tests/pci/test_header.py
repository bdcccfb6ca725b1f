"""Unit tests for endpoint and bridge headers."""

import pytest

from repro.mem.addr import AddrRange
from repro.pci import header as hdr
from repro.pci.header import Bar, PciBridgeFunction, PciEndpointFunction


def make_endpoint(**kwargs):
    return PciEndpointFunction(
        vendor_id=0x8086,
        device_id=0x10D3,
        bars=[Bar(128 * 1024), Bar(32, io=True)],
        **kwargs,
    )


def test_identity_registers():
    fn = make_endpoint(class_code=0x020000, revision=3)
    assert fn.vendor_id == 0x8086
    assert fn.device_id == 0x10D3
    assert fn.config_read(hdr.REVISION_ID, 1) == 3
    assert fn.config_read(hdr.CLASS_CODE, 3) == 0x020000
    assert not fn.is_bridge


def test_bar_validation():
    with pytest.raises(ValueError):
        Bar(100)  # not a power of two
    with pytest.raises(ValueError):
        Bar(8)  # below memory minimum
    with pytest.raises(ValueError):
        PciEndpointFunction(0, 0, bars=[Bar(16)] * 7)


def test_bar_size_probe():
    fn = make_endpoint()
    fn.config_write(hdr.BAR0, 0xFFFFFFFF, 4)
    probed = fn.config_read(hdr.BAR0, 4)
    # 128 KiB memory BAR: address bits above bit 16 stick, type bits 0.
    assert probed == 0xFFFE0000
    size = ((~(probed & 0xFFFFFFF0)) & 0xFFFFFFFF) + 1
    assert size == 128 * 1024


def test_io_bar_probe_and_type_bit():
    fn = make_endpoint()
    fn.config_write(hdr.BAR0 + 4, 0xFFFFFFFF, 4)
    probed = fn.config_read(hdr.BAR0 + 4, 4)
    assert probed & 0x1  # I/O space indicator survives
    size = ((~(probed & 0xFFFFFFFC)) & 0xFFFFFFFF) + 1
    assert size == 32


def test_unimplemented_bar_reads_zero():
    fn = make_endpoint()
    fn.config_write(hdr.BAR0 + 8, 0xFFFFFFFF, 4)
    assert fn.config_read(hdr.BAR0 + 8, 4) == 0


def test_bar_assignment_and_ranges():
    fn = make_endpoint()
    fn.config_write(hdr.BAR0, 0x40000000, 4)
    fn.config_write(hdr.BAR0 + 4, 0x2F001000, 4)
    # Decode disabled: no ranges yet.
    assert fn.bar_ranges() == []
    fn.config_write(hdr.COMMAND, hdr.CMD_MEM_SPACE | hdr.CMD_IO_SPACE, 2)
    ranges = fn.bar_ranges()
    assert AddrRange(0x40000000, 128 * 1024) in ranges
    assert AddrRange(0x2F001000, 32) in ranges


def test_bar_address_alignment_enforced_by_mask():
    fn = make_endpoint()
    fn.config_write(hdr.BAR0, 0x40001234, 4)  # misaligned for 128 KiB
    assert fn.bars[0].addr == 0x40000000


def test_command_register_bits():
    fn = make_endpoint()
    assert not fn.memory_enabled
    fn.config_write(hdr.COMMAND, hdr.CMD_MEM_SPACE | hdr.CMD_BUS_MASTER, 2)
    assert fn.memory_enabled
    assert fn.bus_master_enabled
    assert not fn.io_enabled


def test_interrupt_line_writable():
    fn = make_endpoint()
    fn.config_write(hdr.INTERRUPT_LINE, 42, 1)
    assert fn.interrupt_line == 42
    assert fn.config_read(hdr.INTERRUPT_PIN, 1) == 0x01  # INTA#


# --- bridges -------------------------------------------------------------------


def test_bridge_header_type():
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    assert bridge.is_bridge
    assert bridge.config_read(hdr.HEADER_TYPE, 1) == 0x01
    assert bridge.config_read(hdr.CLASS_CODE, 3) == 0x060400


def test_bridge_bus_numbers():
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    bridge.config_write(hdr.PRIMARY_BUS, 0, 1)
    bridge.config_write(hdr.SECONDARY_BUS, 1, 1)
    bridge.config_write(hdr.SUBORDINATE_BUS, 3, 1)
    assert bridge.primary_bus == 0
    assert bridge.secondary_bus == 1
    assert bridge.subordinate_bus == 3
    assert bridge.routes_bus(1)
    assert bridge.routes_bus(3)
    assert not bridge.routes_bus(4)
    assert not bridge.routes_bus(0)


def test_fresh_bridge_decodes_nothing():
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    assert bridge.memory_window is None
    assert bridge.io_window is None
    assert bridge.forwarding_ranges() == []


def test_memory_window_decode_via_registers():
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    # Software programs a [0x40100000, 0x40300000) window.
    bridge.config_write(hdr.MEMORY_BASE, (0x40100000 >> 16) & 0xFFF0, 2)
    bridge.config_write(hdr.MEMORY_LIMIT, ((0x40300000 - 1) >> 16) & 0xFFF0, 2)
    assert bridge.memory_window == AddrRange(0x40100000, end=0x40300000)
    # Not forwarded until the command register enables memory decode.
    assert bridge.forwarding_ranges() == []
    bridge.config_write(hdr.COMMAND, hdr.CMD_MEM_SPACE, 2)
    assert bridge.forwarding_ranges() == [AddrRange(0x40100000, end=0x40300000)]
    assert bridge.forwards(0x40200000)
    assert not bridge.forwards(0x40300000)


def test_32bit_io_window_uses_upper_registers():
    # The platform's I/O window lives at 0x2F000000, beyond 16 bits —
    # the paper notes both upper registers must be implemented.
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    bridge.config_write(hdr.IO_BASE, ((0x2F000000 >> 8) & 0xF0) | 0x01, 1)
    bridge.config_write(hdr.IO_BASE_UPPER16, 0x2F000000 >> 16, 2)
    bridge.config_write(hdr.IO_LIMIT, ((0x2F001FFF >> 8) & 0xF0) | 0x01, 1)
    bridge.config_write(hdr.IO_LIMIT_UPPER16, 0x2F001FFF >> 16, 2)
    bridge.config_write(hdr.COMMAND, hdr.CMD_IO_SPACE, 2)
    assert bridge.io_window == AddrRange(0x2F000000, 0x2000)


def test_window_helpers_validate_alignment():
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    with pytest.raises(ValueError):
        bridge.set_memory_window(AddrRange(0x40000100, 0x100000))
    with pytest.raises(ValueError):
        bridge.set_io_window(AddrRange(0x2F000010, 0x1000))


def test_bridge_bars_read_zero():
    # Per the paper, VP2Ps implement no BARs of their own.
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    bridge.config_write(hdr.BAR0, 0xFFFFFFFF, 4)
    assert bridge.config_read(hdr.BAR0, 4) == 0
