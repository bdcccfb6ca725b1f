"""Unit tests for capability structures and chaining."""

import pytest

from repro.pci import header as hdr
from repro.pci.capabilities import (
    CAP_ID_MSI,
    CAP_ID_MSIX,
    CAP_ID_PCIE,
    CAP_ID_POWER_MANAGEMENT,
    MsiCapability,
    MsixCapability,
    PcieCapability,
    PciePortType,
    PowerManagementCapability,
)
from repro.pci.header import PciEndpointFunction


def nic_like_function():
    """The paper's 8254x-pcie chain: PM -> MSI -> PCIe -> MSI-X."""
    fn = PciEndpointFunction(0x8086, 0x10D3)
    fn.add_capability(PowerManagementCapability())
    fn.add_capability(MsiCapability())
    fn.add_capability(PcieCapability(PciePortType.ENDPOINT, max_link_speed=2,
                                     max_link_width=1))
    fn.add_capability(MsixCapability(table_size=5))
    return fn


def test_status_bit_set_when_capabilities_present():
    fn = PciEndpointFunction(0x8086, 0x10D3)
    assert not fn.config_read(hdr.STATUS, 2) & hdr.STATUS_CAP_LIST
    fn.add_capability(PowerManagementCapability())
    assert fn.config_read(hdr.STATUS, 2) & hdr.STATUS_CAP_LIST


def test_chain_order_matches_paper():
    fn = nic_like_function()
    ids = [cap_id for cap_id, __ in fn.walk_capabilities()]
    assert ids == [CAP_ID_POWER_MANAGEMENT, CAP_ID_MSI, CAP_ID_PCIE, CAP_ID_MSIX]


def test_chain_terminates():
    fn = nic_like_function()
    last_id, last_offset = fn.walk_capabilities()[-1]
    assert fn.config_read(last_offset + 1, 1) == 0


def test_find_capability():
    fn = nic_like_function()
    assert fn.find_capability(CAP_ID_PCIE) is not None
    assert fn.find_capability(0x7F) is None


def test_explicit_offset_honoured():
    # The paper places the VP2P PCIe capability at 0xD8.
    fn = PciEndpointFunction(0x8086, 0x9C90)
    offset = fn.add_capability(PcieCapability(PciePortType.ROOT_PORT), offset=0xD8)
    assert offset == 0xD8
    assert fn.config_read(hdr.CAPABILITY_POINTER, 1) == 0xD8


def test_offset_must_be_aligned_and_fit():
    fn = PciEndpointFunction(0x8086, 0x10D3)
    with pytest.raises(ValueError):
        fn.add_capability(PcieCapability(), offset=0x41)
    with pytest.raises(ValueError):
        fn.add_capability(PcieCapability(), offset=0xF0)  # overflows 0x100
    with pytest.raises(ValueError):
        fn.add_capability(PcieCapability(), offset=0x3C)  # the header's
    fn.add_capability(PowerManagementCapability(), offset=0x80)
    with pytest.raises(ValueError):
        fn.add_capability(PcieCapability(), offset=0x84)  # PM ends at 0x88


def test_msi_enable_is_read_only_zero():
    # This is what forces the e1000e driver to register a legacy handler.
    fn = nic_like_function()
    offset = fn.find_capability(CAP_ID_MSI)
    fn.config_write(offset + 2, 0x0001, 2)  # try to enable MSI
    assert fn.config_read(offset + 2, 2) & 0x1 == 0


def test_msix_enable_is_read_only_zero():
    fn = nic_like_function()
    offset = fn.find_capability(CAP_ID_MSIX)
    fn.config_write(offset + 2, 0x8000, 2)
    assert fn.config_read(offset + 2, 2) & 0x8000 == 0
    assert (fn.config_read(offset + 2, 2) & 0x7FF) + 1 == 5  # table size


def test_pm_stuck_at_d0():
    fn = nic_like_function()
    offset = fn.find_capability(CAP_ID_POWER_MANAGEMENT)
    fn.config_write(offset + 4, 0x0003, 2)  # try to enter D3
    assert fn.config_read(offset + 4, 2) & 0x3 == 0


def test_pcie_capability_port_type_and_link():
    fn = PciEndpointFunction(0x8086, 0x9C90)
    offset = fn.add_capability(
        PcieCapability(PciePortType.ROOT_PORT, max_link_speed=2, max_link_width=4)
    )
    caps_reg = fn.config_read(offset + 2, 2)
    assert (caps_reg >> 4) & 0xF == PciePortType.ROOT_PORT
    link_caps = fn.config_read(offset + 0x0C, 4)
    assert link_caps & 0xF == 2  # 5 GT/s
    assert (link_caps >> 4) & 0x3F == 4  # x4
    link_status = fn.config_read(offset + 0x12, 2)
    assert link_status & 0xF == 2
    assert (link_status >> 4) & 0x3F == 4


def test_pcie_capability_validates_parameters():
    with pytest.raises(ValueError):
        PcieCapability(max_link_speed=4)
    with pytest.raises(ValueError):
        PcieCapability(max_link_width=3)
    with pytest.raises(ValueError):
        MsixCapability(table_size=0)


def test_port_types_cover_switch_roles():
    assert PciePortType.UPSTREAM_SWITCH_PORT == 0x5
    assert PciePortType.DOWNSTREAM_SWITCH_PORT == 0x6
    assert PciePortType.ROOT_PORT == 0x4
