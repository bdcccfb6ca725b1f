"""Unit tests for driver binding and capability negotiation."""

import pytest

from repro.drivers.base import Driver, DriverError
from repro.drivers.ide import IdeDiskDriver
from repro.drivers.e1000e import E1000eDriver
from repro.system.spec import nic_spec, validation_spec
from repro.system.topology import build_system


def test_module_device_tables():
    assert (0x8086, 0x7111) in IdeDiskDriver.device_table
    assert (0x8086, 0x10D3) in E1000eDriver.device_table


def test_matches_uses_the_table():
    system = build_system(validation_spec())
    disk_node = system.kernel.enumerator.find(0x8086, 0x7111)[0]
    assert IdeDiskDriver().matches(disk_node)
    assert not E1000eDriver().matches(disk_node)


def test_double_bind_rejected():
    system = build_system(validation_spec())
    driver = system.drivers["disk"]
    with pytest.raises(DriverError):
        driver.bind(system.kernel, driver.found, system.devices["disk"])


def test_bar_base_unknown_index_raises():
    system = build_system(validation_spec())
    with pytest.raises(DriverError):
        system.drivers["disk"].bar_base(5)


def test_probe_without_device_model_fails():
    system = build_system(validation_spec())
    node = system.kernel.enumerator.find(0x8086, 0x7111)[0]
    fresh = IdeDiskDriver()
    with pytest.raises(DriverError):
        fresh.bind(system.kernel, node, None)


def test_config_access_reaches_live_registers():
    system = build_system(nic_spec())
    driver = system.drivers["nic"]
    # The driver reads the same vendor id the hardware model holds.
    assert driver.config_read(0x00, 2) == 0x8086
    assert driver.config_read(0x02, 2) == 0x10D3


def test_capability_discovery_through_found_device():
    system = build_system(nic_spec())
    driver = system.drivers["nic"]
    assert driver._find_cap(0x10) is not None  # PCIe
    assert driver._find_cap(0x01) is not None  # PM
    assert driver._find_cap(0x42) is None


def test_program_msi_requires_doorbell():
    system = build_system(validation_spec())  # no MSI doorbell by default
    with pytest.raises(DriverError):
        system.drivers["disk"].program_msi(40)


def test_unimplemented_base_probe():
    # The base probe binds a bare Driver; only its handler is missing.
    class Stub(Driver):
        device_table = [(1, 2)]

    system = build_system(validation_spec())
    node = system.kernel.enumerator.find(0x8086, 0x7111)[0]
    system.kernel.intc.unregister(node.interrupt_line)  # the IDE driver's
    stub = Stub()
    stub.bind(system.kernel, node, system.devices["disk"])
    assert stub.bound and stub.bar0 == stub.bar_base(0)
    assert stub.interrupt_mode == "legacy"
    with pytest.raises(NotImplementedError):
        stub._irq_handler()
