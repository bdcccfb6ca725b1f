"""Unit tests for the raw configuration space."""

import pytest

from repro.pci.config import ConfigSpace, PCI_CONFIG_SIZE, PCIE_CONFIG_SIZE


def test_sizes():
    assert ConfigSpace(PCI_CONFIG_SIZE).size == 256
    assert ConfigSpace().size == 4096
    with pytest.raises(ValueError):
        ConfigSpace(128)


def test_reads_little_endian():
    cfg = ConfigSpace()
    cfg.install([(0x00, 4, 0x12345678, 0)])
    assert cfg.read(0x00, 4) == 0x12345678
    assert cfg.read(0x00, 2) == 0x5678
    assert cfg.read(0x02, 2) == 0x1234
    assert cfg.read(0x03, 1) == 0x12


def test_write_respects_mask():
    cfg = ConfigSpace()
    cfg.install([(0x04, 2, 0x0000, 0x0007)])
    cfg.write(0x04, 0xFFFF, 2)
    assert cfg.read(0x04, 2) == 0x0007


def test_readonly_field_ignores_writes():
    cfg = ConfigSpace()
    cfg.install([(0x00, 2, 0x8086, 0)])
    cfg.write(0x00, 0x0000, 2)
    assert cfg.read(0x00, 2) == 0x8086


def test_set_raw_bypasses_mask():
    cfg = ConfigSpace()
    cfg.install([(0x06, 2, 0x0000, 0x0000)])
    cfg.set_raw(0x06, 2, 0x0010)
    assert cfg.read(0x06, 2) == 0x0010


def test_bounds_checked():
    cfg = ConfigSpace()
    with pytest.raises(ValueError):
        cfg.read(4094, 4)
    with pytest.raises(ValueError):
        cfg.read(0, 9)
    with pytest.raises(ValueError):
        cfg.read(0, 0)
    with pytest.raises(ValueError):
        cfg.write(-1, 0, 1)


def test_write_hooks_fire_on_overlap():
    cfg = ConfigSpace()
    cfg.install([(0x10, 4, 0, 0xFFFFFFFF)])
    hits = []
    cfg.add_write_hook(0x10, 4, lambda off, sz, val: hits.append((off, sz, val)))
    cfg.write(0x10, 0xCAFEBABE, 4)
    assert hits == [(0x10, 4, 0xCAFEBABE)]
    cfg.write(0x12, 0xAA, 1)  # partial overlap still triggers
    assert len(hits) == 2
    cfg.write(0x20, 0x1, 4)  # outside: no trigger
    assert len(hits) == 2


def test_hexdump_format():
    cfg = ConfigSpace()
    cfg.install([(0x00, 2, 0x8086, 0)])
    dump = cfg.hexdump(16)
    assert dump.startswith("000: 86 80")
