"""Declared state: ``state_fields`` and ``in_flight`` are complete.

Checkpoints and the block layer's period proof read a model only
through its declarations, so a packet container nobody names is a
packet a checkpoint would silently drop, and a ``state_dict`` key
nobody declares is state no one reviewed.  The walk over each object's
``vars()`` lives here, not in the simulator.
"""

import re

import pytest

from repro.devices.base import CommandDevice
from repro.devices.disk import IdeDisk
from repro.kernel.blockio import _Prover
from repro.mem.dram import SimpleMemory
from repro.mem.iocache import IOCache
from repro.mem.packet import MemCmd, Packet
from repro.mem.port import PacketQueue
from repro.mem.xbar import NoncoherentXBar
from repro.pcie.link import PcieLinkInterface
from repro.pcie.routing import ComponentPort
from repro.sim.checkpoint import CheckpointError, capture
from repro.sim.process import Delay
from repro.sim.simobject import Origin, SimObject
from repro.system.spec import (
    classic_pci_spec,
    deep_hierarchy_spec,
    nic_spec,
    validation_spec,
)
from repro.system.topology import build_system
from repro.workloads.scenarios import accel_fanout

MACHINES = {
    "validation": lambda: validation_spec(posted_writes=True, enable_msi=True),
    "nic": nic_spec,
    "classic_pci": classic_pci_spec,
    "deep": lambda: deep_hierarchy_spec(2, 2),
    "accel_fanout": lambda: accel_fanout().topology,
}

#: The only classes whose state is not all flat attributes, and the
#: document keys their overrides add.
OVERRIDES = {PcieLinkInterface: {"fc", "rng"}, IOCache: {"sets"},
             CommandDevice: {"regs"}, IdeDisk: set()}

KINDS = {"exact", "horizon", "accumulator"}


def _queue_attrs(obj):
    """The attributes of ``obj`` holding a PacketQueue, directly or as
    a list or dict value."""
    for attr, value in vars(obj).items():
        if isinstance(value, dict):
            value = list(value.values())
        items = value if isinstance(value, list) else [value]
        if any(isinstance(item, PacketQueue) for item in items):
            yield attr


def _override_keys(cls):
    return set().union(*(keys for owner, keys in OVERRIDES.items()
                         if issubclass(cls, owner)))


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_every_packet_queue_is_in_flight(machine):
    system = build_system(MACHINES[machine](), check=False)
    for obj in system.sim.objects:
        missing = set(_queue_attrs(obj)) - set(type(obj).in_flight)
        assert not missing, f"{obj.full_name}: {sorted(missing)}"


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_every_state_key_is_declared(machine):
    system = build_system(MACHINES[machine](), check=False)
    for obj in system.sim.objects:
        cls = type(obj)
        assert set(cls.state_fields.values()) <= KINDS, obj.full_name
        declared = {attr[1:] if attr.startswith("_") else attr
                    for attr in cls.state_fields}
        extra = set(obj.state_dict()) - declared - _override_keys(cls)
        assert not extra, f"{obj.full_name}: {sorted(extra)}"
        for method in ("state_dict", "load_state_dict", "relative_state"):
            owner = next(base for base in cls.__mro__
                         if method in vars(base))
            assert owner is SimObject or owner in OVERRIDES, (
                f"{owner.__name__}.{method}")


def _first(system, cls):
    return next(obj for obj in system.sim.objects if isinstance(obj, cls))


def _memory(system):
    memory = _first(system, SimpleMemory)
    memory._in_flight = 1
    return memory, "_in_flight"


def _port_pool(system):
    port = _first(system, ComponentPort)
    port._slots[1] = 1
    return port, "_slots"


def _crossbar_queue(system):
    xbar = _first(system, NoncoherentXBar)
    queue = next(iter(xbar._req_queues.values()))
    queue._entries.append((0, Packet(MemCmd.READ_REQ, 0x8000_0000, 4)))
    return xbar, "_req_queues"


def _nic_waiter(system):
    nic = system.devices["nic"]
    nic._dma_waiters[0] = lambda response: None
    return nic, "_dma_waiters"


CASES = {
    "memory": (validation_spec, _memory),
    "port_pool": (validation_spec, _port_pool),
    "crossbar_queue": (validation_spec, _crossbar_queue),
    "nic_waiter": (nic_spec, _nic_waiter),
}


def _running(system):
    """Spawn a process on the freshly built ``system`` and run it into
    its first suspension, the only work pending; return it."""
    def body():
        yield Delay(10**9)

    process = system.kernel.spawn("idle", body())
    system.sim.run(max_events=1)
    assert process._suspended
    return process


@pytest.mark.parametrize("case", sorted(CASES))
def test_guard_names_what_is_in_flight(case):
    spec, make_busy = CASES[case]
    system = build_system(spec(), check=False)
    sim = system.sim
    _running(system)
    device = next(iter(system.devices.values()))
    origin = Origin(sim.curtick, 0x9000_0000, 0, device)
    assert _Prover(sim)._snapshot(origin) is not None
    obj, attr = make_busy(system)
    busy = f"{re.escape(obj.full_name)} has work in flight in .*{attr}"
    with pytest.raises(CheckpointError, match=busy):
        capture(sim)
    assert _Prover(sim)._snapshot(origin) is None


def test_guard_names_a_suspended_process():
    system = build_system(validation_spec(), check=False)
    process = _running(system)
    busy = f"{re.escape(process.full_name)} has work in flight in _suspended"
    with pytest.raises(CheckpointError, match=busy):
        capture(system.sim)
