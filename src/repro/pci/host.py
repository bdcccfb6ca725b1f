"""The PCI Host (gem5's functional host-to-PCI bridge).

The PCI Host claims the entire PCI configuration window and services
configuration accesses using the Enhanced Configuration Access Mechanism
(ECAM): address = base + (bus << 20) + (device << 15) + (function << 12)
+ register, giving 4 KB of configuration registers per function.

Configuration routing is *structural*, like real hardware: the host owns
bus 0 (the internal root complex bus), each bridge function (a VP2P in
the root complex or a switch port) owns the child bus behind it, and a
configuration cycle for bus N is forwarded down a bridge only when N
lies within that bridge's [secondary, subordinate] registers.  Devices
behind a bridge are therefore *unreachable* until the enumeration
software programs bus numbers into the bridge — exactly the behaviour
the depth-first enumeration algorithm depends on.

The walk from bus 0 that answers "which bus is number N?" is memoised
in one ``{bus number: that bus's functions by slot}`` map that the whole
tree shares and only the walk fills, so every answer is the walk's (an
unreachable number maps to no functions).  The tree growing clears the
map.  A software write to a bridge's secondary/subordinate registers,
through the host or straight into the bridge (a write hook
``add_bridge`` installs), drops only the numbers inside the bridge's
old or new [secondary, subordinate] range: a bus outside both never
routes through that bridge, before or after the write, so its walk
cannot change.  Like a bridge's decoded routing cache, the memo is
derived state that steers nothing the registers do not, so it is
declared in no ``state_dict``.

Reads of unpopulated addresses return all-ones: in the PCI-Express
protocol a configuration response of all 1s represents an access to a
non-existent device.

Accesses are served both functionally (direct calls — what the
enumeration software and drivers use; gem5's PCI Host is likewise a
functional model outside the timed PCIe datapath) and as timed packets
through a slave port claiming the ECAM window.
"""

from typing import Dict, Iterator, List, Optional, Tuple

from repro.mem.addr import AddrRange
from repro.mem.packet import MemCmd, Packet
from repro.mem.port import PacketQueue, SlavePort
from repro.pci.header import (SECONDARY_BUS, SUBORDINATE_BUS,
                               PciBridgeFunction, PciFunction)
from repro.platform.addrmap import VEXPRESS_GEM5_V1
from repro.sim import ticks
from repro.sim.eventq import proxy
from repro.sim.simobject import SimObject, Simulator

Bdf = Tuple[int, int, int]
Slot = Tuple[int, int]  # (device, function)

#: The memo's answer for a bus number no walk reaches.
_NO_FUNCTIONS: Dict[Slot, PciFunction] = {}


class ConfigBus:
    """One logical PCI bus: functions by (device, function) slot, plus
    the child bus behind each bridge function."""

    def __init__(self, name: str = "bus"):
        self.name = name
        self._functions: Dict[Slot, PciFunction] = {}
        self._children: Dict[Slot, "ConfigBus"] = {}
        #: The host's bus-number memo, one dict shared by the whole tree
        #: (see the module doc for what drops its entries).
        self.bus_memo: Dict[int, Dict[Slot, PciFunction]] = {}

    def add_function(self, device: int, function: int, model: PciFunction) -> None:
        """Install ``model`` at slot ``device.function``; a slot takes one."""
        if not (0 <= device <= 31 and 0 <= function <= 7):
            raise ValueError(f"invalid slot {device}.{function}")
        slot = (device, function)
        if slot in self._functions:
            raise ValueError(f"slot {device}.{function} on {self.name} already populated")
        self._functions[slot] = model
        self.bus_memo.clear()

    def add_bridge(
        self, device: int, function: int, model: PciBridgeFunction,
        child_name: str = ""
    ) -> "ConfigBus":
        """Install a bridge function; returns the child bus behind it."""
        if not isinstance(model, PciBridgeFunction):
            raise TypeError(f"add_bridge requires a bridge function, got {model!r}")
        self.add_function(device, function, model)
        # Secondary and subordinate (0x19-0x1A) decide which numbers the
        # bridge forwards; the primary bus number does not.  The hook
        # holds the bus weakly: the memo holds the bridge.
        bus, data = proxy(self), model.config._data
        span = [data[SECONDARY_BUS], data[SUBORDINATE_BUS]]

        def rerouted(*_):
            lo, hi = span
            new_lo, new_hi = span[:] = (data[SECONDARY_BUS],
                                        data[SUBORDINATE_BUS])
            memo = bus.bus_memo
            for number in [number for number in memo
                           if lo <= number <= hi or new_lo <= number <= new_hi]:
                del memo[number]

        model.config.add_write_hook(SECONDARY_BUS, 2, rerouted)
        child = ConfigBus(child_name or f"{self.name}.{device}.{function}")
        child.bus_memo = self.bus_memo
        self._children[(device, function)] = child
        return child

    def function_at(self, device: int, function: int) -> Optional[PciFunction]:
        """The function at the slot, or None."""
        return self._functions.get((device, function))

    def child_behind(self, device: int, function: int) -> Optional["ConfigBus"]:
        """The bus behind the bridge at the slot, or None."""
        return self._children.get((device, function))

    def walk(self) -> Iterator[Tuple["ConfigBus", Slot, PciFunction]]:
        """Every (bus, slot, function) in this subtree, structure order."""
        for slot, model in sorted(self._functions.items()):
            yield self, slot, model
        for slot, child in sorted(self._children.items()):
            yield from child.walk()


class PciHost(SimObject):
    """Owner of the ECAM configuration window and the config-bus tree.

    Args:
        ecam_base: base address of the configuration window (the
            platform map's: 0x30000000 on Vexpress_GEM5_V1).
        ecam_size: window size (256 MB covers 256 buses).
    """

    #: Per-access latency of the timed interface.
    CONFIG_LATENCY = ticks.from_ns(100)

    in_flight = ("_respq",)

    def __init__(
        self,
        sim: Simulator,
        name: str = "pci_host",
        parent: Optional[SimObject] = None,
        ecam_base: int = VEXPRESS_GEM5_V1.pci_config.start,
        ecam_size: int = VEXPRESS_GEM5_V1.pci_config.size,
    ):
        super().__init__(sim, name, parent)
        self.ecam_range = AddrRange(ecam_base, ecam_size)
        self.root_bus = ConfigBus("bus0")

        self.port = SlavePort(
            self,
            "port",
            recv_timing_req=self._recv_config_packet,
            ranges=[self.ecam_range],
        )
        self._respq = PacketQueue(self, "respq", self.port.send_timing_resp, 16)
        self.port.recv_resp_retry = self._respq.retry

        self.config_reads = self.stats.scalar("config_reads")
        self.config_writes = self.stats.scalar("config_writes")
        self.missed_accesses = self.stats.scalar(
            "missed_accesses", "accesses to unpopulated bus/device/function"
        )

    # -- structural routing ----------------------------------------------------
    def _functions_on(self, bus: int) -> Dict[Slot, PciFunction]:
        """The functions by slot of the bus numbered ``bus``: from bus
        0, follow the first bridge whose [secondary, subordinate] range
        holds it.  Memoised; an unreachable number has none."""
        cbus, number = self.root_bus, 0
        while bus != number:
            functions = cbus._functions
            for slot, child in cbus._children.items():
                bridge = functions[slot]
                if bridge.routes_bus(bus):
                    cbus, number = child, bridge.config._data[SECONDARY_BUS]
                    break
            else:
                cbus = None
                break
        functions = _NO_FUNCTIONS if cbus is None else cbus._functions
        self.root_bus.bus_memo[bus] = functions
        return functions

    def function_at(self, bus: int, device: int, function: int = 0) -> Optional[PciFunction]:
        """The function at ``bus:device.function`` as configuration cycles
        reach it, or None."""
        functions = self.root_bus.bus_memo.get(bus)
        if functions is None:
            functions = self._functions_on(bus)
        return functions.get((device, function))

    def all_functions(self) -> List[PciFunction]:
        """Every installed function, in structure order."""
        return [model for __, __, model in self.root_bus.walk()]

    # -- functional configuration access ------------------------------------------
    def config_read(self, bus: int, device: int, function: int,
                    offset: int, size: int = 4) -> int:
        """A functional configuration read; all ones where no function
        answers.  :meth:`function_at` inlined: enumeration probes every
        slot of every bus this way."""
        functions = self.root_bus.bus_memo.get(bus)
        if functions is None:
            functions = self._functions_on(bus)
        model = functions.get((device, function))
        if model is None:
            self.missed_accesses.total += 1
            return (1 << (8 * size)) - 1  # all-ones: no device
        self.config_reads.total += 1
        return model.config.read(offset, size)

    def config_write(self, bus: int, device: int, function: int,
                     offset: int, value: int, size: int = 4) -> None:
        """A functional configuration write; dropped where no function
        answers."""
        model = self.function_at(bus, device, function)
        if model is None:
            self.missed_accesses.total += 1
            return  # writes to nowhere are dropped
        self.config_writes.total += 1
        model.config.write(offset, value, size)

    # -- ECAM decode ------------------------------------------------------------
    def decode(self, addr: int) -> Tuple[int, int, int, int]:
        """Split an ECAM address into (bus, device, function, register)."""
        offset = self.ecam_range.offset(addr)
        return (
            (offset >> 20) & 0xFF,
            (offset >> 15) & 0x1F,
            (offset >> 12) & 0x7,
            offset & 0xFFF,
        )

    def encode(self, bus: int, device: int, function: int, register: int = 0) -> int:
        """ECAM address of a register — the inverse of :meth:`decode`."""
        return (
            self.ecam_range.start
            + (bus << 20)
            + (device << 15)
            + (function << 12)
            + register
        )

    # -- timed packet interface -----------------------------------------------
    def _recv_config_packet(self, pkt: Packet) -> bool:
        if self._respq.full:
            return False
        bus, device, function, register = self.decode(pkt.addr)
        if pkt.cmd in (MemCmd.CONFIG_READ_REQ, MemCmd.READ_REQ):
            value = self.config_read(bus, device, function, register, pkt.size)
            data = value.to_bytes(pkt.size, "little")
            self._respq.push(pkt.make_response(data), self.CONFIG_LATENCY)
        elif pkt.cmd in (MemCmd.CONFIG_WRITE_REQ, MemCmd.WRITE_REQ):
            value = int.from_bytes(pkt.data or bytes(pkt.size), "little")
            self.config_write(bus, device, function, register, value, pkt.size)
            self._respq.push(pkt.make_response(), self.CONFIG_LATENCY)
        else:
            raise ValueError(f"PCI host cannot service {pkt!r}")
        return True
