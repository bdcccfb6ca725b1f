"""PCI configuration headers.

:class:`PciEndpointFunction` implements the type-0 endpoint header (R1
of the paper's Figure 4) with size-probing BARs; :class:`PciBridgeFunction`
implements the type-1 PCI-to-PCI bridge header of Figure 7 — the header
the paper builds for each virtual PCI-to-PCI bridge (VP2P) in the root
complex and switch.  Both chain capability structures through the
capability pointer.

All register semantics are bit-accurate where software depends on them:
BAR size probes (write all-ones, read back the size mask), bridge
window decode (mem windows in 1 MB granules, 32-bit I/O windows using
the upper-16 registers, as required by the platform's I/O window at
0x2F000000), and command-register enable bits.
"""

from typing import List, Optional

from repro.mem.addr import AddrRange
from repro.pci.capabilities import Capability
from repro.pci.config import ConfigSpace
from repro.sim.eventq import proxy

# Standard header register offsets.
VENDOR_ID = 0x00
DEVICE_ID = 0x02
COMMAND = 0x04
STATUS = 0x06
REVISION_ID = 0x08
CLASS_CODE = 0x09
CACHE_LINE_SIZE = 0x0C
LATENCY_TIMER = 0x0D
HEADER_TYPE = 0x0E
BIST = 0x0F
BAR0 = 0x10
CAPABILITY_POINTER = 0x34
INTERRUPT_LINE = 0x3C
INTERRUPT_PIN = 0x3D

# Type-1 specific offsets (Figure 7).
PRIMARY_BUS = 0x18
SECONDARY_BUS = 0x19
SUBORDINATE_BUS = 0x1A
SECONDARY_LATENCY_TIMER = 0x1B
IO_BASE = 0x1C
IO_LIMIT = 0x1D
SECONDARY_STATUS = 0x1E
MEMORY_BASE = 0x20
MEMORY_LIMIT = 0x22
PREFETCH_BASE = 0x24
PREFETCH_LIMIT = 0x26
PREFETCH_BASE_UPPER32 = 0x28
PREFETCH_LIMIT_UPPER32 = 0x2C
IO_BASE_UPPER16 = 0x30
IO_LIMIT_UPPER16 = 0x32
BRIDGE_CONTROL = 0x3E

# Command register bits.
CMD_IO_SPACE = 1 << 0
CMD_MEM_SPACE = 1 << 1
CMD_BUS_MASTER = 1 << 2

# Status register bits.
STATUS_CAP_LIST = 1 << 4

INVALID_VENDOR = 0xFFFF


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class Bar:
    """A base address register.

    Args:
        size: aperture size in bytes (power of two, minimum 16 for
            memory and 4 for I/O) or 0 for an unimplemented BAR.
        io: True for an I/O-space BAR, False for memory-space.
        prefetchable: memory-space prefetchable bit.
    """

    def __init__(self, size: int, io: bool = False, prefetchable: bool = False):
        if size and not _is_power_of_two(size):
            raise ValueError(f"BAR size must be a power of two, got {size}")
        minimum = 4 if io else 16
        if size and size < minimum:
            raise ValueError(f"BAR size {size} below architectural minimum {minimum}")
        self.size = size
        self.io = io
        self.prefetchable = prefetchable
        # Current value of the register's address bits.
        self.addr = 0

    @property
    def type_bits(self) -> int:
        if self.io:
            return 0x1
        return 0x8 if self.prefetchable else 0x0

    @property
    def addr_mask(self) -> int:
        """Which register bits hold the (aligned) address."""
        if not self.size:
            return 0
        return (~(self.size - 1)) & 0xFFFFFFFF

    def register_value(self) -> int:
        return (self.addr & self.addr_mask) | self.type_bits if self.size else 0

    def range(self) -> Optional[AddrRange]:
        if not self.size or not self.addr:
            return None
        return AddrRange(self.addr, self.size)


class PciFunction:
    """Common header machinery for endpoints and bridges.

    A function is identified by (bus, device, function) once the
    enumeration software assigns bus numbers; models register with the
    :class:`~repro.pci.host.PciHost` under that address.
    """

    header_type_value = 0x00

    def __init__(
        self,
        vendor_id: int,
        device_id: int,
        class_code: int = 0,
        revision: int = 0,
    ):
        self.config = ConfigSpace()
        self._capabilities: List[Capability] = []
        self._cap_offsets: List[int] = []
        self._next_cap_offset = 0x40
        config = self.config
        config.init_field(VENDOR_ID, 2, vendor_id)
        config.init_field(DEVICE_ID, 2, device_id)
        config.init_field(COMMAND, 2, 0x0000, writable_mask=0x0147)
        config.init_field(STATUS, 2, 0x0000)
        config.init_field(REVISION_ID, 1, revision)
        config.init_field(CLASS_CODE, 3, class_code)
        config.init_field(CACHE_LINE_SIZE, 1, 0, writable_mask=0xFF)
        config.init_field(LATENCY_TIMER, 1, 0, writable_mask=0xFF)
        config.init_field(HEADER_TYPE, 1, self.header_type_value)
        config.init_field(BIST, 1, 0)
        config.init_field(CAPABILITY_POINTER, 1, 0)
        config.init_field(INTERRUPT_LINE, 1, 0xFF, writable_mask=0xFF)
        config.init_field(INTERRUPT_PIN, 1, 0x01)  # INTA#

    # -- identity -------------------------------------------------------------
    @property
    def vendor_id(self) -> int:
        return self.config.read(VENDOR_ID, 2)

    @property
    def device_id(self) -> int:
        return self.config.read(DEVICE_ID, 2)

    @property
    def is_bridge(self) -> bool:
        return (self.config.read(HEADER_TYPE, 1) & 0x7F) == 0x01

    # -- command register ---------------------------------------------------------
    @property
    def command(self) -> int:
        return self.config.read(COMMAND, 2)

    @property
    def io_enabled(self) -> bool:
        return bool(self.command & CMD_IO_SPACE)

    @property
    def memory_enabled(self) -> bool:
        return bool(self.command & CMD_MEM_SPACE)

    @property
    def bus_master_enabled(self) -> bool:
        return bool(self.command & CMD_BUS_MASTER)

    # -- interrupts --------------------------------------------------------------
    @property
    def interrupt_line(self) -> int:
        return self.config.read(INTERRUPT_LINE, 1)

    # -- capabilities --------------------------------------------------------------
    def add_capability(self, cap: Capability, offset: Optional[int] = None) -> int:
        """Append ``cap`` to the capability chain; returns its offset.

        The first capability's offset lands in the header's capability
        pointer and sets the status-register capabilities bit (the paper
        notes all bits of the VP2P status register are 0 except bit 4,
        indicating a PCI-Express capability structure is implemented).
        """
        if offset is None:
            offset = self._next_cap_offset
        if offset % 4 != 0:
            raise ValueError(f"capability offset {offset:#x} must be dword-aligned")
        if offset + cap.length > 0x100:
            raise ValueError("capability overflows the PCI-compatible region")
        cap.install(self.config, offset, next_ptr=0)
        if self._capabilities:
            # Patch the previous capability's next pointer to us.
            prev_offset = self._cap_offsets[-1]
            self.config.set_raw(prev_offset + 1, 1, offset)
        else:
            self.config.set_raw(CAPABILITY_POINTER, 1, offset)
            self.config.set_raw(STATUS, 2, self.config.read(STATUS, 2) | STATUS_CAP_LIST)
        self._capabilities.append(cap)
        self._cap_offsets.append(offset)
        self._next_cap_offset = max(self._next_cap_offset, offset + ((cap.length + 3) & ~3))
        return offset

    def walk_capabilities(self) -> List[tuple]:
        """Follow the chain; returns [(cap_id, offset), ...] like a driver."""
        out = []
        offset = self.config.read(CAPABILITY_POINTER, 1)
        seen = set()
        while offset and offset not in seen:
            seen.add(offset)
            cap_id = self.config.read(offset, 1)
            out.append((cap_id, offset))
            offset = self.config.read(offset + 1, 1)
        return out

    def find_capability(self, cap_id: int) -> Optional[int]:
        for found_id, offset in self.walk_capabilities():
            if found_id == cap_id:
                return offset
        return None

    # -- software access ----------------------------------------------------------
    def config_read(self, offset: int, size: int = 4) -> int:
        return self.config.read(offset, size)

    def config_write(self, offset: int, value: int, size: int = 4) -> None:
        self.config.write(offset, value, size)


class PciEndpointFunction(PciFunction):
    """A type-0 (endpoint) function with up to six BARs."""

    header_type_value = 0x00

    def __init__(
        self,
        vendor_id: int,
        device_id: int,
        bars: Optional[List[Bar]] = None,
        class_code: int = 0,
        revision: int = 0,
        subsystem_vendor_id: int = 0,
        subsystem_id: int = 0,
    ):
        super().__init__(vendor_id, device_id, class_code, revision)
        bars = list(bars or [])
        if len(bars) > 6:
            raise ValueError(f"an endpoint has at most 6 BARs, got {len(bars)}")
        while len(bars) < 6:
            bars.append(Bar(0))
        self.bars = bars
        for i, bar in enumerate(self.bars):
            offset = BAR0 + 4 * i
            self.config.init_field(offset, 4, bar.type_bits if bar.size else 0,
                                   writable_mask=0xFFFFFFFF if bar.size else 0)
            if bar.size:
                # The function owns its config space: the hook's edge
                # back is a weak proxy.
                self.config.add_write_hook(
                    offset, 4,
                    lambda off, sz, val, i=i, me=proxy(self): me._bar_written(i),
                )
        self.config.init_field(0x2C, 2, subsystem_vendor_id)
        self.config.init_field(0x2E, 2, subsystem_id)
        self.config.init_field(0x30, 4, 0)  # expansion ROM: none

    def _bar_written(self, index: int) -> None:
        """Apply BAR semantics: address bits only, type bits read-only.

        A size probe (software writing all-ones) reads back as the size
        mask because the low address bits cannot be set.
        """
        bar = self.bars[index]
        offset = BAR0 + 4 * index
        raw = self.config.read(offset, 4)
        bar.addr = raw & bar.addr_mask
        self.config.set_raw(offset, 4, bar.register_value())

    def bar_ranges(self, require_enable: bool = True) -> List[AddrRange]:
        """Address ranges of all programmed BARs, honouring the command
        register enable bits when ``require_enable``."""
        out = []
        for bar in self.bars:
            rng = bar.range()
            if rng is None:
                continue
            if require_enable:
                if bar.io and not self.io_enabled:
                    continue
                if not bar.io and not self.memory_enabled:
                    continue
            out.append(rng)
        return out


class PciBridgeFunction(PciFunction):
    """A type-1 (PCI-to-PCI bridge) function — the VP2P header of Figure 7."""

    header_type_value = 0x01

    def __init__(
        self,
        vendor_id: int,
        device_id: int,
        class_code: int = 0x060400,  # PCI-to-PCI bridge
        revision: int = 0,
    ):
        super().__init__(vendor_id, device_id, class_code, revision)
        config = self.config
        # Bridges in this model carry no BARs of their own (the paper
        # sets them to 0: "the VP2P does not implement memory-mapped
        # registers of its own").
        config.init_field(BAR0, 4, 0)
        config.init_field(BAR0 + 4, 4, 0)
        config.init_field(PRIMARY_BUS, 1, 0, writable_mask=0xFF)
        config.init_field(SECONDARY_BUS, 1, 0, writable_mask=0xFF)
        config.init_field(SUBORDINATE_BUS, 1, 0, writable_mask=0xFF)
        config.init_field(SECONDARY_LATENCY_TIMER, 1, 0)
        # 32-bit I/O window: low nibble 0x1 advertises 32-bit decode,
        # required because the platform's I/O space sits at 0x2F000000.
        config.init_field(IO_BASE, 1, 0x01, writable_mask=0xF0)
        config.init_field(IO_LIMIT, 1, 0x01, writable_mask=0xF0)
        config.init_field(SECONDARY_STATUS, 2, 0)
        config.init_field(MEMORY_BASE, 2, 0x0000, writable_mask=0xFFF0)
        config.init_field(MEMORY_LIMIT, 2, 0x0000, writable_mask=0xFFF0)
        # Prefetchable window unimplemented (reads as zero, not writable).
        config.init_field(PREFETCH_BASE, 2, 0x0000)
        config.init_field(PREFETCH_LIMIT, 2, 0x0000)
        config.init_field(PREFETCH_BASE_UPPER32, 4, 0)
        config.init_field(PREFETCH_LIMIT_UPPER32, 4, 0)
        config.init_field(IO_BASE_UPPER16, 2, 0x0000, writable_mask=0xFFFF)
        config.init_field(IO_LIMIT_UPPER16, 2, 0x0000, writable_mask=0xFFFF)
        config.init_field(BRIDGE_CONTROL, 2, 0x0000, writable_mask=0x0FFF)
        # A fresh bridge decodes nothing: mem base > mem limit.
        self.set_memory_window(None)
        self.set_io_window(None)
        # Decoded routing state (windows + bus range), rebuilt whenever
        # the config space's generation moves — see _route_state().
        self._route_cache: Optional[tuple] = None

    # -- bus numbers ---------------------------------------------------------
    @property
    def primary_bus(self) -> int:
        return self.config.read(PRIMARY_BUS, 1)

    @property
    def secondary_bus(self) -> int:
        return self.config.read(SECONDARY_BUS, 1)

    @property
    def subordinate_bus(self) -> int:
        return self.config.read(SUBORDINATE_BUS, 1)

    # -- windows -----------------------------------------------------------------
    @property
    def memory_window(self) -> Optional[AddrRange]:
        """The non-prefetchable memory window, or None when closed."""
        base = (self.config.read(MEMORY_BASE, 2) & 0xFFF0) << 16
        limit_reg = self.config.read(MEMORY_LIMIT, 2) & 0xFFF0
        limit = (limit_reg << 16) | 0xFFFFF
        if base > limit:
            return None
        return AddrRange(base, end=limit + 1)

    def set_memory_window(self, window: Optional[AddrRange]) -> None:
        """Device-side helper mirroring what enumeration software does
        with config writes; also used directly in tests."""
        if window is None:
            self.config.set_raw(MEMORY_BASE, 2, 0xFFF0)
            self.config.set_raw(MEMORY_LIMIT, 2, 0x0000)
            return
        if window.start % 0x100000 or window.end % 0x100000:
            raise ValueError("memory window must be 1MB aligned")
        self.config.set_raw(MEMORY_BASE, 2, (window.start >> 16) & 0xFFF0)
        self.config.set_raw(MEMORY_LIMIT, 2, ((window.end - 1) >> 16) & 0xFFF0)

    @property
    def io_window(self) -> Optional[AddrRange]:
        """The (32-bit) I/O window, or None when closed."""
        base = ((self.config.read(IO_BASE, 1) & 0xF0) << 8) | (
            self.config.read(IO_BASE_UPPER16, 2) << 16
        )
        limit = (
            ((self.config.read(IO_LIMIT, 1) & 0xF0) << 8)
            | (self.config.read(IO_LIMIT_UPPER16, 2) << 16)
            | 0xFFF
        )
        if base > limit:
            return None
        return AddrRange(base, end=limit + 1)

    def set_io_window(self, window: Optional[AddrRange]) -> None:
        if window is None:
            self.config.set_raw(IO_BASE, 1, 0xF1)
            self.config.set_raw(IO_BASE_UPPER16, 2, 0xFFFF)
            self.config.set_raw(IO_LIMIT, 1, 0x01)
            self.config.set_raw(IO_LIMIT_UPPER16, 2, 0x0000)
            return
        if window.start % 0x1000 or window.end % 0x1000:
            raise ValueError("I/O window must be 4KB aligned")
        self.config.set_raw(IO_BASE, 1, ((window.start >> 8) & 0xF0) | 0x01)
        self.config.set_raw(IO_BASE_UPPER16, 2, window.start >> 16)
        self.config.set_raw(IO_LIMIT, 1, (((window.end - 1) >> 8) & 0xF0) | 0x01)
        self.config.set_raw(IO_LIMIT_UPPER16, 2, (window.end - 1) >> 16)

    def forwarding_ranges(self) -> List[AddrRange]:
        """Ranges this bridge forwards from its primary to secondary
        side: the union of its open windows (honouring the command
        register's memory/I/O enables)."""
        out = []
        if self.memory_enabled and self.memory_window is not None:
            out.append(self.memory_window)
        if self.io_enabled and self.io_window is not None:
            out.append(self.io_window)
        return out

    def _route_state(self) -> tuple:
        """``(generation, ((start, end), ...), secondary, subordinate)``.

        The switch routes every TLP through :meth:`forwards` /
        :meth:`routes_bus`, but the registers behind them only change
        during enumeration — so the decoded form is cached and keyed by
        the config space's mutation counter rather than re-read from
        raw bytes per packet.
        """
        gen = self.config.generation
        cache = self._route_cache
        if cache is not None and cache[0] == gen:
            return cache
        ranges = tuple(
            (rng.start, rng.end) for rng in self.forwarding_ranges()
        )
        cache = (gen, ranges, self.secondary_bus, self.subordinate_bus)
        self._route_cache = cache
        return cache

    def forwards(self, addr: int) -> bool:
        for start, end in self._route_state()[1]:
            if start <= addr < end:
                return True
        return False

    def routes_bus(self, bus: int) -> bool:
        """True if ``bus`` lies in [secondary, subordinate] — the test
        both configuration forwarding and response routing use.  An
        unconfigured bridge (secondary still 0) routes nothing, because
        only the root bus itself is numbered 0."""
        _, _, secondary, subordinate = self._route_state()
        return secondary != 0 and secondary <= bus <= subordinate
