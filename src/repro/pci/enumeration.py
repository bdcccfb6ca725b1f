"""The enumeration software.

The part of the BIOS / kernel that discovers devices, assigns bus
numbers, sizes and places BARs, programs bridge windows, and hands out
interrupt lines.  It talks to the hardware exclusively through the PCI
Host's configuration interface — it has no privileged view of the
models, so every register semantic it depends on (all-ones for absent
devices, BAR size probes, bridge forwarding by [secondary, subordinate])
is exercised for real.

The algorithm is the classic depth-first scan the paper describes:

1. probe vendor IDs on bus 0;
2. on finding a bridge (header type 1), assign the next bus number as
   its secondary bus, open its subordinate register to 0xFF, recurse
   into the new bus, then clamp subordinate to the highest bus found;
3. on finding an endpoint (header type 0), size each BAR by writing
   all-ones and reading back the size mask;
4. afterwards, walk the discovered tree allocating memory/I/O space
   depth-first so that each bridge's devices occupy a contiguous,
   1 MB/4 KB-aligned window, program the windows, and set the command
   registers (memory/I/O decode + bus mastering for DMA).
"""

from typing import List, Optional

from repro.mem.addr import AddrRange
from repro.pci import header as hdr
from repro.pci.host import PciHost
from repro.platform.addrmap import VEXPRESS_GEM5_V1


class EnumerationError(RuntimeError):
    """The bus scan hit something inconsistent (bad header, overflow...)."""


class _Allocator:
    """A bump allocator over one address window."""

    def __init__(self, window: AddrRange, name: str):
        self.window = window
        self.name = name
        self._next = window.start

    def align(self, alignment: int) -> int:
        self._next = -(-self._next // alignment) * alignment
        return self._next

    def take(self, size: int, alignment: Optional[int] = None) -> int:
        addr = self.align(alignment or size)
        if addr + size > self.window.end:
            raise EnumerationError(
                f"{self.name} space exhausted: need {size:#x} at {addr:#x}, "
                f"window ends at {self.window.end:#x}"
            )
        self._next = addr + size
        return addr


class FoundBar:
    """One implemented BAR discovered by a size probe."""

    def __init__(self, index: int, size: int, io: bool, prefetchable: bool):
        self.index = index
        self.size = size
        self.io = io
        self.prefetchable = prefetchable
        self.assigned: Optional[AddrRange] = None

    def __repr__(self) -> str:
        space = "io" if self.io else "mem"
        return f"<FoundBar {self.index} {space} size={self.size:#x} at={self.assigned}>"


class FoundDevice:
    """A discovered function: endpoint or bridge, with its subtree."""

    def __init__(self, bus: int, device: int, function: int,
                 vendor_id: int, device_id: int, is_bridge: bool):
        self.bus = bus
        self.device = device
        self.function = function
        self.vendor_id = vendor_id
        self.device_id = device_id
        self.is_bridge = is_bridge
        self.bars: List[FoundBar] = []
        self.children: List["FoundDevice"] = []
        self.secondary_bus: Optional[int] = None
        self.subordinate_bus: Optional[int] = None
        self.interrupt_line: Optional[int] = None
        self.capabilities: List[tuple] = []

    @property
    def bdf(self) -> tuple:
        return (self.bus, self.device, self.function)

    def endpoints(self) -> List["FoundDevice"]:
        """All endpoint functions in this subtree (self included)."""
        if not self.is_bridge:
            return [self]
        out: List[FoundDevice] = []
        for child in self.children:
            out.extend(child.endpoints())
        return out

    def __repr__(self) -> str:
        kind = "bridge" if self.is_bridge else "endpoint"
        return (
            f"<{kind} {self.bus:02x}:{self.device:02x}.{self.function} "
            f"{self.vendor_id:04x}:{self.device_id:04x}>"
        )


class Enumerator:
    """Runs the depth-first scan and resource assignment.

    Args:
        host: the PCI host whose configuration interface to use.
        mem_window: platform MMIO window for device memory BARs
            (the platform map's: 1 GB at 0x40000000).
        io_window: platform I/O window (the platform map's: 16 MB at
            0x2F000000).
        irq_base: first legacy interrupt line to hand out.
    """

    BRIDGE_WINDOW_MEM_ALIGN = 0x100000  # 1 MB granularity (type-1 decode)
    BRIDGE_WINDOW_IO_ALIGN = 0x1000  # 4 KB granularity

    def __init__(
        self,
        host: PciHost,
        mem_window: AddrRange = VEXPRESS_GEM5_V1.pci_mem,
        io_window: AddrRange = VEXPRESS_GEM5_V1.pci_io,
        irq_base: int = 32,
    ):
        self.host = host
        self.mem_alloc = _Allocator(mem_window, "memory")
        self.io_alloc = _Allocator(io_window, "I/O")
        self._next_bus = 1
        self._next_irq = irq_base
        self.roots: List[FoundDevice] = []

    # -- config shorthand -------------------------------------------------------
    def _cr(self, bdf, offset, size=4):
        return self.host.config_read(*bdf, offset, size)

    def _cw(self, bdf, offset, value, size=4):
        self.host.config_write(*bdf, offset, value, size)

    # -- the scan ----------------------------------------------------------------
    def enumerate(self) -> List[FoundDevice]:
        """Scan, assign, program.  Returns the device tree under bus 0."""
        self.roots = self._scan_bus(0)
        for node in self.roots:
            self._assign(node)
        return self.roots

    def _scan_bus(self, bus: int) -> List[FoundDevice]:
        found: List[FoundDevice] = []
        for device in range(32):
            vendor = self._cr((bus, device, 0), hdr.VENDOR_ID, 2)
            if vendor == hdr.INVALID_VENDOR:
                continue
            header_type = self._cr((bus, device, 0), hdr.HEADER_TYPE, 1)
            n_functions = 8 if header_type & 0x80 else 1
            for function in range(n_functions):
                bdf = (bus, device, function)
                vendor = self._cr(bdf, hdr.VENDOR_ID, 2)
                if vendor == hdr.INVALID_VENDOR:
                    continue
                found.append(self._probe_function(bdf))
        return found

    def _probe_function(self, bdf) -> FoundDevice:
        bus, device, function = bdf
        vendor = self._cr(bdf, hdr.VENDOR_ID, 2)
        device_id = self._cr(bdf, hdr.DEVICE_ID, 2)
        header_type = self._cr(bdf, hdr.HEADER_TYPE, 1) & 0x7F
        if header_type not in (0x00, 0x01):
            raise EnumerationError(
                f"device {bus:02x}:{device:02x}.{function} has unsupported "
                f"header type {header_type:#x}"
            )
        node = FoundDevice(bus, device, function, vendor, device_id,
                           is_bridge=header_type == 0x01)
        node.capabilities = self._walk_capabilities(bdf)
        if node.is_bridge:
            self._descend_bridge(node)
        else:
            node.bars = self._probe_bars(bdf)
        return node

    def _descend_bridge(self, node: FoundDevice) -> None:
        bdf = node.bdf
        secondary = self._next_bus
        if secondary > 0xFF:
            raise EnumerationError("ran out of bus numbers")
        self._next_bus += 1
        self._cw(bdf, hdr.PRIMARY_BUS, node.bus, 1)
        self._cw(bdf, hdr.SECONDARY_BUS, secondary, 1)
        # Open the subordinate register so config cycles reach any depth
        # of the yet-unscanned subtree.
        self._cw(bdf, hdr.SUBORDINATE_BUS, 0xFF, 1)
        node.secondary_bus = secondary
        node.children = self._scan_bus(secondary)
        node.subordinate_bus = self._next_bus - 1
        self._cw(bdf, hdr.SUBORDINATE_BUS, node.subordinate_bus, 1)

    def _probe_bars(self, bdf) -> List[FoundBar]:
        # Disable decode while probing so a half-programmed BAR cannot
        # claim live traffic.
        command = self._cr(bdf, hdr.COMMAND, 2)
        self._cw(bdf, hdr.COMMAND, command & ~(hdr.CMD_IO_SPACE | hdr.CMD_MEM_SPACE), 2)
        bars: List[FoundBar] = []
        for index in range(6):
            offset = hdr.BAR0 + 4 * index
            original = self._cr(bdf, offset, 4)
            self._cw(bdf, offset, 0xFFFFFFFF, 4)
            probed = self._cr(bdf, offset, 4)
            self._cw(bdf, offset, original, 4)
            if probed == 0:
                continue  # unimplemented
            io = bool(probed & 0x1)
            mask = 0xFFFFFFFC if io else 0xFFFFFFF0
            size = ((~(probed & mask)) & 0xFFFFFFFF) + 1
            prefetchable = bool(probed & 0x8) and not io
            bars.append(FoundBar(index, size, io, prefetchable))
        self._cw(bdf, hdr.COMMAND, command, 2)
        return bars

    def _walk_capabilities(self, bdf) -> List[tuple]:
        status = self._cr(bdf, hdr.STATUS, 2)
        if not status & hdr.STATUS_CAP_LIST:
            return []
        out = []
        offset = self._cr(bdf, hdr.CAPABILITY_POINTER, 1)
        seen = set()
        while offset and offset not in seen:
            seen.add(offset)
            cap_id = self._cr(bdf, offset, 1)
            out.append((cap_id, offset))
            offset = self._cr(bdf, offset + 1, 1)
        return out

    # -- resource assignment ---------------------------------------------------
    def _assign(self, node: FoundDevice) -> None:
        if node.is_bridge:
            self._assign_bridge(node)
        else:
            self._assign_endpoint(node)

    def _assign_endpoint(self, node: FoundDevice) -> None:
        bdf = node.bdf
        command = self._cr(bdf, hdr.COMMAND, 2)
        for bar in node.bars:
            alloc = self.io_alloc if bar.io else self.mem_alloc
            addr = alloc.take(bar.size)
            self._cw(bdf, hdr.BAR0 + 4 * bar.index, addr, 4)
            bar.assigned = AddrRange(addr, bar.size)
            command |= hdr.CMD_IO_SPACE if bar.io else hdr.CMD_MEM_SPACE
        command |= hdr.CMD_BUS_MASTER  # allow the device to DMA
        self._cw(bdf, hdr.COMMAND, command, 2)
        node.interrupt_line = self._next_irq
        self._next_irq += 1
        self._cw(bdf, hdr.INTERRUPT_LINE, node.interrupt_line, 1)

    def _assign_bridge(self, node: FoundDevice) -> None:
        bdf = node.bdf
        mem_start = self.mem_alloc.align(self.BRIDGE_WINDOW_MEM_ALIGN)
        io_start = self.io_alloc.align(self.BRIDGE_WINDOW_IO_ALIGN)
        for child in node.children:
            self._assign(child)
        mem_end = self.mem_alloc.align(self.BRIDGE_WINDOW_MEM_ALIGN)
        io_end = self.io_alloc.align(self.BRIDGE_WINDOW_IO_ALIGN)

        command = self._cr(bdf, hdr.COMMAND, 2)
        if mem_end > mem_start:
            self._cw(bdf, hdr.MEMORY_BASE, (mem_start >> 16) & 0xFFF0, 2)
            self._cw(bdf, hdr.MEMORY_LIMIT, ((mem_end - 1) >> 16) & 0xFFF0, 2)
            command |= hdr.CMD_MEM_SPACE
        else:
            self._cw(bdf, hdr.MEMORY_BASE, 0xFFF0, 2)
            self._cw(bdf, hdr.MEMORY_LIMIT, 0x0000, 2)
        if io_end > io_start:
            self._cw(bdf, hdr.IO_BASE, ((io_start >> 8) & 0xF0) | 0x01, 1)
            self._cw(bdf, hdr.IO_BASE_UPPER16, io_start >> 16, 2)
            self._cw(bdf, hdr.IO_LIMIT, (((io_end - 1) >> 8) & 0xF0) | 0x01, 1)
            self._cw(bdf, hdr.IO_LIMIT_UPPER16, (io_end - 1) >> 16, 2)
            command |= hdr.CMD_IO_SPACE
        else:
            self._cw(bdf, hdr.IO_BASE, 0xF1, 1)
            self._cw(bdf, hdr.IO_BASE_UPPER16, 0xFFFF, 2)
            self._cw(bdf, hdr.IO_LIMIT, 0x01, 1)
            self._cw(bdf, hdr.IO_LIMIT_UPPER16, 0x0000, 2)
        # Forward transactions secondary->primary (DMA) as well.
        command |= hdr.CMD_BUS_MASTER
        self._cw(bdf, hdr.COMMAND, command, 2)

    # -- reporting -----------------------------------------------------------------
    def all_devices(self) -> List[FoundDevice]:
        out: List[FoundDevice] = []
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def find(self, vendor_id: int, device_id: int) -> List[FoundDevice]:
        return [
            node
            for node in self.all_devices()
            if node.vendor_id == vendor_id and node.device_id == device_id
        ]

    def tree_text(self) -> str:
        """An lspci-like rendering of the discovered tree."""
        lines: List[str] = []
        stack = [(root, 0) for root in reversed(self.roots)]
        while stack:
            node, depth = stack.pop()
            pad = "  " * depth
            kind = "bridge" if node.is_bridge else "endpoint"
            extra = ""
            if node.is_bridge:
                extra = f" [sec={node.secondary_bus} sub={node.subordinate_bus}]"
            lines.append(
                f"{pad}{node.bus:02x}:{node.device:02x}.{node.function} "
                f"{kind} {node.vendor_id:04x}:{node.device_id:04x}{extra}"
            )
            for bar in node.bars:
                lines.append(f"{pad}  BAR{bar.index}: {bar.assigned}")
            stack.extend((child, depth + 1) for child in reversed(node.children))
        return "\n".join(lines)
