"""The per-function configuration space.

A PCI function exposes 256 bytes of configuration registers; a
PCI-Express function extends that to 4 KB (regions R1+R2+R3 of the
paper's Figure 4).  The space is modelled as raw little-endian bytes
plus a per-byte *write mask*: software writes only land on writable
bits, exactly like hardware RW/RO register fields.  The mask is sparse
(a dict holding only the writable bytes) because a few dozen of the
4096 bytes are writable.

Special side-effects (BAR size probing, command-register decoding) are
layered on top via *write hooks* registered for byte ranges.
"""

from typing import Callable, Dict, List, Optional, Tuple

PCI_CONFIG_SIZE = 256
PCIE_CONFIG_SIZE = 4096


class ConfigSpace:
    """Raw little-endian configuration bytes with write masks and hooks."""

    def __init__(self, size: int = PCIE_CONFIG_SIZE):
        if size not in (PCI_CONFIG_SIZE, PCIE_CONFIG_SIZE):
            raise ValueError(f"config space must be 256 or 4096 bytes, got {size}")
        self.size = size
        self._data = bytearray(size)
        #: offset -> write mask of every byte software may write.
        self._wmask: Dict[int, int] = {}
        #: Bumped on every mutation (device- or software-side).  Callers
        #: that decode registers on hot paths (bridge window routing)
        #: cache the decoded form keyed by this counter, so the cache
        #: invalidates itself on any config write without the decoder
        #: having to know which offsets matter.
        self.generation = 0
        # (start, end, hook) — hook(offset, size, value) runs after a
        # software write touching [start, end) has been applied.
        self._write_hooks: List[Tuple[int, int, Callable[[int, int, int], None]]] = []

    # -- bounds ------------------------------------------------------------
    def _check(self, offset: int, size: int) -> None:
        if not 1 <= size <= 8:
            raise ValueError(f"config access size must be 1..8 bytes, got {size}")
        if offset < 0 or offset + size > self.size:
            raise ValueError(
                f"config access [{offset:#x}, {offset + size:#x}) out of bounds"
            )

    # -- device-side initialisation ------------------------------------------
    def init_field(self, offset: int, size: int, value: int, writable_mask: int = 0) -> None:
        """Set a register's reset value and which of its bits software
        may write.  Used by device models when building their headers."""
        self._check(offset, size)
        self.generation += 1
        wmask = self._wmask
        for i in range(size):
            self._data[offset + i] = (value >> (8 * i)) & 0xFF
            mask = (writable_mask >> (8 * i)) & 0xFF
            if mask:
                wmask[offset + i] = mask
            else:
                wmask.pop(offset + i, None)

    def set_raw(self, offset: int, size: int, value: int) -> None:
        """Device-side write ignoring write masks (status updates etc.)."""
        self._check(offset, size)
        self.generation += 1
        for i in range(size):
            self._data[offset + i] = (value >> (8 * i)) & 0xFF

    def add_write_hook(
        self, offset: int, size: int, hook: Callable[[int, int, int], None]
    ) -> None:
        """Run ``hook(offset, size, value)`` after software writes that
        touch any byte of ``[offset, offset+size)``."""
        self._write_hooks.append((offset, offset + size, hook))

    # -- software-side access ------------------------------------------------
    def read(self, offset: int, size: int = 4) -> int:
        self._check(offset, size)
        return int.from_bytes(self._data[offset : offset + size], "little")

    def write(self, offset: int, value: int, size: int = 4) -> None:
        """A software configuration write: lands only on writable bits,
        then triggers any hooks covering the written bytes."""
        self._check(offset, size)
        self.generation += 1
        for i in range(size):
            byte = (value >> (8 * i)) & 0xFF
            mask = self._wmask.get(offset + i, 0)
            self._data[offset + i] = (self._data[offset + i] & ~mask) | (byte & mask)
        for start, end, hook in self._write_hooks:
            if offset < end and start < offset + size:
                hook(offset, size, value)

    # -- debugging -------------------------------------------------------------
    def hexdump(self, length: int = 64) -> str:
        """First ``length`` bytes, 16 per line, for debugging."""
        lines = []
        for base in range(0, min(length, self.size), 16):
            chunk = self._data[base : base + 16]
            lines.append(f"{base:03x}: " + " ".join(f"{b:02x}" for b in chunk))
        return "\n".join(lines)
