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

from typing import Callable, Dict, Iterable, List, Tuple

PCI_CONFIG_SIZE = 256
PCIE_CONFIG_SIZE = 4096

#: One reset register: ``(offset, size, value, writable_mask)``.
Field = Tuple[int, int, int, int]


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
    def install(self, fields: Iterable[Field], base: int = 0) -> None:
        """Lay out reset registers in one pass: each ``(offset, size,
        value, writable_mask)`` of ``fields``, ``base`` bytes on, gets
        its reset value and the bits software may write, over bytes no
        earlier field made writable (a fresh header or capability).
        Used by device models when building their headers; a register
        left out reads zero and is read-only."""
        data, wmask = self._data, self._wmask
        for offset, size, value, mask in fields:
            offset += base
            if offset < 0 or offset + size > self.size:
                self._check(offset, size)
            data[offset:offset + size] = value.to_bytes(size, "little")
            while mask:
                if mask & 0xFF:
                    wmask[offset] = mask & 0xFF
                mask >>= 8
                offset += 1
        self.generation += 1

    def set_raw(self, offset: int, size: int, value: int) -> None:
        """Device-side write ignoring write masks (status updates etc.)."""
        if not (0 < size <= 8 and 0 <= offset and offset + size <= self.size):
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
        """The little-endian value of ``size`` bytes at ``offset``."""
        if not (0 < size <= 8 and 0 <= offset and offset + size <= self.size):
            self._check(offset, size)
        return int.from_bytes(self._data[offset : offset + size], "little")

    def write(self, offset: int, value: int, size: int = 4) -> None:
        """A software configuration write: lands only on writable bits,
        then triggers any hooks covering the written bytes."""
        if not (0 < size <= 8 and 0 <= offset and offset + size <= self.size):
            self._check(offset, size)
        self.generation += 1
        data, wmask = self._data, self._wmask
        for i in range(size):
            mask = wmask.get(offset + i)
            if mask:
                byte = (value >> (8 * i)) & mask
                data[offset + i] = (data[offset + i] & ~mask) | byte
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
