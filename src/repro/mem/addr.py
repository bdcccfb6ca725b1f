"""Address ranges.

An :class:`AddrRange` is a half-open interval ``[start, end)`` of
physical addresses.  Crossbars, bridges and PCI bridge windows all route
by address range, so ranges support containment, overlap and union
queries.
"""

from typing import Iterable, List


class AddrRange:
    """A half-open physical address interval ``[start, end)``."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, size: int = 0, end: int = None):
        if end is None:
            end = start + size
        if end < start:
            raise ValueError(f"range end {end:#x} below start {start:#x}")
        self.start = start
        self.end = end

    @property
    def size(self) -> int:
        """Bytes the range spans."""
        return self.end - self.start

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` lies in ``[start, end)``."""
        return self.start <= addr < self.end

    def contains_range(self, other: "AddrRange") -> bool:
        """Whether ``other`` lies wholly inside this range."""
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "AddrRange") -> bool:
        """Whether the two ranges share at least one address."""
        return self.start < other.end and other.start < self.end

    def offset(self, addr: int) -> int:
        """Offset of ``addr`` from the start of the range."""
        if not self.contains(addr):
            raise ValueError(f"{addr:#x} not in {self}")
        return addr - self.start

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AddrRange)
            and self.start == other.start
            and self.end == other.end
        )

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __contains__(self, addr: int) -> bool:
        return self.contains(addr)

    def __repr__(self) -> str:
        return f"AddrRange({self.start:#x}, end={self.end:#x})"


def union_span(ranges: Iterable[AddrRange]) -> AddrRange:
    """The smallest single range covering every input range.

    PCI bridge windows are single contiguous [base, limit] pairs, so the
    enumeration software computes spans like this when programming a
    bridge that has several devices downstream.
    """
    ranges = list(ranges)
    if not ranges:
        raise ValueError("cannot span an empty range list")
    return AddrRange(min(r.start for r in ranges), end=max(r.end for r in ranges))


def disjoint(ranges: Iterable[AddrRange]) -> bool:
    """True if no two ranges overlap."""
    ordered: List[AddrRange] = sorted(ranges, key=lambda r: r.start)
    for left, right in zip(ordered, ordered[1:]):
        if left.overlaps(right):
            return False
    return True
