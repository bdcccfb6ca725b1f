"""Memory packets.

gem5 represents every memory/I/O transaction as a packet; the paper's
PCI-Express model reuses those packets as its transaction-layer packets
(TLPs) rather than defining a new type, and we do the same.  A
:class:`Packet` carries a command, address, size, optional payload
bytes, a requestor identity, and — added by the paper — a ``pci_bus_num``
field (initialised to −1) used by the root complex and switches to route
responses back to the requesting PCI bus.
"""

import enum
import itertools
from typing import Optional


class MemCmd(enum.Enum):
    """Packet command.  Read requests and write responses carry no
    payload; write requests and read responses carry ``size`` bytes."""

    READ_REQ = enum.auto()
    READ_RESP = enum.auto()
    WRITE_REQ = enum.auto()
    WRITE_RESP = enum.auto()
    # Configuration-space accesses (ECAM window).
    CONFIG_READ_REQ = enum.auto()
    CONFIG_READ_RESP = enum.auto()
    CONFIG_WRITE_REQ = enum.auto()
    CONFIG_WRITE_RESP = enum.auto()
    # A posted message (e.g. an MSI write): a request with no response.
    MESSAGE = enum.auto()

    @property
    def is_request(self) -> bool:
        """A request (read, write, message or config access)."""
        return self._is_request

    @property
    def is_response(self) -> bool:
        """A response to an earlier request."""
        return self._is_response

    @property
    def is_read(self) -> bool:
        """A memory or configuration read, request or response."""
        return self._is_read

    @property
    def is_write(self) -> bool:
        """A memory or configuration write, request or response, or a
        posted message."""
        return self._is_write

    @property
    def is_config(self) -> bool:
        """A configuration-space access or its response."""
        return self._is_config

    @property
    def needs_response(self) -> bool:
        """True for non-posted requests."""
        return self._needs_response

    @property
    def response_command(self) -> "MemCmd":
        """The command answering this request; ValueError for a command that
        has none."""
        try:
            return _RESPONSE_FOR[self]
        except KeyError:
            raise ValueError(f"{self} has no response command") from None


_RESPONSE_FOR = {
    MemCmd.READ_REQ: MemCmd.READ_RESP,
    MemCmd.WRITE_REQ: MemCmd.WRITE_RESP,
    MemCmd.CONFIG_READ_REQ: MemCmd.CONFIG_READ_RESP,
    MemCmd.CONFIG_WRITE_REQ: MemCmd.CONFIG_WRITE_RESP,
}
_REQUESTS = frozenset(_RESPONSE_FOR)
_RESPONSES = frozenset(_RESPONSE_FOR.values())

# Stamp plain per-member booleans once at import.  The command
# classification runs per packet on the link/crossbar hot paths, and
# ``self in frozenset`` hashes the enum on every call — hundreds of
# thousands of times per run in the benchmark profiles.
for _cmd in MemCmd:
    _cmd._is_request = _cmd in _REQUESTS or _cmd is MemCmd.MESSAGE
    _cmd._is_response = _cmd in _RESPONSES
    _cmd._is_read = _cmd in (
        MemCmd.READ_REQ,
        MemCmd.READ_RESP,
        MemCmd.CONFIG_READ_REQ,
        MemCmd.CONFIG_READ_RESP,
    )
    _cmd._is_write = _cmd in (
        MemCmd.WRITE_REQ,
        MemCmd.WRITE_RESP,
        MemCmd.CONFIG_WRITE_REQ,
        MemCmd.CONFIG_WRITE_RESP,
        MemCmd.MESSAGE,
    )
    _cmd._is_config = _cmd in (
        MemCmd.CONFIG_READ_REQ,
        MemCmd.CONFIG_READ_RESP,
        MemCmd.CONFIG_WRITE_REQ,
        MemCmd.CONFIG_WRITE_RESP,
    )
    _cmd._needs_response = _cmd in _REQUESTS
    # Commands that carry ``size`` payload bytes on the wire.
    _cmd._carries_payload = _cmd in (
        MemCmd.WRITE_REQ,
        MemCmd.READ_RESP,
        MemCmd.MESSAGE,
        MemCmd.CONFIG_WRITE_REQ,
        MemCmd.CONFIG_READ_RESP,
    )
del _cmd

# PCI-Express flow-control classes, as plain ints so this module needs
# nothing from ``repro.pcie`` (which imports *us*).  The authoritative
# enum view lives in :mod:`repro.pcie.fc` with identical values.
FLOW_P = 0  # posted: memory writes, messages (no completion expected)
FLOW_NP = 1  # non-posted: memory reads, config accesses
FLOW_CPL = 2  # completions: every *_RESP command

# Flow class follows the command's wire format, not whether this model
# happens to complete it: memory writes and messages ride posted
# credits even though the model's writes expect a WRITE_RESP (the
# paper does not post writes), reads and config accesses ride
# non-posted credits, and every response is a completion.
_FLOW_FOR = {
    MemCmd.READ_REQ: FLOW_NP,
    MemCmd.WRITE_REQ: FLOW_P,
    MemCmd.CONFIG_READ_REQ: FLOW_NP,
    MemCmd.CONFIG_WRITE_REQ: FLOW_NP,
    MemCmd.MESSAGE: FLOW_P,
}
for _cmd in MemCmd:
    _cmd._flow_class = FLOW_CPL if _cmd._is_response else _FLOW_FOR[_cmd]
del _cmd

_packet_ids = itertools.count()


class Packet:
    """A memory/I/O transaction travelling through the system.

    Attributes:
        cmd: the :class:`MemCmd`.
        addr: target physical address.
        size: transfer size in bytes.
        data: payload bytes, present only on packets whose command
            carries data.
        requestor: name of the originating component (for statistics and
            debugging; PCI-Express completers route responses by
            ``pci_bus_num``, not by this).
        req_id: transaction identity.  A response produced by
            :meth:`make_response` keeps its request's ``req_id``, which
            components use to correlate the two.
        pci_bus_num: the paper's addition to the gem5 packet class —
            the secondary bus number of the first PCI-Express port the
            request entered, −1 until stamped.
        posted: when True the request expects no response (the paper's
            model does *not* post writes; the flag exists for the
            posted-write ablation and MSI messages).
        is_request / is_response / is_read / is_write / needs_response:
            command-classification flags, stamped once at construction
            (``cmd`` never changes afterwards) so the per-hop checks on
            the link and crossbar paths are plain slot reads.
        payload_size: bytes of payload this packet carries on a wire.
            Per the paper: "The maximum TLP payload size is 0 for a read
            request or a write response and is cache line size for a
            write request or read response."
        flow_class: PCI-Express flow-control class — :data:`FLOW_P`
            (memory writes, messages), :data:`FLOW_NP` (reads, config
            accesses) or :data:`FLOW_CPL` (completions) — stamped at
            construction; :class:`repro.pcie.fc.FlowClass` is the enum
            view with identical values.
    """

    __slots__ = (
        "cmd",
        "addr",
        "size",
        "data",
        "requestor",
        "req_id",
        "pci_bus_num",
        "posted",
        "create_tick",
        # Command/flow flags, stamped once in __init__.  ``cmd`` (and
        # ``posted``, which is derived from it) never changes after
        # construction, and plain slot reads keep the per-hop
        # classification checks off the enum-hashing path.
        "is_request",
        "is_response",
        "is_read",
        "is_write",
        "needs_response",
        "payload_size",
        "flow_class",
    )

    def __init__(
        self,
        cmd: MemCmd,
        addr: int,
        size: int,
        data: Optional[bytes] = None,
        requestor: str = "",
        req_id: Optional[int] = None,
        create_tick: int = 0,
    ):
        if size < 0:
            raise ValueError(f"packet size must be non-negative, got {size}")
        if cmd is MemCmd.WRITE_REQ and data is not None and len(data) != size:
            raise ValueError(
                f"write payload length {len(data)} does not match size {size}"
            )
        self.cmd = cmd
        self.addr = addr
        self.size = size
        self.data = data
        self.requestor = requestor
        self.req_id = next(_packet_ids) if req_id is None else req_id
        self.pci_bus_num = -1
        self.posted = cmd is MemCmd.MESSAGE
        self.create_tick = create_tick
        self.is_request = cmd._is_request
        self.is_response = cmd._is_response
        self.is_read = cmd._is_read
        self.is_write = cmd._is_write
        self.needs_response = cmd._needs_response and not self.posted
        self.payload_size = size if cmd._carries_payload else 0
        self.flow_class = cmd._flow_class

    # -- convenience -------------------------------------------------------
    def make_response(self, data: Optional[bytes] = None) -> "Packet":
        """Build the matching response packet (same id, same bus number)."""
        if not self.needs_response:
            raise ValueError(f"{self} does not need a response")
        if self.cmd.is_read and data is None:
            data = bytes(self.size)
        response = Packet(
            cmd=self.cmd.response_command,
            addr=self.addr,
            size=self.size,
            data=data,
            requestor=self.requestor,
            req_id=self.req_id,
            create_tick=self.create_tick,
        )
        response.pci_bus_num = self.pci_bus_num
        return response

    def __repr__(self) -> str:
        return (
            f"<Packet #{self.req_id} {self.cmd.name} addr={self.addr:#x} "
            f"size={self.size} bus={self.pci_bus_num}>"
        )
